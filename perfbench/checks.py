"""Output checks, run after the timed region of every workload."""

from __future__ import annotations

import json
from pathlib import Path

from repro.checking import check
from repro.graph.serialize import from_dict as graph_from_dict

EXPECTED_FILE = Path(__file__).resolve().parent / "expected_verdicts.json"

#: Verdict letters used in verdict strings and the expected file.
LETTER = {"true": "T", "false": "F", "unknown": "U"}


def countermodel_ok(sigma, phi, graph) -> bool:
    """Independent re-check of a refutation: ``graph`` satisfies every
    premise and violates ``phi`` (Definition 2.1, ``repro.checking``)."""
    if isinstance(graph, dict):
        graph = graph_from_dict(graph)
    return all(check(graph, psi).holds for psi in sigma) and not check(graph, phi).holds


class Verdicts:
    """Definite verdicts per op key; a key answered two ways is a flip."""

    def __init__(self) -> None:
        self.seen: dict[object, str] = {}
        self.flips: list[str] = []

    def add(self, key: object, answer: str, where: str) -> bool:
        if answer not in ("true", "false"):
            return True
        before = self.seen.setdefault(key, answer)
        if before != answer:
            self.flips.append(f"{where}: op {key} answered {answer}, earlier {before}")
            return False
        return True


def load_expected(workload: str) -> dict | None:
    if not EXPECTED_FILE.exists():
        return None
    return json.loads(EXPECTED_FILE.read_text()).get(workload)


def compare_expected(
    workload: str, op_digest: str, letters: dict[int, str], required: bool = True
) -> list[str]:
    """Problems found comparing verdicts with the expected file."""
    expected = load_expected(workload)
    if expected is None:
        return [f"no expected verdicts for {workload}"] if required else []
    if expected["digest"] != op_digest:
        return [f"op-list digest {op_digest} differs from expected {expected['digest']}"]
    wanted = expected["verdicts"]
    return [
        f"op {index}: verdict {letter}, expected {wanted[index]}"
        for index, letter in sorted(letters.items())
        if wanted[index] != letter
    ]
