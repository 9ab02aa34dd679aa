"""Regenerate ``expected_verdicts.json`` for the default seed (0).

    python3 perfbench/expected.py

Run from the repository root.  Every op of each workload's default-seed
list is solved in-process at ``jobs=1`` (wire requests through their
un-renamed base instance), and the verdict string is stored with the
op-list digest.  Rerun only when a generator in ``inputs.py`` changes,
which changes the digest; a run whose digest no longer matches fails
its check instead of comparing against stale verdicts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import wire  # noqa: E402

from repro.reasoning import dispatcher  # noqa: E402


def letters(results) -> str:
    return "".join(checks.LETTER[answer] for answer in results)


def main() -> int:
    out = {}
    blocks, pools = inputs.decide_cold_ops(0)
    ops = [op for block in blocks for op in block]
    out["decide-cold"] = {
        "digest": inputs.digest([pools] + [op.text for op in ops]),
        "verdicts": letters(dispatcher.solve(op.problem).answer.value for op in ops),
    }
    ops = inputs.semidecide_ops(0)
    out["semidecide"] = {
        "digest": inputs.digest([op.text for op in ops]),
        "verdicts": letters(dispatcher.solve(op.problem).answer.value for op in ops),
    }
    # The wire mix grows with the run length; keep the benchmark's own.
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    count = int(round(wire.RATE_PER_S * seconds))
    mix = inputs.wire_mix(0, count)
    answers = wire.in_process_answers(mix)
    out[f"wire-mix:{count}"] = {
        "digest": mix.digest(),
        "verdicts": letters(answers[op.base] for op in mix.ops),
    }
    checks.EXPECTED_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
