"""Seeded op lists for the four workloads.

Every list is a pure function of ``--seed``: ``random.Random`` seeded
with a string is stable across interpreters and hash seeds, so the
same seed gives the same ops and the same digest on any host.  The
program under test receives only these generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.constraints import parse_constraint
from repro.constraints.ast import PathConstraint, backward, forward, word
from repro.paths import Path
from repro.reasoning import Context, ImplicationProblem, ProblemClass, classify
from repro.reasoning.canonical import rename_constraint
from repro.types.examples import example_3_1_schema, random_m_schema
from repro.types.siggen import SchemaSignature


@dataclass
class Op:
    """One in-process implication op."""

    kind: str
    problem: ImplicationProblem
    #: The text the op-list digest covers.
    text: str


@dataclass
class WireOp:
    """One request of the open-loop wire mix, before its id is set."""

    kind: str  # "hit", "miss" or "query"
    request: dict
    #: Key of the un-renamed instance whose in-process answer this
    #: request must match.
    base: str
    sigma: list[str] = field(default_factory=list)
    phi: str = ""


def digest(texts: list[str]) -> str:
    """SHA-256 of an op list's texts, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def render(kind: str, problem: ImplicationProblem, extra: str = "") -> str:
    sigma = "; ".join(str(c) for c in problem.sigma)
    return f"{kind}|{problem.context.value}|{extra}|{sigma}|{problem.phi}"


def _path(rng: random.Random, labels: list[str], lo: int, hi: int) -> Path:
    return Path([rng.choice(labels) for _ in range(rng.randint(lo, hi))])


def _derive(rng: random.Random, rules: list[tuple[Path, Path]], start: Path) -> Path:
    """Apply up to three random prefix rewrites: ``start => result``
    is then implied, so about half the word queries are TRUE."""
    current = start
    for _ in range(rng.randint(1, 3)):
        usable = [(lhs, rhs) for lhs, rhs in rules if lhs.is_prefix_of(current)]
        if not usable:
            break
        lhs, rhs = rng.choice(usable)
        current = rhs.concat(current.strip_prefix(lhs))
    return current


def _word_problem(rng: random.Random, count: int, labels: list[str]) -> ImplicationProblem:
    sigma = [word(_path(rng, labels, 1, 3), _path(rng, labels, 1, 3)) for _ in range(count)]
    start = _path(rng, labels, 1, 3)
    if rng.random() < 0.5:
        phi = word(start, _derive(rng, [(c.lhs, c.rhs) for c in sigma], start))
    else:
        phi = word(start, _path(rng, labels, 1, 3))
    return ImplicationProblem(sigma, phi)


# ---------------------------------------------------------------------------
# decide-cold: complete deciders on distinct instances.
# ---------------------------------------------------------------------------

WORD_LABELS = ["a", "b", "c"]
LE_LABELS = ["book", "person", "author", "wrote", "ref"]
LE_CORE = [
    forward("MIT", "book.author", "person"),
    forward("MIT", "person.wrote", "book"),
    forward("MIT", "book.ref", "book.ref"),
]
LE_QUERIES = [
    forward("MIT", "book.author.wrote", "book"),
    forward("MIT", "book.ref", "book"),
    forward("MIT", "book.ref.author", "person"),
]

#: decide-cold ops per block: this many of each kind, shuffled.
COLD_PER_KIND = 10
#: Enough blocks that a 10-s run on a fast host never repeats an op.
COLD_BLOCKS = 34
#: Local-extent instances draw their decoys from a shared pool, so that
#: generating ~1000 distinct instances stays cheap.
DECOY_POOL = 1500


def local_extent_problem(rng: random.Random, decoys: int) -> ImplicationProblem:
    """The MIT core plus ``decoys`` fresh constraints on other sites."""
    sigma = LE_CORE + [_decoy(rng, i) for i in range(decoys)]
    return ImplicationProblem(sigma, rng.choice(LE_QUERIES))


def _decoy(rng: random.Random, index: int) -> PathConstraint:
    site = Path.single(f"site{index % 7}")
    ctor = forward if rng.random() < 0.5 else backward
    return ctor(site, _path(rng, LE_LABELS, 1, 3), _path(rng, LE_LABELS, 1, 3))


def _cycle(lo: int, hi: int, n: int, step: int = 1) -> int:
    """The n-th size of ``lo..hi`` visited in order: sizes are cycled,
    not drawn, so every seed gets the same spread of instance sizes."""
    return lo + (n % ((hi - lo) // step + 1)) * step


class ColdGenerator:
    """Distinct decidable instances of the three decide-cold kinds."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.decoys = [_decoy(rng, i) for i in range(DECOY_POOL)]
        self.made = {kind: 0 for kind in COLD_KINDS}
        #: Digest text of the shared decoy pool.
        self.text = "decoys|" + "; ".join(str(c) for c in self.decoys)

    def make(self, kind: str) -> Op:
        rng, n = self.rng, self.made[kind]
        self.made[kind] += 1
        if kind == "P_w":
            problem = _word_problem(rng, _cycle(24, 48, n), WORD_LABELS)
            return Op(kind, problem, render(kind, problem))
        if kind == "typed-M":
            # A fresh schema per op: with a shared pool, one hard schema
            # made every op on it slow and owned the seed's tail.
            classes, schema_seed = _cycle(8, 12, n), rng.randrange(1 << 30)
            schema = random_m_schema(classes, 2, seed=schema_seed)
            signature = SchemaSignature(schema)
            groups: dict[object, list[Path]] = {}
            for path in signature.sample_paths(4):
                if not path.is_empty():
                    groups.setdefault(signature.type_of_path(path), []).append(path)
            pools = [paths for paths in groups.values() if len(paths) >= 2]
            sigma = [word(*rng.sample(rng.choice(pools), 2)) for _ in range(_cycle(16, 32, n))]
            problem = ImplicationProblem(sigma, word(*rng.sample(rng.choice(pools), 2)), Context.M, schema)
            return Op(kind, problem, render(kind, problem, f"{classes}:{schema_seed}"))
        picked = sorted(rng.sample(range(DECOY_POOL), _cycle(100, 300, n, 10)))
        phi = rng.choice(LE_QUERIES)
        problem = ImplicationProblem(LE_CORE + [self.decoys[i] for i in picked], phi)
        return Op(kind, problem, f"{kind}|decoys {picked}|{phi}")


COLD_KINDS = ("P_w", "typed-M", "local-extent")


def decide_cold_ops(seed: int) -> tuple[list[list[Op]], str]:
    """Blocks of distinct decidable instances, kinds interleaved, and
    the digest text of the pools they draw from."""
    gen = ColdGenerator(random.Random(f"decide-cold:{seed}"))
    blocks = []
    for _ in range(COLD_BLOCKS):
        kinds = [kind for kind in COLD_KINDS for _ in range(COLD_PER_KIND)]
        gen.rng.shuffle(kinds)
        blocks.append([gen.make(kind) for kind in kinds])
    return blocks, gen.text


def decide_cold_warmup(seed: int) -> list[Op]:
    gen = ColdGenerator(random.Random(f"decide-cold-warmup:{seed}"))
    return [gen.make(kind) for kind in COLD_KINDS]


# ---------------------------------------------------------------------------
# semidecide: the undecidable cells through the portfolio.
# ---------------------------------------------------------------------------

#: Race templates whose cost is fixed by their shape: the chase runs
#: its full 2000-step budget on all of them, then either its verdict
#: stands ("chase-true"), a small countermodel settles FALSE
#: ("countermodel"), or the whole 3-node code space (2^18+2^8+2^2
#: codes over two labels) is scanned in vain ("exhaustive").  Each
#: seed renames their labels; the random draws below vary everything
#: else.
HEAVY_TEMPLATES = [
    ("P_w(K)", ["K :: a => a.a", "K :: a => a"], "K :: a => a", "chase-true"),
    ("P_c", ["b :: a => a.a", "b ~> a"], "b ~> a", "chase-true"),
    ("P_c", ["a :: b => b.b"], "a :: b ~> a", "countermodel"),
    ("P_w(K)", ["K :: a => a.a"], "K :: a => K", "countermodel"),
    ("P_c", ["a => a.b", "a ~> b"], "a ~> b", "exhaustive"),
]

#: M+ constraints over Example 3.1's schema.  Conclusions have one
#: label, so the chase adds edges but never nodes and always stops.
MPLUS_CONSTRAINTS = [
    "book.author => person",
    "person.wrote => book",
    "book.ref => book",
    "book :: author ~> wrote",
    "person :: wrote ~> author",
    "book :: ref ~> ref",
    "book.author.wrote => book",
    "book.ref.author => person",
    "person.wrote.author => person",
    "person.wrote.ref => book",
    "book :: ref.author => author",
    "person :: wrote.ref => wrote",
]

SEMI_LIGHT_PER_KIND = 45
SEMI_MPLUS = 4
BODY_POOL = ["a", "b", "c", "d"]
GUARD_POOL = ["K", "G", "H"]


def _light_pc(rng: random.Random, labels: list[str]) -> ImplicationProblem:
    """Random P_c whose conclusions have at most one label: the chase
    then only adds edges or merges nodes, so it always terminates."""

    def constraint() -> PathConstraint:
        ctor = backward if rng.random() < 0.4 else forward
        rhs_lo = 0 if rng.random() < 0.15 else 1
        return ctor(_path(rng, labels, 0, 2), _path(rng, labels, 1, 2), _path(rng, labels, rhs_lo, 1))

    for _ in range(64):
        sigma = [constraint() for _ in range(3)]
        phi = rng.choice(sigma) if rng.random() < 0.3 else constraint()
        if classify(sigma, phi) is ProblemClass.GENERAL:
            return ImplicationProblem(sigma, phi)
    raise AssertionError("P_c draw failed to classify")


def _light_pwk(rng: random.Random, body: str, guard: str) -> ImplicationProblem:
    labels = [body]

    def constraint(guarded: bool) -> PathConstraint:
        lhs, rhs = _path(rng, labels, 1, 2), _path(rng, labels, 1, 1)
        return forward(guard, lhs, rhs) if guarded else word(lhs, rhs)

    for _ in range(64):
        sigma = [constraint(rng.random() < 0.6) for _ in range(3)]
        if rng.random() < 0.3:
            phi = rng.choice(sigma)
        else:
            rhs = _path(rng, labels + [guard], 0, 2)
            prefix = Path.single(guard) if rng.random() < 0.6 else Path.empty()
            phi = forward(prefix, _path(rng, labels, 1, 2), rhs)
        if classify(sigma, phi) is ProblemClass.PW_K:
            return ImplicationProblem(sigma, phi)
    raise AssertionError("P_w(K) draw failed to classify")


def _mplus(rng: random.Random, schema) -> ImplicationProblem:
    picked = rng.sample(MPLUS_CONSTRAINTS, rng.randint(2, 4))
    sigma = [parse_constraint(text) for text in picked[:-1]]
    return ImplicationProblem(sigma, parse_constraint(picked[-1]), Context.M_PLUS, schema)


def semidecide_ops(seed: int) -> list[Op]:
    """One pass: the renamed race templates, M+ draws and light draws,
    shuffled.  The serial and pool workloads run the same list."""
    rng = random.Random(f"semidecide:{seed}")
    x, y = rng.sample(BODY_POOL, 2)
    body, guard = rng.choice(BODY_POOL), rng.choice(GUARD_POOL)
    pc_map = {"a": x, "b": y}
    pwk_map = {"a": body, "K": guard}
    ops = []
    for kind, sigma, phi, _outcome in HEAVY_TEMPLATES:
        mapping = pc_map if kind == "P_c" else pwk_map
        problem = ImplicationProblem(
            [rename_constraint(parse_constraint(s), mapping) for s in sigma],
            rename_constraint(parse_constraint(phi), mapping),
        )
        ops.append(Op(kind, problem, render(kind, problem)))
    schema = example_3_1_schema()
    for _ in range(SEMI_MPLUS):
        problem = _mplus(rng, schema)
        ops.append(Op("M+", problem, render("M+", problem, "example_3_1")))
    for _ in range(SEMI_LIGHT_PER_KIND):
        problem = _light_pc(rng, [x, y])
        ops.append(Op("P_c", problem, render("P_c", problem)))
        problem = _light_pwk(rng, body, guard)
        ops.append(Op("P_w(K)", problem, render("P_w(K)", problem)))
    rng.shuffle(ops)
    return ops


def semidecide_warmup(seed: int) -> list[Op]:
    """A few light draws (not measured) that load code paths and, at
    ``jobs=2``, lease the warm pool."""
    rng = random.Random(f"semidecide-warmup:{seed}")
    ops = []
    for _ in range(3):
        problem = _light_pc(rng, ["a", "b"])
        ops.append(Op("P_c", problem, render("P_c", problem)))
    return ops


# ---------------------------------------------------------------------------
# wire-mix: repeats of a primed working set, fresh misses, queries.
# ---------------------------------------------------------------------------

WIRE_WORKING_WORDS = 21
#: Premise counts, cycled: working-set P_w members, then misses/queries.
WIRE_HIT_PREMISES = (8, 16)
WIRE_MISS_PREMISES = (4, 8)
#: Decoy counts of the working set's local-extent members.  Fixed, not
#: drawn: the slowest hits set the tail, so their size must not vary
#: with the seed.  One member makes them ~2.7% of requests (about 20 in
#: a 10-s run), so the tail rank (10 beyond) falls in the middle of
#: their latencies rather than on the few that queued behind another.
WIRE_WORKING_LE = (200,)
BUDGET_MS = 5000
RENAME_POOL = [f"l{i}" for i in range(48)]


def _lines(problem: ImplicationProblem) -> tuple[list[str], str]:
    return [str(c) for c in problem.sigma], str(problem.phi)


def _imply_request(index: int, sigma: list[str], phi: str) -> dict:
    """An imply request; every other one carries a (never reached) budget."""
    request = {"v": 1, "op": "imply", "sigma": sigma, "phi": phi}
    if index % 2:
        request["budget_ms"] = BUDGET_MS
    return request


@dataclass
class WireMix:
    primes: list[WireOp]
    ops: list[WireOp]
    #: base key -> the un-renamed instance (an ImplicationProblem, or a
    #: (sigma, left, right) triple for queries).
    bases: dict

    def digest(self) -> str:
        texts = [json.dumps(op.request, sort_keys=True) for op in self.primes + self.ops]
        return digest(texts)


def wire_mix(seed: int, count: int) -> WireMix:
    rng = random.Random(f"wire-mix:{seed}")
    # Sizes cycle through 8..16 premises rather than being drawn, so the
    # typical hit costs the same whatever the seed.
    lo, hi = WIRE_HIT_PREMISES
    working = [_word_problem(rng, lo + index % (hi - lo + 1), WORD_LABELS)
               for index in range(WIRE_WORKING_WORDS)]
    working += [local_extent_problem(rng, decoys) for decoys in WIRE_WORKING_LE]
    bases: dict = {}
    primes = []
    for index, problem in enumerate(working):
        key = f"ws{index}"
        bases[key] = problem
        sigma, phi = _lines(problem)
        primes.append(WireOp("prime", {"v": 1, "op": "imply", "sigma": sigma, "phi": phi}, key, sigma, phi))
    # Exact proportions per block of 20 (12 hits, 5 misses, 3 queries),
    # hits spread evenly over the working set and sizes cycled, so the
    # seed moves which instances and when, not how much work.
    kinds = ["hit"] * 12 + ["miss"] * 5 + ["query"] * 3
    members: list[int] = []
    ops = []
    for index in range(count):
        if index % len(kinds) == 0:
            rng.shuffle(kinds)
        kind = kinds[index % len(kinds)]
        if kind == "hit":
            if not members:
                members = list(range(len(working)))
                rng.shuffle(members)
            member = members.pop()
            problem = working[member]
            labels = sorted(set().union(*(c.alphabet() for c in problem.sigma), problem.phi.alphabet()))
            mapping = dict(zip(labels, rng.sample(RENAME_POOL, len(labels))))
            sigma = [str(rename_constraint(c, mapping)) for c in problem.sigma]
            phi = str(rename_constraint(problem.phi, mapping))
            ops.append(WireOp(kind, _imply_request(index, sigma, phi), f"ws{member}", sigma, phi))
            continue
        lo, hi = WIRE_MISS_PREMISES
        problem = _word_problem(rng, lo + index % (hi - lo + 1), WORD_LABELS)
        key = f"{kind}{index}"
        sigma, phi = _lines(problem)
        if kind == "miss":
            bases[key] = problem
            ops.append(WireOp(kind, _imply_request(index, sigma, phi), key, sigma, phi))
        else:
            left, right = str(_path(rng, WORD_LABELS, 1, 3)), str(_path(rng, WORD_LABELS, 1, 3))
            bases[key] = (problem.sigma, left, right)
            request = {"v": 1, "op": "query", "action": "contains", "sigma": sigma, "left": left, "right": right}
            ops.append(WireOp(kind, request, key, sigma))
    return WireMix(primes, ops, bases)
