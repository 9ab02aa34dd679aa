"""Differential cross-validation of the Table 1 engines.

DESIGN.md's reproduction contract asks for *empirical agreement of
each decider with an independent oracle* on every Table 1 cell.  The
hand-picked fixtures in ``tests/`` witness agreement on a few dozen
instances; this package hunts for disagreements on millions more:

* :mod:`repro.diffcheck.generators` — seeded random instance
  generators, one per constraint fragment (P_w with and without
  equality-generating conclusions, P_w(K), local extent, general P_c,
  and typed instances paired with random M schemas);
* :mod:`repro.diffcheck.oracles` — the engine matrix: every generated
  instance runs through every applicable engine (complete deciders,
  the chase, tableau and brute-force counter-model search, the
  portfolio, the U_f(Delta) enumerator), with
  three-valued-aware disagreement detection and independent
  re-verification of every certificate;
* :mod:`repro.diffcheck.shrink` — a delta-debugging shrinker that
  minimizes a disagreeing instance (dropping premises, shortening
  paths) while the disagreement reproduces, and renders the result as
  a ready-to-paste regression test;
* :mod:`repro.diffcheck.runner` — the ``repro fuzz`` driver with a
  machine-readable JSON report.

The finite/unrestricted boundary under type-like constraints is
exactly where implementations drift apart silently (Amarilli &
Benedikt 2015; Toman & Weddell 2005-2008 on DLFD), so the harness is
the correctness backbone the Table 1 benchmarks sit on.
"""

from repro.diffcheck.generators import (
    FRAGMENT_GENERATORS,
    FragmentInstance,
    generate_instance,
)
from repro.diffcheck.oracles import (
    Disagreement,
    EngineVerdict,
    OracleConfig,
    find_disagreements,
    run_engines,
    run_named_engine,
)
from repro.diffcheck.queryfuzz import (
    QueryDisagreementRecord,
    QueryFuzzReport,
    fuzz_queries,
)
from repro.diffcheck.shrink import emit_regression_test, shrink_instance
from repro.diffcheck.runner import FuzzReport, fuzz, make_reproducer

__all__ = [
    "FRAGMENT_GENERATORS",
    "FragmentInstance",
    "generate_instance",
    "Disagreement",
    "EngineVerdict",
    "OracleConfig",
    "find_disagreements",
    "run_engines",
    "run_named_engine",
    "emit_regression_test",
    "shrink_instance",
    "FuzzReport",
    "fuzz",
    "make_reproducer",
    "QueryDisagreementRecord",
    "QueryFuzzReport",
    "fuzz_queries",
]
