"""Guards on the public API surface.

Downstream code imports from package roots; these tests pin the
re-exports (including the lazy ones on :mod:`repro` itself) so
refactors cannot silently drop them.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "name",
        [
            "Path",
            "EPSILON",
            "Graph",
            "Signature",
            "figure1_graph",
            "PathConstraint",
            "Direction",
            "forward",
            "backward",
            "word",
            "parse_constraint",
            "parse_constraints",
            "ReproError",
            "Trilean",
        ],
    )
    def test_eager_exports(self, name):
        assert hasattr(repro, name)

    @pytest.mark.parametrize(
        "name",
        [
            "check",
            "check_all",
            "implies_word",
            "implies_local_extent",
            "implies_typed_m",
            "solve",
            "ImplicationProblem",
            "Schema",
        ],
    )
    def test_lazy_exports(self, name):
        assert getattr(repro, name) is not None

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing


PACKAGE_EXPORTS = {
    "repro.graph": ["Graph", "Signature", "figure1_graph", "random_graph"],
    "repro.constraints": [
        "PathConstraint",
        "parse_constraints",
        "is_in_pw_k",
        "partition_bounded",
        "RegularConstraint",
    ],
    "repro.automata": ["NFA", "DFA", "compile_regex"],
    "repro.rewriting": ["PrefixRewriteSystem", "RewriteStep"],
    "repro.monoids": [
        "MonoidPresentation",
        "FiniteMonoid",
        "Homomorphism",
        "decide_word_problem",
    ],
    "repro.types": [
        "Schema",
        "SchemaSignature",
        "Instance",
        "check_type_constraint",
        "MEMBERSHIP_LABEL",
    ],
    "repro.checking": ["check", "check_all", "violations", "IncrementalChecker"],
    "repro.reasoning": [
        "WordImplicationDecider",
        "TypedImplicationDecider",
        "implies_local_extent",
        "chase",
        "chase_implication",
        "IrProof",
        "check_proof",
        "solve",
        "classify",
        "table1_cell",
        "interaction_report",
    ],
    "repro.reductions": [
        "encode_pwk",
        "figure2_structure",
        "figure3_structure",
        "encode_mplus",
        "figure4_structure",
    ],
    "repro.xml": ["parse_xml", "document_to_graph", "schema_from_xml_data"],
    "repro.query": ["evaluate_rpq", "evaluate_word", "WordQueryOptimizer"],
}


@pytest.mark.parametrize(
    "module_name,names",
    sorted(PACKAGE_EXPORTS.items()),
    ids=sorted(PACKAGE_EXPORTS),
)
def test_package_exports(module_name, names):
    module = importlib.import_module(module_name)
    for name in names:
        assert hasattr(module, name), f"{module_name} lost {name}"
    declared = getattr(module, "__all__", None)
    if declared is not None:
        for name in names:
            assert name in declared


def test_cli_entrypoint_importable():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.prog == "repro"


def test_cli_import_stays_off_numpy():
    # A fresh interpreter, so modules other tests loaded do not count.
    # numpy's only user was the deleted shared-memory scan arena.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, repro.cli; "
        "print(sorted({'numpy', 'repro.reasoning.shm'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
