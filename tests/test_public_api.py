"""Guards on the public API surface.

Downstream code imports from package roots; these tests pin the
re-exports (including the lazy ones on :mod:`repro` itself) so
refactors cannot silently drop them.
"""

from __future__ import annotations

import ast
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
    "repro.automata": ["NFA", "compile_regex"],
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


def _modules_loaded_by(statement: str, watched: set[str]) -> str:
    """Which of ``watched`` a fresh interpreter loads running
    ``statement``, so modules other tests loaded do not count."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        f"import sys; {statement}; "
        f"print([m for m in {sorted(watched)!r} if m in sys.modules])"
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
    return proc.stdout.strip()


def test_cli_import_stays_off_numpy():
    # numpy's only user was the deleted shared-memory scan arena.
    watched = {"numpy", "repro.reasoning.shm"}
    assert _modules_loaded_by("import repro.cli", watched) == "[]"


def test_constraints_import_stays_off_the_upper_layers():
    # Parsing a constraint needs no query layer, no reasoning layer and
    # no process pool; a regular constraint imports the query layer
    # only when it checks a graph.
    watched = {"repro.query", "repro.reasoning", "multiprocessing"}
    assert _modules_loaded_by("import repro.constraints", watched) == "[]"


def test_query_evaluation_stays_off_the_reasoning_layer():
    # Evaluating a path query is an automaton-graph product; the
    # containment checker and the optimizer, which import the reasoning
    # layer, load on first use.
    watched = {"repro.reasoning", "repro.query.containment", "multiprocessing"}
    statement = "from repro.query import evaluate_rpq"
    assert _modules_loaded_by(statement, watched) == "[]"


#: Process pools and the named-segment machinery: every solve runs in
#: the calling thread, so nothing loads them.
POOL_MODULES = {
    "multiprocessing",
    "multiprocessing.shared_memory",
    "multiprocessing.resource_tracker",
    "concurrent.futures",
}


def test_cli_import_stays_off_named_shared_memory():
    assert _modules_loaded_by("import repro.cli", POOL_MODULES) == "[]"


def test_semidecision_solve_stays_off_process_pools():
    sigma = "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
    statement = (
        "from repro.constraints import parse_constraint, parse_constraints; "
        "from repro.reasoning import ImplicationProblem, SolveOptions, solve; "
        f"problem = ImplicationProblem(parse_constraints({sigma!r}), "
        "parse_constraint('K :: a => ()')); "
        "result = solve(problem, SolveOptions(chase_steps=2), jobs=2); "
        "assert result.method == 'bounded-countermodel', result.method"
    )
    assert _modules_loaded_by(statement, POOL_MODULES) == "[]"


#: The oldest Python ``pyproject.toml`` declares (``requires-python``).
PYTHON_FLOOR = (3, 10)

#: Names added after :data:`PYTHON_FLOOR`, by the module that has them.
NEWER_NAMES = {
    "typing": {
        "Self",
        "LiteralString",
        "Never",
        "assert_never",
        "reveal_type",
        "NotRequired",
        "Required",
        "Unpack",
        "TypeVarTuple",
    },
    "enum": {"StrEnum"},
    "asyncio": {"TaskGroup", "timeout"},
    "datetime": {"UTC"},
}
NEWER_MODULES = {"tomllib"}


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _runtime_nodes(tree: ast.AST):
    """Every node of ``tree`` outside ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                stack.extend(child.orelse)
            else:
                stack.append(child)


def _newer_names_used(tree: ast.AST) -> list[str]:
    """Imports and module attributes of ``tree`` missing at the floor."""
    used = []
    for node in _runtime_nodes(tree):
        if isinstance(node, ast.Import):
            used += [a.name for a in node.names if a.name in NEWER_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in NEWER_MODULES:
                used.append(node.module)
            newer = NEWER_NAMES.get(node.module, set())
            used += [
                f"{node.module}.{a.name}" for a in node.names if a.name in newer
            ]
        elif isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            if node.attr in NEWER_NAMES.get(node.value.id, set()):
                used.append(f"{node.value.id}.{node.attr}")
    return used


def test_sources_run_on_the_declared_python_floor():
    # Parsing at the floor's grammar catches newer syntax; the name scan
    # catches a runtime import that would raise ImportError there.
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(
            path.read_text(), str(path), feature_version=PYTHON_FLOOR
        )
        used = _newer_names_used(tree)
        if used:
            offenders[str(path.relative_to(src))] = used
    assert offenders == {}
