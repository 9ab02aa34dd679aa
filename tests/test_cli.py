"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph import figure1_graph
from repro.graph.serialize import from_dict, to_dict

SIGMA = """
# bibliography constraints
book :: author ~> wrote
book.author => person
person.wrote => book
"""

#: The XML-Data schema the typed-context tests read.
TYPED_SCHEMA = """
<schema>
  <elementType id="cat">
    <element type="#head"/>
  </elementType>
  <elementType id="head"><string/></elementType>
</schema>
"""


@pytest.fixture
def workspace(tmp_path):
    graph_file = tmp_path / "fig1.json"
    graph_file.write_text(json.dumps(to_dict(figure1_graph())))
    sigma_file = tmp_path / "sigma.txt"
    sigma_file.write_text(SIGMA)
    return tmp_path, str(graph_file), str(sigma_file)


class TestCheck:
    def test_passing_graph(self, workspace, capsys):
        _, graph, sigma = workspace
        assert main(["check", graph, sigma]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_failing_graph(self, workspace, capsys):
        tmp, _, sigma = workspace
        g = figure1_graph()
        g.add_edge("book1", "author", "ghost")
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(to_dict(g)))
        assert main(["check", str(bad), sigma]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestImply:
    def test_word_implication(self, workspace, capsys):
        tmp, _, _ = workspace
        words = tmp / "words.txt"
        words.write_text("book.author => person\nperson.wrote => book\n")
        rc = main(["imply", str(words), "book.author.wrote => book"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "answer:     true" in out
        assert "P_w" in out and "PTIME" in out

    def test_countermodel_dump(self, workspace, capsys):
        tmp, _, sigma = workspace
        dump = tmp / "cm.json"
        rc = main(
            [
                "imply", sigma, "person => book",
                "--dump-countermodel", str(dump),
            ]
        )
        assert rc == 0
        assert "answer:     false" in capsys.readouterr().out
        # The dumped counter-model loads and is a real graph.
        graph = from_dict(json.loads(dump.read_text()))
        assert graph.node_count() >= 1

    def test_typed_context(self, workspace, tmp_path, capsys):
        schema_file = tmp_path / "schema.xml"
        schema_file.write_text(TYPED_SCHEMA)
        sigma_file = tmp_path / "s.txt"
        sigma_file.write_text("cat.member.head => cat.member.head\n")
        rc = main(
            [
                "imply", str(sigma_file), "cat => cat",
                "--context", "M+", "--schema", str(schema_file),
            ]
        )
        assert rc in (0, 2)  # definite or honest abstention

    def test_strict_mode_refuses_undecidable(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(["imply", sigma, "person :: wrote ~> author", "--strict"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_jobs_and_deadline_flags(self, workspace, capsys):
        # --jobs is gone (TestSolveFlags); --deadline bounds the
        # portfolio and its note says so.
        _, _, sigma = workspace
        rc = main(
            ["imply", sigma, "person :: wrote ~> author", "--deadline", "30"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "answer:     false" in out
        assert "fragment:   P_c  [semistructured: undecidable]" in out
        assert "engine:" in out
        assert "portfolio: deadline in" in out

    def test_deadline_zero_reports_unknown(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(
            ["imply", sigma, "person :: wrote ~> author", "--deadline", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 2  # UNKNOWN exit code
        assert "answer:     unknown" in out
        # The deadline stopped the chase, not its step budget.
        assert "note:       deadline stopped the chase after 0 steps" in out
        assert "steps exhausted" not in out

    def test_missing_schema_for_typed_context(self, workspace):
        _, _, sigma = workspace
        rc = main(["imply", sigma, "a => b", "--context", "M"])
        assert rc == 3


class TestClassify:
    def test_reports_all_contexts(self, workspace, capsys):
        _, _, sigma = workspace
        assert main(["classify", sigma, "book :: author ~> wrote"]) == 0
        out = capsys.readouterr().out
        assert "fragment: P_c" in out
        assert "M+f" in out
        assert out.count("undecidable") == 3


class TestChaseAndDot:
    def test_chase_writes_repaired_graph(self, workspace, capsys):
        tmp, _, sigma = workspace
        g = figure1_graph()
        g.add_edge("book1", "author", "ghost")
        broken = tmp / "broken.json"
        broken.write_text(json.dumps(to_dict(g)))
        out_file = tmp / "fixed.json"
        rc = main(["chase", str(broken), sigma, "-o", str(out_file)])
        assert rc == 0
        fixed = from_dict(json.loads(out_file.read_text()))
        from repro.checking.engine import satisfies_all
        from repro.constraints import parse_constraints

        assert satisfies_all(fixed, parse_constraints(SIGMA))

    def test_dot_output(self, workspace, capsys):
        _, graph, _ = workspace
        assert main(["dot", graph]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.json", "/nope.txt"]) == 3

    def test_bad_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        sigma = tmp_path / "s.txt"
        sigma.write_text("a => b")
        assert main(["check", str(bad), str(sigma)]) == 3

    def test_bad_constraint_syntax(self, workspace, tmp_path):
        _, graph, _ = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a constraint")
        assert main(["check", graph, str(bad)]) == 3


class TestImplyExitCodesAndHints:
    def test_definite_true_exits_zero(self, workspace, tmp_path):
        words = tmp_path / "w.txt"
        words.write_text("a => b\n")
        assert main(["imply", str(words), "a.c => b.c"]) == 0

    def test_unknown_exits_two(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(
            ["imply", sigma, "person :: wrote ~> author", "--deadline", "0"]
        )
        assert rc == 2
        assert "answer:     unknown" in capsys.readouterr().out

    def test_parse_error_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a constraint !!!\n")
        assert main(["imply", str(bad), "a => b"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_hint_shown_without_dump_flag(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(["imply", sigma, "person => book"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "use --dump-countermodel to save" in out

    def test_hint_suppressed_when_dumping(self, workspace, capsys, tmp_path):
        _, _, sigma = workspace
        dump = tmp_path / "cm.json"
        rc = main(
            [
                "imply", sigma, "person => book",
                "--dump-countermodel", str(dump),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "use --dump-countermodel to save" not in out
        assert f"written to {dump}" in out

    def test_no_jobs_warning_on_undecidable_cell(self, workspace, capsys):
        # A semistructured --deadline is honored on every cell, so it
        # warns on none: the undecidable P_c cell, and the decidable P_w
        # one.
        tmp, _, sigma = workspace
        words = tmp / "w.txt"
        words.write_text("a => b\n")
        for constraints, query in (
            (sigma, "person :: wrote ~> author"),
            (str(words), "a.c => b.c"),
        ):
            rc = main(["imply", constraints, query, "--deadline", "10"])
            assert rc == 0
            assert "warning:" not in capsys.readouterr().err

    def test_deadline_honored_on_word_cell_no_warning(
        self, tmp_path, capsys
    ):
        # --deadline reaches the P_w chase fallback now, so it must
        # NOT warn on semistructured decidable cells.
        words = tmp_path / "w.txt"
        words.write_text("a => b\n")
        rc = main(["imply", str(words), "a.c => b.c", "--deadline", "5"])
        assert rc == 0
        assert "warning:" not in capsys.readouterr().err


class TestChaseExitCode:
    def test_non_fixpoint_exits_one(self, workspace, capsys):
        tmp, graph, _ = workspace
        sigma = tmp / "diverge.txt"
        # Forces unbounded node creation; one step cannot reach a
        # fixpoint.
        sigma.write_text("book => book.author\n")
        rc = main(
            ["chase", graph, str(sigma), "--max-steps", "1"]
        )
        assert rc == 1
        assert "fixpoint=False" in capsys.readouterr().out


class TestFuzzCommand:
    def test_clean_sweep_exits_zero(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main(
            [
                "fuzz", "--seed", "3", "--per-fragment", "2",
                "--fragment", "P_w",
                "--json-out", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 disagreement(s)" in out
        report = json.loads(out_file.read_text())
        assert report["ok"] is True
        assert report["fragments"]["P_w"]["instances"] == 2

    def test_unknown_fragment_exits_three(self, capsys):
        rc = main(["fuzz", "--per-fragment", "1", "--fragment", "nope"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_run_prints_answers(self, workspace, capsys):
        _, graph, _ = workspace
        assert main(["query", "run", graph, "book.(ref)*.author"]) == 0
        captured = capsys.readouterr()
        assert "8 edge(s) traversed" in captured.err
        assert captured.out.strip()

    def test_contains_true_exit_zero(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(
            ["query", "contains", sigma, "book.author", "person",
             "--no-cache"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict:    true" in out
        # The workspace Sigma carries a backward constraint, so the
        # checker lands on the sound-incomplete cell and says so.
        assert "sound-word-saturation" in out
        assert "sound-incomplete" in out

    def test_contains_false_exit_zero_with_witness(
        self, workspace, capsys
    ):
        _, _, sigma = workspace
        rc = main(
            ["query", "contains", sigma, "person", "book.author",
             "--no-cache"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict:    false" in out
        assert "witness:" in out

    def test_contains_unknown_exit_two(self, tmp_path, capsys):
        sigma = tmp_path / "egd.txt"
        sigma.write_text("a => a.a\nb.b => ()\n")
        rc = main(
            ["query", "contains", str(sigma), "a.b", "c",
             "--deadline", "1", "--no-cache"]
        )
        assert rc == 2
        assert "unknown" in capsys.readouterr().out

    def test_contains_bad_pattern_exit_three(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(
            ["query", "contains", sigma, "book.((", "person",
             "--no-cache"]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_optimize_reports_pruning(self, workspace, capsys):
        _, _, sigma = workspace
        rc = main(
            ["query", "optimize", sigma,
             "book.author", "book.author", "person", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "saved:" in out
        assert "duplicate" in out

    def test_fuzz_clean_run(self, tmp_path, capsys):
        report_file = tmp_path / "fuzz.json"
        rc = main(
            ["query", "fuzz", "--seed", "0", "--rounds", "3",
             "--json-out", str(report_file)]
        )
        assert rc == 0
        payload = json.loads(report_file.read_text())
        assert payload["rounds"] == 3
        assert payload["disagreements"] == []


class TestImplyClassifiesOnce:
    def test_one_classify_per_imply(self, tmp_path, monkeypatch):
        # The decidable-cell warnings read the solved result's cell
        # instead of classifying the instance a second time.
        import sys

        from repro.reasoning import dispatcher

        original = dispatcher.classify
        calls: list = []

        def spy(sigma, phi):
            calls.append(phi)
            return original(sigma, phi)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                vars(module).get("classify") is original
            ):
                monkeypatch.setattr(module, "classify", spy)
        sigma = tmp_path / "s.txt"
        sigma.write_text("a => b\nb => c\n")
        assert main(["imply", str(sigma), "a => c", "--no-cache"]) == 0
        assert len(calls) == 1, calls


#: What ``build_parser()`` set for each solving command before the
#: shared solve flags were declared once; a refactor must keep them.
PARSER_DEFAULTS = {
    ("imply", "s", "q"): {
        "cache_dir": None,
        "command": "imply",
        "constraints": "s",
        "context": "semistructured",
        "deadline": None,
        "dump_countermodel": None,
        "no_cache": False,
        "query": "q",
        "schema": None,
        "server": None,
        "strict": False,
    },
    ("serve",): {
        "allow_delay": False,
        "cache_dir": None,
        "command": "serve",
        "deadline": None,
        "host": "127.0.0.1",
        "max_queue": 64,
        "no_cache": False,
        "port": 8747,
        "port_file": None,
        "solver_threads": 2,
        "watchdog_grace_ms": 5000,
    },
    ("query", "contains", "s", "l", "r"): {
        "cache_dir": None,
        "command": "query",
        "constraints": "s",
        "context": "semistructured",
        "deadline": None,
        "left": "l",
        "no_cache": False,
        "query_command": "contains",
        "right": "r",
        "schema": None,
    },
    ("query", "optimize", "s", "b"): {
        "branch": ["b"],
        "cache_dir": None,
        "command": "query",
        "constraints": "s",
        "context": "semistructured",
        "deadline": None,
        "no_cache": False,
        "no_rewrite": False,
        "query_command": "optimize",
        "schema": None,
    },
}

class TestSolveFlags:
    @pytest.mark.parametrize(
        "argv", sorted(PARSER_DEFAULTS), ids=" ".join
    )
    def test_parser_defaults_unchanged(self, argv):
        from repro.cli import build_parser

        parsed = vars(build_parser().parse_args(list(argv)))
        parsed.pop("func")
        assert parsed == PARSER_DEFAULTS[argv]

    def test_jobs_flag_is_refused(self, capsys):
        # Every solve runs in the calling thread; no command takes --jobs.
        from repro.cli import build_parser

        for argv in sorted(PARSER_DEFAULTS):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, "--jobs", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs 2" in (
                capsys.readouterr().err
            )

    def test_imply_and_serve_build_equal_options(
        self, tmp_path, monkeypatch
    ):
        import repro.cli as cli
        import repro.server as server
        from repro.reasoning import SolveOptions

        seen = {}
        real_solve = cli.solve

        def spy_solve(problem, options, **kwargs):
            seen["imply"] = options
            return real_solve(problem, options, **kwargs)

        class FakeServer:
            def __init__(self, config):
                seen["serve"] = config.solve

            def run(self, announce=None):
                return 0

        monkeypatch.setattr(cli, "solve", spy_solve)
        monkeypatch.setattr(server, "ImplicationServer", FakeServer)
        words = tmp_path / "w.txt"
        words.write_text("a => b\n")
        assert main(["imply", str(words), "a => b", "--no-cache"]) == 0
        assert main(["serve", "--no-cache"]) == 0
        assert seen["imply"] == seen["serve"] == SolveOptions()

    def test_serve_without_solver_threads_exits_three(
        self, monkeypatch, capsys
    ):
        # Checked before any server is built, so no port is bound.
        import repro.server as server

        built: list = []
        monkeypatch.setattr(server, "ImplicationServer", built.append)
        rc = main(["serve", "--no-cache", "--solver-threads", "0"])
        assert rc == 3
        assert built == []
        assert "solver_threads" in capsys.readouterr().err


#: ``optimize`` branches the one shared rule reads as regular
#: patterns (containment checker) or as words (word optimizer).
REGEX_BRANCHES = ["a+", "a?", "_", "(a)"]
WORD_BRANCHES = ["first_name", "a.b"]


class TestOptimizeRouting:
    @pytest.mark.parametrize(
        "branch,regex",
        [(b, True) for b in REGEX_BRANCHES]
        + [(b, False) for b in WORD_BRANCHES],
    )
    def test_branch_kind_picks_the_optimizer(
        self, branch, regex, tmp_path, monkeypatch, capsys
    ):
        import repro.query as query

        routed: list[str] = []
        real_rpq = query.optimize_rpq_union
        real_word = query.WordQueryOptimizer.optimize_union

        def rpq(branches, checker):
            routed.append("rpq")
            return real_rpq(branches, checker)

        def word(self, branches, rewrite=True):
            routed.append("word")
            return real_word(self, branches, rewrite=rewrite)

        monkeypatch.setattr(query, "optimize_rpq_union", rpq)
        monkeypatch.setattr(query.WordQueryOptimizer, "optimize_union", word)
        sigma = tmp_path / "s.txt"
        sigma.write_text("a => a\n")
        rc = main(["query", "optimize", str(sigma), branch, "--no-cache"])
        assert rc == 0, capsys.readouterr().err
        assert routed == ["rpq" if regex else "word"]

    def test_typed_word_union_goes_through_the_checker(
        self, tmp_path, capsys
    ):
        # A typed word union needs the schema, like `query contains`,
        # and drops branches outside Paths(Delta).
        schema = tmp_path / "schema.xml"
        schema.write_text(TYPED_SCHEMA)
        sigma = tmp_path / "s.txt"
        sigma.write_text("cat.member.head => cat.member.head\n")
        argv = [
            "query", "optimize", str(sigma), "cat.member.head", "zzz",
            "--context", "M+", "--no-cache",
        ]
        assert main([*argv, "--schema", str(schema)]) == 0
        out = capsys.readouterr().out
        assert "optimized:  cat.member.head\n" in out
        assert "dropped 1 branch(es) whose language misses" in out
        assert main(argv) == 3
        assert "context M+ needs a schema" in capsys.readouterr().err

    def test_plus_is_one_or_more(self, tmp_path, capsys):
        # ``a+`` contains ``a``, so ``a`` is pruned — the same answer
        # the daemon gives (tests/test_server.py).
        sigma = tmp_path / "s.txt"
        sigma.write_text("a => a\n")
        rc = main(["query", "optimize", str(sigma), "a+", "a", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimized:  a+\n" in out
