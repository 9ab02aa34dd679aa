"""SolveOptions: one validated value says how every solve runs."""

from __future__ import annotations

import dataclasses

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import (
    DEFAULT_SOLVE_OPTIONS,
    ImplicationProblem,
    SolveOptions,
    solve,
)
from repro.reasoning.faultinject import FaultPlan
from repro.truth import Trilean


class TestValidation:
    @pytest.mark.parametrize(
        "settings",
        [
            {"typed_search_limit": 0},
            {"typed_search_limit": -5},
        ],
    )
    def test_bad_settings_raise_when_built(self, settings):
        with pytest.raises(ValueError):
            SolveOptions(**settings)

    @pytest.mark.parametrize(
        "settings",
        [
            {},
            {"typed_search_limit": 1},
            {"typed_search_limit": 50_000},
            {"countermodel_nodes": 5},
            {"inject": FaultPlan.from_spec("raise:1")},
            {"chase_steps": 10, "countermodel_nodes": 2},
            {"allow_semidecision": False, "with_proof": True},
        ],
    )
    def test_good_settings_build(self, settings):
        options = SolveOptions(**settings)
        for name, value in settings.items():
            assert getattr(options, name) == value

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_SOLVE_OPTIONS.chase_steps = 0  # type: ignore[misc]

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DEFAULT_SOLVE_OPTIONS, typed_search_limit=0)


class TestDefaults:
    def test_shared_default_equals_a_fresh_value(self):
        assert DEFAULT_SOLVE_OPTIONS == SolveOptions()

    def test_defaults(self):
        options = SolveOptions()
        assert options.allow_semidecision is True
        assert options.chase_steps == 2_000
        assert options.countermodel_nodes == 3
        assert options.typed_search_limit == 2_000
        assert options.with_proof is False
        assert options.inject is None

    def test_fields_are_exactly_the_solve_settings(self):
        assert [f.name for f in dataclasses.fields(SolveOptions)] == [
            "allow_semidecision",
            "chase_steps",
            "countermodel_nodes",
            "typed_search_limit",
            "with_proof",
            "inject",
        ]

    def test_solve_and_portfolio_default_to_the_shared_instance(self):
        import inspect

        from repro.reasoning import interaction_report, run_portfolio

        for fn in (solve, run_portfolio, interaction_report):
            default = inspect.signature(fn).parameters["options"].default
            assert default is DEFAULT_SOLVE_OPTIONS, fn.__name__


class TestThroughSolve:
    def test_options_reach_the_portfolio(self):
        # A starved chase leaves the counter-model search to decide.
        problem = ImplicationProblem(
            parse_constraints(
                "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
            ),
            parse_constraint("K :: a => ()"),
        )
        options = SolveOptions(chase_steps=2)
        result = solve(problem, options, jobs=2)
        assert result.answer is Trilean.FALSE
        assert result.method == "bounded-countermodel"
        chase = next(s for s in result.stats if s.engine == "chase")
        assert chase.candidates == 2

    def test_typed_search_limit_reaches_the_scan(self, bib_schema):
        # The first instance of the stream refutes phi; limit 1 scans it
        # and nothing more.
        problem = ImplicationProblem(
            parse_constraints("book.ref => book"),
            parse_constraint("book => person"),
            "M+",
            schema=bib_schema,
        )
        result = solve(problem, SolveOptions(typed_search_limit=1))
        search = next(
            s for s in result.stats if s.engine == "typed-countermodel"
        )
        assert search.candidates == 1
        assert result.answer is Trilean.FALSE
