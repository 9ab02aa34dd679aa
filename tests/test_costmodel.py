"""Execution dispatch: validation, sizing, and the pool rule.

The regression under test: PR 2's pool portfolio could *lose* to the
sequential pipeline because ``jobs`` was treated as a command.  A scan
is priced from its closed-form ``2^(L*n^2)`` space size (or typed
instance limit) and pools only on two or more usable CPUs past a
fixed per-kind size.
"""

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import Context, ImplicationProblem, solve
from repro.reasoning import costmodel
from repro.reasoning.costmodel import (
    ExecMode,
    available_cpus,
    choose_execution,
    estimate_untyped_codes,
    normalize_jobs,
    validate_jobs,
    validate_max_respawns,
)


class TestValidateJobs:
    @pytest.mark.parametrize("jobs", [1, 2, 8, 64])
    def test_positive_ints_pass_through(self, jobs):
        assert validate_jobs(jobs) == jobs

    @pytest.mark.parametrize("jobs", ["auto", "AUTO", "  auto  "])
    def test_auto_is_normalized(self, jobs):
        assert validate_jobs(jobs) == "auto"

    @pytest.mark.parametrize(
        "jobs", [0, -1, -8, 1.5, 2.0, True, False, None, "fast", "", "2"]
    )
    def test_nonsense_raises_value_error(self, jobs):
        with pytest.raises(ValueError):
            validate_jobs(jobs)

    def test_normalize_resolves_auto_to_cpu_count(self):
        assert normalize_jobs("auto") == available_cpus()
        assert normalize_jobs(3) == 3


class TestValidateMaxRespawns:
    @pytest.mark.parametrize("value", [0, 1, 5])
    def test_non_negative_ints_pass(self, value):
        assert validate_max_respawns(value) == value

    @pytest.mark.parametrize("value", [-1, 1.5, True, None, "2"])
    def test_nonsense_raises(self, value):
        with pytest.raises(ValueError):
            validate_max_respawns(value)


class TestDispatcherValidation:
    """Satellite regression: solve() rejects bad knobs before any work."""

    def _problem(self):
        return ImplicationProblem(
            parse_constraints("a => b"),
            parse_constraint("a => c"),
            Context.SEMISTRUCTURED,
        )

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, "fast", True])
    def test_bad_jobs(self, jobs):
        with pytest.raises(ValueError):
            solve(self._problem(), jobs=jobs)

    @pytest.mark.parametrize("value", [-1, 0.5, "many"])
    def test_bad_max_respawns(self, value):
        with pytest.raises(ValueError):
            solve(self._problem(), max_respawns=value)

    def test_auto_is_accepted_on_every_cell(self):
        # Decidable cell: validation passes, routing ignores jobs.
        result = solve(self._problem(), jobs="auto")
        assert result.answer.is_definite


class TestEstimate:
    def test_closed_form_matches_hand_sum(self):
        # L=1: 2^1 + 2^4 + 2^9 = 530
        assert estimate_untyped_codes(1, 3) == 2 + 16 + 512
        assert estimate_untyped_codes(2, 2) == 4 + 256

    def test_zero_levels_is_zero(self):
        assert estimate_untyped_codes(3, 0) == 0

    def test_huge_spaces_cap_instead_of_bigint(self):
        assert estimate_untyped_codes(5, 10) == 1 << 62

    def test_negative_args_raise(self):
        with pytest.raises(ValueError):
            estimate_untyped_codes(-1, 2)


class TestChooseExecution:
    def test_sequential_request_stays_inline(self):
        d = choose_execution(
            kind="untyped", work_units=1000, jobs=1, cpus=8
        )
        assert d.mode is ExecMode.INLINE and d.jobs == 1

    def test_small_space_never_pays_for_a_pool(self):
        d = choose_execution(
            kind="untyped", work_units=530, jobs=8, cpus=8
        )
        assert d.mode is ExecMode.INLINE

    def test_one_cpu_never_chooses_the_pool(self):
        # The original regression: jobs=2 on a 1-CPU box must not
        # spawn processes that only add overhead.
        d = choose_execution(
            kind="untyped", work_units=1 << 25, jobs=2, cpus=1
        )
        assert d.mode is not ExecMode.POOL

    def test_large_space_many_cpus_pools(self):
        d = choose_execution(
            kind="untyped", work_units=1 << 25, jobs=8, cpus=8
        )
        assert d.mode is ExecMode.POOL
        assert d.jobs == 8

    def test_jobs_is_a_cap_not_a_command(self):
        d = choose_execution(
            kind="untyped", work_units=1 << 25, jobs=64, cpus=4
        )
        assert d.jobs <= 4

    def test_forced_pool_requires_two_jobs(self):
        with pytest.raises(ValueError):
            choose_execution(
                kind="untyped",
                work_units=10,
                jobs=1,
                forced=ExecMode.POOL,
            )

    def test_forced_mode_is_recorded(self):
        d = choose_execution(
            kind="untyped",
            work_units=10,
            jobs=2,
            cpus=1,
            forced=ExecMode.POOL,
        )
        assert d.mode is ExecMode.POOL and d.forced
        assert "forced" in d.describe()
        assert d.to_dict()["forced"] is True

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            choose_execution(kind="quantum", work_units=1, jobs=1)


class TestPoolRule:
    """Pool iff min(jobs, cpus) >= 2 and the scan exceeds its kind's
    constant: both sides of each constant, 1 and 2 CPUs, and jobs
    given as 1, 2 or "auto" (resolved against the same CPU count)."""

    @pytest.mark.parametrize("jobs", [1, 2, "auto"])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "kind,work,large",
        [
            ("untyped", 34_000, False),
            ("untyped", 34_001, True),
            ("typed", 1_800, False),
            ("typed", 1_801, True),
        ],
    )
    def test_table(self, monkeypatch, kind, work, large, cpus, jobs):
        monkeypatch.setattr(costmodel, "available_cpus", lambda: cpus)
        d = choose_execution(
            kind=kind, work_units=work, jobs=normalize_jobs(jobs)
        )
        pooled = large and cpus == 2 and jobs != 1
        assert d.mode is (ExecMode.POOL if pooled else ExecMode.INLINE)
        assert d.jobs == (2 if pooled else 1)
        assert d.cpus == cpus and d.estimated_work == work
