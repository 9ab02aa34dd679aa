"""Execution dispatch: validation and the pool rule.

The regression under test: PR 2's pool portfolio could *lose* to the
sequential pipeline because ``jobs`` was treated as a command.  A
typed scan is priced by its instance limit and pools only on two or
more usable CPUs past a fixed size; an untyped search runs inline
unless the caller pins the pool.
"""

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import Context, ImplicationProblem, solve
from repro.reasoning import costmodel
from repro.reasoning.costmodel import (
    POOL_MIN_WORK,
    ExecMode,
    available_cpus,
    choose_execution,
    normalize_jobs,
    validate_jobs,
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

    def test_auto_is_accepted_on_every_cell(self):
        # Decidable cell: validation passes, routing ignores jobs.
        result = solve(self._problem(), jobs="auto")
        assert result.answer.is_definite


class TestChooseExecution:
    def test_sequential_request_stays_inline(self):
        d = choose_execution(
            kind="untyped", work_units=1000, jobs=1, cpus=8
        )
        assert d.mode is ExecMode.INLINE and d.jobs == 1

    def test_small_space_never_pays_for_a_pool(self):
        d = choose_execution(kind="typed", work_units=530, jobs=8, cpus=8)
        assert d.mode is ExecMode.INLINE

    def test_one_cpu_never_chooses_the_pool(self):
        # The original regression: jobs=2 on a 1-CPU box must not
        # spawn processes that only add overhead.
        d = choose_execution(
            kind="typed", work_units=1 << 25, jobs=2, cpus=1
        )
        assert d.mode is not ExecMode.POOL

    def test_large_space_many_cpus_pools(self):
        d = choose_execution(
            kind="typed", work_units=1 << 25, jobs=8, cpus=8
        )
        assert d.mode is ExecMode.POOL
        assert d.jobs == 8

    def test_jobs_is_a_cap_not_a_command(self):
        d = choose_execution(
            kind="typed", work_units=1 << 25, jobs=64, cpus=4
        )
        assert d.jobs <= 4

    def test_auto_never_pools_untyped(self):
        d = choose_execution(kind="untyped", jobs=8, cpus=8)
        assert d.mode is ExecMode.INLINE and d.jobs == 1
        assert "untyped" in d.reason

    def test_pinned_pool_pools_untyped(self):
        d = choose_execution(
            kind="untyped", jobs=4, cpus=8, forced=ExecMode.POOL
        )
        assert d.mode is ExecMode.POOL and d.jobs == 4 and d.forced

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
    """Typed: pool iff min(jobs, cpus) >= 2 and the scan exceeds
    :data:`POOL_MIN_WORK`; a scan at the retired 1,800-instance
    constant runs inline.  Untyped: never pooled in auto mode, on
    either side of the retired 34,000-code constant.  Both sides of
    each constant, 1 and 2 CPUs, and jobs given as 1, 2 or "auto"
    (resolved against the same CPU count)."""

    @pytest.mark.parametrize("jobs", [1, 2, "auto"])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "kind,work,large",
        [
            ("untyped", 34_000, False),
            ("untyped", 34_001, True),
            ("typed", 1_800, False),
            ("typed", POOL_MIN_WORK["typed"], False),
            ("typed", POOL_MIN_WORK["typed"] + 1, True),
        ],
    )
    def test_table(self, monkeypatch, kind, work, large, cpus, jobs):
        monkeypatch.setattr(costmodel, "available_cpus", lambda: cpus)
        d = choose_execution(
            kind=kind, work_units=work, jobs=normalize_jobs(jobs)
        )
        pooled = kind == "typed" and large and cpus == 2 and jobs != 1
        assert d.mode is (ExecMode.POOL if pooled else ExecMode.INLINE)
        assert d.jobs == (2 if pooled else 1)
        assert d.cpus == cpus and d.estimated_work == work
