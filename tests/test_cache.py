"""The cross-request implication cache: tiers, replay, hygiene, CLI.

Ground rules under test (see ``repro/reasoning/cache.py``):

* a hit replays the stored verdict — including an alpha-renamed
  counter-model that re-verifies against the *current* instance;
* UNKNOWN and fault-degraded results are never stored; ``with_proof``
  always solves fresh (but still stores);
* the disk tier survives corruption (quarantine + warning, never a
  crash) and concurrent writers (atomic rename);
* version stamps invalidate stale entries;
* the CLI exposes it all (``imply --no-cache/--cache-dir``,
  ``cache stats/clear``) and ``fuzz --cache-check`` proves the cache
  never flips a verdict.
"""

from __future__ import annotations

import json
import threading
import warnings

import pytest

from repro.cli import main
from repro.constraints.ast import forward, word
from repro.diffcheck.oracles import verify_countermodel
from repro.diffcheck.runner import fuzz
from repro.reasoning import (
    ImplicationCache,
    ImplicationProblem,
    SolveOptions,
    solve,
)
from repro.reasoning.cache import (
    ENV_CACHE_DIR,
    CacheInfo,
    make_entry,
    resolve_cache_dir,
    version_tag,
)
from repro.reasoning.canonical import canonicalize_problem, rename_constraint
from repro.truth import Trilean


def _true_problem():
    """P_w chain, decided TRUE by the complete word decider."""
    sigma = [forward((), ("a",), ("b",)), forward((), ("b",), ("c",))]
    return ImplicationProblem(sigma, forward((), ("a",), ("c",)))


def _false_problem():
    """P_w(K) non-implication, refuted by counter-model search."""
    sigma = [forward(("K",), ("a",), ("b",))]
    return ImplicationProblem(sigma, forward(("K",), ("b",), ("a",)))


def _unknown_budgets():
    """Budgets under which ``_hard_true_problem`` returns UNKNOWN."""
    return SolveOptions(chase_steps=1, countermodel_nodes=1)


def _hard_true_problem():
    sigma = [
        forward(("K",), ("a",), ("b",)),
        forward(("K",), ("b",), ("c",)),
        forward(("K",), ("c",), ("d",)),
    ]
    return ImplicationProblem(sigma, forward(("K",), ("a",), ("d",)))


class TestMemoryTier:
    def test_store_then_hit_replays_verdict(self):
        cache = ImplicationCache()
        first = solve(_true_problem(), cache=cache)
        assert first.cache.status == "store"
        assert first.cache.tier == "memory"
        second = solve(_true_problem(), cache=cache)
        assert second.cache.status == "hit"
        assert second.cache.tier == "memory"
        assert second.answer is first.answer
        assert second.method == first.method
        assert second.complexity == first.complexity
        assert second.cache.key == first.cache.key

    def test_alpha_renamed_hit_with_verified_countermodel(self):
        cache = ImplicationCache()
        base = _false_problem()
        first = solve(base, cache=cache)
        assert first.answer is Trilean.FALSE
        assert first.cache.status == "store"

        mapping = {"K": "guard", "a": "left", "b": "right"}
        renamed = ImplicationProblem(
            [rename_constraint(psi, mapping) for psi in base.sigma],
            rename_constraint(base.phi, mapping),
        )
        hit = solve(renamed, cache=cache)
        assert hit.cache.status == "hit"
        assert hit.answer is Trilean.FALSE
        # The replayed counter-model speaks the *renamed* alphabet and
        # independently re-verifies against the renamed instance.
        assert hit.countermodel is not None
        labels = {label for _, label, _ in hit.countermodel.edges()}
        assert labels <= {"guard", "left", "right"}
        assert verify_countermodel(hit.countermodel, renamed.sigma, renamed.phi)

    def test_unknown_never_cached(self):
        cache = ImplicationCache()
        result = solve(_hard_true_problem(), _unknown_budgets(), cache=cache)
        assert result.answer is Trilean.UNKNOWN
        assert result.cache.status == "miss"
        assert "UNKNOWN" in result.cache.detail
        assert cache.stats()["memory"]["entries"] == 0
        # A later well-budgeted definite answer lands in the cache and
        # is replayed even for the budget-starved call: definite
        # answers are budget-independent facts.
        good = solve(_hard_true_problem(), cache=cache)
        assert good.answer is Trilean.TRUE
        assert good.cache.status == "store"
        starved = solve(_hard_true_problem(), _unknown_budgets(), cache=cache)
        assert starved.cache.status == "hit"
        assert starved.answer is Trilean.TRUE

    def test_fault_degraded_answer_is_not_stored(self, monkeypatch):
        # The chase raises and forfeits; the search's FALSE stands but
        # is not stored, since the run was not clean.
        from repro.reasoning import portfolio

        def broken_chase(*args, **kwargs):
            raise ValueError("engine bug")

        monkeypatch.setattr(portfolio, "chase_implication", broken_chase)
        cache = ImplicationCache()
        degraded = solve(_false_problem(), cache=cache)
        assert degraded.answer is Trilean.FALSE
        assert degraded.faults.answered_by == "countermodel"
        assert degraded.cache.status == "miss"
        assert cache.stats()["counters"]["stores"] == 0

    def test_with_proof_solves_fresh_but_stores(self):
        cache = ImplicationCache()
        warm = solve(_true_problem(), cache=cache)
        assert warm.proof is None
        proved = solve(
            _true_problem(), SolveOptions(with_proof=True), cache=cache
        )
        assert proved.cache.status == "store"
        assert proved.proof is not None
        # ...and the cached entry still replays for plain requests.
        assert solve(_true_problem(), cache=cache).cache.status == "hit"

    def test_lru_eviction_by_entries(self):
        cache = ImplicationCache(max_entries=2)
        problems = [
            ImplicationProblem(
                [word(("a",) * (i + 1), ("b",))], word(("a",) * (i + 1), ("b",))
            )
            for i in range(3)
        ]
        keys = [canonicalize_problem(p).key for p in problems]
        assert len(set(keys)) == 3
        for p in problems:
            solve(p, cache=cache)
        stats = cache.stats()["memory"]
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert cache.memory.get(keys[0]) is None  # oldest evicted
        assert cache.memory.get(keys[2]) is not None

    def test_eviction_by_bytes(self):
        cache = ImplicationCache(max_bytes=400)
        solve(_true_problem(), cache=cache)
        solve(_false_problem(), cache=cache)
        assert cache.stats()["memory"]["bytes"] <= 400

    def test_strict_mode_raises_even_when_cached(self):
        from repro.errors import UndecidableProblemError

        cache = ImplicationCache()
        solve(_false_problem(), cache=cache)
        with pytest.raises(UndecidableProblemError):
            solve(
                _false_problem(),
                SolveOptions(allow_semidecision=False),
                cache=cache,
            )

    def test_thread_safety_smoke(self):
        cache = ImplicationCache()
        errors = []

        def worker():
            try:
                for _ in range(5):
                    r = solve(_true_problem(), cache=cache)
                    assert r.answer is Trilean.TRUE
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        counters = cache.stats()["counters"]
        assert counters["hits_memory"] + counters["stores"] == 20


class TestDiskTier:
    def test_persists_across_cache_instances(self, tmp_path):
        first = solve(
            _true_problem(), cache=ImplicationCache(cache_dir=tmp_path)
        )
        assert first.cache.status == "store"
        assert first.cache.tier == "disk"
        fresh = ImplicationCache(cache_dir=tmp_path)
        hit = solve(_true_problem(), cache=fresh)
        assert hit.cache.status == "hit"
        assert hit.cache.tier == "disk"
        # The disk hit was promoted into memory.
        again = solve(_true_problem(), cache=fresh)
        assert again.cache.tier == "memory"

    def test_countermodel_round_trips_through_disk(self, tmp_path):
        solve(_false_problem(), cache=ImplicationCache(cache_dir=tmp_path))
        hit = solve(
            _false_problem(), cache=ImplicationCache(cache_dir=tmp_path)
        )
        assert hit.answer is Trilean.FALSE
        assert hit.countermodel is not None
        base = _false_problem()
        assert verify_countermodel(hit.countermodel, base.sigma, base.phi)

    def test_corrupt_entry_quarantined_not_fatal(self, tmp_path):
        solve(_true_problem(), cache=ImplicationCache(cache_dir=tmp_path))
        (entry_file,) = [
            p
            for p in tmp_path.rglob("*.json")
            if p.name != "counters.json"
        ]
        entry_file.write_text('{"answer": "true", "trunc')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(
                _true_problem(), cache=ImplicationCache(cache_dir=tmp_path)
            )
        assert result.answer is Trilean.TRUE
        assert result.cache.status == "store"  # miss, re-solved, re-stored
        assert any("corrupt entry" in str(w.message) for w in caught)
        assert list(tmp_path.rglob("*.corrupt"))

    def test_stale_version_stamp_is_quarantined(self, tmp_path):
        solve(_true_problem(), cache=ImplicationCache(cache_dir=tmp_path))
        (entry_file,) = [
            p
            for p in tmp_path.rglob("*.json")
            if p.name != "counters.json"
        ]
        stale = json.loads(entry_file.read_text())
        stale["code_version"] = "0-ancient"
        entry_file.write_text(json.dumps(stale))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(
                _true_problem(), cache=ImplicationCache(cache_dir=tmp_path)
            )
        assert result.cache.status == "store"
        assert any("code version" in str(w.message) for w in caught)

    def test_version_bump_orphans_old_entries(self, tmp_path, monkeypatch):
        solve(_true_problem(), cache=ImplicationCache(cache_dir=tmp_path))
        monkeypatch.setattr("repro.reasoning.cache.CODE_VERSION", "999")
        assert version_tag() == "v1-999"
        result = solve(
            _true_problem(), cache=ImplicationCache(cache_dir=tmp_path)
        )
        assert result.cache.status == "store"  # old dir never consulted
        assert (tmp_path / "v1-999").is_dir()

    def test_concurrent_writers_last_writer_wins(self, tmp_path):
        key = canonicalize_problem(_true_problem()).key
        entry_a = make_entry("true", "writer-a", True, "PTIME", "none", None)
        entry_b = make_entry("true", "writer-b", True, "PTIME", "none", None)
        a = ImplicationCache(cache_dir=tmp_path)
        b = ImplicationCache(cache_dir=tmp_path)
        a.store(key, entry_a)
        b.store(key, entry_b)
        fresh = ImplicationCache(cache_dir=tmp_path)
        entry, tier = fresh.lookup(key)
        assert tier == "disk"
        assert entry["method"] == "writer-b"

    def test_clear_removes_entries_and_counters(self, tmp_path):
        cache = ImplicationCache(cache_dir=tmp_path)
        solve(_true_problem(), cache=cache)
        cache.flush_counters()
        assert cache.clear() == 1
        assert not list(tmp_path.rglob("*.json"))
        fresh = ImplicationCache(cache_dir=tmp_path)
        assert fresh.stats()["disk"]["entries"] == 0

    def test_flush_counters_accumulates(self, tmp_path):
        cache = ImplicationCache(cache_dir=tmp_path)
        solve(_true_problem(), cache=cache)
        solve(_true_problem(), cache=cache)
        cache.flush_counters()
        other = ImplicationCache(cache_dir=tmp_path)
        solve(_true_problem(), cache=other)
        other.flush_counters()
        lifetime = ImplicationCache(cache_dir=tmp_path).stats()["disk"][
            "lifetime_counters"
        ]
        assert lifetime == {"hits": 2, "misses": 1, "stores": 1}

    def test_concurrent_counter_folds_are_exact(self, tmp_path):
        # The server folds counters from many connections; the flock
        # around the read-modify-write makes concurrent increments
        # exact, not last-writer-wins (each thread uses its own
        # _DiskTier, modelling separate connections/processes).
        import threading

        from repro.reasoning.cache import _DiskTier

        n_threads, per_thread = 8, 10
        barrier = threading.Barrier(n_threads)

        def fold():
            tier = _DiskTier(tmp_path)
            barrier.wait()
            for _ in range(per_thread):
                tier.add_counters(1, 2, 3)

        threads = [
            threading.Thread(target=fold) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        counters = _DiskTier(tmp_path).read_counters()
        assert counters == {
            "hits": total,
            "misses": 2 * total,
            "stores": 3 * total,
        }

    def test_torn_counters_file_resets_with_warning(self, tmp_path):
        from repro.reasoning.cache import _DiskTier

        tier = _DiskTier(tmp_path)
        tier.add_counters(5, 5, 5)
        # Simulate a torn write from a pre-lock version / disk-full.
        tier._counters_path.write_text('{"hits": 5, "mis')
        with pytest.warns(RuntimeWarning, match="torn/corrupt counters"):
            counters = tier.read_counters()
        assert counters == {"hits": 0, "misses": 0, "stores": 0}
        # A subsequent fold starts over cleanly instead of crashing.
        with pytest.warns(RuntimeWarning, match="torn/corrupt counters"):
            tier.add_counters(1, 0, 0)
        assert tier.read_counters()["hits"] == 1

    def test_wrong_shape_counters_resets_with_warning(self, tmp_path):
        from repro.reasoning.cache import _DiskTier

        tier = _DiskTier(tmp_path)
        tier.directory.mkdir(parents=True, exist_ok=True)
        tier._counters_path.write_text('["not", "an", "object"]')
        with pytest.warns(RuntimeWarning, match="torn/corrupt counters"):
            assert tier.read_counters() == {
                "hits": 0,
                "misses": 0,
                "stores": 0,
            }

    def test_missing_counters_file_is_silent(self, tmp_path):
        import warnings as warnings_module

        from repro.reasoning.cache import _DiskTier

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            counters = _DiskTier(tmp_path).read_counters()
        assert counters == {"hits": 0, "misses": 0, "stores": 0}


class TestEntryValidation:
    def test_make_entry_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_entry("unknown", "m", True, None, "none", None)

    def test_make_entry_rejects_bad_certificate(self):
        with pytest.raises(ValueError):
            make_entry("true", "m", True, None, "oracle", None)

    def test_cacheinfo_describe(self):
        info = CacheInfo("hit", key="ab" * 20, tier="disk")
        text = info.describe()
        assert text.startswith("hit (disk) key=")
        assert len(text) < 40


class TestResolveCacheDir:
    def test_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "explicit") == (
            tmp_path / "explicit"
        )
        assert resolve_cache_dir() == tmp_path / "env"
        monkeypatch.delenv(ENV_CACHE_DIR)
        assert resolve_cache_dir().name == "repro"


class TestCacheCheckFuzz:
    def test_sweep_reports_hits_and_zero_flips(self):
        report = fuzz(seed=3, per_fragment=3, cache_check=True)
        assert report.ok
        assert report.cache_check
        assert report.cache_flips == 0
        assert report.cache_checks == sum(
            s.instances for s in report.fragments.values()
        )
        assert report.cache_lookups == 2 * report.cache_checks
        assert report.cache_hits > 0  # replay pass guarantees hits
        data = report.to_dict()
        assert data["cache_flips"] == 0
        assert "cache check" in report.summary()

    def test_disabled_by_default(self):
        report = fuzz(seed=3, per_fragment=1, fragments=["P_w"])
        assert not report.cache_check
        assert report.cache_checks == 0


class TestCli:
    @pytest.fixture
    def sigma_file(self, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("a => b\nb => c\n")
        return str(path)

    def test_imply_second_run_hits_disk(self, sigma_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        argv = ["imply", sigma_file, "a => c", "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert "cache:      store (disk)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache:      hit (disk)" in capsys.readouterr().out

    def test_imply_env_var_cache_dir(
        self, sigma_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env-cache"))
        assert main(["imply", sigma_file, "a => c"]) == 0
        capsys.readouterr()
        assert main(["imply", sigma_file, "a => c"]) == 0
        assert "cache:      hit" in capsys.readouterr().out
        assert (tmp_path / "env-cache").is_dir()

    def test_imply_no_cache(self, sigma_file, capsys):
        assert main(["imply", sigma_file, "a => c", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out

    def test_cache_stats_and_clear(self, sigma_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cli-cache")
        main(["imply", sigma_file, "a => c", "--cache-dir", cache_dir])
        main(["imply", sigma_file, "a => c", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert "hits:       1" in out
        assert "stores:     1" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 1 entry" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_fuzz_cache_check_flag(self, capsys):
        rc = main(
            [
                "fuzz",
                "--seed",
                "1",
                "--per-fragment",
                "2",
                "--fragment",
                "P_w",
                "--cache-check",
                "--no-shrink",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache check:" in out
        assert "flips=0" in out
