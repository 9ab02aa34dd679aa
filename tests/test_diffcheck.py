"""Tests for the differential cross-validation harness."""

from __future__ import annotations

import json

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.diffcheck import (
    FRAGMENT_GENERATORS,
    FragmentInstance,
    emit_regression_test,
    find_disagreements,
    fuzz,
    generate_instance,
    run_engines,
    run_named_engine,
    shrink_instance,
)
from repro.diffcheck.oracles import EngineVerdict, OracleConfig
from repro.diffcheck.shrink import render_schema
from repro.reasoning.dispatcher import Context, ProblemClass, classify
from repro.truth import Trilean

FAST = OracleConfig()


class TestGenerators:
    def test_all_fragments_registered(self):
        assert list(FRAGMENT_GENERATORS) == [
            "P_w",
            "P_w+egd",
            "P_w(K)",
            "local-extent",
            "P_c",
            "typed-M",
        ]

    def test_deterministic_replay(self):
        for name in FRAGMENT_GENERATORS:
            a = generate_instance(name, seed=42, index=3)
            b = generate_instance(name, seed=42, index=3)
            assert a.sigma == b.sigma and a.phi == b.phi

    def test_seeds_differ(self):
        instances = {
            (generate_instance("P_w", seed=s, index=0).sigma,
             generate_instance("P_w", seed=s, index=0).phi)
            for s in range(8)
        }
        assert len(instances) > 1

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("P_w", ProblemClass.WORD),
            ("P_w+egd", ProblemClass.WORD),
            ("P_w(K)", ProblemClass.PW_K),
            ("local-extent", ProblemClass.LOCAL_EXTENT),
            ("P_c", ProblemClass.GENERAL),
        ],
    )
    def test_instances_land_in_their_fragment(self, name, expected):
        for index in range(10):
            inst = generate_instance(name, seed=5, index=index)
            assert classify(inst.sigma, inst.phi) is expected, (
                f"{name} index={index}: {inst.sigma} |- {inst.phi}"
            )

    def test_typed_instances_carry_m_schemas(self):
        for index in range(10):
            inst = generate_instance("typed-M", seed=5, index=index)
            assert inst.context is Context.M
            assert inst.schema is not None
            assert inst.schema.is_m_schema()

    def test_egd_generator_emits_empty_conclusions(self):
        assert any(
            any(psi.rhs.is_empty() for psi in
                generate_instance("P_w+egd", seed=1, index=i).sigma)
            for i in range(5)
        )


class TestOracles:
    def test_matrix_on_word_instance(self):
        sigma = parse_constraints(
            "book.author => person\nperson.wrote => book"
        )
        phi = parse_constraint("book.author.wrote => book")
        inst = FragmentInstance("P_w", tuple(sigma), phi)
        verdicts = run_engines(inst, FAST)
        names = {v.engine for v in verdicts}
        assert {"word", "chase", "countermodel", "portfolio"} <= names
        by_name = {v.engine: v for v in verdicts}
        assert by_name["word"].answer is Trilean.TRUE
        assert by_name["word"].certificate_ok is True
        assert by_name["chase"].answer is Trilean.TRUE
        assert not find_disagreements(verdicts)

    def test_matrix_on_refuted_instance(self):
        sigma = parse_constraints("book.author => person")
        phi = parse_constraint("person => book")
        inst = FragmentInstance("P_w", tuple(sigma), phi)
        by_name = {v.engine: v for v in run_engines(inst, FAST)}
        assert by_name["word"].answer is Trilean.FALSE
        assert by_name["countermodel"].answer is Trilean.FALSE
        assert by_name["countermodel"].certificate_ok is True
        assert not find_disagreements(
            list(by_name.values())
        )

    def test_unknown_never_conflicts(self):
        verdicts = [
            EngineVerdict("a", Trilean.TRUE),
            EngineVerdict("b", Trilean.UNKNOWN),
            EngineVerdict("c", Trilean.UNKNOWN),
        ]
        assert not find_disagreements(verdicts)

    def test_definite_conflict_detected(self):
        verdicts = [
            EngineVerdict("a", Trilean.TRUE),
            EngineVerdict("b", Trilean.FALSE),
        ]
        (d,) = find_disagreements(verdicts)
        assert d.kind == "definite-conflict"
        assert d.engines == ("a", "b")

    def test_bad_certificate_detected(self):
        verdicts = [
            EngineVerdict(
                "a", Trilean.FALSE, certificate_ok=False, note="boom"
            )
        ]
        (d,) = find_disagreements(verdicts)
        assert d.kind == "bad-certificate"

    def test_run_named_engine_arbitrary_jobs(self):
        sigma = tuple(parse_constraints("book.author => person"))
        phi = parse_constraint("person => book")
        v = run_named_engine("word", sigma, phi, config=FAST)
        assert v.answer is Trilean.FALSE
        with pytest.raises(KeyError):
            run_named_engine("no-such-engine", sigma, phi, config=FAST)

    def test_local_extent_certificate_reverified(self):
        # The with_proof certificate covers the reduced word instance
        # (Lemma 5.3); the oracle must verify it there, not against
        # the original premises.
        sigma = parse_constraints("K.K :: a => b")
        phi = parse_constraint("K.K :: a => b")
        inst = FragmentInstance("local-extent", tuple(sigma), phi)
        by_name = {v.engine: v for v in run_engines(inst, FAST)}
        assert by_name["local-extent"].answer is Trilean.TRUE
        assert by_name["local-extent"].certificate_ok is True

    def test_typed_chase_false_demoted_to_unknown(self):
        # An untyped counter-model proves nothing over U(Delta): the
        # chase engine must abstain rather than report FALSE.
        inst = generate_instance("typed-M", seed=11, index=6)
        by_name = {v.engine: v for v in run_engines(inst, FAST)}
        assert by_name["chase"].answer is not Trilean.FALSE

    def test_typed_matrix_agreement(self):
        inst = generate_instance("typed-M", seed=11, index=19)
        verdicts = run_engines(inst, FAST)
        by_name = {v.engine: v for v in verdicts}
        assert by_name["typed-M"].answer is Trilean.FALSE
        assert by_name["enumerate-M"].answer is Trilean.FALSE
        assert by_name["enumerate-M"].certificate_ok is True
        assert not find_disagreements(verdicts)


def _always_true_engine(inst, cfg):
    """A deliberately broken decider: claims every implication holds."""
    if inst.context is not Context.SEMISTRUCTURED:
        return None
    return EngineVerdict(engine="always-true", answer=Trilean.TRUE)


class TestShrink:
    def test_shrinks_injected_disagreement_to_minimal(self):
        # Acceptance criterion: an intentionally injected disagreement
        # shrinks to <= 3 sigma constraints.
        report = fuzz(
            seed=5,
            per_fragment=4,
            fragments=["P_w"],
            config=FAST,
            extra={"always-true": _always_true_engine},
        )
        assert report.disagreements, "broken engine went undetected"
        for record in report.disagreements:
            assert len(record.shrunk_sigma) <= 3, record.shrunk_sigma
            assert len(record.shrunk_sigma) <= len(record.original_sigma)

    def test_shrink_preserves_predicate(self):
        sigma = tuple(
            parse_constraints(
                "a => b\nb => c\nc.a => b\na.a.a => c.c"
            )
        )
        phi = parse_constraint("a => c")

        def reproduces(s, p):
            # "bug" needs the transitive pair a=>b, b=>c and the query.
            from repro.reasoning.word import implies_word

            return implies_word(s, p).answer is Trilean.TRUE

        shrunk_sigma, shrunk_phi = shrink_instance(sigma, phi, reproduces)
        assert reproduces(shrunk_sigma, shrunk_phi)
        assert len(shrunk_sigma) == 2

    def test_shrink_returns_input_when_not_reproducing(self):
        sigma = tuple(parse_constraints("a => b"))
        phi = parse_constraint("a => c")
        out_sigma, out_phi = shrink_instance(
            sigma, phi, lambda s, p: False
        )
        assert out_sigma == sigma and out_phi is phi

    def test_shrink_survives_crashing_predicate(self):
        sigma = tuple(parse_constraints("a => b\nb => c"))
        phi = parse_constraint("a => c")
        calls = {"n": 0}

        def flaky(s, p):
            calls["n"] += 1
            if len(s) < 2:
                raise RuntimeError("candidate left the fragment")
            return True

        shrunk_sigma, _ = shrink_instance(sigma, phi, flaky)
        assert len(shrunk_sigma) == 2  # crashes treated as non-repro
        assert calls["n"] > 1

    def test_emitted_regression_test_is_executable(self):
        sigma = tuple(parse_constraints("a => b"))
        phi = parse_constraint("a => b")
        text = emit_regression_test(
            sigma, phi, ["word", "chase"], ["true", "true"]
        )
        namespace: dict = {}
        exec(text, namespace)  # noqa: S102 — the generator's own output
        [test] = [v for k, v in namespace.items() if k.startswith("test_")]
        test()  # engines agree here, so the pinned assertion passes

    def test_render_schema_round_trips(self):
        inst = generate_instance("typed-M", seed=2, index=0)
        source = render_schema(inst.schema)
        from repro.types.typesys import (  # noqa: F401 — exec namespace
            AtomicType,
            ClassRef,
            RecordType,
            Schema,
            SetType,
        )

        rebuilt = eval(source)  # noqa: S307 — our own rendering
        assert rebuilt.classes == inst.schema.classes
        assert rebuilt.db_type == inst.schema.db_type


class TestFuzz:
    def test_clean_sweep_fixed_seed(self):
        report = fuzz(seed=3, per_fragment=3, config=FAST)
        assert report.ok, [d.to_dict() for d in report.disagreements]
        assert all(
            s.instances == 3 for s in report.fragments.values()
        )

    def test_report_json_round_trip(self):
        report = fuzz(
            seed=1, per_fragment=2, fragments=["P_w"], config=FAST
        )
        data = json.loads(report.to_json())
        assert data["seed"] == 1
        assert data["ok"] is True
        assert data["fragments"]["P_w"]["instances"] == 2

    def test_deadline_cuts_sweep_short(self):
        report = fuzz(seed=0, per_fragment=50, deadline=0.0, config=FAST)
        assert report.deadline_hit
        total = sum(s.instances for s in report.fragments.values())
        assert total < 50 * len(FRAGMENT_GENERATORS)

    def test_unknown_fragment_rejected(self):
        with pytest.raises(ValueError):
            fuzz(seed=0, per_fragment=1, fragments=["P_zzz"])


class TestQueryFuzz:
    """The query-layer differential fragment (optimizer + containment)."""

    def test_fixed_seed_run_is_clean(self):
        from repro.diffcheck import fuzz_queries

        report = fuzz_queries(seed=0, rounds=5)
        assert report.ok
        assert report.rounds == 5
        assert not report.aborted
        assert report.optimizer_checks == 5
        assert report.containment_checks == 5
        assert report.models_checked > 0

    def test_report_shape_round_trips(self):
        import json

        from repro.diffcheck import fuzz_queries

        report = fuzz_queries(seed=1, rounds=3)
        payload = json.loads(report.to_json())
        for key in (
            "seed",
            "rounds",
            "verdicts",
            "branches_saved",
            "disagreements",
            "models_checked",
        ):
            assert key in payload
        assert "clean" in report.summary() or "disagreement" in report.summary()

    def test_deterministic_replay(self):
        from repro.diffcheck import fuzz_queries

        first = fuzz_queries(seed=7, rounds=4)
        second = fuzz_queries(seed=7, rounds=4)
        assert first.to_dict()["verdicts"] == second.to_dict()["verdicts"]
        assert first.branches_saved == second.branches_saved

    def test_deadline_cuts_run_short(self):
        from repro.diffcheck import fuzz_queries

        report = fuzz_queries(seed=0, rounds=10_000, deadline=0.5)
        assert report.deadline_hit
        assert report.rounds < 10_000
        assert report.ok
