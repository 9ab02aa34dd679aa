"""Tests for the P_c constraint AST, parser and fragment classes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    Direction,
    PathConstraint,
    backward,
    forward,
    infer_bounds,
    is_bounded_by,
    is_in_pw,
    is_in_pw_k,
    is_prefix_bounded_set,
    parse_constraint,
    parse_constraints,
    partition_bounded,
    word,
)
from repro.constraints.classes import (
    BoundednessReport,
    check_prefix_bounded_set,
    is_in_pw_rho,
)
from repro.errors import ConstraintSyntaxError
from repro.paths import EPSILON, Path

labels = st.sampled_from(["a", "b", "c", "K", "MIT", "book", "author"])
paths = st.lists(labels, min_size=0, max_size=4).map(Path)
nonempty_paths = st.lists(labels, min_size=1, max_size=4).map(Path)
directions = st.sampled_from([Direction.FORWARD, Direction.BACKWARD])
constraints = st.builds(PathConstraint, paths, paths, paths, directions)


class TestAst:
    def test_components(self):
        phi = forward("MIT", "book.ref", "book")
        assert phi.prefix == Path.parse("MIT")
        assert phi.lhs == Path.parse("book.ref")
        assert phi.rhs == Path.parse("book")
        assert phi.is_forward() and not phi.is_backward()

    def test_word_constraint_detection(self):
        assert word("a", "b").is_word_constraint()
        assert not forward("p", "a", "b").is_word_constraint()
        assert not backward("", "a", "b").is_word_constraint()

    def test_as_word_pair(self):
        assert word("a.b", "c").as_word_pair() == (
            Path.parse("a.b"),
            Path.parse("c"),
        )
        with pytest.raises(ValueError):
            backward("", "a", "b").as_word_pair()

    def test_with_strip_prefix_roundtrip(self):
        phi = forward("K", "a", "b")
        lifted = phi.with_prefix("MIT")
        assert lifted.prefix == Path.parse("MIT.K")
        assert lifted.strip_prefix("MIT") == phi

    def test_equality_and_hash(self):
        assert forward("p", "a", "b") == PathConstraint("p", "a", "b")
        assert forward("p", "a", "b") != backward("p", "a", "b")
        assert len({word("a", "b"), word("a", "b")}) == 1

    def test_alphabet(self):
        phi = backward("MIT.book", "author", "wrote")
        assert phi.alphabet() == frozenset({"MIT", "book", "author", "wrote"})

    def test_direction_type_checked(self):
        with pytest.raises(TypeError):
            PathConstraint("p", "a", "b", "forward")  # type: ignore[arg-type]


class TestFormulas:
    def test_word_formula_matches_paper(self):
        # Section 1: forall x (book.author(r,x) -> person(r,x)).
        phi = word("book.author", "person")
        assert phi.to_formula() == (
            "forall x (exists z1 (book(r, z1) and author(z1, x)) "
            "-> person(r, x))"
        )

    def test_inverse_formula_matches_paper(self):
        # Section 1: forall x (book(r,x) -> forall y (author(x,y) ->
        # wrote(y,x))).
        phi = backward("book", "author", "wrote")
        assert phi.to_formula() == (
            "forall x (book(r, x) -> forall y (author(x, y) -> wrote(y, x)))"
        )

    def test_forward_formula(self):
        phi = forward("MIT", "book.ref", "book")
        assert "forall y" in phi.to_formula()
        assert "book(x, y)" in phi.to_formula()


class TestParser:
    def test_word(self):
        phi = parse_constraint("book.author => person")
        assert phi == word("book.author", "person")

    def test_forward_with_prefix(self):
        phi = parse_constraint("MIT :: book.ref => book")
        assert phi == forward("MIT", "book.ref", "book")

    def test_backward(self):
        phi = parse_constraint("book :: author ~> wrote")
        assert phi == backward("book", "author", "wrote")

    def test_epsilon_spellings(self):
        phi = parse_constraint("l :: () => K")
        assert phi.lhs.is_empty()
        assert phi == forward("l", "", "K")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a.b",
            "a => b => c",
            "a ~> b => c",
            "p :: q :: a => b",
            "a..b => c",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint(bad)

    def test_block_parsing_with_comments(self):
        block = """
        # extent constraints
        book.author => person   # inline note
        person.wrote => book
        """
        out = parse_constraints(block)
        assert len(out) == 2

    def test_block_reports_line_numbers(self):
        with pytest.raises(ConstraintSyntaxError, match="line 3"):
            parse_constraints("a => b\n\nbroken")

    @given(constraints)
    def test_str_parse_roundtrip(self, phi):
        assert parse_constraint(str(phi)) == phi


class TestFragments:
    def test_pw(self):
        assert is_in_pw(word("a", "b"))
        assert not is_in_pw(forward("K", "a", "b"))

    def test_pw_k(self):
        assert is_in_pw_k(word("a", "b"), "K")
        assert is_in_pw_k(forward("K", "a", "b"), "K")
        assert not is_in_pw_k(forward("J", "a", "b"), "K")
        assert not is_in_pw_k(forward("K.K", "a", "b"), "K")
        assert not is_in_pw_k(backward("K", "a", "b"), "K")

    def test_pw_rho(self):
        rho = Path.parse("MIT.bib")
        assert is_in_pw_rho(forward(rho, "a", "b"), rho)
        assert is_in_pw_rho(word("a", "b"), rho)
        assert not is_in_pw_rho(forward("MIT", "a", "b"), rho)


class TestBoundedness:
    """Definitions 2.3 and 2.4, including the paper's Sigma_0 example."""

    def sigma0(self):
        """Section 2.2's Sigma_0: MIT local extent constraints plus
        Warner local inverse constraints."""
        return parse_constraints(
            """
            MIT :: book.author => person
            MIT :: person.wrote => book
            Warner.book :: author ~> wrote
            Warner.person :: wrote ~> author
            """
        )

    def phi0(self):
        return parse_constraint("MIT :: book.ref => book")

    def test_bounded_by(self):
        assert is_bounded_by(self.phi0(), EPSILON, "MIT")
        # beta must not be empty.
        assert not is_bounded_by(forward("MIT", "", "book"), EPSILON, "MIT")
        # K must not prefix beta.
        assert not is_bounded_by(
            forward("MIT", "MIT.book", "book"), EPSILON, "MIT"
        )
        # backward constraints are never bounded.
        assert not is_bounded_by(
            backward("MIT", "author", "wrote"), EPSILON, "MIT"
        )

    def test_sigma0_is_prefix_bounded(self):
        assert is_prefix_bounded_set(self.sigma0(), EPSILON, "MIT")

    def test_sigma0_partition(self):
        bounded, rest = partition_bounded(self.sigma0(), EPSILON, "MIT")
        assert len(bounded) == 2
        assert len(rest) == 2
        assert all(phi.prefix.first() == "MIT" for phi in bounded)
        assert all(phi.prefix.first() == "Warner" for phi in rest)

    def test_guard_prefix_violation(self):
        # A constraint on a local database whose path starts with the
        # guard breaks Definition 2.3.
        sigma = parse_constraints("MIT.sub :: a => b")
        report = check_prefix_bounded_set(sigma, EPSILON, "MIT")
        assert not report.ok
        assert "guard" in report.offenders[0][1]

    def test_rho_equal_special_case(self):
        # pf(psi) == rho requires the exact form rho :: beta => K.
        good = parse_constraints("l :: () => K")
        assert is_prefix_bounded_set(good, Path.parse("l"), "K")
        bad = parse_constraints("l :: a => b")
        assert not is_prefix_bounded_set(bad, Path.parse("l"), "K")

    def test_prefix_outside_rho(self):
        sigma = parse_constraints("Stanford :: a => b")
        assert not is_prefix_bounded_set(sigma, Path.parse("MIT"), "K")

    def test_partition_raises_on_malformed(self):
        with pytest.raises(ValueError):
            partition_bounded(
                parse_constraints("MIT.sub :: a => b"), EPSILON, "MIT"
            )

    def test_infer_bounds(self):
        rho, guard = infer_bounds(self.phi0())
        assert rho == EPSILON
        assert guard == "MIT"
        rho, guard = infer_bounds(parse_constraint("l.K :: a => b"))
        assert rho == Path.parse("l")
        assert guard == "K"

    @pytest.mark.parametrize(
        "text",
        ["a => b", "p :: a ~> b", "MIT :: () => b", "K :: K.a => b"],
    )
    def test_infer_bounds_rejects(self, text):
        with pytest.raises(ValueError):
            infer_bounds(parse_constraint(text))


@given(paths, nonempty_paths, paths, st.sampled_from(["K", "G"]))
def test_bounded_implies_classified(rho, lhs, rhs, guard):
    """Anything built in the bounded shape is recognized as bounded,
    unless the guard prefixes the hypothesis path."""
    phi = forward(rho.append(guard), lhs, rhs)
    expected = not Path.single(guard).is_prefix_of(lhs)
    assert is_bounded_by(phi, rho, guard) == expected
    if expected:
        inferred_rho, inferred_guard = infer_bounds(phi)
        assert inferred_rho == rho
        assert inferred_guard == guard


# -- the tuple-based boundedness check against the Path-based loop -----------


def naive_check_prefix_bounded_set(constraints, rho, guard):
    """Reference oracle: the Definition 2.3 loop on ``Path`` values
    that the label-tuple check replaced, ``is_bounded_by`` inlined."""
    rho = Path.coerce(rho)
    guard_path = Path.single(guard)
    bounded, rest, offenders = [], [], []
    for phi in constraints:
        if (
            phi.is_forward()
            and phi.prefix == rho.append(guard)
            and not phi.lhs.is_empty()
            and not guard_path.is_prefix_of(phi.lhs)
        ):
            bounded.append(phi)
            continue
        if not rho.is_prefix_of(phi.prefix):
            offenders.append((phi, f"prefix {phi.prefix} does not extend {rho}"))
            continue
        rho_prime = phi.prefix.strip_prefix(rho)
        if guard_path.is_prefix_of(rho_prime):
            offenders.append(
                (phi, f"prefix remainder {rho_prime} starts with the guard {guard}")
            )
            continue
        if rho_prime.is_empty():
            if phi.is_forward() and phi.rhs == guard_path:
                rest.append(phi)
            else:
                offenders.append(
                    (
                        phi,
                        "prefix equals rho but the constraint is not of "
                        f"the form rho :: beta => {guard}",
                    )
                )
            continue
        rest.append(phi)
    return BoundednessReport(
        rho=rho,
        guard=guard,
        ok=not offenders,
        bounded=tuple(bounded),
        rest=tuple(rest),
        offenders=tuple(offenders),
    )


bound_labels = st.sampled_from(["K", "l", "m", "a"])
bound_paths = st.lists(bound_labels, max_size=3).map(Path)


@st.composite
def bounded_sets(draw):
    """(constraints, rho, guard) covering every branch of Definition
    2.3: prefix rho.K (bounded when the lhs is neither empty nor
    guard-led, and forward), prefix rho with and without ``=> K``, a
    remainder led by the guard or not, and a prefix not extending rho;
    forward and backward throughout."""
    guard = draw(st.sampled_from(["K", "G"]))
    rho = draw(st.lists(bound_labels, max_size=2).map(Path))
    guard_led = bound_paths.map(lambda p: Path.single(guard).concat(p))
    prefixes = st.one_of(
        st.just(rho.append(guard)),
        st.just(rho),
        bound_paths.filter(lambda p: not p.is_empty()).map(rho.concat),
        guard_led.map(rho.concat),
        bound_paths,
    )
    lhss = st.one_of(st.just(EPSILON), guard_led, bound_paths)
    rhss = st.one_of(st.just(Path.single(guard)), bound_paths)
    constraint = st.builds(PathConstraint, prefixes, lhss, rhss, directions)
    return draw(st.lists(constraint, max_size=6)), rho, guard


@settings(max_examples=300, deadline=None)
@given(bounded_sets())
def test_boundedness_check_matches_path_loop(case):
    constraints, rho, guard = case
    assert check_prefix_bounded_set(
        constraints, rho, guard
    ) == naive_check_prefix_bounded_set(constraints, rho, guard)
