"""Fragment membership and boundedness (Definitions 2.2-2.4, 4.1, 6).

This module classifies constraints into the fragments whose implication
problems the paper studies:

* ``P_w`` — word constraints (Definition 2.2);
* ``P_w(K)`` — word constraints plus their K-guarded versions
  (Section 4.1), the "small" fragment whose untyped implication problem
  is already undecidable (Theorem 4.3);
* ``P_w(rho)`` — the Section 6 generalization guarded by a path;
* constraints *bounded by* a path ``rho`` and a label ``K``
  (Definition 2.3), and prefix-bounded constraint *sets*, which define
  the local extent implication problem (Definition 2.4).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.constraints.ast import PathConstraint
from repro.paths import Path


def is_in_pw(phi: PathConstraint) -> bool:
    """Membership in P_w (Definition 2.2)."""
    return phi.is_word_constraint()


def is_in_pw_rho(phi: PathConstraint, rho: Path | str) -> bool:
    """Membership in P_w(rho) (Section 6): either a word constraint, or
    the rho-guarded version ``rho :: beta => gamma`` of one."""
    rho = Path.coerce(rho)
    if phi.is_word_constraint():
        return True
    return phi.is_forward() and phi.prefix == rho


def is_in_pw_k(phi: PathConstraint, guard: str) -> bool:
    """Membership in P_w(K) (Section 4.1): P_w(rho) with rho the
    single-label path ``K``."""
    return is_in_pw_rho(phi, Path.single(guard))


def is_bounded_by(phi: PathConstraint, rho: Path | str, guard: str) -> bool:
    """Definition 2.3: ``phi`` is *bounded by* ``rho`` and ``K`` iff it
    has the forward form ``rho.K :: beta => gamma`` with ``beta`` not
    empty and ``K`` not a prefix of ``beta``."""
    return _is_bounded(phi, Path.coerce(rho).append(guard).labels, guard)


def _is_bounded(
    phi: PathConstraint, guarded: tuple[str, ...], guard: str
) -> bool:
    """:func:`is_bounded_by` on label tuples: ``guarded`` holds the
    labels of ``rho . K``."""
    lhs = phi.lhs.labels
    return (
        phi.is_forward()
        and phi.prefix.labels == guarded
        and bool(lhs)
        and lhs[0] != guard
    )


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of checking Definition 2.3 on a constraint set.

    ``ok`` is True when the set is a subset of P_c with prefix bounded
    by ``rho`` and ``guard``; otherwise ``offenders`` lists the
    constraints that break the definition with a reason each.
    """

    rho: Path
    guard: str
    ok: bool
    bounded: tuple[PathConstraint, ...] = ()
    rest: tuple[PathConstraint, ...] = ()
    offenders: tuple[tuple[PathConstraint, str], ...] = field(default=())


def check_prefix_bounded_set(
    constraints: Iterable[PathConstraint], rho: Path | str, guard: str
) -> BoundednessReport:
    """Classify a constraint set per Definition 2.3.

    Each constraint must either be bounded by (rho, K), or have prefix
    ``rho . rho'`` with ``K`` not a prefix of ``rho'``; and when
    ``rho' = epsilon`` the constraint must have the exact shape
    ``rho :: beta => K``.
    """
    rho = Path.coerce(rho)
    # Labels only: no per-constraint Path is built.
    rho_labels = rho.labels
    depth = len(rho_labels)
    guarded = rho.append(guard).labels
    bounded: list[PathConstraint] = []
    rest: list[PathConstraint] = []
    offenders: list[tuple[PathConstraint, str]] = []
    for phi in constraints:
        if _is_bounded(phi, guarded, guard):
            bounded.append(phi)
            continue
        prefix = phi.prefix.labels
        if prefix[:depth] != rho_labels:
            offenders.append((phi, f"prefix {phi.prefix} does not extend {rho}"))
            continue
        if len(prefix) > depth and prefix[depth] == guard:
            rho_prime = Path(prefix[depth:])
            offenders.append(
                (phi, f"prefix remainder {rho_prime} starts with the guard {guard}")
            )
            continue
        if len(prefix) == depth:
            # Definition 2.3's special case: the constraint must be
            # `rho :: beta => K` (forward, conclusion exactly K).
            if phi.is_forward() and phi.rhs.labels == (guard,):
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


def is_prefix_bounded_set(
    constraints: Iterable[PathConstraint], rho: Path | str, guard: str
) -> bool:
    """Definition 2.3 membership as a boolean."""
    return check_prefix_bounded_set(constraints, rho, guard).ok


def partition_bounded(
    constraints: Iterable[PathConstraint], rho: Path | str, guard: str
) -> tuple[tuple[PathConstraint, ...], tuple[PathConstraint, ...]]:
    """Split a prefix-bounded set into (Sigma_K, Sigma_r) per Section 2.2.

    Raises :class:`ValueError` when the set is not prefix-bounded.
    """
    report = check_prefix_bounded_set(constraints, rho, guard)
    if not report.ok:
        reasons = "; ".join(f"{phi}: {why}" for phi, why in report.offenders)
        raise ValueError(f"constraint set is not prefix-bounded: {reasons}")
    return report.bounded, report.rest


def infer_bounds(phi: PathConstraint) -> tuple[Path, str]:
    """Recover (rho, K) from a constraint bounded by them.

    A bounded constraint has prefix ``rho . K``, so ``rho`` is the
    prefix minus its last label and ``K`` is that last label (the paper
    notes this is linear-time).  Raises :class:`ValueError` when the
    constraint cannot be bounded by anything (empty prefix, backward
    form, empty lhs, or guard prefixing the lhs).
    """
    if not phi.is_forward():
        raise ValueError(f"{phi} is backward; bounded constraints are forward")
    if phi.prefix.is_empty():
        raise ValueError(f"{phi} has empty prefix; cannot split off a guard")
    guard = phi.prefix.last()
    rho = phi.prefix[:-1]
    if not is_bounded_by(phi, rho, guard):
        raise ValueError(f"{phi} is not bounded by ({rho}, {guard})")
    return rho, guard
