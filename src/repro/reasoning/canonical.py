"""Canonical forms for whole implication instances.

An implication answer is a pure function of the *structure* of the
instance: renaming edge labels by any bijection (and, in typed
contexts, renaming classes) and reordering or duplicating premises
changes nothing (the constraint language of Definition 2.1 has no
built-in labels, and Table 1's verdicts quantify over all
structures).  :func:`canonicalize_instance` exploits that to map an
instance (premise set Sigma, conclusion phi, context, optional typed
signature Delta) to a canonical serialized form — identical for any
two alpha-equivalent instances — whose sha256 is the cross-request
cache key used by :mod:`repro.reasoning.cache`.

The algorithm mirrors graph canonicalization:

1. *Color refinement.*  The instance is encoded once as integers
   (label and class ids, constraints as id tuples, schema types as
   nested int tuples).  Every label (and class name) gets an integer
   color derived purely from where it occurs — positions inside
   premise and conclusion paths, record fields and class references
   in the schema — with constraint and type shapes taken under the
   current coloring.  Each round, a color is the rank of the sorted
   distinct signatures (old color plus occurrences); no digest is
   taken and no name or id enters a signature (McKay & Piperno,
   *Practical graph isomorphism II*, 2014).  Iterating until the
   number of colors stops growing partitions the alphabet into
   structural equivalence classes without ever looking at the
   original names.
2. *Tie-break search.*  Residual symmetries (labels the refinement
   cannot distinguish — they really are interchangeable, or nearly so)
   are resolved by enumerating the remaining assignments and keeping
   the lexicographically least serialization.  The search space is the
   product of factorials of the ambiguous group sizes; above
   ``search_cap`` we fall back to ordering by original name, which is
   still deterministic (same instance -> same key) but no longer
   alpha-invariant — the form records ``fallback=True``.

Rigid symbols are never renamed: the membership label
(:data:`repro.types.typesys.MEMBERSHIP_LABEL`) in typed contexts, and
atomic type names, both carry fixed semantics.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, permutations, product
from math import factorial

from repro.constraints.ast import Direction, PathConstraint
from repro.graph.structure import Graph
from repro.paths import Path
from repro.types.typesys import (
    MEMBERSHIP_LABEL,
    ClassRef,
    RecordType,
    Schema,
    SetType,
    Type,
)

#: Bump when the canonical serialization format changes; folded into
#: the serialized text, so old cache entries stop matching.
CANON_VERSION = 2

#: Default ceiling on the tie-break search (product over ambiguous
#: groups of group-size factorials).  7! — instances from the seeded
#: generators never get near it.
DEFAULT_SEARCH_CAP = 5040


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical serialization of one implication instance.

    ``label_map`` / ``class_map`` send original names to canonical
    ones (rigid symbols map to themselves); they are what a cache hit
    uses to rename a stored certificate back into the caller's
    alphabet.  ``fallback`` is True when the symmetry search was
    capped, in which case the key is deterministic but not
    alpha-invariant.
    """

    key: str
    text: str
    label_map: Mapping[str, str]
    class_map: Mapping[str, str]
    fallback: bool = False

    def inverse_label_map(self) -> dict[str, str]:
        return {v: k for k, v in self.label_map.items()}

    def inverse_class_map(self) -> dict[str, str]:
        return {v: k for k, v in self.class_map.items()}


# ---------------------------------------------------------------------------
# Renaming helpers (also used by tests and benchmarks to build
# alpha-variants, and by the cache to replay certificates).
# ---------------------------------------------------------------------------


def rename_path(path: Path, mapping: Mapping[str, str]) -> Path:
    return Path(mapping.get(label, label) for label in path.labels)


def rename_constraint(
    psi: PathConstraint, mapping: Mapping[str, str]
) -> PathConstraint:
    return PathConstraint(
        rename_path(psi.prefix, mapping),
        rename_path(psi.lhs, mapping),
        rename_path(psi.rhs, mapping),
        psi.direction,
    )


def rename_type(
    tau: Type,
    label_map: Mapping[str, str],
    class_map: Mapping[str, str],
) -> Type:
    if isinstance(tau, ClassRef):
        return ClassRef(class_map.get(tau.name, tau.name))
    if isinstance(tau, SetType):
        return SetType(rename_type(tau.element, label_map, class_map))
    if isinstance(tau, RecordType):
        return RecordType(
            [
                (
                    label_map.get(label, label),
                    rename_type(field, label_map, class_map),
                )
                for label, field in tau.fields
            ]
        )
    return tau  # atomic types are rigid


def rename_schema(
    schema: Schema,
    label_map: Mapping[str, str],
    class_map: Mapping[str, str],
) -> Schema:
    """The same schema under a label/class bijection (rigid symbols —
    ``member``, atomic type names — must not appear in the maps)."""
    return Schema(
        {
            class_map.get(name, name): rename_type(
                body, label_map, class_map
            )
            for name, body in schema.classes.items()
        },
        rename_type(schema.db_type, label_map, class_map),
        atomic_types=schema.atomic_names,
    )


def rename_graph(
    graph: Graph,
    label_map: Mapping[str, str],
    sort_map: Mapping[str, str] | None = None,
) -> Graph:
    """A copy of ``graph`` with edge labels (and node sorts) renamed."""
    out = Graph(root=graph.root, nodes=graph.nodes)
    for src, label, dst in graph.edges():
        out.add_edge(src, label_map.get(label, label), dst)
    if sort_map is None:
        sort_map = {}
    for node, sort in graph.sorts.items():
        out.set_sort(node, sort_map.get(sort, sort))
    return out


# ---------------------------------------------------------------------------
# The integer encoding.
# ---------------------------------------------------------------------------

#: Tags of an encoded schema type: ``(_CLASS, class id)``,
#: ``(_SET, element)``, ``(_RECORD, ((label id, field), ...))`` and
#: ``(_ATOM, index among the sorted atomic type names)``.
_CLASS, _SET, _RECORD, _ATOM = range(4)

#: A context path's step into a set type (label colors are >= 0).
_SET_STEP = -1

#: The owner of occurrences inside DBtype (class colors are >= 0).
_DB_OWNER = -1


class _Encoded:
    """One instance as integers.

    Labels and classes get ids; phi and each distinct premise become
    ``(tag, forward, prefix ids, lhs ids, rhs ids)`` with tag 0 for
    phi (always first) and 1 for a premise; each schema type becomes a
    nested int tuple.  Ids come from names, so they index lists but
    never enter a signature: only colors and shape ranks do.
    """

    def __init__(
        self,
        sigma: Sequence[PathConstraint],
        phi: PathConstraint,
        schema: Schema | None,
    ) -> None:
        label_ids: dict[str, int] = {}
        path_ids: dict[tuple[str, ...], tuple[int, ...]] = {}

        def ids(path: Path) -> tuple[int, ...]:
            labels = path.labels
            known = path_ids.get(labels)
            if known is None:
                known = path_ids[labels] = tuple(
                    [
                        label_ids.setdefault(label, len(label_ids))
                        for label in labels
                    ]
                )
            return known

        tagged = [(0, phi)] + [(1, psi) for psi in dict.fromkeys(sigma)]
        self.constraints = [
            (
                tag,
                psi.direction is Direction.FORWARD,
                ids(psi.prefix),
                ids(psi.lhs),
                ids(psi.rhs),
            )
            for tag, psi in tagged
        ]
        #: One more than the longest constraint path.
        self.width = 1 + max(map(len, path_ids))
        self.classes: list[str] = []
        self.atoms: list[str] = []
        self.db: tuple | None = None
        self.bodies: list[tuple] = []
        if schema is not None:
            self.classes = sorted(schema.class_names)
            self.atoms = sorted(schema.atomic_names)
            class_ids = {name: i for i, name in enumerate(self.classes)}
            atom_ids = {name: i for i, name in enumerate(self.atoms)}

            def encode(tau: Type) -> tuple:
                if isinstance(tau, ClassRef):
                    return (_CLASS, class_ids[tau.name])
                if isinstance(tau, SetType):
                    return (_SET, encode(tau.element))
                if isinstance(tau, RecordType):
                    return (
                        _RECORD,
                        tuple(
                            (
                                label_ids.setdefault(label, len(label_ids)),
                                encode(field),
                            )
                            for label, field in tau.fields
                        ),
                    )
                name = tau.name  # type: ignore[attr-defined]
                return (_ATOM, atom_ids[name])

            self.db = encode(schema.db_type)
            self.bodies = [encode(schema.body_of(n)) for n in self.classes]
        self.labels = list(label_ids)
        self.rigid = (
            [label_ids[MEMBERSHIP_LABEL]]
            if schema is not None and MEMBERSHIP_LABEL in label_ids
            else []
        )

    def refine(self) -> tuple[list[int], list[int]]:
        """Label and class colors of the stable partition.

        A round ranks the distinct constraint shapes under the current
        coloring, gives each label the signature (old color, sorted
        constraint occurrences, sorted schema occurrences) and each
        class the signature (old color, sorted references, body
        shape), and recolors by signature rank.  A signature holds the
        old color, so each round refines the last, and the partition
        is stable once the number of colors stops growing.
        """
        lcolor = [0] * len(self.labels)
        for color, label in enumerate(self.rigid, start=1):
            lcolor[label] = color
        ccolor = [0] * len(self.classes)
        # Position p of field f (prefix, lhs, rhs) in a constraint whose
        # shape has rank r is one int, r * 3 * width + f * width + p.
        width = self.width
        counts = (len(set(lcolor)), len(set(ccolor)))
        # A partition into singletons cannot be refined further.
        discrete = (len(lcolor), len(ccolor))
        while counts != discrete:
            shape_rank = _ranks(
                [
                    (
                        tag,
                        forward,
                        tuple([lcolor[label] for label in prefix]),
                        tuple([lcolor[label] for label in lhs]),
                        tuple([lcolor[label] for label in rhs]),
                    )
                    for tag, forward, prefix, lhs, rhs in self.constraints
                ]
            )
            occurrences: list[list[int]] = [[] for _ in self.labels]
            for rank, (_, _, prefix, lhs, rhs) in zip(
                shape_rank, self.constraints
            ):
                slot = rank * 3 * width
                for position, label in enumerate(prefix, slot):
                    occurrences[label].append(position)
                for position, label in enumerate(lhs, slot + width):
                    occurrences[label].append(position)
                for position, label in enumerate(rhs, slot + 2 * width):
                    occurrences[label].append(position)
            lsig: list[tuple] = [
                (color, tuple(sorted(occ)))
                for color, occ in zip(lcolor, occurrences)
            ]
            csig: list[tuple] = []
            if self.db is not None:
                fields: list[list] = [[] for _ in self.labels]
                refs: list[list] = [[] for _ in self.classes]
                owners = [(_DB_OWNER, self.db), *zip(ccolor, self.bodies)]
                for owner, tau in owners:
                    _schema_occurrences(
                        tau, owner, (), fields, refs, lcolor, ccolor
                    )
                lsig = [
                    (*sig, tuple(sorted(occ)))
                    for sig, occ in zip(lsig, fields)
                ]
                csig = [
                    (
                        ccolor[c],
                        tuple(sorted(refs[c])),
                        _shape(body, lcolor, ccolor),
                    )
                    for c, body in enumerate(self.bodies)
                ]
            lcolor, ccolor = _ranks(lsig), _ranks(csig)
            grown = (len(set(lcolor)), len(set(ccolor)))
            if grown == counts:
                break
            counts = grown
        return lcolor, ccolor

    def render(
        self,
        context_value: str,
        lname: Sequence[str],
        cname: Sequence[str],
        class_order: Sequence[int],
    ) -> str:
        """The serialization under canonical names; ``class_order``
        lists class ids by canonical index."""

        def psi(constraint: tuple) -> str:
            _, forward, prefix, lhs, rhs = constraint
            return "|".join(
                (
                    ".".join([lname[label] for label in prefix]),
                    ".".join([lname[label] for label in lhs]),
                    ".".join([lname[label] for label in rhs]),
                    "F" if forward else "B",
                )
            )

        lines = [f"canon={CANON_VERSION}", f"ctx={context_value}"]
        lines.append("phi=" + psi(self.constraints[0]))
        for rendered in sorted({psi(c) for c in self.constraints[1:]}):
            lines.append("sigma=" + rendered)
        if self.db is not None:
            lines.append("db=" + self._render_type(self.db, lname, cname))
            for c in class_order:
                body = self._render_type(self.bodies[c], lname, cname)
                lines.append(f"{cname[c]}={body}")
            lines.append("atoms=" + ",".join(self.atoms))
        return "\n".join(lines)

    def _render_type(
        self, tau: tuple, lname: Sequence[str], cname: Sequence[str]
    ) -> str:
        kind = tau[0]
        if kind == _CLASS:
            return "c:" + cname[tau[1]]
        if kind == _SET:
            return "{" + self._render_type(tau[1], lname, cname) + "}"
        if kind == _RECORD:
            inner = sorted(
                f"{lname[label]}:{self._render_type(field, lname, cname)}"
                for label, field in tau[1]
            )
            return "[" + ",".join(inner) + "]"
        return "b:" + self.atoms[tau[1]]


def _ranks(signatures: list) -> list[int]:
    """Each signature's rank among the distinct signatures."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _shape(tau: tuple, lcolor: list[int], ccolor: list[int]) -> tuple:
    """An encoded type under a coloring (record fields as a multiset)."""
    kind = tau[0]
    if kind == _CLASS:
        return (_CLASS, ccolor[tau[1]])
    if kind == _SET:
        return (_SET, _shape(tau[1], lcolor, ccolor))
    if kind == _RECORD:
        fields = [
            (lcolor[label], _shape(field, lcolor, ccolor))
            for label, field in tau[1]
        ]
        return (_RECORD, tuple(sorted(fields)))
    return tau  # atomic types are rigid


def _schema_occurrences(
    tau: tuple,
    owner: int,
    ctx: tuple[int, ...],
    fields: list[list],
    refs: list[list],
    lcolor: list[int],
    ccolor: list[int],
) -> None:
    """Record where each label and class occurs inside one type tree.

    ``owner`` is the color of the class whose body holds ``tau`` (or
    ``_DB_OWNER``) and ``ctx`` the color path from it down to ``tau``.
    """
    kind = tau[0]
    if kind == _CLASS:
        refs[tau[1]].append((owner, ctx))
    elif kind == _SET:
        _schema_occurrences(
            tau[1], owner, ctx + (_SET_STEP,), fields, refs, lcolor, ccolor
        )
    elif kind == _RECORD:
        for label, field in tau[1]:
            fields[label].append((owner, ctx, _shape(field, lcolor, ccolor)))
            _schema_occurrences(
                field,
                owner,
                ctx + (lcolor[label],),
                fields,
                refs,
                lcolor,
                ccolor,
            )


# ---------------------------------------------------------------------------
# The tie-break search.
# ---------------------------------------------------------------------------


def _grouped(
    names: Sequence[str], colors: Sequence[int], rigid: Sequence[int]
) -> list[list[int]]:
    """Non-rigid ids grouped by color; groups in color order, the ids
    of a group in name order."""
    groups: dict[int, list[int]] = {}
    for index, color in enumerate(colors):
        if index not in rigid:
            groups.setdefault(color, []).append(index)
    return [
        sorted(groups[color], key=names.__getitem__)
        for color in sorted(groups)
    ]


def canonicalize_instance(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    context_value: str = "semistructured",
    schema: Schema | None = None,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> CanonicalForm:
    """Canonicalize one implication instance.

    The returned key is invariant under premise reordering/duplication
    and under bijective renaming of labels (and class names), rigid
    symbols excepted — unless the residual symmetry search would
    exceed ``search_cap``, in which case the key is still
    deterministic and ``fallback`` is set.
    """
    encoded = _Encoded(sigma, phi, schema)
    lcolor, ccolor = encoded.refine()
    label_groups = _grouped(encoded.labels, lcolor, encoded.rigid)
    class_groups = _grouped(encoded.classes, ccolor, ())
    assignments = 1
    for group in label_groups + class_groups:
        assignments *= factorial(len(group))

    # Rigid labels keep their "!name"; render() names every other one.
    lname = [f"!{label}" for label in encoded.labels]
    cname = [""] * len(encoded.classes)

    def render(
        label_order: Sequence[Sequence[int]],
        class_order: Sequence[Sequence[int]],
    ) -> str:
        for index, label in enumerate(chain.from_iterable(label_order)):
            lname[label] = f"l{index}"
        classes = list(chain.from_iterable(class_order))
        for index, name in enumerate(classes):
            cname[name] = f"C{index}"
        return encoded.render(context_value, lname, cname, classes)

    fallback = assignments > search_cap
    if fallback:
        # Deterministic fallback: original-name order inside each
        # ambiguous group.  Same instance -> same key, but an
        # alpha-renamed copy may key differently.
        best = (label_groups, class_groups)
        text = render(*best)
    else:
        best, text = None, None
        label_perms = product(*(permutations(g) for g in label_groups))
        for label_order in label_perms:
            class_perms = product(*(permutations(g) for g in class_groups))
            for class_order in class_perms:
                candidate = render(label_order, class_order)
                if text is None or candidate < text:
                    best, text = (label_order, class_order), candidate
        assert best is not None  # at least the empty assignment exists
    label_order, class_order = best
    label_map: dict[str, str] = {}
    if schema is not None:
        label_map[MEMBERSHIP_LABEL] = f"!{MEMBERSHIP_LABEL}"
    for index, label in enumerate(chain.from_iterable(label_order)):
        label_map[encoded.labels[label]] = f"l{index}"
    class_map = {
        encoded.classes[name]: f"C{index}"
        for index, name in enumerate(chain.from_iterable(class_order))
    }
    return CanonicalForm(
        key=hashlib.sha256(text.encode()).hexdigest(),
        text=text,
        label_map=label_map,
        class_map=class_map,
        fallback=fallback,
    )


def canonicalize_problem(problem) -> CanonicalForm:
    """Canonicalize an :class:`ImplicationProblem`.

    The schema only enters the key in typed contexts — the
    semistructured route ignores it, so two problems differing only in
    an unused schema share a key.
    """
    from repro.reasoning.dispatcher import Context  # import cycle guard

    schema = (
        problem.schema
        if problem.context is not Context.SEMISTRUCTURED
        else None
    )
    return canonicalize_instance(
        problem.sigma,
        problem.phi,
        context_value=problem.context.value,
        schema=schema,
    )
