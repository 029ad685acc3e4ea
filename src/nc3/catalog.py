"""Built-in families, partition enumeration, and reference tables.

Seven gluing configurations are shipped, each of three threefold pieces
glued pairwise along surfaces with a common triple curve.  For every family
the collective normal class is a positive multiple of the tracked hyperplane
class(es); choosing a partition of that multiple picks a collective divisor
(one curve class per part on each surface) and the sequential blow-up then
produces a d-semistable configuration whose smoothing invariants this
package computes.

Family data is the minimal numerical shadow: component Euler numbers, the
divisor class each component cuts on the others, the surface Gram forms and
Euler numbers.  Everything else (triple-curve classes, canonical classes,
boundary data, restriction matrices) is determined by the gluing pattern:

* the triple-curve class on the surface opposite component ``a`` is the cut
  class of ``a``; the canonical class is its negative;
* the two self-classes on a surface are the cut classes of the respective
  opposite partners;
* all tracked classes are ambient restrictions, so restriction matrices are
  identities.

Provenance: component and surface Euler numbers, declared h2 values, gamma
values and the expected (h11, h12) tables are transcribed reference data.
For the families ``quadric4fold-112``, ``cubic4fold-111`` and
``gr25-section`` the surface forms were fixed by inverting the expected
tables (the in-repo audit test re-derives them and checks uniqueness); the
ambient of ``quadric4fold-112`` is encoded as a quadric fourfold with
hypersurface degrees (1, 1, 2), the only complete-intersection reading that
reproduces its five rows.  Star flags are carried verbatim as transcription
metadata (they mark Hodge pairs absent from toric-construction databases);
this package asserts nothing about them.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

from . import construction
from ._record import Record
from .exactlat import (
    IntMatrix,
    Vec,
    as_int_matrix,
    make_lattice,
    pair,
    vec_scale,
)
from .ncconfig import (
    ComponentGeometry,
    NCConfiguration,
    OTHER_COMPONENTS,
    SURFACE_ADJACENCY,
    SurfaceGeometry,
    TripleCurve,
)


class UnknownFamily(Exception):
    pass


class PartitionError(Exception):
    """A partition does not meet the family's degree constraint."""


class FamilyComponent(Record):
    name: str
    euler: int
    cut: Vec
    chern_numbers: tuple[int, int, int] | None = None


class FamilySurface(Record):
    gram: IntMatrix
    euler: int


class Family(Record):
    """Static data of one catalog family.

    ``surfaces_opposite[a]`` describes the surface between the two
    components other than ``a``; ``total_degree`` is the class of the
    collective normal class in the shared tracked basis, and partitions must
    sum to it componentwise.  ``gamma_per_unit`` is the degree of the triple
    curve against the tracked hyperplane class (the same on every surface).
    """

    id: str
    description: str
    rank: int
    labels: tuple[str, ...]
    ample: Vec
    total_degree: Vec
    gamma: int
    gamma_per_unit: int
    h2: int
    tau_euler: int
    components: tuple[FamilyComponent, FamilyComponent, FamilyComponent]
    surfaces_opposite: tuple[FamilySurface, FamilySurface, FamilySurface]
    provenance: tuple[str, ...] = ()

    # Built on first use and kept on the instance: every partition of the
    # family shares it, and records never change, so sharing is safe.  Not a
    # record field, so the constructor, equality and hashing do not see it;
    # ``_record.replace(family)`` is a copy without it.
    @functools.cached_property
    def _configurations(self) -> dict[tuple[int, ...], NCConfiguration]:
        """The configuration of each component order, filled in by :func:`instantiate`."""
        return {}


class PartitionSpec(Record):
    """A multiset of positive curve-degree vectors, kept as a tuple.

    For rank-one families each part is ``(a,)`` with a >= 1; for the
    bidegree family each part is ``(a, b)`` with both non-negative and not
    both zero.
    """

    parts: tuple[Vec, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        if not parts:
            raise PartitionError("a partition needs at least one part")
        if len(set(map(len, parts))) != 1:
            raise PartitionError("all parts must have the same length")
        # Checked at C speed; the loop runs only to name the first bad part.
        if min(itertools.chain.from_iterable(parts), default=0) < 0 or not all(map(any, parts)):
            for p in parts:
                if any(x < 0 for x in p) or all(x == 0 for x in p):
                    raise PartitionError(f"part {p} must be non-negative and nonzero")

    @property
    def alpha(self) -> int:
        return len(self.parts)

    def degree(self) -> Vec:
        n = len(self.parts[0])
        return tuple(sum(p[i] for p in self.parts) for i in range(n))

    def canonical(self) -> "PartitionSpec":
        return PartitionSpec(parts=tuple(sorted(self.parts)))

    def display(self) -> str:
        return f"({self.cli_form()})"

    def cli_form(self) -> str:
        if len(self.parts[0]) == 1:
            return ",".join(str(p[0]) for p in self.parts)
        return ",".join("(" + ",".join(str(x) for x in p) + ")" for p in self.parts)


class TableRow(Record):
    partition: PartitionSpec
    h11: int
    h12: int
    star: bool


def _fam(
    fam_id: str,
    description: str,
    rank: int,
    labels: Sequence[str],
    total_degree: Sequence[int],
    gamma: int,
    gamma_per_unit: int,
    h2: int,
    components: Sequence[tuple[str, int, Sequence[int]]],
    surfaces: Sequence[tuple[Sequence[Sequence[int]], int]],
    chern: Sequence[tuple[int, int, int] | None] = (None, None, None),
    provenance: Sequence[str] = (),
) -> Family:
    return Family(
        id=fam_id,
        description=description,
        rank=rank,
        labels=tuple(labels),
        ample=(1,) * rank,
        total_degree=tuple(total_degree),
        gamma=gamma,
        gamma_per_unit=gamma_per_unit,
        h2=h2,
        tau_euler=0,
        components=tuple(
            FamilyComponent(name=n, euler=e, cut=tuple(c), chern_numbers=ch)
            for (n, e, c), ch in zip(components, chern)
        ),
        surfaces_opposite=tuple(
            FamilySurface(gram=as_int_matrix(g), euler=e) for g, e in surfaces
        ),
        provenance=tuple(provenance),
    )


FAMILIES: dict[str, Family] = {}


def _register(f: Family) -> Family:
    FAMILIES[f.id] = f
    return f


QUINTIC = _register(
    _fam(
        "quintic",
        "two hyperplanes and a cubic threefold in P4",
        rank=1,
        labels=("h",),
        total_degree=(5,),
        gamma=15,
        gamma_per_unit=3,
        h2=1,
        components=(("Y1", 4, (1,)), ("Y2", 4, (1,)), ("Y3", -6, (3,))),
        surfaces=(([[3]], 9), ([[3]], 9), ([[1]], 3)),
        chern=((1, 6, 16), (1, 6, 16), (3, 12, 12)),
        provenance=(
            "component Euler numbers and Chern pairings: transcribed",
            "surface forms: cubic surfaces and a plane, ambient restrictions",
        ),
    )
)

THREE_P3 = _register(
    _fam(
        "three-p3-quadric",
        "three copies of P3 glued along quadric surfaces",
        rank=1,
        labels=("h",),
        total_degree=(6,),
        gamma=24,
        gamma_per_unit=4,
        h2=1,
        components=(("Y1", 4, (2,)), ("Y2", 4, (2,)), ("Y3", 4, (2,))),
        surfaces=(([[2]], 4), ([[2]], 4), ([[2]], 4)),
        provenance=("all data: quadric surfaces in P3, transcribed/classical",),
    )
)

QUADRIC4 = _register(
    _fam(
        "quadric4fold-112",
        "hypersurfaces of degrees 1, 1, 2 in a quadric fourfold in P5",
        rank=1,
        labels=("h",),
        total_degree=(4,),
        gamma=16,
        gamma_per_unit=4,
        h2=1,
        components=(("Y1", 4, (1,)), ("Y2", 4, (1,)), ("Y3", 0, (2,))),
        surfaces=(([[4]], 8), ([[4]], 8), ([[2]], 4)),
        provenance=(
            "derived: quadric-fourfold ambient with degrees (1,1,2) is the unique "
            "complete-intersection reading reproducing the expected rows "
            "(re-derived by the table-inversion audit test); the alternative "
            "quartic-ambient reading with total degree 3 contradicts the rows "
            "and is recorded here as rejected",
        ),
    )
)

CUBIC4 = _register(
    _fam(
        "cubic4fold-111",
        "three hyperplane sections of a cubic fourfold in P5",
        rank=1,
        labels=("h",),
        total_degree=(3,),
        gamma=9,
        gamma_per_unit=3,
        h2=1,
        components=(("Y1", -6, (1,)), ("Y2", -6, (1,)), ("Y3", -6, (1,))),
        surfaces=(([[3]], 9), ([[3]], 9), ([[3]], 9)),
        provenance=(
            "derived: cubic-fourfold ambient with degrees (1,1,1), fixed by the "
            "table-inversion audit (total boundary degree three)",
        ),
    )
)

TWO_QUADRICS = _register(
    _fam(
        "two-quadrics-p6",
        "three hyperplane sections of a complete intersection of two quadrics in P6",
        rank=1,
        labels=("h",),
        total_degree=(3,),
        gamma=12,
        gamma_per_unit=4,
        h2=1,
        components=(("Y1", 0, (1,)), ("Y2", 0, (1,)), ("Y3", 0, (1,))),
        surfaces=(([[4]], 8), ([[4]], 8), ([[4]], 8)),
        provenance=("degree-four del Pezzo surfaces; transcribed/classical",),
    )
)

GR25 = _register(
    _fam(
        "gr25-section",
        "three hyperplane sections of a codimension-two linear section of Gr(2,5)",
        rank=1,
        labels=("h",),
        total_degree=(3,),
        gamma=15,
        gamma_per_unit=5,
        h2=1,
        components=(("Y1", 4, (1,)), ("Y2", 4, (1,)), ("Y3", 4, (1,))),
        surfaces=(([[5]], 7), ([[5]], 7), ([[5]], 7)),
        provenance=(
            "derived: degree-five sections (quintic del Pezzo surfaces, e = 7; "
            "degree-five threefolds, e = 4), re-derived by the table-inversion audit",
        ),
    )
)

P2XP2 = _register(
    _fam(
        "p2xp2",
        "three hypersurfaces of bidegree (1,1) in P2 x P2",
        rank=2,
        labels=("h1", "h2"),
        total_degree=(3, 3),
        gamma=18,
        gamma_per_unit=6,
        h2=2,
        components=(("Y1", 6, (1, 1)), ("Y2", 6, (1, 1)), ("Y3", 6, (1, 1))),
        surfaces=(([[1, 2], [2, 1]], 6), ([[1, 2], [2, 1]], 6), ([[1, 2], [2, 1]], 6)),
        provenance=("bidegree intersection form on the double surfaces: ambient restriction",),
    )
)


def family_ids() -> tuple[str, ...]:
    return tuple(sorted(FAMILIES))


def get_family(fam_id: str) -> Family:
    try:
        return FAMILIES[fam_id]
    except KeyError:
        raise UnknownFamily(
            f"unknown family {fam_id!r}; known: {', '.join(family_ids())}"
        )


# ---------------------------------------------------------------------------
# Instantiation


def instantiate(
    family: Family | str,
    partition: PartitionSpec,
    component_order: tuple[int, int, int] | None = None,
) -> tuple[NCConfiguration, construction.CollectiveDivisor]:
    """The configuration and collective divisor for a partition.

    ``component_order`` permutes which family component sits in which slot
    (slot 1 absorbs two rounds of blow-ups, slot 2 one, slot 3 none); the
    smoothing invariants do not depend on it, the trace does.  Parts are
    taken in the given order; sort beforehand for the canonical trace.

    The configuration depends only on the family and the component order,
    so it is built once per order and kept on the family: every partition
    gets the same immutable object, with the values it caches.  Only the
    divisor is built per partition.
    """
    fam = get_family(family) if isinstance(family, str) else family
    if any(len(p) != fam.rank for p in partition.parts):
        raise PartitionError(
            f"parts of {partition.display()} do not match family rank {fam.rank}"
        )
    if partition.degree() != fam.total_degree:
        raise PartitionError(
            f"partition {partition.display()} has degree {partition.degree()}, "
            f"family {fam.id} requires {fam.total_degree}"
        )
    order = tuple(component_order) if component_order is not None else (0, 1, 2)
    if sorted(order) != [0, 1, 2]:
        raise PartitionError(f"component_order must be a permutation of (0,1,2), got {order}")
    config = fam._configurations.get(order)
    if config is None:
        config = fam._configurations[order] = _configuration(fam, order)

    surf = config.surfaces[0]
    classes = tuple(partition.parts)
    meets = {c: pair(c, surf.tau_class, surf.lattice) for c in dict.fromkeys(classes)}
    mults = tuple(map(meets.__getitem__, classes))
    divisor = construction.CollectiveDivisor(
        alpha=partition.alpha,
        components=(classes, classes, classes),
        tau_multiplicities=mults,
        g_witness_present=True,
    )
    return config, divisor


def _configuration(fam: Family, order: tuple[int, ...]) -> NCConfiguration:
    """The family's components and surfaces placed in ``order``."""
    comps = []
    for slot in range(3):
        fc = fam.components[order[slot]]
        comps.append(
            ComponentGeometry(
                name=fc.name,
                euler=fc.euler,
                h2_rank=fam.rank,
                class_labels=tuple(f"{lbl}|{fc.name}" for lbl in fam.labels),
                ample=fam.ample,
                boundary=tuple(fam.components[order[o]].cut for o in OTHER_COMPONENTS[slot]),
                chern_numbers=fc.chern_numbers,
            )
        )

    # Every tracked class is an ambient restriction.
    identity = as_int_matrix([[1 if i == j else 0 for j in range(fam.rank)] for i in range(fam.rank)])
    surfs = []
    for slot in range(3):
        j, k = SURFACE_ADJACENCY[slot]
        tau = fam.components[order[slot]].cut
        surface = fam.surfaces_opposite[order[slot]]
        surfs.append(
            SurfaceGeometry(
                name=f"D{slot + 1}",
                lattice=make_lattice(surface.gram, fam.labels),
                canonical=vec_scale(-1, tau),
                tau_class=tau,
                euler=surface.euler,
                restrictions=(identity, identity),
                boundary_self=(
                    fam.components[order[k]].cut,
                    fam.components[order[j]].cut,
                ),
            )
        )

    notes = (f"catalog family {fam.id}",) + fam.provenance
    if order != (0, 1, 2):
        notes = notes + (f"component order {tuple(o + 1 for o in order)}",)
    return NCConfiguration(
        components=(comps[0], comps[1], comps[2]),
        surfaces=(surfs[0], surfs[1], surfs[2]),
        triple=TripleCurve(euler=fam.tau_euler, connected=True),
        h2_total=fam.h2,
        lattice_is_full=True,
        provenance_notes=notes,
    )


# ---------------------------------------------------------------------------
# Partition enumeration


def _partitions(target: Vec, smallest: Vec) -> Iterator[tuple[Vec, ...]]:
    """Multisets of parts, each at least ``smallest``, that sum to ``target``.

    Each is a non-decreasing tuple of parts, yielded in lexicographic order.
    Every later part is at least the one just taken, so a part other than
    the whole target leaves a remainder at least as large: its first
    coordinate is at most half the target's, and no coordinate goes negative.
    """
    ranges = [range(t + 1) for t in target]
    ranges[0] = range(smallest[0], target[0] // 2 + 1)
    for p in itertools.product(*ranges):
        remaining = tuple(t - x for t, x in zip(target, p))
        if smallest <= p <= remaining:
            for rest in _partitions(remaining, p):
                yield (p,) + rest
    yield (target,)


def enumerate_partitions(family: Family | str) -> list[PartitionSpec]:
    """All partitions meeting the family degree, canonically ordered."""
    fam = get_family(family) if isinstance(family, str) else family
    # (0, ..., 0, 1) is the smallest nonzero part.
    smallest = (0,) * (fam.rank - 1) + (1,)
    return [PartitionSpec(parts=p) for p in _partitions(fam.total_degree, smallest)]


# ---------------------------------------------------------------------------
# Reference tables (transcribed; h11/h12 of the smoothing per partition).
# Stars mark rows whose Hodge pair is absent from toric-construction
# databases; carried as metadata only.

_RAW_TABLES: dict[str, tuple[tuple[tuple, int, int, bool], ...]] = {
    "quintic": (
        ((1, 1, 1, 1, 1), 9, 39, False),
        ((1, 1, 1, 2), 7, 44, False),
        ((1, 1, 3), 5, 56, False),
        ((1, 4), 3, 75, False),
        ((1, 2, 2), 5, 49, False),
        ((2, 3), 3, 61, True),
        ((5,), 1, 101, False),
    ),
    "three-p3-quadric": (
        ((1, 1, 1, 1, 1, 1), 11, 23, False),
        ((1, 1, 1, 1, 2), 9, 27, False),
        ((1, 1, 1, 3), 7, 37, False),
        ((1, 1, 2, 2), 7, 31, False),
        ((1, 1, 4), 5, 53, False),
        ((1, 2, 3), 5, 41, False),
        ((2, 2, 2), 5, 35, False),
        ((1, 5), 3, 75, False),
        ((2, 4), 3, 57, False),
        ((3, 3), 3, 51, False),
        ((6,), 1, 103, False),
    ),
    "quadric4fold-112": (
        ((1, 1, 1, 1), 7, 35, False),
        ((1, 1, 2), 5, 43, False),
        ((1, 3), 3, 61, True),
        ((2, 2), 3, 51, False),
        ((4,), 1, 89, True),
    ),
    "cubic4fold-111": (
        ((1, 1, 1), 5, 50, False),
        ((1, 2), 3, 57, False),
        ((3,), 1, 73, True),
    ),
    "two-quadrics-p6": (
        ((1, 1, 1), 5, 41, False),
        ((1, 2), 3, 51, False),
        ((3,), 1, 73, False),
    ),
    "gr25-section": (
        ((1, 1, 1), 5, 35, False),
        ((1, 2), 3, 48, True),
        ((3,), 1, 76, True),
    ),
    "p2xp2": (
        (((3, 3),), 2, 83, False),
        (((1, 0), (2, 3)), 4, 61, False),
        (((1, 3), (2, 0)), 4, 43, True),
        (((0, 3), (3, 0)), 4, 31, True),
        (((0, 2), (3, 1)), 4, 43, True),
        (((1, 2), (2, 1)), 4, 43, True),
        (((1, 1), (2, 2)), 4, 49, False),
        (((0, 1), (3, 2)), 4, 61, False),
        (((1, 0), (1, 0), (1, 3)), 6, 42, False),
        (((0, 3), (1, 0), (2, 0)), 6, 27, False),
        (((0, 2), (1, 0), (2, 1)), 6, 33, False),
        (((1, 0), (1, 1), (1, 2)), 6, 36, False),
        (((0, 1), (1, 0), (2, 2)), 6, 45, False),
        (((0, 2), (1, 1), (2, 0)), 6, 27, False),
        (((0, 1), (1, 2), (2, 0)), 6, 33, False),
        (((0, 1), (0, 2), (3, 0)), 6, 27, False),
        (((0, 1), (0, 1), (3, 1)), 6, 42, False),
        (((0, 1), (1, 1), (2, 1)), 6, 36, False),
        (((1, 1), (1, 1), (1, 1)), 6, 33, False),
        (((0, 3), (1, 0), (1, 0), (1, 0)), 8, 26, False),
        (((0, 2), (1, 0), (1, 0), (1, 1)), 8, 26, False),
        (((0, 1), (1, 0), (1, 0), (1, 2)), 8, 32, False),
        (((0, 1), (0, 2), (1, 0), (2, 0)), 8, 23, True),
        (((0, 1), (0, 1), (1, 0), (2, 1)), 8, 32, False),
        (((0, 1), (1, 0), (1, 1), (1, 1)), 8, 29, False),
        (((0, 1), (0, 1), (1, 1), (2, 0)), 8, 26, False),
        (((0, 1), (0, 1), (0, 1), (3, 0)), 8, 26, False),
        (((0, 1), (0, 2), (1, 0), (1, 0), (1, 0)), 10, 22, False),
        (((0, 1), (0, 1), (1, 0), (1, 0), (1, 1)), 10, 25, False),
        (((0, 1), (0, 1), (0, 1), (1, 0), (2, 0)), 10, 22, False),
        (((0, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 0)), 12, 21, False),
    ),
}


def _normalize_parts(fam: Family, raw: tuple) -> PartitionSpec:
    if fam.rank == 1:
        parts = tuple((a,) for a in raw)
    else:
        parts = tuple(tuple(p) for p in raw)
    return PartitionSpec(parts=parts).canonical()


def expected_table(family: Family | str) -> list[TableRow]:
    """The embedded reference rows, in canonical partition order."""
    fam = get_family(family) if isinstance(family, str) else family
    rows = [
        TableRow(partition=_normalize_parts(fam, raw), h11=h11, h12=h12, star=star)
        for raw, h11, h12, star in _RAW_TABLES[fam.id]
    ]
    rows.sort(key=lambda r: r.partition.parts)
    return rows

