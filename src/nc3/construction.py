"""Collective normal divisors and the sequential blow-up transform.

Given a configuration Y whose collective normal class is represented by an
explicit curve system {C1, C2, C3} (one divisor per double surface, each a
sum of alpha smooth curve classes with matched triple-curve intersections),
the transform blows components up along those curves in a fixed order:

    1. component 1 along the alpha curves of C2 on D2,
    2. component 2 along the alpha curves of C1 on D1,
    3. component 1 again along the proper transforms of the C3 curves,
       which now live on the blown-up third surface.

The output configuration has trivial collective normal class, hence is
d-semistable by the triple point formula.  All bookkeeping is exact:

* a blow-up along a curve of Euler number x adds x to the component's Euler
  number; the third surface gains one point per triple-curve intersection
  (gamma = sum of the per-curve counts), so e(D3~) = e(D3) + gamma;
* the third surface's lattice gains gamma pairwise-orthogonal (-1)-classes,
  held as a count beside its unchanged base Gram block;
  pullback classes keep their coordinates and the triple-curve, canonical
  and self classes pick up the standard exceptional corrections;
* each component's tracked H2 gains one class per exceptional divisor, and
  each restriction matrix gains a column per class holding its true
  restriction: the center's class on the surface it sits on, the
  exceptional points over the center on the third surface, zero elsewhere;
* each blown-up restriction matrix is written once in final form: its old
  rows, each extended by the new columns' entries, then on the third surface
  one row per exceptional point.  The points over one curve share one row
  tuple, repeated at C speed, and the third surface's two matrices are laid
  out from these runs and state them (``exactlat.RowRuns``), with each
  point row's nonzero pairs.  The point rows and their pairs are built once
  per process for each component rank and alpha, and the points' basis
  labels once per point count, so no Python step of the blow-up runs per
  point.  The exceptional divisors' labels are likewise built once per
  process for each alpha.  The first two surfaces keep their lattice,
  canonical and triple-curve classes and Euler number; only their
  restrictions and self classes change;
* the declared h2 of the configuration grows by exactly 2*alpha.

Order matters for the construction (the trace records it) but not for any
of the smoothing invariants computed downstream.  The trace keeps only the
per-round numbers: each center's degree and Euler number, taken with the
admissibility check from one Gram product per distinct class.  Its 3*alpha
steps and its labels are built on first read, so a caller that needs only
the invariants never builds them.
"""

from __future__ import annotations

import operator
from functools import cache, cached_property
from itertools import compress
from typing import Sequence

from ._record import Record
from .exactlat import (
    IntersectionLattice,
    RationalMatrix,
    SparseRow,
    Vec,
    gram_product,
    require_curve_class,
    rows_from_runs,
    vec_sub,
)
from .ncconfig import (
    SEVERITY_WARNING,
    ComponentGeometry,
    Diagnostic,
    NCConfiguration,
    SurfaceGeometry,
    has_errors,
)


class AdmissibilityError(Exception):
    """A collective divisor failed its admissibility checks."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in diagnostics if d.is_error))


class AmpleMarginError(Exception):
    """An intersection table violates the sequential blow-up shape."""


class CollectiveDivisor(Record):
    """Blow-up data: alpha curve classes on each surface, with matched counts.

    ``components[i][l]`` is the class of the l-th curve on surface i;
    ``tau_multiplicities[l]`` is the common number of points in which the
    l-th curve of every C_i meets the triple curve.  ``g_witness_present``
    attests that matching divisors exist on the components themselves (the
    projectivity witnesses); it is an attestation, not computed data.
    """

    alpha: int
    components: tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]
    tau_multiplicities: tuple[int, ...]
    g_witness_present: bool = True

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        for i, comps in enumerate(self.components):
            if len(comps) != self.alpha:
                raise ValueError(
                    f"surface {i + 1} carries {len(comps)} curve classes, expected alpha={self.alpha}"
                )
        if len(self.tau_multiplicities) != self.alpha:
            raise ValueError("one triple-curve multiplicity is required per curve")
        if any(m < 0 for m in self.tau_multiplicities):
            raise ValueError("triple-curve multiplicities must be non-negative")

    @property
    def gamma(self) -> int:
        return sum(self.tau_multiplicities)


class BlowupStep(Record):
    component: str
    center: str
    surface: str
    degree: int
    euler: int


class BlowupTrace(Record):
    """Ordered log of the 3*alpha blow-up steps and the classes they create.

    The fields are the compact data of the three rounds: per round, the
    blown-up component's name, the name of the surface holding the centers,
    the center label pattern, and each center's degree and Euler number.
    The steps and the labels are built on first read and kept; ``repr`` and
    :meth:`as_dict` show them, while equality and hashing follow the fields.
    """

    alpha: int
    rounds: tuple[tuple[str, str, str, tuple[int, ...], tuple[int, ...]], ...]

    @cached_property
    def steps(self) -> tuple[BlowupStep, ...]:
        return tuple(
            BlowupStep(component, label.format(l + 1), surface, degree, euler)
            for component, surface, label, degrees, eulers in self.rounds
            for l, (degree, euler) in enumerate(zip(degrees, eulers))
        )

    @cached_property
    def exceptional_classes(self) -> tuple[str, ...]:
        # The exceptional divisor over the center c[l,k] is E[l,k].
        return tuple(
            label.replace("c", "E", 1).format(l + 1)
            for _, _, label, _, _ in self.rounds
            for l in range(self.alpha)
        )

    @cached_property
    def kernel_classes(self) -> tuple[str, ...]:
        return tuple(f"E[{l + 1}]" for l in range(self.alpha)) + tuple(
            f"E'[{l + 1}]" for l in range(self.alpha)
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "steps": [s.as_dict() for s in self.steps],
            "exceptional_classes": list(self.exceptional_classes),
            "kernel_classes": list(self.kernel_classes),
        }

    def __repr__(self) -> str:
        return (
            f"BlowupTrace(steps={self.steps!r}, exceptional_classes="
            f"{self.exceptional_classes!r}, kernel_classes={self.kernel_classes!r})"
        )


# The CD(c) finding: projectivity is attested, never computed.
_NO_WITNESS_WARNING = Diagnostic(
    "CD(c)",
    SEVERITY_WARNING,
    "divisor",
    "no projectivity witnesses attested; the blown-up variety may not be projective",
)


def check_collective_divisor(
    config: NCConfiguration, divisor: CollectiveDivisor
) -> list[Diagnostic]:
    """Admissibility of a collective divisor against a configuration.

    Checks, per surface i and curve index l:

    (a) the curve classes sum to the collective normal class of the surface;
    (b) the declared triple-curve multiplicity equals the intersection
        number of each curve class with the triple-curve class;
    (c) the projectivity witnesses are attested (warning otherwise);
    (d) each curve class has even adjunction sum (smooth-curve parity).

    The pairing and adjunction sum are computed once per distinct class on
    a surface; a class repeated over several curves still gets one (b) and
    one (d) diagnostic per curve.
    """
    return _admissibility(config, divisor)[0]


def _admissibility(
    config: NCConfiguration, divisor: CollectiveDivisor
) -> tuple[list[Diagnostic], list[dict[Vec, tuple[int, int, int]]], list[Vec | None]]:
    """The one pass over the curve classes behind the check and the blow-up.

    Returns the sorted diagnostics of :func:`check_collective_divisor`; per
    surface, each distinct class's (triple-curve multiplicity, adjunction
    sum, degree against the surface's hyperplane class); and per surface,
    the sum of its classes.  A surface whose classes have the wrong length
    gets no numbers and no sum, only its CD(shape) error.

    Each distinct class c is multiplied by the Gram form once; the three
    numbers are then dot products of G c with tau, with c + K and with h.
    """
    diags: list[Diagnostic] = []
    numbers: list[dict[Vec, tuple[int, int, int]]] = []
    totals: list[Vec | None] = []
    normal = config.normal_class
    hyperplanes = config.hyperplanes
    for i, surf in enumerate(config.surfaces):
        classes = divisor.components[i]
        rank = surf.lattice.rank
        seen: dict[Vec, tuple[int, int, int]] = {}
        numbers.append(seen)
        if any(len(c) != rank for c in classes):
            totals.append(None)
            diags.append(
                Diagnostic.error(
                    "CD(shape)",
                    surf.name,
                    f"curve classes on {surf.name} must have length {rank}",
                )
            )
            continue
        total = tuple(map(sum, zip(*classes))) if classes else (0,) * rank
        totals.append(total)
        if total != normal.classes[i]:
            diags.append(
                Diagnostic.error(
                    "CD(a)",
                    surf.name,
                    f"curve classes on {surf.name} sum to {total}, but the "
                    f"collective normal class there is {normal.classes[i]}",
                )
            )
        # tau, K and h have the lattice's rank (the surface's and the
        # configuration's invariants), and so has G c.
        tau, canonical, h = surf.tau_class, surf.canonical, hyperplanes[i]
        for l, c in enumerate(classes):
            key = tuple(c)
            if key not in seen:
                gc = gram_product(key, surf.lattice)
                seen[key] = (
                    sum(map(operator.mul, gc, tau)),
                    sum(map(operator.mul, gc, key)) + sum(map(operator.mul, gc, canonical)),
                    sum(map(operator.mul, gc, h)),
                )
            m, s, _ = seen[key]
            if m != divisor.tau_multiplicities[l]:
                diags.append(
                    Diagnostic.error(
                        "CD(b)",
                        surf.name,
                        f"curve {l + 1} on {surf.name} meets the triple curve in "
                        f"{m} points, declared multiplicity is "
                        f"{divisor.tau_multiplicities[l]}",
                    )
                )
            if s % 2 != 0:
                diags.append(
                    Diagnostic.error(
                        "CD(d)",
                        surf.name,
                        f"curve {l + 1} on {surf.name} has odd adjunction sum {s}; "
                        f"no smooth curve carries this class",
                    )
                )
    if not divisor.g_witness_present:
        diags.append(_NO_WITNESS_WARNING)
    return sorted(diags), numbers, totals


def sequential_blowup(
    config: NCConfiguration, divisor: CollectiveDivisor
) -> tuple[NCConfiguration, BlowupTrace]:
    """Blow up along a collective divisor; the result is d-semistable.

    Refuses divisors that fail :func:`check_collective_divisor`, and a zero
    curve class.  With ``alpha == 0`` (legal only when the collective normal
    class already vanishes) the configuration is returned unchanged.  The
    check's pass gives each distinct class's adjunction sum and degree and
    each surface's class sum, so the blow-up pairs nothing itself.  The
    trace holds the per-round numbers; its steps and labels are built when
    first read.
    """
    diags, numbers, total_c = _admissibility(config, divisor)
    if has_errors(diags):
        raise AdmissibilityError(diags)

    if divisor.alpha == 0:
        return config, BlowupTrace(alpha=0, rounds=())

    alpha = divisor.alpha
    gamma = divisor.gamma
    c_on = divisor.components  # c_on[i][l]: class of curve l on surface i
    comp0, comp1, comp2 = config.components
    s0, s1, s2 = config.surfaces

    # Each center's degree and Euler number from the pass, read once per
    # curve: degree[i][l] and euler[i][l] for curve l on surface i.  A
    # smooth curve's Euler number is minus its adjunction sum.  They feed
    # the trace, the component Euler numbers and the Chern transport.
    degree = []
    euler = []
    for i in range(3):
        for c in numbers[i]:
            require_curve_class(c)
        centers = {c: (d, -s) for c, (_, s, d) in numbers[i].items()}
        degree_i, euler_i = zip(*(centers[tuple(c)] for c in c_on[i]))
        degree.append(degree_i)
        euler.append(euler_i)

    # --- trace ------------------------------------------------------------
    # One round per blow-up stage: the blown-up component, the surface
    # holding the centers and the center label; the steps are built when read.
    trace = BlowupTrace(
        alpha=alpha,
        rounds=tuple(
            (comp.name, config.surfaces[i].name, label, degree[i], euler[i])
            for comp, i, label in (
                (comp0, 1, "c[{},2]"),
                (comp1, 0, "c[{},1]"),
                (comp0, 2, "c'[{},3]"),
            )
        ),
    )
    labels_e1, labels_e2, labels_e3 = _alpha_table(alpha)

    # --- components --------------------------------------------------------
    chern0 = comp0.chern_numbers
    if chern0 is not None:
        for d in degree[1] + degree[2]:
            chern0 = transport_chern(chern0, d)
    chern1 = comp1.chern_numbers
    if chern1 is not None:
        for d in degree[0]:
            chern1 = transport_chern(chern1, d)

    zeros = (0,) * alpha
    new_comp0 = ComponentGeometry(
        name=comp0.name,
        euler=comp0.euler + sum(euler[1]) + sum(euler[2]),
        h2_rank=comp0.h2_rank + 2 * alpha,
        class_labels=comp0.class_labels + labels_e2 + labels_e3,
        ample=comp0.ample + zeros + zeros,
        boundary=None
        if comp0.boundary is None
        else (
            # toward component 1 (surface D3): proper transform subtracts the
            # stage-two exceptional divisors
            comp0.boundary[0] + zeros + (-1,) * alpha,
            # toward component 2 (surface D2): subtracts the stage-one ones
            comp0.boundary[1] + (-1,) * alpha + zeros,
        ),
        chern_numbers=chern0,
    )
    new_comp1 = ComponentGeometry(
        name=comp1.name,
        euler=comp1.euler + sum(euler[0]),
        h2_rank=comp1.h2_rank + alpha,
        class_labels=comp1.class_labels + labels_e1,
        ample=comp1.ample + zeros,
        boundary=None
        if comp1.boundary is None
        else (
            # toward component 0 (surface D3): centers meet it only in points
            comp1.boundary[0] + zeros,
            # toward component 2 (surface D1): centers lie on it
            comp1.boundary[1] + (-1,) * alpha,
        ),
        chern_numbers=chern1,
    )

    # --- surfaces -----------------------------------------------------------
    # Each restriction matrix is written once, row by row.  An exceptional
    # divisor over a center on surface i restricts there to the center's
    # class, so its column is the center's coordinates: row r of coords[i]
    # holds coordinate r of every curve on surface i.
    coords = [tuple(zip(*c_on[i])) for i in range(3)]

    # D1 = Y2 ^ Y3: the C1 centers are blown up inside Y2 (adjacency slot 0);
    # E[l,1] restricts to the curve.
    new_s0 = SurfaceGeometry(
        name=s0.name,
        lattice=s0.lattice,
        canonical=s0.canonical,
        tau_class=s0.tau_class,
        euler=s0.euler,
        restrictions=(
            tuple(r + c for r, c in zip(s0.restrictions[0], coords[0])),
            s0.restrictions[1],
        ),
        boundary_self=(vec_sub(s0.boundary_self[0], total_c[0]), s0.boundary_self[1]),
    )
    # D2 = Y3 ^ Y1: the C2 centers are blown up inside Y1 (adjacency slot 1);
    # E[l,2] restricts to the curve, E'[l,3] to zero.
    new_s1 = SurfaceGeometry(
        name=s1.name,
        lattice=s1.lattice,
        canonical=s1.canonical,
        tau_class=s1.tau_class,
        euler=s1.euler,
        restrictions=(
            s1.restrictions[0],
            tuple(r + c + zeros for r, c in zip(s1.restrictions[1], coords[1])),
        ),
        boundary_self=(s1.boundary_self[0], vec_sub(s1.boundary_self[1], total_c[1])),
    )
    # D3 = Y1 ^ Y2: blown up at the gamma triple-curve points, one new row
    # each, curve by curve: the first m_1 points lie over curve 1, and so on.
    points = divisor.tau_multiplicities
    new_lattice = IntersectionLattice(
        rank=s2.lattice.rank + gamma,
        gram=s2.lattice.gram,
        basis_labels=s2.lattice.basis_labels + _point_labels(gamma),
        exceptional=s2.lattice.exceptional + gamma,
    )
    eps_all_pos = (1,) * gamma
    eps_all_neg = (-1,) * gamma

    # Each matrix states its runs: one per base row, then one per curve that
    # meets the triple curve, whose points share one row tuple and state its
    # nonzero pairs.
    lengths = (1,) * len(s2.restrictions[0]) + tuple(filter(None, points))
    no_pairs = (None,) * len(s2.restrictions[0])
    # Restriction from component 0: pullbacks keep their coordinates (zero on
    # the exceptional points); E[l,2] restricts to the points over curve l;
    # E'[l,3] restricts to the proper transform of the l-th C3 curve, its
    # class minus those points.
    heads, pairs = _point_rows(comp0.h2_rank, alpha, True)
    new_r20 = rows_from_runs(
        [r + zeros + c for r, c in zip(s2.restrictions[0], coords[2])] + list(compress(heads, points)),
        lengths,
        no_pairs + tuple(compress(pairs, points)),
    )
    # Restriction from component 1: E[l,1] restricts to the points over curve l.
    heads, pairs = _point_rows(comp1.h2_rank, alpha, False)
    new_r21 = rows_from_runs(
        [r + zeros for r in s2.restrictions[1]] + list(compress(heads, points)),
        lengths,
        no_pairs + tuple(compress(pairs, points)),
    )
    new_s2 = SurfaceGeometry(
        name=s2.name,
        lattice=new_lattice,
        canonical=s2.canonical + eps_all_pos,
        tau_class=s2.tau_class + eps_all_neg,
        euler=s2.euler + gamma,
        restrictions=(new_r20, new_r21),
        boundary_self=(
            vec_sub(s2.boundary_self[0], total_c[2]) + eps_all_pos,
            s2.boundary_self[1] + (0,) * gamma,
        ),
    )

    new_config = NCConfiguration(
        components=(new_comp0, new_comp1, comp2),
        surfaces=(new_s0, new_s1, new_s2),
        triple=config.triple,
        h2_total=None if config.h2_total is None else config.h2_total + 2 * alpha,
        lattice_is_full=config.lattice_is_full,
        provenance_notes=config.provenance_notes
        + (
            f"sequential blow-up applied: alpha={alpha}, gamma={gamma}",
            "assumed, not checkable: the blow-up centers are pairwise disjoint "
            "irreducible smooth curves meeting the triple curve transversely",
        ),
    )
    return new_config, trace


@cache
def _alpha_table(alpha: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The labels ``E[l,1]``, ``E[l,2]`` and ``E'[l,3]`` of the exceptional
    divisors, for l = 1 .. alpha.

    They depend on alpha alone, so each is built once per process.
    """
    return (
        tuple(f"E[{l + 1},1]" for l in range(alpha)),
        tuple(f"E[{l + 1},2]" for l in range(alpha)),
        tuple(f"E'[{l + 1},3]" for l in range(alpha)),
    )


@cache
def _point_rows(width: int, alpha: int, proper: bool) -> tuple[tuple[Vec, ...], tuple[SparseRow, ...]]:
    """The restriction rows of the points over curves 1 .. alpha of the blown-up
    third surface, from a component with ``width`` classes before its alpha
    exceptional divisors, and each row's nonzero ``(col, value)`` pairs.

    A point over curve l is 1 on the l-th exceptional divisor.  With
    ``proper`` the component's alpha proper transforms E'[l,3] follow, and
    the point is -1 on the l-th of them.  The pairs are read from the rows.
    They depend on these numbers alone, so each is built once per process.
    """
    rows = []
    for l in range(alpha):
        row = [0] * (width + (2 if proper else 1) * alpha)
        row[width + l] = 1
        if proper:
            row[width + alpha + l] = -1
        rows.append(tuple(row))
    return tuple(rows), tuple(tuple(filter(operator.itemgetter(1), enumerate(r))) for r in rows)


@cache
def _point_labels(gamma: int) -> tuple[str, ...]:
    """The labels ``eps[1]`` to ``eps[gamma]`` of the blown-up third surface's points.

    They depend on gamma alone, so each tuple is built once per process.
    """
    return tuple(f"eps[{p + 1}]" for p in range(gamma))


def transport_chern(n: tuple[int, int, int], degree: int) -> tuple[int, int, int]:
    """Chern pairings of a distinguished class across one curve blow-up.

    The pullback class keeps its cube; pairing with c2 grows by the center's
    degree and pairing with c1^2 drops by the same amount.
    """
    if degree < 0:
        raise ValueError("center degree must be non-negative")
    h3, c2h, c1sqh = n
    return (h3, c2h + degree, c1sqh - degree)


def extend_restriction_matrix(
    m: RationalMatrix, alpha: int, gamma: int = 0
) -> RationalMatrix:
    """Extend a restriction-difference matrix by a blow-up with alpha curves.

    Appends, per curve, the two canonical kernel classes as fresh domain
    columns with zero image, and ``gamma`` codomain rows (the exceptional
    point classes on the blown-up surface) on which every old column
    vanishes.  The kernel dimension grows by exactly ``2 * alpha``.
    """
    if alpha < 0 or gamma < 0:
        raise ValueError("alpha and gamma must be non-negative")
    if alpha == 0 and gamma == 0:
        return m
    return RationalMatrix(m.cols + 2 * alpha, m.runs + (((), gamma),))


# ---------------------------------------------------------------------------
# Relative ampleness margins for sequential blow-ups


class AmpleMarginProblem(Record):
    """Intersection table of exceptional divisors against fiber curves.

    ``table[l][l']`` is the intersection of the l'-th exceptional divisor
    with a representative fiber curve of the l-th blow-up (0-based).  A
    valid table has -1 on the diagonal, zeros before it in each row, and
    non-negative entries after it.
    """

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.table)
        if k == 0:
            raise AmpleMarginError("the table must have at least one row")
        for row in self.table:
            if len(row) != k:
                raise AmpleMarginError("the intersection table must be square")
        for l in range(k):
            if self.table[l][l] != -1:
                raise AmpleMarginError(f"diagonal entry {l + 1} must be -1")
            for lp in range(l):
                if self.table[l][lp] != 0:
                    raise AmpleMarginError(
                        f"earlier exceptional divisor {lp + 1} must not meet fibers of "
                        f"blow-up {l + 1}"
                    )
            for lp in range(l + 1, k):
                if self.table[l][lp] < 0:
                    raise AmpleMarginError(
                        f"later exceptional divisor {lp + 1} has negative degree on "
                        f"fibers of blow-up {l + 1}"
                    )

    @property
    def k(self) -> int:
        return len(self.table)


class AmpleMarginCertificate(Record):
    beta: int
    m: int
    values: tuple[int, ...]


def ample_margin(problem: AmpleMarginProblem) -> AmpleMarginCertificate:
    """Margin certificate for the weighted exceptional combination.

    Let beta be the largest off-diagonal entry and m = beta + 2.  Then the
    divisor -E_k - m E_{k-1} - ... - m^{k-1} E_1 is positive against every
    fiber curve; the certificate lists the k pairing values, each verified
    positive.
    """
    k = problem.k
    beta = 0
    for l in range(k):
        for lp in range(l + 1, k):
            beta = max(beta, problem.table[l][lp])
    m = beta + 2
    values = []
    for l in range(k):
        value = -sum(m ** (k - 1 - lp) * problem.table[l][lp] for lp in range(k))
        values.append(value)
    cert = AmpleMarginCertificate(beta=beta, m=m, values=tuple(values))
    if any(v <= 0 for v in values):
        raise AmpleMarginError(
            f"margin certificate failed at m={m}: values {values}"
        )
    return cert
