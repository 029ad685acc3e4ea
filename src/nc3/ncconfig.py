"""Data model for a three-component normal crossing configuration.

A configuration is the numerical shadow of a normal crossing variety
Y = Y1 u Y2 u Y3 of dimension three: three threefold components, the three
double surfaces along which they are glued, and the common triple curve.
Only lattice data is stored (Gram forms, divisor-class coordinates,
restriction matrices, Euler numbers), never varieties.

Index conventions, fixed throughout the package:

* surfaces are numbered opposite their missing component:
  D1 = Y2 ^ Y3,  D2 = Y3 ^ Y1,  D3 = Y1 ^ Y2;
* each surface stores its two restriction matrices in the adjacency order
  given by ``SURFACE_ADJACENCY`` (D1: from Y2 then Y3, cyclically);
* ``boundary_self`` on a surface D = Yj ^ Yk is the pair of self-restriction
  classes (the class of D as a divisor of Yj restricted to D, then the same
  from the Yk side), i.e. the two normal-bundle classes;
* the class of the triple curve on each surface is ``tau_class``.

The restriction-difference matrix maps ``(+) H2(Yi) -> (+) Pic(Di)`` by

    (x1, x2, x3) |-> (x2|D1 - x3|D1,  x3|D2 - x1|D2,  x1|D3 - x2|D3).

It is built as its runs of equal rows, one sparse row and its length per
run of equal pairs of restriction rows on a surface.  Its rank reads the
distinct nonzero rows of those runs, and its dense rows are laid out from
the same runs only when something reads them.
Its kernel computes h2 of the glued variety; two canonical elements of that
kernel for a semistable central fiber are the collective restrictions of the
component line bundles O(Y1) and O(Y2), returned by
``component_restriction_classes``.

Surface lattices may be proper sublattices of the full Picard lattice (for
the catalog: the span of ambient hyperplane restrictions).  Every formula in
this package is valid on the tracked sublattice; ``lattice_is_full`` records
whether kernel-based h2 counts may be trusted as the full second Betti number.

The ``ncconfig/1`` JSON reader and writer live in ``nc3.configfile``, which
only a command that reads or writes a file or a payload loads.  This module
forwards their names (``config_to_json``, ``config_from_json``, ``dumps``
and the rest) on first use.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, groupby, repeat
from operator import neg
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ._record import Record
from .exactlat import (
    DimensionMismatch,
    IntersectionLattice,
    IntMatrix,
    RationalMatrix,
    RowRuns,
    SparseRow,
    Vec,
    adjunction_sum,
    kernel_dimension,
    mat_vec,
    vec_add,
    vec_sub,
    vec_zero,
)

if TYPE_CHECKING:
    from .degeneration import NormalClassTriple

# Surface i is Y_j ^ Y_k for (j, k) = SURFACE_ADJACENCY[i] (0-based component
# indices).  The order within each pair fixes the order of restriction
# matrices, boundary_self slots, and the signs in the restriction-difference
# matrix (+ first adjacent, - second adjacent).
SURFACE_ADJACENCY: tuple[tuple[int, int], ...] = ((1, 2), (2, 0), (0, 1))
# OTHER_COMPONENTS[i]: the two component indices other than i, increasing; the
# order of a component's boundary classes.
OTHER_COMPONENTS: tuple[tuple[int, int], ...] = ((1, 2), (0, 2), (0, 1))

SCHEMA_ID = "ncconfig/1"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_NOTE = "note"


class ConfigError(Exception):
    """Invalid configuration data (construction-time)."""


class SchemaError(ConfigError):
    """Malformed serialized configuration."""


class InsufficientBasis(ConfigError):
    """Boundary divisor classes are not expressible in the declared bases."""


class MissingData(ConfigError):
    """An operation needs optional data the configuration does not carry."""


class Diagnostic(Record, order=True):
    """One validation finding, ordered by clause identifier."""

    clause: str
    severity: str
    target: str
    message: str

    @classmethod
    def error(cls, clause: str, target: str, message: str) -> Diagnostic:
        return cls(clause=clause, severity=SEVERITY_ERROR, target=target, message=message)

    @property
    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


class InvalidConfiguration(ConfigError):
    """:func:`validate` reported an error; ``diagnostics`` holds its findings."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("configuration fails validation")


class ComponentGeometry(Record):
    """One threefold component: Euler number and tracked H2 data.

    ``ample`` holds the coordinates of the distinguished ample class H_i.
    ``boundary`` optionally holds the coordinates of the two boundary
    divisors (the double surfaces seen as divisors on this component),
    keyed by the other two component indices in increasing order.
    ``chern_numbers`` is the optional triple (H^3, c2.H, c1^2.H).
    """

    name: str
    euler: int
    h2_rank: int
    class_labels: tuple[str, ...]
    ample: Vec
    boundary: tuple[Vec, Vec] | None = None
    chern_numbers: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.h2_rank < 1:
            raise ConfigError(f"component {self.name}: h2_rank must be positive")
        if len(self.class_labels) != self.h2_rank:
            raise ConfigError(
                f"component {self.name}: {len(self.class_labels)} labels for rank {self.h2_rank}"
            )
        if len(set(self.class_labels)) != self.h2_rank:
            raise ConfigError(f"component {self.name}: class labels must be distinct")
        if len(self.ample) != self.h2_rank:
            raise ConfigError(f"component {self.name}: ample class has wrong length")
        if self.boundary is not None:
            for b in self.boundary:
                if len(b) != self.h2_rank:
                    raise ConfigError(
                        f"component {self.name}: boundary class has wrong length"
                    )
        if self.chern_numbers is not None and self.chern_numbers[0] < 1:
            raise ConfigError(f"component {self.name}: H^3 must be at least 1")


class SurfaceGeometry(Record):
    """One double surface: lattice, distinguished classes, restrictions.

    ``restrictions`` are the two matrices sending the adjacent components'
    tracked H2 bases into this lattice, in adjacency order.
    """

    name: str
    lattice: IntersectionLattice
    canonical: Vec
    tau_class: Vec
    euler: int
    restrictions: tuple[IntMatrix, IntMatrix]
    boundary_self: tuple[Vec, Vec]

    def __post_init__(self) -> None:
        for label, v in (
            ("canonical", self.canonical),
            ("tau_class", self.tau_class),
            ("boundary_self[0]", self.boundary_self[0]),
            ("boundary_self[1]", self.boundary_self[1]),
        ):
            if len(v) != self.lattice.rank:
                raise ConfigError(f"surface {self.name}: {label} has wrong length")


class TripleCurve(Record):
    """The triple intersection curve: Euler number and connectivity flag."""

    euler: int
    connected: bool


class NCConfiguration(Record):
    components: tuple[ComponentGeometry, ComponentGeometry, ComponentGeometry]
    surfaces: tuple[SurfaceGeometry, SurfaceGeometry, SurfaceGeometry]
    triple: TripleCurve
    h2_total: int | None = None
    lattice_is_full: bool = False
    provenance_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.components) != 3 or len(self.surfaces) != 3:
            raise ConfigError("a configuration has exactly three components and surfaces")
        names = [c.name for c in self.components]
        if len(set(names)) != 3:
            raise ConfigError("component names must be distinct")
        for surf, adj in zip(self.surfaces, SURFACE_ADJACENCY):
            for m, comp in zip(surf.restrictions, (self.components[i] for i in adj)):
                # Each row of a stated matrix is one of its heads.
                rows = m.heads if type(m) is RowRuns else m
                if len(m) != surf.lattice.rank or not {comp.h2_rank}.issuperset(map(len, rows)):
                    raise ConfigError(
                        f"surface {surf.name}: restriction from {comp.name} must be "
                        f"{surf.lattice.rank}x{comp.h2_rank}"
                    )

    @cached_property
    def kernel_dim(self) -> int:
        """Kernel dimension of the restriction-difference matrix, ranked once
        on its distinct nonzero rows."""
        return kernel_dimension(restriction_difference_matrix(self))

    @cached_property
    def normal_class(self) -> NormalClassTriple:
        """The collective normal class, computed once by
        ``degeneration.collective_normal_class``."""
        from . import degeneration  # degeneration imports this module

        return degeneration.collective_normal_class(self)

    @cached_property
    def hyperplanes(self) -> tuple[Vec, ...]:
        """Per surface, the distinguished ample class restricted once from
        its first adjacent component; validation checks that both sides agree."""
        return tuple(
            self.restrict(i, j, self.components[j].ample)
            for i, (j, _) in enumerate(SURFACE_ADJACENCY)
        )

    def restriction(self, surface_index: int, component_index: int) -> IntMatrix:
        """Restriction matrix from a component into an adjacent surface."""
        adj = SURFACE_ADJACENCY[surface_index]
        if component_index not in adj:
            raise MissingData(
                f"component {self.components[component_index].name} is not adjacent "
                f"to surface {self.surfaces[surface_index].name}"
            )
        return self.surfaces[surface_index].restrictions[adj.index(component_index)]

    def restrict(self, surface_index: int, component_index: int, v: Vec) -> Vec:
        """Image of ``v`` under a restriction matrix, each stated run multiplied once.

        A blown-up surface repeats one restriction row for every point over
        a curve.  The blow-up and the reader state such a matrix's runs
        (:class:`~nc3.exactlat.RowRuns`): each run's head is multiplied once
        and its image repeated at C speed.  Any other matrix is multiplied
        row by row.
        """
        m = self.restriction(surface_index, component_index)
        if type(m) is not RowRuns:
            return mat_vec(m, v)
        return tuple(chain.from_iterable(map(repeat, mat_vec(m.heads, v), m.lengths)))

    def boundary_class(self, component_index: int, other_index: int) -> Vec:
        """Coordinates on component i of the double surface Y_other ^ Y_i."""
        comp = self.components[component_index]
        if comp.boundary is None:
            raise InsufficientBasis(
                f"component {comp.name} does not declare boundary divisor coordinates"
            )
        return comp.boundary[OTHER_COMPONENTS[component_index].index(other_index)]


# ---------------------------------------------------------------------------
# Validation


# Hypotheses the numerical shadow cannot see, reported as the same notes on
# every configuration.
_ASSUMED_NOTES = tuple(
    Diagnostic(clause, SEVERITY_NOTE, target, "assumed, not checkable: " + hypothesis)
    for clause, target, hypothesis in (
        ("C3.1(2)", "components", "H^1 and H^2 of each component structure sheaf vanish"),
        ("C3.1(2)", "surfaces", "H^1 and H^2 of each double-surface structure sheaf vanish"),
        ("C3.1(2)", "surfaces", "the double surfaces are connected"),
        (
            "C3.1(4)",
            "components",
            "minus the sum of the boundary divisors is a canonical divisor of each "
            "component (only its surface restriction is checked)",
        ),
    )
)


def validate(config: NCConfiguration) -> list[Diagnostic]:
    """Check every numerically checkable standing hypothesis.

    This is the one gate: ``check`` reports these diagnostics, and
    ``invariants.smoothing_invariants`` refuses a configuration with an
    error among them.  Restriction shapes are a record invariant, so the
    structural clauses (C3.1(2), (3), (4) and parity) run first, on every
    configuration.  Cross-checks that presuppose coherent data (declared h2
    versus kernel dimension, boundary-coordinate coherence) run only when no
    structural clause failed.  Hypotheses the numerical shadow cannot see
    (cohomology vanishing, connectivity of the double surfaces, the
    component-level anticanonical condition) are constant notes, the same
    four on every configuration.  The findings come back sorted.
    """
    diags = list(_ASSUMED_NOTES)

    # Clause (2): connectivity and curve type of the triple curve.
    if not config.triple.connected:
        diags.append(Diagnostic.error("C3.1(2)", "triple", "triple curve must be connected"))
    if config.triple.euler > 2 or config.triple.euler % 2 != 0:
        diags.append(
            Diagnostic.error(
                "C3.1(2)",
                "triple",
                f"triple curve Euler number {config.triple.euler} is not that of a smooth connected curve",
            )
        )

    for i, surf in enumerate(config.surfaces):
        # Clause (3): the distinguished ample classes must restrict equally;
        # ``hyperplanes`` holds the restriction from the first side.
        j, k = SURFACE_ADJACENCY[i]
        left = config.hyperplanes[i]
        right = config.restrict(i, k, config.components[k].ample)
        if left != right:
            diags.append(
                Diagnostic.error(
                    "C3.1(3)",
                    surf.name,
                    f"ample matching on {surf.name}: "
                    f"{config.components[j].name} restricts to {left}, "
                    f"{config.components[k].name} restricts to {right}",
                )
            )
        # Clause (4): on each surface the anticanonical condition restricts to
        # K_D = -tau; the component-level statement itself is not checkable.
        if vec_add(surf.canonical, surf.tau_class) != vec_zero(surf.lattice.rank):
            diags.append(
                Diagnostic.error(
                    "C3.1(4)",
                    surf.name,
                    f"canonical class {surf.canonical} is not minus the triple-curve "
                    f"class {surf.tau_class} on {surf.name}",
                )
            )
        # Smooth-curve parity of the triple-curve class; the surface itself
        # guarantees both classes have the lattice's rank.
        if adjunction_sum(surf.tau_class, surf.canonical, surf.lattice) % 2 != 0:
            diags.append(
                Diagnostic.error(
                    "parity",
                    surf.name,
                    f"triple-curve class on {surf.name} fails smooth-curve adjunction parity",
                )
            )

    if has_errors(diags):
        return sorted(diags)

    if config.h2_total is not None:
        dim = config.kernel_dim
        if not config.lattice_is_full:
            diags.append(
                Diagnostic(
                    clause="h2-total",
                    severity=SEVERITY_NOTE,
                    target="configuration",
                    message=(
                        f"tracked lattices not declared complete; kernel dimension {dim} "
                        f"not required to match declared h2_total {config.h2_total}"
                    ),
                )
            )
        elif dim != config.h2_total:
            diags.append(
                Diagnostic.error(
                    "h2-total",
                    "configuration",
                    f"declared h2_total {config.h2_total} does not equal the "
                    f"kernel dimension {dim} of the restriction-difference matrix",
                )
            )
    diags.extend(_boundary_coherence(config))
    return sorted(diags)


def _boundary_coherence(config: NCConfiguration) -> list[Diagnostic]:
    """Cross-check declared boundary coordinates against restriction data.

    On component Y_i the divisor Y_j ^ Y_i restricts to the self-class of
    that surface from the Y_i side, and to the triple-curve class on the
    other surface adjacent to Y_i.  Only runs when coordinates are declared.
    """
    out: list[Diagnostic] = []
    for i, comp in enumerate(config.components):
        if comp.boundary is None:
            continue
        for j, b in zip(OTHER_COMPONENTS[i], comp.boundary):
            # Surface k = Y_i ^ Y_j: expect the self-class from the Y_i side.
            k = 3 - i - j
            surf = config.surfaces[k]
            expected_self = surf.boundary_self[SURFACE_ADJACENCY[k].index(i)]
            got = config.restrict(k, i, b)
            if got != expected_self:
                out.append(
                    Diagnostic.error(
                        "coherence",
                        surf.name,
                        f"boundary divisor of {comp.name} toward "
                        f"{config.components[j].name} restricts to {got}, expected "
                        f"self-class {expected_self} on {surf.name}",
                    )
                )
            # Surface j = Y_i ^ Y_k: expect the triple-curve class.
            surf = config.surfaces[j]
            got = config.restrict(j, i, b)
            if got != surf.tau_class:
                out.append(
                    Diagnostic.error(
                        "coherence",
                        surf.name,
                        f"boundary divisor of {comp.name} toward "
                        f"{config.components[j].name} restricts to {got} on "
                        f"{surf.name}, expected the triple-curve class {surf.tau_class}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# The restriction-difference matrix and its canonical kernel classes


def restriction_difference_matrix(config: NCConfiguration) -> RationalMatrix:
    """Block matrix of pairwise restriction differences.

    Domain: the direct sum of the components' tracked H2 (columns grouped by
    component, in order).  Codomain: the direct sum of the surface lattices
    (rows grouped by surface).  Row block i carries + the restriction from
    the first adjacent component and - the restriction from the second.

    The matrix is built as its runs of equal rows, each one sparse row and
    its length.  When a surface's two restriction matrices state runs of the
    same lengths (:class:`~nc3.exactlat.RowRuns`, as the blow-up and the
    reader write a blown-up surface), the runs pair up in order and no row
    is walked: a head with stated pairs gives them shifted by its
    component's column offset, and any other head is made sparse at C
    speed.  Otherwise runs of equal consecutive ``(r_plus, r_minus)`` pairs
    of rows are found at C speed, comparing on identity first.  The rank
    reads the distinct nonzero rows of these runs, and the dense rows are
    laid out from them only when ``entries`` is first read.
    """
    offsets = [0]
    for comp in config.components:
        offsets.append(offsets[-1] + comp.h2_rank)
    matrix_runs: list[tuple[SparseRow, int]] = []
    for i, (j, k) in enumerate(SURFACE_ADJACENCY):
        plus_cols = range(offsets[j], offsets[j + 1])
        minus_cols = range(offsets[k], offsets[k + 1])
        m_plus, m_minus = config.restriction(i, j), config.restriction(i, k)
        if type(m_plus) is type(m_minus) is RowRuns and m_plus.lengths == m_minus.lengths:
            o_plus, o_minus = offsets[j], offsets[k]
            heads = zip(m_plus.heads, m_minus.heads)
            pairs = zip(m_plus.pairs or repeat(None), m_minus.pairs or repeat(None))
            for (r_plus, r_minus), (p_plus, p_minus), n in zip(heads, pairs, m_plus.lengths):
                if p_plus is None:
                    plus = zip(compress(plus_cols, r_plus), compress(r_plus, r_plus))
                else:
                    plus = [(c + o_plus, x) for c, x in p_plus]
                if p_minus is None:
                    minus = zip(compress(minus_cols, r_minus), map(neg, compress(r_minus, r_minus)))
                else:
                    minus = [(c + o_minus, -x) for c, x in p_minus]
                row = tuple(chain(plus, minus) if j < k else chain(minus, plus))
                matrix_runs.append((row, n))
            continue
        for (r_plus, r_minus), run in groupby(zip(m_plus, m_minus)):
            plus = zip(compress(plus_cols, r_plus), compress(r_plus, r_plus))
            minus = zip(compress(minus_cols, r_minus), map(neg, compress(r_minus, r_minus)))
            # In ascending column order, so equal rows are equal tuples.
            row = tuple(chain(plus, minus) if j < k else chain(minus, plus))
            matrix_runs.append((row, len(list(run))))
    return RationalMatrix.from_runs(offsets[-1], matrix_runs)


def stack_component_vectors(config: NCConfiguration, parts: Sequence[Vec]) -> Vec:
    """Concatenate per-component coordinate vectors into a domain vector."""
    if len(parts) != 3:
        raise DimensionMismatch("expected one coordinate vector per component")
    out: list[int] = []
    for comp, p in zip(config.components, parts):
        if len(p) != comp.h2_rank:
            raise DimensionMismatch(
                f"vector of length {len(p)} for component {comp.name} of rank {comp.h2_rank}"
            )
        out.extend(p)
    return tuple(out)


def component_restriction_classes(config: NCConfiguration) -> tuple[Vec, Vec]:
    """Collective restrictions of the first two component line bundles.

    For a normal crossing variety sitting inside a semistable family the
    bundle O(Y_i) restricts to zero on the total space, which pins its
    restriction to each component in terms of boundary divisors; the two
    resulting domain vectors span the rank-2 degenerate subspace of the cup
    form.  They lie in the kernel of the restriction-difference matrix
    exactly when the collective normal class vanishes; otherwise their images
    are (0, N(D2), -N(D3)) and (-N(D1), 0, N(D3)).
    """
    b = config.boundary_class
    e1 = stack_component_vectors(
        config,
        (
            vec_sub(vec_zero(config.components[0].h2_rank), vec_add(b(0, 1), b(0, 2))),
            b(1, 0),
            b(2, 0),
        ),
    )
    e2 = stack_component_vectors(
        config,
        (
            b(0, 1),
            vec_sub(vec_zero(config.components[1].h2_rank), vec_add(b(1, 0), b(1, 2))),
            b(2, 1),
        ),
    )
    return e1, e2


# ---------------------------------------------------------------------------
# The file format lives in ``configfile``; these names are forwarded to it.

_FILE_NAMES = frozenset(
    {
        "dumps",
        "config_to_dict",
        "config_from_dict",
        "config_to_json",
        "config_from_json",
    }
)


def __getattr__(name: str) -> Any:
    # Every other name is refused without loading the module: the import
    # system asks a module for ``__path__`` on every ``from ... import``.
    if name not in _FILE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import configfile

    value = globals()[name] = getattr(configfile, name)
    return value
