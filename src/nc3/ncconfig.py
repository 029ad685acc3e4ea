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

Its kernel computes h2 of the glued variety; two canonical elements of that
kernel for a semistable central fiber are the collective restrictions of the
component line bundles O(Y1) and O(Y2), returned by
``component_restriction_classes``.

Surface lattices may be proper sublattices of the full Picard lattice (for
the catalog: the span of ambient hyperplane restrictions).  Every formula in
this package is valid on the tracked sublattice; ``lattice_is_full`` records
whether kernel-based h2 counts may be trusted as the full second Betti number.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Any, Callable, Iterable, Sequence

from ._record import Record
from .exactlat import (
    DimensionMismatch,
    IntersectionLattice,
    IntMatrix,
    RationalMatrix,
    Vec,
    adjunction_sum,
    base_rank,
    default_labels,
    kernel_dimension,
    mat_vec,
    vec_add,
    vec_sub,
    vec_zero,
)

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
                if len(m) != surf.lattice.rank or not {comp.h2_rank}.issuperset(map(len, m)):
                    raise ConfigError(
                        f"surface {surf.name}: restriction from {comp.name} must be "
                        f"{surf.lattice.rank}x{comp.h2_rank}"
                    )

    @cached_property
    def kernel_dim(self) -> int:
        """Kernel dimension of the restriction-difference matrix, ranked once."""
        return kernel_dimension(restriction_difference_matrix(self))

    def adjacent(self, surface_index: int) -> tuple[int, int]:
        return SURFACE_ADJACENCY[surface_index]

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
        """Image of ``v`` under a restriction matrix, each distinct row multiplied once.

        A blown-up surface repeats one restriction row for every point over
        a curve, in a file as equal rows and after the blow-up as one shared
        row.
        """
        m = self.restriction(surface_index, component_index)
        distinct = tuple(dict.fromkeys(m))
        if len(distinct) == len(m):
            return mat_vec(m, v)
        return tuple(map(dict(zip(distinct, mat_vec(distinct, v))).__getitem__, m))

    def hyperplane_on_surface(self, surface_index: int) -> Vec:
        """Restriction of the distinguished ample class to a surface.

        Taken from the first adjacent component; validation checks that both
        sides agree.
        """
        j, _ = SURFACE_ADJACENCY[surface_index]
        return self.restrict(surface_index, j, self.components[j].ample)

    def boundary_class(self, component_index: int, other_index: int) -> Vec:
        """Coordinates on component i of the double surface Y_other ^ Y_i."""
        comp = self.components[component_index]
        if comp.boundary is None:
            raise InsufficientBasis(
                f"component {comp.name} does not declare boundary divisor coordinates"
            )
        return comp.boundary[OTHER_COMPONENTS[component_index].index(other_index)]

    def total_rank(self) -> int:
        return sum(c.h2_rank for c in self.components)


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
        # Clause (3): the distinguished ample classes must restrict equally.
        j, k = SURFACE_ADJACENCY[i]
        left = config.restrict(i, j, config.components[j].ample)
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
    Equal restriction rows (a blown-up surface has one per point over a
    curve) give one row tuple, built once and repeated.
    """
    col_offsets = [0]
    for comp in config.components:
        col_offsets.append(col_offsets[-1] + comp.h2_rank)
    total_cols = col_offsets[-1]

    rows: list[tuple[int, ...]] = []
    for i in range(3):
        j, k = SURFACE_ADJACENCY[i]
        built: dict[tuple[Vec, Vec], tuple[int, ...]] = {}
        for r_plus, r_minus in zip(config.restriction(i, j), config.restriction(i, k)):
            key = (tuple(r_plus), tuple(r_minus))
            row = built.get(key)
            if row is None:
                # j != k, so the two column blocks of a row do not overlap.
                cells = [0] * total_cols
                cells[col_offsets[j] : col_offsets[j + 1]] = r_plus
                cells[col_offsets[k] : col_offsets[k + 1]] = [-x for x in r_minus]
                row = built[key] = tuple(cells)
            rows.append(row)
    return RationalMatrix(rows=len(rows), cols=total_cols, entries=tuple(rows))


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


def split_surface_vector(config: NCConfiguration, v: Sequence[Any]) -> tuple[tuple[Any, ...], ...]:
    """Split a codomain vector into its three per-surface slices."""
    out = []
    pos = 0
    for surf in config.surfaces:
        out.append(tuple(v[pos : pos + surf.lattice.rank]))
        pos += surf.lattice.rank
    if pos != len(v):
        raise DimensionMismatch("vector length does not match total surface rank")
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
# JSON serialization (schema "ncconfig/1"); integers only


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    This is the one layout of every file and payload nc3 writes: 2-space
    indent, sorted keys, ASCII escapes, one scalar per line.  The stdlib
    encoder falls back to pure Python when given an indent; here the text is
    appended to one list of fragments and joined once, as the stdlib's
    ``_iterencode`` does, and a list of plain ints is joined in one
    ``str.join``.  Values are dicts with string keys, lists, tuples,
    strings, ints, bools and ``None`` (and, from ``config_to_json``, its
    private ``_DenseText`` matrices); anything else (floats included)
    raises ``TypeError``.
    """
    from json.encoder import encode_basestring_ascii

    out: list[str] = []
    _write(obj, "\n", encode_basestring_ascii, out.append)
    return "".join(out)


class _IntText(dict):
    """The text of small ints, looked up; any other int is formatted, not kept."""

    def __missing__(self, key: int) -> str:
        return int.__repr__(key)


# Gram rows and restriction matrices are mostly 0 and +-1.  Only exact ints
# reach the table: ``True == 1`` would find the text of 1.
_INT_TEXT = _IntText((k, int.__repr__(k)) for k in range(-16, 17))


def _write(x: Any, newline: str, quote: Callable[[str], str], emit: Callable[[str], Any]) -> None:
    """Append the text of ``x`` to ``emit``; ``newline`` ends the line before its closing bracket."""
    if isinstance(x, str):
        emit(quote(x))
    elif x is None:
        emit("null")
    elif x is True:
        emit("true")
    elif x is False:
        emit("false")
    elif isinstance(x, int):
        emit(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            emit("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(lead + quote(key) + ": ")
            _write(x[key], inner, quote, emit)
            lead = "," + inner
        emit(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            emit("[]")
            return
        inner = newline + "  "
        if {int}.issuperset(map(type, x)):
            emit("[" + inner + ("," + inner).join(map(_INT_TEXT.__getitem__, x)) + newline + "]")
            return
        lead = "[" + inner
        for v in x:
            emit(lead)
            _write(v, inner, quote, emit)
            lead = "," + inner
        emit(newline + "]")
    elif isinstance(x, _DenseText):
        x.write(newline, quote, emit)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _require(obj: dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    return obj[key]


def _intval(x: Any, where: str) -> int:
    if type(x) is not int:
        raise SchemaError(f"{where}: expected integer, got {x!r}")
    return x


def _intlist(x: Any, where: str) -> list[int]:
    if not isinstance(x, list):
        raise SchemaError(f"{where}: expected list of integers, got {x!r}")
    if not {int}.issuperset(map(type, x)):
        for v in x:
            _intval(v, where)
    return x


def _intvec(x: Any, where: str) -> Vec:
    return tuple(_intlist(x, where))


def _introws(x: Any, where: str) -> list[list[int]]:
    if not isinstance(x, list):
        raise SchemaError(f"{where}: expected matrix, got {x!r}")
    # Every cell's type in one pass at C speed; a failure is named row by row.
    if not ({list}.issuperset(map(type, x)) and {int}.issuperset(map(type, chain.from_iterable(x)))):
        for r in x:
            _intlist(r, where)
    return x


def _intmat(x: Any, where: str) -> IntMatrix:
    return tuple(map(tuple, _introws(x, where)))


def _gram(x: Any, where: str) -> tuple[IntMatrix, int]:
    """A dense Gram matrix as its base block and the count of its trailing -I rows.

    Every cell is type-checked, but only the base block is copied into
    tuples: a blown-up surface's -I rows are found on the parsed lists.
    """
    rows = _introws(x, where)
    b = base_rank(rows)
    if b == len(rows):
        return tuple(map(tuple, rows)), 0
    return tuple(tuple(r[:b]) for r in rows[:b]), len(rows) - b


def _dense(rows: IntMatrix, exceptional: int) -> list[list[int]]:
    """The dense rows of the Gram form ``rows (+) -I``, as lists.

    With ``exceptional`` 0 this is any matrix, such as a restriction
    matrix.  ``config_to_dict`` writes its matrices with it, and
    ``config_to_json`` writes the same text through ``_DenseText``.
    """
    n = len(rows) + exceptional
    tail = [0] * exceptional
    out = [list(r) + tail for r in rows]
    for p in range(len(rows), n):
        row = [0] * n
        row[p] = -1
        out.append(row)
    return out


class _DenseText:
    """``config_to_json``'s stand-in for ``_dense(rows, exceptional)``: the writer
    emits the text of those lists without building them.

    Each row's zero tail is one repeated string, and each ``-I`` row is cut
    out of one all-zeros row text around its ``-1``.  A row object that the
    matrix repeats (the blow-up shares one restriction row per curve) is
    written once.  Rows that are not all exact ints go through ``_write``.
    """

    __slots__ = ("rows", "exceptional")

    def __init__(self, rows: IntMatrix, exceptional: int):
        self.rows = rows
        self.exceptional = exceptional

    def write(self, newline: str, quote: Callable[[str], str], emit: Callable[[str], Any]) -> None:
        rows, exceptional = self.rows, self.exceptional
        if not rows and not exceptional:
            emit("[]")
            return
        inner = newline + "  "
        cell = inner + "  "
        sep = "," + cell
        zero = sep + "0"
        tail = zero * exceptional
        texts: dict[int, str] = {}
        lead = "[" + inner
        for r in rows:
            text = texts.get(id(r))
            if text is None:
                if r and {int}.issuperset(map(type, r)):
                    text = "[" + cell + sep.join(map(_INT_TEXT.__getitem__, r)) + tail + inner + "]"
                else:
                    chunks: list[str] = []
                    _write(list(r) + [0] * exceptional, inner, quote, chunks.append)
                    text = "".join(chunks)
                texts[id(r)] = text
            emit(lead + text)
            lead = "," + inner
        if exceptional:
            # Cell p of a dense row starts at character p * width.
            width = len(zero)
            n = len(rows) + exceptional
            zeros = "0" + zero * (n - 1)
            for at in range(len(rows) * width, n * width, width):
                emit(lead + "[" + cell)
                emit(zeros[:at])
                emit("-1")
                emit(zeros[at + 1 :])
                emit(inner + "]")
                lead = "," + inner
        emit(newline + "]")


def config_to_dict(config: NCConfiguration) -> dict[str, Any]:
    """The ``ncconfig/1`` document of ``config`` as plain dicts and lists.

    Gram and restriction matrices are dense lists of lists, fresh on every
    call, so callers may change them.
    """
    return _document(config, _dense)


def _document(
    config: NCConfiguration, matrix: Callable[[IntMatrix, int], Any]
) -> dict[str, Any]:
    """The document, each Gram and restriction matrix given by ``matrix(rows, exceptional)``."""
    comps = []
    for i, c in enumerate(config.components):
        entry: dict[str, Any] = {
            "name": c.name,
            "euler": c.euler,
            "h2_rank": c.h2_rank,
            "class_labels": list(c.class_labels),
            "ample": list(c.ample),
        }
        if c.boundary is not None:
            entry["boundary"] = {
                config.components[o].name: list(b)
                for o, b in zip(OTHER_COMPONENTS[i], c.boundary)
            }
        if c.chern_numbers is not None:
            entry["chern_numbers"] = list(c.chern_numbers)
        comps.append(entry)

    surfs = []
    for i, s in enumerate(config.surfaces):
        j, k = SURFACE_ADJACENCY[i]
        surfs.append(
            {
                "name": s.name,
                "gram": matrix(s.lattice.gram, s.lattice.exceptional),
                "basis_labels": list(s.lattice.basis_labels),
                "canonical": list(s.canonical),
                "tau_class": list(s.tau_class),
                "euler": s.euler,
                "restrictions": {
                    config.components[j].name: matrix(s.restrictions[0], 0),
                    config.components[k].name: matrix(s.restrictions[1], 0),
                },
                "boundary_self": [list(s.boundary_self[0]), list(s.boundary_self[1])],
            }
        )

    out: dict[str, Any] = {
        "schema": SCHEMA_ID,
        "components": comps,
        "surfaces": surfs,
        "triple": {"euler": config.triple.euler, "connected": config.triple.connected},
        "lattice_is_full": config.lattice_is_full,
    }
    if config.h2_total is not None:
        out["h2_total"] = config.h2_total
    if config.provenance_notes:
        out["notes"] = list(config.provenance_notes)
    return out


# The keys each object of an ncconfig/1 file may hold: the ``properties`` of
# that object in schemas/ncconfig.schema.json, which admits no others.
_CONFIG_KEYS = {"schema", "components", "surfaces", "triple", "h2_total", "lattice_is_full", "notes"}
_COMPONENT_KEYS = {"name", "euler", "h2_rank", "class_labels", "ample", "boundary", "chern_numbers"}
_SURFACE_KEYS = {
    "name", "gram", "basis_labels", "canonical", "tau_class", "euler", "restrictions", "boundary_self"
}
_TRIPLE_KEYS = {"euler", "connected"}


def _refuse_unknown_keys(obj: dict[str, Any], keys: set[str], where: str) -> None:
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}")


def config_from_dict(data: dict[str, Any]) -> NCConfiguration:
    if not isinstance(data, dict):
        raise SchemaError("configuration must be a JSON object")
    if data.get("schema") != SCHEMA_ID:
        raise SchemaError(f"unsupported schema {data.get('schema')!r}, expected {SCHEMA_ID!r}")
    _refuse_unknown_keys(data, _CONFIG_KEYS, "configuration")

    raw_comps = _require(data, "components", "configuration")
    raw_surfs = _require(data, "surfaces", "configuration")
    for key, raw in (("components", raw_comps), ("surfaces", raw_surfs)):
        if not (
            isinstance(raw, list) and len(raw) == 3 and all(isinstance(x, dict) for x in raw)
        ):
            raise SchemaError(f"{key} must be a list of exactly three objects")

    names: list[str] = []
    for c in raw_comps:
        n = _require(c, "name", "component")
        if not isinstance(n, str):
            raise SchemaError("component name must be a string")
        names.append(n)

    component_fields: list[dict[str, Any]] = []
    for i, c in enumerate(raw_comps):
        where = f"component {names[i]}"
        _refuse_unknown_keys(c, _COMPONENT_KEYS, where)
        rank = _intval(_require(c, "h2_rank", where), where + ".h2_rank")
        labels = _require(c, "class_labels", where)
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise SchemaError(f"{where}: class_labels must be a list of strings")
        # The default is sized from the labels: a rank that disagrees with
        # them is a schema error, not an allocation of that size.
        ample = (
            _intvec(c["ample"], where + ".ample") if "ample" in c else (1,) * len(labels)
        )
        boundary = None
        if "boundary" in c:
            raw_b = c["boundary"]
            if not isinstance(raw_b, dict):
                raise SchemaError(f"{where}: boundary must map component names to vectors")
            try:
                boundary = tuple(
                    _intvec(raw_b[names[o]], where + ".boundary") for o in OTHER_COMPONENTS[i]
                )
            except KeyError as exc:
                raise SchemaError(f"{where}: boundary missing entry for {exc.args[0]!r}")
        chern = None
        if "chern_numbers" in c:
            cn = _intvec(c["chern_numbers"], where + ".chern_numbers")
            if len(cn) != 3:
                raise SchemaError(f"{where}: chern_numbers must have three entries")
            chern = (cn[0], cn[1], cn[2])
        component_fields.append(
            dict(
                name=names[i],
                euler=_intval(_require(c, "euler", where), where + ".euler"),
                h2_rank=rank,
                class_labels=tuple(labels),
                ample=ample,
                boundary=boundary,
                chern_numbers=chern,
            )
        )

    surface_fields: list[dict[str, Any]] = []
    for i, s in enumerate(raw_surfs):
        sname = _require(s, "name", "surface")
        if not isinstance(sname, str):
            raise SchemaError("surface name must be a string")
        where = f"surface {sname}"
        _refuse_unknown_keys(s, _SURFACE_KEYS, where)
        gram, exceptional = _gram(_require(s, "gram", where), where + ".gram")
        rank = len(gram) + exceptional
        labels_raw = s.get("basis_labels")
        if labels_raw is not None and not (
            isinstance(labels_raw, list) and all(isinstance(x, str) for x in labels_raw)
        ):
            raise SchemaError(f"{where}: basis_labels must be a list of strings")
        try:
            lattice = IntersectionLattice(
                rank=rank,
                gram=gram,
                basis_labels=tuple(labels_raw) if labels_raw else default_labels(rank),
                exceptional=exceptional,
            )
        except Exception as exc:
            raise SchemaError(f"{where}: invalid lattice: {exc}")
        raw_restr = _require(s, "restrictions", where)
        if not isinstance(raw_restr, dict):
            raise SchemaError(f"{where}: restrictions must map component names to matrices")
        j, k = SURFACE_ADJACENCY[i]
        try:
            restrictions = (
                _intmat(raw_restr[names[j]], where + ".restrictions"),
                _intmat(raw_restr[names[k]], where + ".restrictions"),
            )
        except KeyError as exc:
            raise SchemaError(
                f"{where}: restrictions must include adjacent component {exc.args[0]!r}"
            )
        raw_bs = _require(s, "boundary_self", where)
        if not isinstance(raw_bs, list) or len(raw_bs) != 2:
            raise SchemaError(f"{where}: boundary_self must be a pair of vectors")
        surface_fields.append(
            dict(
                name=sname,
                lattice=lattice,
                canonical=_intvec(_require(s, "canonical", where), where + ".canonical"),
                tau_class=_intvec(_require(s, "tau_class", where), where + ".tau_class"),
                euler=_intval(_require(s, "euler", where), where + ".euler"),
                restrictions=restrictions,
                boundary_self=(
                    _intvec(raw_bs[0], where + ".boundary_self"),
                    _intvec(raw_bs[1], where + ".boundary_self"),
                ),
            )
        )

    raw_triple = _require(data, "triple", "configuration")
    if not isinstance(raw_triple, dict):
        raise SchemaError("triple must be a JSON object")
    _refuse_unknown_keys(raw_triple, _TRIPLE_KEYS, "triple")
    connected = _require(raw_triple, "connected", "triple")
    if not isinstance(connected, bool):
        raise SchemaError("triple.connected must be a boolean")
    triple_euler = _intval(_require(raw_triple, "euler", "triple"), "triple.euler")

    h2_total = None
    if "h2_total" in data:
        h2_total = _intval(data["h2_total"], "h2_total")
        if h2_total < 0:
            raise SchemaError("h2_total must be non-negative")
    lattice_is_full = data.get("lattice_is_full", False)
    if not isinstance(lattice_is_full, bool):
        raise SchemaError("lattice_is_full must be a boolean")
    notes = data.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(x, str) for x in notes):
        raise SchemaError("notes must be a list of strings")

    # Every record invariant a file breaks is a schema error.
    try:
        return NCConfiguration(
            components=tuple(ComponentGeometry(**f) for f in component_fields),
            surfaces=tuple(SurfaceGeometry(**f) for f in surface_fields),
            triple=TripleCurve(euler=triple_euler, connected=connected),
            h2_total=h2_total,
            lattice_is_full=lattice_is_full,
            provenance_notes=tuple(notes),
        )
    except ConfigError as exc:
        raise SchemaError(str(exc))


def config_to_json(config: NCConfiguration) -> str:
    """``dumps(config_to_dict(config))``, byte for byte, without the dense lists."""
    return dumps(_document(config, _DenseText))


def config_from_json(text: str) -> NCConfiguration:
    import json

    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer literal past Python's
        # digit limit; RecursionError: nesting past the parser's limit
        raise SchemaError(f"invalid JSON: {exc}")
    return config_from_dict(data)
