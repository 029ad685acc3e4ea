"""Exact integer and rational linear algebra on intersection lattices.

Everything downstream (normal-class arithmetic, kernel dimensions, Euler
numbers) reduces to three primitives implemented here:

* evaluating a symmetric integer Gram form on coordinate vectors,
  where the form is held as a base block plus a count of orthogonal
  (-1)-classes, ``base (+) -I``, so a surface blown up at many points
  never stores its dense Gram matrix,
* the rank / kernel dimension of an exact rational matrix,
* the topological Euler number of a smooth curve from its divisor class,
  via adjunction: e(c) = -c.(c + K).

No floating point is used anywhere in this package, and all arithmetic goes
through Python integers, so the contract is unbounded precision.  Rank runs
on the distinct nonzero rows of a matrix: a repeated row or a zero row adds
nothing to the row space, and a blown-up surface repeats one restriction row
for every point over a curve.  Runs of equal consecutive rows collapse before
any row is hashed, so those repeats cost no Python step each.  The rank is
computed by sparse integer elimination:
rows are kept as ``{col: value}`` dicts, each step pivots on the shortest row
and updates only the rows that meet the pivot column, and every updated row
is divided by the gcd of its entries (its content) so the numbers stay
small.  ``Fraction`` entries are accepted at the API boundary:
``matrix_rank`` clears the denominators of the rows that hold one, once,
before elimination.  Only the rank over the rationals is needed, never
torsion.
"""

from __future__ import annotations

import math
import operator
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ._record import Record

if TYPE_CHECKING:
    from fractions import Fraction

Vec = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


class ExactLatticeError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatch(ExactLatticeError):
    """A vector or matrix does not match the rank it is used against."""


class SmoothCurveParityError(ExactLatticeError):
    """A class whose adjunction sum is odd cannot carry a smooth curve."""


class ZeroCurveClass(ExactLatticeError):
    """The zero class is not the class of a curve."""


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"cannot add vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(operator.add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"cannot subtract vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(operator.sub, u, v))


def vec_scale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def vec_zero(n: int) -> Vec:
    return (0,) * n


def mat_vec(m: IntMatrix, v: Vec) -> Vec:
    """Apply an integer matrix (tuple of rows) to a coordinate vector."""
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(
            f"matrix with {len(m[0])} columns applied to vector of length {len(v)}"
        )
    return tuple(sum(map(operator.mul, r, v)) for r in m)


def runs(rows: Sequence[Any]) -> tuple[list[Any], list[int]]:
    """The first row and the length of each run of equal consecutive rows, at C speed.

    ``groupby`` compares a row with the one before it, and a row that is
    the same object as its neighbour compares equal without a look at its
    entries.  ``map`` reads each group whole before ``groupby`` moves past it.
    """
    groups = list(map(list, map(itemgetter(1), groupby(rows))))
    return list(map(itemgetter(0), groups)), list(map(len, groups))


def as_int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    out = tuple(tuple(int(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise DimensionMismatch("ragged matrix rows")
    return out


def base_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of the base block of a dense Gram matrix ``base (+) -I``.

    The -I block is the maximal run of trailing rows that are -1 on the
    diagonal and zero elsewhere, each checked at C speed.  It counts only
    when the matrix is square and every row above it is zero over its
    columns; otherwise the base block is the whole matrix.
    """
    n = len(rows)
    b = n
    while b and len(rows[b - 1]) == n and rows[b - 1][b - 1] == -1 and rows[b - 1].count(0) == n - 1:
        b -= 1
    if b < n and all(len(r) == n and not any(r[b:]) for r in rows[:b]):
        return b
    return n


class IntersectionLattice(Record):
    """A finite-rank integral lattice with a symmetric Gram form.

    This is the numerical shadow of the second cohomology of a surface: a
    chosen (possibly partial) basis of divisor classes together with their
    intersection numbers.

    The Gram form is held as ``gram``, a base block, followed by
    ``exceptional`` pairwise-orthogonal classes of self-intersection -1:
    the dense form is ``gram (+) -I``, and ``rank`` counts both parts.  A
    blow-up at points adds such classes without touching the base block.
    Construction moves every trailing -I row of the base block into the
    count, so two lattices with the same dense form and labels are equal
    however they were built.  The shape and symmetry checks cost O(r^2) in
    the base rank r, whatever the count.
    """

    rank: int
    gram: IntMatrix
    basis_labels: tuple[str, ...]
    exceptional: int = 0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ExactLatticeError("rank must be non-negative")
        if self.exceptional < 0:
            raise ExactLatticeError("the exceptional count must be non-negative")
        gram = self.gram
        n = self.rank - self.exceptional
        if len(gram) != n or any(len(r) != n for r in gram):
            raise DimensionMismatch(
                f"gram matrix must be {n}x{n}, got {len(gram)} rows"
            )
        # If the base rows are not zero over a trailing -I block, the form is
        # not symmetric and the full check below names the entry.
        b = base_rank(gram)
        if b < n:
            gram = tuple(r[:b] for r in gram[:b])
            object.__setattr__(self, "gram", gram)
            object.__setattr__(self, "exceptional", self.exceptional + n - b)
        # Rows against columns at C speed, one column at a time so the
        # transpose is never held whole.  On a mismatch (or rows that are not
        # tuples) the loop names the first asymmetric entry.
        if not all(map(operator.eq, gram, zip(*gram))):
            for i in range(len(gram)):
                for j in range(i):
                    if gram[i][j] != gram[j][i]:
                        raise ExactLatticeError(
                            f"gram matrix is not symmetric at ({i},{j})"
                        )
        if len(self.basis_labels) != self.rank:
            raise DimensionMismatch(
                f"expected {self.rank} basis labels, got {len(self.basis_labels)}"
            )
        if len(set(self.basis_labels)) != self.rank:
            raise ExactLatticeError("basis labels must be pairwise distinct")

    def check_vector(self, v: Sequence[int], what: str = "vector") -> None:
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"{what} {tuple(v)} of length {len(v)} does not match rank-"
                f"{self.rank} lattice [{', '.join(self.basis_labels)}]"
            )


def default_labels(rank: int) -> tuple[str, ...]:
    return tuple(f"b{i + 1}" for i in range(rank))


def make_lattice(gram: Iterable[Iterable[int]], labels: Sequence[str] | None = None) -> IntersectionLattice:
    g = as_int_matrix(gram)
    if labels is None:
        labels = default_labels(len(g))
    return IntersectionLattice(rank=len(g), gram=g, basis_labels=tuple(labels))


def pair(u: Sequence[int], v: Sequence[int], lattice: IntersectionLattice) -> int:
    """Evaluate the Gram form: sum_ij u_i G_ij v_j.  Symmetric and bilinear.

    Over the base block the sum runs over the nonzero coordinates of the
    sparser argument, which the symmetry of the Gram form allows; each row
    product runs at C speed.  The exceptional classes add -sum u_i v_i over
    their coordinates, so a pairing costs O(r^2 + exceptional).
    """
    lattice.check_vector(u, "left vector")
    lattice.check_vector(v, "right vector")
    if u.count(0) < v.count(0):
        u, v = v, u
    gram = lattice.gram
    total = 0
    if lattice.exceptional:
        r = len(gram)
        total -= sum(map(operator.mul, u[r:], v[r:]))
        u = u[:r]
    for i, ui in enumerate(u):
        if ui:
            total += ui * sum(map(operator.mul, gram[i], v))
    return total


def gram_product(c: Sequence[int], lattice: IntersectionLattice) -> Vec:
    """The Gram form applied to ``c``: the vector G c, so that u.c is the
    plain dot product of u with it.

    One product serves every pairing of ``c``: each later pairing is one
    integer dot product.  The base block costs O(r^2) in its rank r, each
    row product at C speed, and each exceptional class one negation.
    """
    lattice.check_vector(c, "vector")
    image = tuple(sum(map(operator.mul, row, c)) for row in lattice.gram)
    if lattice.exceptional:
        image += tuple(-x for x in c[len(lattice.gram) :])
    return image


def require_curve_class(c: Sequence[int]) -> None:
    """Refuse the zero class with :class:`ZeroCurveClass`: it is not a curve class."""
    if not any(c):
        raise ZeroCurveClass("the zero class is not a curve class")


def adjunction_sum(c: Sequence[int], canonical: Sequence[int], lattice: IntersectionLattice) -> int:
    """c.c + c.K, evaluated as the one pairing c.(c + K).

    For the triple-curve class on valid data c + K = 0, so this costs one
    vector sum.  ``vec_add`` refuses a canonical class of another length and
    ``pair`` a curve class of the wrong rank, both with ``DimensionMismatch``.
    """
    return pair(c, vec_add(c, canonical), lattice)


def adjunction_euler(c: Sequence[int], canonical: Sequence[int], lattice: IntersectionLattice) -> int:
    """Euler number of a smooth curve of class ``c``: -(c.c + c.K).

    The result is 2 - 2g, hence always even; an odd adjunction sum means the
    class cannot be represented by a smooth curve under this form and signals
    inconsistent lattice data.
    """
    require_curve_class(c)
    s = adjunction_sum(c, canonical, lattice)
    if s % 2 != 0:
        raise SmoothCurveParityError(
            f"class {tuple(c)} not representable by a smooth curve under this "
            f"form: adjunction sum {s} is odd"
        )
    return -s


class RationalMatrix(Record):
    """A dense matrix of exact rationals: ``int`` entries, ``Fraction`` where needed."""

    rows: int
    cols: int
    entries: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        if not {self.cols}.issuperset(map(len, self.entries)):
            raise DimensionMismatch("column count does not match entries")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | Fraction]]) -> "RationalMatrix":
        """Integers are kept as they are; every other value becomes a ``Fraction``."""
        from fractions import Fraction

        entries = tuple(
            tuple(x if type(x) is int else Fraction(x) for x in row) for row in rows
        )
        return cls(rows=len(entries), cols=len(entries[0]) if entries else 0, entries=entries)


def _sparse_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of integer rows, by sparse elimination.

    Rows are ``{col: value}`` dicts without zeros, each built at C speed
    from the row's nonzero ``(col, value)`` pairs.  Each step takes the
    shortest remaining row as the pivot row, at its entry p of smallest
    absolute value, and clears the pivot column from each row r that holds
    it, with entry f:  r <- (p/g) r - (f/g) pivot,  g = gcd(p, f).  The
    updated row is divided by the gcd of its entries.  Rows without the
    pivot column are not touched, and every number stays an integer.
    """
    pending = list(filter(None, (dict(filter(itemgetter(1), enumerate(r))) for r in rows)))
    rank = 0
    while pending:
        lengths = list(map(len, pending))
        pivot = pending.pop(lengths.index(min(lengths)))
        col = min(pivot, key=lambda j: abs(pivot[j]))
        p = pivot[col]
        rank += 1
        for r in pending:
            f = r.get(col)
            if f is None:
                continue
            g = math.gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in r:
                    r[j] *= a
            for j, y in pivot.items():
                x = r.get(j, 0) - b * y
                if x:
                    r[j] = x
                else:
                    del r[j]
            content = math.gcd(*r.values())
            if content > 1:
                for j in r:
                    r[j] //= content
        pending = [r for r in pending if r]
    return rank


def matrix_rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals.

    Only the distinct nonzero rows are ranked: repeats are dropped first,
    keeping the first of each in order, then zero rows.  Neither changes the
    row space, so the rank is that of the whole matrix.  A run of equal
    consecutive rows collapses to its first row before any row is hashed;
    the run of one shared row tuple (a blown-up surface's points over one
    curve) compares on identity, at C speed.  Integer rows go to the
    elimination as they are.  A row that holds a ``Fraction`` is scaled once
    by the lcm of its denominators.
    """
    rows: list[Sequence[int]] = []
    for r in dict.fromkeys(map(tuple, map(itemgetter(0), groupby(m.entries)))):
        if not any(r):
            continue
        if not {int}.issuperset(map(type, r)):
            lcm = math.lcm(*(x.denominator for x in r))
            r = tuple(int(x * lcm) for x in r)
        rows.append(r)
    return _sparse_rank(rows)


def kernel_dimension(m: RationalMatrix) -> int:
    """Dimension of the right kernel: cols - rank, computed exactly."""
    return m.cols - matrix_rank(m)
