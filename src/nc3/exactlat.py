"""Exact integer linear algebra on intersection lattices.

Everything downstream (normal-class arithmetic, kernel dimensions, Euler
numbers) reduces to three primitives implemented here:

* evaluating a symmetric integer Gram form on coordinate vectors,
  where the form is held as a base block plus a count of orthogonal
  (-1)-classes, ``base (+) -I``, so a surface blown up at many points
  never stores its dense Gram matrix,
* the rank / kernel dimension over the rationals of an integer matrix,
* the topological Euler number of a smooth curve from its divisor class,
  via adjunction: e(c) = -c.(c + K).

No floating point is used anywhere in this package, and all arithmetic goes
through Python integers, so the contract is unbounded precision.  Rank runs
on the distinct nonzero rows of a matrix: a repeated row or a zero row adds
nothing to the row space, and a blown-up surface repeats one restriction row
for every point over a curve; the blow-up and the file reader lay such a
matrix out from its runs as a ``RowRuns``, which keeps them for its
readers.  A ``RationalMatrix`` holds the distinct nonzero rows as their
``(col, value)`` pairs, derived from its dense rows on first read or, for
a matrix built from its runs of equal rows (one sparse row and its length
each), from those runs; such a matrix lays out its dense rows from the
same runs, and only when they are read.  The rank is computed by
sparse fraction-free integer elimination: rows are kept as ``{col: value}``
dicts and taken as pivot rows in ascending order of their initial length,
an index of each column's rows lets a pivot update only the rows that hold
its column, so no step rescans the rows left, and a row scaled by an
update is divided by the gcd of its entries (its content) so the numbers
stay small.  Entries are integers only.  Only the rank over the rationals
is needed, never torsion.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Any, Iterable, Sequence

from ._record import Record

Vec = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]
# A matrix row as its nonzero (col, value) pairs, in ascending column order.
SparseRow = tuple[tuple[int, int], ...]


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


class RowRuns(tuple):
    """The rows of a matrix, with the runs they were laid out from.

    Row tuple ``heads[r]`` repeats ``lengths[r]`` (positive) times; runs
    next to each other may hold equal rows.  ``pairs``, when given, holds
    per run its head's nonzero ``(col, value)`` pairs in ascending column
    order, or None.  Built by :func:`rows_from_runs`, which keeps the runs
    as tuples, so a reader handed them cannot change them.  The value
    equals, hashes and prints as the plain tuple of its rows; its slices and
    sums are plain tuples.
    """

    heads: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    pairs: tuple[SparseRow | None, ...] | None


def rows_from_runs(
    heads: Sequence[tuple[int, ...]],
    lengths: Sequence[int],
    pairs: Sequence[SparseRow | None] | None = None,
) -> RowRuns:
    """The rows ``heads[r]`` repeated ``lengths[r]`` times, laid out at C speed,
    stating the runs (and ``pairs``) they came from; see :class:`RowRuns`."""
    m = tuple.__new__(RowRuns, chain.from_iterable(map(repeat, heads, lengths)))
    m.heads = tuple(heads)
    m.lengths = tuple(lengths)
    m.pairs = None if pairs is None else tuple(pairs)
    return m


def runs(rows: Sequence[Any]) -> tuple[tuple[Any, ...], tuple[int, ...]]:
    """The first row and the length of each run of equal consecutive rows,
    found at C speed.

    ``groupby`` compares a row with the one before it, and a row that is
    the same object as its neighbour compares equal without a look at its
    entries.  ``map`` reads each group whole before ``groupby`` moves past it.
    """
    groups = list(map(list, map(itemgetter(1), groupby(rows))))
    return tuple(map(itemgetter(0), groups)), tuple(map(len, groups))


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
    """A matrix of ``int`` entries, ranked over the rationals.

    ``entries`` holds the dense rows in order.  The rank reads only
    ``distinct_rows``: the distinct nonzero rows, each a tuple of its
    ``(col, value)`` pairs in ascending column order.  A matrix given its
    dense rows derives its distinct rows on their first read.  One built by
    :meth:`from_runs` is described by its runs of equal rows alone: its row
    count and distinct rows are read from them at once, and its dense rows
    are laid out from them on the first read of ``entries``.  Either is then
    held.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        if not {self.cols}.issuperset(map(len, self.entries)):
            raise DimensionMismatch("column count does not match entries")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "RationalMatrix":
        """The matrix of ``rows``; an entry that is not an ``int`` is refused."""
        entries = tuple(map(tuple, rows))
        if not {int}.issuperset(map(type, chain.from_iterable(entries))):
            raise ExactLatticeError("matrix entries must be integers")
        return cls(rows=len(entries), cols=len(entries[0]) if entries else 0, entries=entries)

    @classmethod
    def from_runs(cls, cols: int, runs: Iterable[tuple[SparseRow, int]]) -> "RationalMatrix":
        """The matrix of ``cols`` columns whose rows are ``runs`` in order:
        each a sparse row and the number of times it repeats.

        A sparse row lists its pairs in ascending column order, so its last
        pair names its largest column; a column at or past ``cols`` raises
        :class:`DimensionMismatch`.
        """
        runs = tuple(runs)
        distinct = tuple(filter(None, dict.fromkeys(map(itemgetter(0), runs))))
        if max(map(itemgetter(0), map(itemgetter(-1), distinct)), default=-1) >= cols:
            raise DimensionMismatch("a sparse row names a column past the last one")
        m = cls.__new__(cls)
        object.__setattr__(m, "rows", sum(map(itemgetter(1), runs)))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "distinct_rows", distinct)
        object.__setattr__(m, "_runs", runs)
        return m

    @cached_property
    def distinct_rows(self) -> tuple[SparseRow, ...]:
        """The distinct nonzero rows, in order of first appearance."""
        sparse = (tuple(filter(itemgetter(1), enumerate(r))) for r in self.entries)
        return tuple(filter(None, dict.fromkeys(sparse)))

    def __getattr__(self, name: str) -> Any:
        # Reached only for a name the instance does not hold: ``entries`` of a
        # matrix built by ``from_runs``, laid out here once.  Each distinct
        # row is laid out once and repeated, so equal rows are one tuple.
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dense: dict[SparseRow, tuple[int, ...]] = {}
        for row, _ in self._runs:
            if row not in dense:
                cells = [0] * self.cols
                for j, x in row:
                    cells[j] = x
                dense[row] = tuple(cells)
        entries = tuple(chain.from_iterable(repeat(dense[row], n) for row, n in self._runs))
        object.__setattr__(self, "entries", entries)
        return entries


def _sparse_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of integer rows, by sparse elimination.

    Each row is given as its nonzero ``(col, value)`` pairs (or as a
    ``{col: value}`` dict) and copied into a dict at C speed, so the input
    is never touched.  The rows are taken as pivot rows once each, in
    ascending order of their initial length.  ``holders`` lists, per
    column, the rows that may hold it: every row at the start, and a row
    again whenever an update puts a new entry in that column.
    A zero row, given as one or emptied by the updates, is skipped as a
    pivot.  A pivot row that is still nonzero counts one to the rank; its
    entry p of smallest absolute value fixes the pivot column, and each
    later row r listed under that column that still holds it, with entry f,
    becomes r <- (p/g) r - (f/g) pivot,  g = gcd(p, f).  A row scaled by p/g is
    then divided by the gcd of its entries (its content), so the numbers
    stay small.  Every number stays an integer, a pivot touches only the
    rows listed under its column, and no pass rescans the rows left.
    """
    pending = sorted(map(dict, rows), key=len)
    holders: dict[int, list[int]] = {}
    for i, r in enumerate(pending):
        for j in r:
            holders.setdefault(j, []).append(i)
    rank = 0
    for k, pivot in enumerate(pending):
        if not pivot:
            continue
        rank += 1
        sizes = list(map(abs, pivot.values()))
        col = list(pivot)[sizes.index(min(sizes))]
        p = pivot[col]
        # Once cleared, no later row holds the column again: the later pivot
        # rows do not hold it either.
        for i in holders.pop(col):
            if i <= k:
                continue
            r = pending[i]
            f = r.get(col)
            if f is None:
                continue
            g = math.gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in r:
                    r[j] *= a
            for j, y in pivot.items():
                x = r.get(j)
                if x is None:
                    r[j] = -b * y
                    holders[j].append(i)
                else:
                    x -= b * y
                    if x:
                        r[j] = x
                    else:
                        del r[j]
            if a != 1:
                content = math.gcd(*r.values())
                if content > 1:
                    for j in r:
                        r[j] //= content
    return rank


def matrix_rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals, of the matrix's distinct nonzero rows.

    A repeated row or a zero row does not change the row space, so the rank
    is that of the whole matrix.
    """
    return _sparse_rank(m.distinct_rows)


def kernel_dimension(m: RationalMatrix) -> int:
    """Dimension of the right kernel: cols - rank, computed exactly."""
    return m.cols - matrix_rank(m)
