import copy
import math
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc3 import catalog, construction, exactlat
from nc3.exactlat import (
    DimensionMismatch,
    ExactLatticeError,
    IntersectionLattice,
    RationalMatrix,
    RowRuns,
    SmoothCurveParityError,
    ZeroCurveClass,
    _sparse_rank,
    adjunction_euler,
    adjunction_sum,
    default_labels,
    gram_product,
    kernel_dimension,
    make_lattice,
    matrix_rank,
    pair,
    require_curve_class,
    rows_from_runs,
    vec_add,
)
from nc3.ncconfig import restriction_difference_matrix
from tests.conftest import (
    all_catalog_cases,
    dense_restriction_difference,
    fraction_rank,
    rank_one_family,
)

PLANE = make_lattice([[1]], ["h"])
CUBIC_SURFACE = make_lattice([[3]], ["h"])
BIDEGREE = make_lattice([[1, 2], [2, 1]], ["h1", "h2"])


# ---------------------------------------------------------------------------
# pair


def test_pair_one_by_one():
    assert pair((1,), (1,), CUBIC_SURFACE) == 3


def test_pair_degree_five_on_cubic_surface():
    # oracle: a^2 * deg = 25 * 3
    assert pair((5,), (5,), CUBIC_SURFACE) == 75


def test_pair_bidegree_hand_expansion():
    # oracle: (3,3) G (1,1)^t expanded by hand = 3*(1+2) + 3*(2+1)
    assert pair((3, 3), (1, 1), BIDEGREE) == 18


def test_pair_dimension_mismatch_names_lattice():
    with pytest.raises(DimensionMismatch) as exc:
        pair((1, 2), (1,), PLANE)
    assert "h" in str(exc.value)


@given(
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
)
def test_pair_bilinear_symmetric(u, v, w):
    lat = make_lattice([[2, 1, 0], [1, -1, 3], [0, 3, 4]])
    u, v, w = tuple(u), tuple(v), tuple(w)
    assert pair(u, v, lat) == pair(v, u, lat)
    assert pair(vec_add(u, w), v, lat) == pair(u, v, lat) + pair(w, v, lat)


def test_pair_overflow_safe():
    big = 10**30
    lat = make_lattice([[big]])
    assert pair((big,), (big,), lat) == big**3


@st.composite
def gram_and_vectors(draw):
    """A symmetric Gram matrix up to 12x12 and three vectors, each zero, sparse or dense."""
    n = draw(st.integers(1, 12))
    upper = {(i, j): draw(st.integers(-9, 9)) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]

    def vector():
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        v = [0] * n
        if kind == "sparse":
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                v[i] = draw(st.integers(-20, 20))
        elif kind == "dense":
            v = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
        return tuple(v)

    return gram, vector(), vector(), vector()


@given(gram_and_vectors())
def test_pair_and_adjunction_against_dense_double_sum(case):
    gram, u, v, k = case
    n = len(gram)
    lat = make_lattice(gram)

    def dense(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))

    assert pair(u, v, lat) == dense(u, v)
    assert pair(u, v, lat) == pair(v, u, lat)
    s = dense(u, u) + dense(u, k)
    if not any(u):
        with pytest.raises(ZeroCurveClass):
            adjunction_euler(u, k, lat)
    elif s % 2 == 0:
        assert adjunction_euler(u, k, lat) == -s
    else:
        with pytest.raises(SmoothCurveParityError):
            adjunction_euler(u, k, lat)


# ---------------------------------------------------------------------------
# the block form base (+) -I


@st.composite
def block_lattices(draw):
    """A symmetric base up to 5x5 (possibly empty, possibly ending in a -1
    unit row), an exceptional count up to 40 and three vectors over the
    whole rank."""
    r = draw(st.integers(0, 5))
    upper = {(i, j): draw(st.integers(-4, 4)) for i in range(r) for j in range(i, r)}
    base = [[upper[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]
    if r and draw(st.booleans()):
        for i in range(r):
            base[i][r - 1] = base[r - 1][i] = 0
        base[r - 1][r - 1] = -1
    e = draw(st.integers(0, 40))
    n = r + e
    dense = [row + [0] * e for row in base] + [
        [0] * (r + p) + [-1] + [0] * (e - p - 1) for p in range(e)
    ]
    vectors = [tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))) for _ in range(3)]
    return base, e, dense, vectors


@given(block_lattices())
def test_block_form_against_dense_double_sum(case):
    base, e, dense, (u, v, k) = case
    n = len(dense)
    lat = IntersectionLattice(
        rank=n,
        gram=tuple(map(tuple, base)),
        basis_labels=default_labels(n),
        exceptional=e,
    )

    def dense_pair(a, b):
        return sum(a[i] * dense[i][j] * b[j] for i in range(n) for j in range(n))

    assert pair(u, v, lat) == dense_pair(u, v)
    assert pair(v, u, lat) == dense_pair(u, v)
    assert adjunction_sum(u, k, lat) == dense_pair(u, u) + dense_pair(u, k)
    # one form per Gram: the dense matrix gives the same record and hash
    from_dense = make_lattice(dense)
    assert from_dense == lat
    assert hash(from_dense) == hash(lat)
    assert sum(map(len, lat.gram)) <= len(base) ** 2


@given(block_lattices())
def test_gram_product_against_dense_matrix(case):
    """G c is the dense matrix times c, and its dot product with u is u.c."""
    base, e, dense, (u, c, _) = case
    n = len(dense)
    lat = IntersectionLattice(
        rank=n,
        gram=tuple(map(tuple, base)),
        basis_labels=default_labels(n),
        exceptional=e,
    )
    gc = gram_product(c, lat)
    assert gc == tuple(sum(dense[i][j] * c[j] for j in range(n)) for i in range(n))
    assert sum(a * b for a, b in zip(u, gc)) == pair(u, c, lat)
    assert gram_product(list(c), lat) == gc
    with pytest.raises(DimensionMismatch):
        gram_product(c + (0,), lat)


def test_require_curve_class_refuses_only_the_zero_class():
    for zero in ((0,), (0, 0, 0), [0, 0]):
        with pytest.raises(ZeroCurveClass, match="^the zero class is not a curve class$"):
            require_curve_class(zero)
    for c in ((1,), (0, -1), [0, 0, 2]):
        require_curve_class(c)


def test_block_form_moves_trailing_minus_one_rows_into_the_count():
    lat = make_lattice([[2, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert (lat.rank, lat.gram, lat.exceptional) == (3, ((2,),), 2)
    # -1 on the diagonal with an off-diagonal entry is not exceptional
    lat = make_lattice([[2, 1], [1, -1]])
    assert (lat.rank, lat.gram, lat.exceptional) == (2, ((2, 1), (1, -1)), 0)
    # a -1 row above a base row stays in the base
    lat = make_lattice([[-1, 0], [0, 3]])
    assert (lat.rank, lat.gram, lat.exceptional) == (2, ((-1, 0), (0, 3)), 0)
    assert make_lattice([[-1]]) == IntersectionLattice(rank=1, gram=(), basis_labels=("b1",), exceptional=1)


def test_block_form_refusals():
    with pytest.raises(DimensionMismatch, match=r"gram matrix must be 1x1, got 2 rows"):
        IntersectionLattice(rank=3, gram=((1, 0), (0, 1)), basis_labels=("a", "b", "c"), exceptional=2)
    with pytest.raises(ExactLatticeError, match="exceptional count must be non-negative"):
        IntersectionLattice(rank=1, gram=((1, 0), (0, 1)), basis_labels=("a",), exceptional=-1)
    # an asymmetric tail above rows of -I is named as in the dense check
    with pytest.raises(ExactLatticeError, match=r"not symmetric at \(2,0\)"):
        make_lattice([[1, 0, 5], [0, -1, 0], [0, 0, -1]])
    with pytest.raises(DimensionMismatch, match="vector"):
        pair((1, 0), (1, 0, 0), make_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]]))


# ---------------------------------------------------------------------------
# kernel_dimension


@pytest.mark.parametrize("rows", [((1, 2), (3,)), ((1, 2, 3), (4, 5)), ((1,),) * 2 + ((1, 0),)])
def test_malformed_rational_matrix_is_refused(rows):
    with pytest.raises(DimensionMismatch, match="column count does not match entries"):
        RationalMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "runs",
    [
        [(((0, 1), (3, 2)), 1)],
        [(((2, 1),), 2), (((0, 1), (1, 4), (7, 1)), 1)],
        [((), 3), (((2, 5), (3, -1)), 1)],
    ],
)
def test_a_run_naming_a_column_past_the_last_one_is_refused(runs):
    with pytest.raises(DimensionMismatch, match="a sparse row names a column past the last one"):
        RationalMatrix(3, tuple(runs))


@pytest.mark.parametrize("runs", [(), (((), 2),)])
def test_a_negative_column_count_is_refused_also_without_a_nonzero_row(runs):
    with pytest.raises(DimensionMismatch, match="a sparse row names a column past the last one"):
        RationalMatrix(-1, runs)
    assert RationalMatrix(0, runs).distinct_rows == ()


def test_a_matrix_reads_its_rows_distinct_rows_and_entries_from_its_runs():
    """Rows: the run lengths summed.  Distinct rows: the nonzero sparse rows
    in order of first appearance.  Entries: each run's row laid out once and
    repeated, so equal rows, also in runs apart, are one tuple."""
    a, b = ((0, 2), (2, -1)), ((1, 3),)
    m = RationalMatrix(3, ((a, 2), ((), 1), (b, 1), (a, 1)))
    assert (m.rows, m.cols, m.distinct_rows) == (5, 3, (a, b))
    assert m.entries == ((2, 0, -1), (2, 0, -1), (0, 0, 0), (0, 3, 0), (2, 0, -1))
    assert m.entries[0] is m.entries[1] is m.entries[4]
    assert m == RationalMatrix.from_rows(m.entries) and kernel_dimension(m) == 1
    empty = RationalMatrix(0, ())
    assert (empty.rows, empty.distinct_rows, empty.entries) == (0, (), ())


def test_rows_from_runs_lays_out_the_runs_it_states():
    """Each head repeated by its length, as one shared tuple.  The value
    equals, hashes and prints as the plain tuple of its rows; a slice or a
    sum is a plain tuple.  The stated runs may split a run of equal rows.
    The runs and pairs are kept as tuples, so the lists they were given in
    can change freely."""
    a, b = (1, 0, 2), (0, 3, 0)
    heads, lengths, pairs = [a, a, b, a], [2, 1, 1, 1], [None, None, ((1, 3),), None]
    m = rows_from_runs(heads, lengths, pairs)
    heads.append(b)
    lengths[0] = 5
    pairs[0] = ((0, 1),)
    rows = (a, a, a, b, a)
    assert m == rows and hash(m) == hash(rows) and repr(m) == repr(rows)
    assert m[0] is m[1] is m[2] is m[4] is a
    assert type(m[1:]) is type(m + ()) is tuple
    assert (m.heads, m.lengths) == ((a, a, b, a), (2, 1, 1, 1))
    assert m.pairs == (None, None, ((1, 3),), None)
    empty = rows_from_runs([], [])
    assert (empty.heads, empty.lengths) == ((), ()) and empty == ()


def test_a_copy_or_a_pickle_of_stated_rows_keeps_the_runs():
    m = rows_from_runs([(1, 0), (0, 1)], [3, 2], [((0, 1),), None])
    for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(other) is RowRuns and other == m
        assert (other.heads, other.lengths, other.pairs) == (m.heads, m.lengths, m.pairs)


@pytest.mark.parametrize("cell", [Fraction(1, 2), Fraction(2), 0.5, 2.0, True])
def test_from_rows_refuses_a_non_integer_entry_and_an_empty_matrix_has_no_columns(cell):
    with pytest.raises(ExactLatticeError, match="matrix entries must be integers"):
        RationalMatrix.from_rows([[1, 2], [0, cell]])
    empty = RationalMatrix.from_rows([])
    assert (empty.rows, empty.cols, empty.entries) == (0, 0, ())
    assert kernel_dimension(empty) == 0


def test_kernel_zero_matrix():
    assert kernel_dimension(RationalMatrix.from_rows([[0] * 3] * 3)) == 3


def test_kernel_identity():
    ident = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_dimension(ident) == 0


def test_kernel_quintic_difference_matrix():
    # rank-one restrictions on all three surfaces: circulant differences
    m = RationalMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    assert kernel_dimension(m) == 1


# Small cells force scaled pivots (p/g != 1); cells of size 10**40 check
# that no step depends on machine-word integers.
_INTEGER_CELLS = st.one_of(st.integers(-12, 12), st.integers(-12, 12).map(lambda x: x * 10**40))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.data(),
)
def test_rank_nullity_against_oracle(n_rows, n_cols, data):
    entries = data.draw(
        st.lists(
            st.lists(
                _INTEGER_CELLS,
                min_size=n_cols,
                max_size=n_cols,
            ),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    m = RationalMatrix.from_rows(entries)
    rank = fraction_rank(entries)
    assert kernel_dimension(m) == n_cols - rank
    assert kernel_dimension(m) + matrix_rank(m) == n_cols


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_rank_is_unchanged_by_repeats_zero_rows_order_and_row_types(n_rows, n_cols, data):
    """Rank runs on distinct rows; none of these edits, nor lists for tuples, may change it."""
    rows = data.draw(
        st.lists(
            st.lists(_INTEGER_CELLS, min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    rank = fraction_rank(rows)
    edited = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 6))):
        edited.append(list(data.draw(st.sampled_from(rows))))
    for _ in range(data.draw(st.integers(0, 3))):
        edited.insert(data.draw(st.integers(0, len(edited))), [0] * n_cols)
    edited = data.draw(st.permutations(edited))
    as_lists = data.draw(st.booleans())
    entries = tuple(list(r) if as_lists else tuple(r) for r in edited)
    m = RationalMatrix.from_rows(entries)
    assert matrix_rank(m) == rank
    # The same rows as runs of length one each: runs need not be maximal.
    single = tuple((tuple((j, x) for j, x in enumerate(r) if x), 1) for r in edited)
    assert matrix_rank(RationalMatrix(n_cols, single)) == rank
    assert kernel_dimension(m) == n_cols - rank


def _sparse_integer_rows(rnd, n_rows, n_cols, density, zero_rows=()):
    """Entries in {-2..2}; each cell is non-zero with probability ``density``."""
    return [
        [
            rnd.choice((-2, -1, 1, 2)) if i not in zero_rows and rnd.random() < density else 0
            for _ in range(n_cols)
        ]
        for i in range(n_rows)
    ]


@pytest.mark.parametrize(
    "n_rows, n_cols, zero_rows",
    [
        (40, 12, ()),  # tall
        (25, 6, ()),  # tall
        (5, 12, ()),  # wide
        (12, 12, ()),  # square
        (30, 10, (0, 7, 29)),  # tall, with all-zero rows
        (4, 11, (1, 3)),  # wide, with all-zero rows
    ],
)
def test_sparse_integer_rank_against_oracle(n_rows, n_cols, zero_rows):
    rnd = random.Random(n_rows * 100 + n_cols)
    for density in (0.05, 0.1, 0.2, 0.3):
        for _ in range(8):
            rows = _sparse_integer_rows(rnd, n_rows, n_cols, density, zero_rows)
            rank = fraction_rank(rows)
            m = RationalMatrix.from_rows(rows)
            assert matrix_rank(m) == rank
            assert kernel_dimension(m) == n_cols - rank
            assert matrix_rank(RationalMatrix.from_rows(zip(*rows))) == rank
            i = rnd.randrange(n_rows)
            rows[i] = [10**40 * x for x in rows[i]]
            assert matrix_rank(RationalMatrix.from_rows(rows)) == rank


def test_rank_big_integers():
    m = RationalMatrix.from_rows([[10**40, 2 * 10**40], [3, 6]])
    assert kernel_dimension(m) == 1


# The elimination itself, called on sparse rows as ``matrix_rank`` hands
# them over, against the Fraction oracle.


def _sparse(rows):
    """Dense rows as ``_sparse_rank`` takes them: their nonzero (col, value) pairs."""
    return [tuple((j, x) for j, x in enumerate(r) if x) for r in rows]


def _combinations(rnd, base, n_rows, coefficients):
    """``n_rows`` integer combinations of the ``base`` rows, so the rank is
    at most ``len(base)`` and most rows empty out during elimination."""
    return [
        [sum(c * x for c, x in zip(cs, col)) for col in zip(*base)]
        for cs in ([rnd.choice(coefficients) for _ in base] for _ in range(n_rows))
    ]


def _check_sparse_rank(rows):
    as_dicts = [dict(r) for r in _sparse(rows)]
    copy = [dict(r) for r in as_dicts]
    rank = fraction_rank(rows)
    assert _sparse_rank(_sparse(rows)) == rank, rows
    assert _sparse_rank(as_dicts) == rank, rows
    assert as_dicts == copy  # the input rows are not touched
    return rank


def test_sparse_rank_fill_in_under_a_pivot_column_held_by_many_rows():
    """The shortest row pivots on column 0, which every other row holds; each
    update writes the pivot row's other entries into rows that lacked them,
    so the later pivot columns are held through fill-in."""
    rnd = random.Random(7)
    for width in (3, 5, 8):
        for _ in range(40):
            n = width + 4
            head = [rnd.choice((1, -1, 2, 3))] + [rnd.choice((1, 2, -3)) for _ in range(width)]
            rows = [head + [0] * n]
            for i in range(n):
                row = [rnd.choice((1, -1, 2, -2, 3))] + [0] * (width + n)
                row[1 + width + i] = rnd.choice((1, -1, 5))
                for j in rnd.sample(range(1 + width, 1 + width + n), 2):
                    row[j] = row[j] or rnd.choice((1, -2))
                rows.append(row)
            # Rows that are sums of others: their fill-in must cancel.
            rows += _combinations(rnd, rows[1:4], 3, (0, 1, -1, 2))
            rank = _check_sparse_rank(rows)
            assert rank <= len(rows) - 3


def test_sparse_rank_with_non_unit_pivots_that_force_scaling():
    """Every entry is a multiple of 2, 3 or 5 and none is a unit, so each
    update scales its row by p/g > 1 and the content division has work."""
    rnd = random.Random(11)
    for n_rows, n_cols in ((6, 5), (10, 6), (8, 12), (14, 9)):
        for _ in range(30):
            cells = (2, -4, 6, 9, -12, 15, 10)
            rows = [
                [rnd.choice(cells) if rnd.random() < 0.4 else 0 for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            rows += _combinations(rnd, rows[:3], 2, (0, 2, -3))
            _check_sparse_rank(rows)
    # Pivot 4 against 6: g = 2, the row is scaled by 2, and its content is
    # then 2 again.
    assert _sparse_rank(_sparse([[4, 2, 0], [6, 0, 4], [0, 6, -8]])) == fraction_rank(
        [[4, 2, 0], [6, 0, 4], [0, 6, -8]]
    )


def test_sparse_rank_when_rows_empty_out():
    rnd = random.Random(13)
    for n_base, n_cols in ((1, 4), (2, 6), (3, 7), (5, 9)):
        for _ in range(30):
            cells = (0, 0, 1, -1, 2, -3)
            base = [[rnd.choice(cells) for _ in range(n_cols)] for _ in range(n_base)]
            rows = base + _combinations(rnd, base, 2 * n_base + 2, (0, 1, -1, 2, 3))
            rnd.shuffle(rows)
            assert _check_sparse_rank(rows) <= n_base
    # Equal rows as separate objects, and a row equal to a multiple of another.
    assert _sparse_rank(_sparse([[1, 2, 0], [1, 2, 0], [3, 6, 0], [0, 0, 0]])) == 1
    assert _sparse_rank([]) == 0
    assert _sparse_rank([(), {}]) == 0


def test_sparse_rank_of_rows_repeated_as_one_shared_object():
    """A blown-up surface repeats one row object per point over a curve."""
    rnd = random.Random(17)
    for _ in range(40):
        shared = [rnd.choice((0, 1, -1, 2)) for _ in range(6)]
        others = [[rnd.choice((0, 0, 1, -2, 3)) for _ in range(6)] for _ in range(3)]
        rows = others[:1] + [shared] * 4 + others[1:] + [shared] * 2
        shared_row = _sparse([shared])[0]
        sparse = [shared_row if r is shared else s for r, s in zip(rows, _sparse(rows))]
        rank = _check_sparse_rank(rows)
        assert _sparse_rank(sparse) == rank
        assert matrix_rank(RationalMatrix.from_rows(rows)) == rank


def test_sparse_rank_of_rows_with_10_to_the_40_entries():
    rnd = random.Random(19)
    big = 10**40
    for n_rows, n_cols in ((4, 4), (6, 5), (9, 7)):
        for _ in range(25):
            rows = [
                [rnd.choice((0, 1, -1, big, -big, big + 1, 3 * big)) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            rows += _combinations(rnd, rows[:2], 2, (1, -1, big))
            _check_sparse_rank(rows)
    # Pivot 10**40 + 1 against 10**40: coprime, so the row is scaled by a
    # 41-digit factor, and the rank is still exact.
    rows = [[big + 1, big], [big, big - 1], [2 * big + 1, 2 * big - 1]]
    assert _sparse_rank(_sparse(rows)) == fraction_rank(rows) == 2


def test_sparse_rank_divides_each_scaled_row_by_its_content(monkeypatch):
    """Pivot row k holds only the k-th odd prime q in column k, and the last
    row is all ones, so each update scales it by q and leaves it with
    content q.  Divided, no number the elimination hands ``math.gcd``
    passes the largest prime; a scaled row left undivided would carry the
    product of all the primes so far."""
    primes = [q for q in range(3, 200) if all(q % d for d in range(2, q))][:20]
    n = len(primes)
    rows = [[q if j == k else 0 for j in range(n + 1)] for k, q in enumerate(primes)]
    rows.append([1] * (n + 1))
    seen = []

    def gcd(*args):
        seen.extend(map(abs, args))
        return math.gcd(*args)

    monkeypatch.setattr(exactlat, "math", SimpleNamespace(gcd=gcd))
    assert _sparse_rank(_sparse(rows)) == n + 1
    assert max(seen) == primes[-1]


@pytest.mark.parametrize(
    "rows, bound",
    [
        # A row scaled by 2 and left undivided: 910.
        ([[2, 3, 0, 0], [7, 3, 5, 5], [7, 3, 0, 5], [0, 2, 0, 3], [0, 7, 7, 5]], 100),
        # A content of 2 left in a row: 2,220.
        ([[2, 2, 3, 5], [0, 3, 0, 5], [5, 7, 0, 3], [2, 2, 2, 0]], 1000),
    ],
)
def test_sparse_rank_divides_rows_scaled_by_two_and_contents_of_two(monkeypatch, rows, bound):
    """Two matrices from a seeded search: here the elimination hands
    ``math.gcd`` no number above 15 and 77, while skipping the content
    division after a scaling by 2, or for a content of 2, gives the numbers
    in the comments."""
    seen = []

    def gcd(*args):
        seen.extend(map(abs, args))
        return math.gcd(*args)

    monkeypatch.setattr(exactlat, "math", SimpleNamespace(gcd=gcd))
    assert _sparse_rank(_sparse(rows)) == fraction_rank(rows)
    assert max(seen) < bound


def _stress_blow_ups():
    """One partition per alpha of each degree 9, 15 and 21 rank-one family,
    drawn as the stress rows are drawn (seed 901), and the all-ones row."""
    rng = random.Random(901)
    rows = []
    for degree in (9, 15, 21):
        family = rank_one_family(degree)
        by_alpha = {}
        for spec in catalog.enumerate_partitions(family):
            by_alpha.setdefault(spec.alpha, []).append(spec)
        for alpha in sorted(by_alpha):
            rows.append((family, rng.choice(by_alpha[alpha])))
    return rows


def test_every_catalog_and_stress_blow_up_keeps_its_rank():
    """The rank of each blown-up restriction-difference matrix equals the
    Fraction oracle's on the matrix built cell by cell, and ``hodge`` gets
    the same kernel dimension."""
    cases = [(catalog.get_family(f), spec) for f, spec in all_catalog_cases()]
    stress = _stress_blow_ups()
    assert (len(cases), len(stress)) == (63, 45)
    for family, spec in cases + stress:
        config, divisor = catalog.instantiate(family, spec)
        tilde, _ = construction.sequential_blowup(config, divisor)
        dense = dense_restriction_difference(tilde)
        distinct = [r for r in dict.fromkeys(dense) if any(r)]
        rank = fraction_rank(distinct)
        m = restriction_difference_matrix(tilde)
        assert m.entries == dense
        assert matrix_rank(m) == rank, (family.id, spec)
        assert tilde.kernel_dim == m.cols - rank


# ---------------------------------------------------------------------------
# adjunction_euler


def test_adjunction_quintic_plane_curve():
    assert adjunction_euler((5,), (-3,), PLANE) == -10


def test_adjunction_quintic_cubic_surface_curve():
    assert adjunction_euler((5,), (-1,), CUBIC_SURFACE) == -60


def test_adjunction_bidegree_triple_curve_is_elliptic():
    assert adjunction_euler((1, 1), (-1, -1), BIDEGREE) == 0


def test_adjunction_rejects_zero_class():
    with pytest.raises(ZeroCurveClass):
        adjunction_euler((0,), (-3,), PLANE)


@pytest.mark.parametrize("a", range(1, 8))
@pytest.mark.parametrize("k", range(-4, 5))
def test_adjunction_parity_error_fires_exactly_on_odd_sums(a, k):
    s = a * a + a * k
    if s % 2 == 0:
        assert adjunction_euler((a,), (k,), PLANE) == -s
        assert adjunction_euler((a,), (k,), PLANE) % 2 == 0
    else:
        with pytest.raises(SmoothCurveParityError):
            adjunction_euler((a,), (k,), PLANE)


@pytest.mark.parametrize(
    "c, canonical",
    [
        ((1, 1, 1), (-1, -1)),  # curve class too long
        ((1,), (-1, -1)),  # curve class too short
        ((1, 1), (-1, -1, 0)),  # canonical class too long
        ((1, 1), (-1,)),  # canonical class too short
        ((1, 1, 1), (-1, -1, -1)),  # both too long, by the same amount
    ],
)
@pytest.mark.parametrize("fn", [adjunction_sum, adjunction_euler])
def test_adjunction_refuses_wrong_lengths(fn, c, canonical):
    with pytest.raises(DimensionMismatch):
        fn(c, canonical, BIDEGREE)
