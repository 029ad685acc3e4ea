import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc3.exactlat import (
    DimensionMismatch,
    ExactLatticeError,
    IntersectionLattice,
    RationalMatrix,
    SmoothCurveParityError,
    ZeroCurveClass,
    adjunction_euler,
    adjunction_sum,
    default_labels,
    gram_product,
    kernel_dimension,
    make_lattice,
    matrix_rank,
    pair,
    require_curve_class,
    vec_add,
)
from tests.conftest import fraction_rank

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


@pytest.mark.parametrize(
    "rows, cols, entries, message",
    [
        (2, 2, ((1, 2),), "row count does not match entries"),
        (2, 2, ((1, 2), (3,)), "column count does not match entries"),
        (2, 2, ((1, 2, 3), (4, 5)), "column count does not match entries"),
        (3, 1, ((1,),) * 2 + ((1, 0),), "column count does not match entries"),
    ],
)
def test_malformed_rational_matrix_is_refused(rows, cols, entries, message):
    with pytest.raises(DimensionMismatch, match=message):
        RationalMatrix(rows=rows, cols=cols, entries=entries)


def test_kernel_zero_matrix():
    assert kernel_dimension(RationalMatrix.from_rows([[0] * 3] * 3)) == 3


def test_kernel_identity():
    ident = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_dimension(ident) == 0


def test_kernel_quintic_difference_matrix():
    # rank-one restrictions on all three surfaces: circulant differences
    m = RationalMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    assert kernel_dimension(m) == 1


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
                st.fractions(
                    min_value=-6, max_value=6, max_denominator=5
                ),
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
    """Rank runs on distinct nonzero rows; none of these edits may change it."""
    cell = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    rows = data.draw(
        st.lists(
            st.lists(cell, min_size=n_cols, max_size=n_cols),
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
    m = RationalMatrix(rows=len(entries), cols=n_cols, entries=entries)
    assert matrix_rank(m) == rank
    assert matrix_rank(RationalMatrix.from_rows(edited)) == rank
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
