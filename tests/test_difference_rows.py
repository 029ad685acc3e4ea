"""The restriction-difference matrix as the rank reads it: its distinct nonzero rows.

``restriction_difference_matrix`` builds the matrix as its runs of equal
rows, each one sparse ``(col, value)`` row and its length; the distinct
nonzero rows and, when ``entries`` is read, the dense rows derive from those
runs.  These tests hold both forms to independent oracles: a dense layout
built cell by cell, and plain Fraction elimination.
"""

import random

import pytest

from nc3 import catalog, construction, exactlat, invariants, ncconfig
from nc3._record import replace
from nc3.exactlat import RationalMatrix, kernel_dimension
from nc3.ncconfig import restriction_difference_matrix
from tests.conftest import (
    all_catalog_cases,
    d21_all_ones_row,
    dense_restriction_difference,
    fraction_rank,
    rank_one_family,
)


def _sparse(dense_row):
    return tuple((j, x) for j, x in enumerate(dense_row) if x)


def _blown_up_cases():
    """Every catalog row in component orders (0,1,2) and (2,0,1), every
    degree-9 and degree-15 rank-one partition, and a seeded sample of 24
    degree-21 ones."""
    for fam_id, spec in all_catalog_cases():
        for order in ((0, 1, 2), (2, 0, 1)):
            yield (fam_id, spec.display(), order), catalog.instantiate(fam_id, spec, component_order=order)
    for degree in (9, 15):
        family = rank_one_family(degree)
        for spec in catalog.enumerate_partitions(family):
            yield (family.id, spec.display()), catalog.instantiate(family, spec)
    family = rank_one_family(21)
    for spec in random.Random(21).sample(list(catalog.enumerate_partitions(family)), 24):
        yield (family.id, spec.display()), catalog.instantiate(family, spec)


def _assert_matches_the_oracles(config, where):
    dense = dense_restriction_difference(config)
    distinct = [r for r in dict.fromkeys(dense) if any(r)]
    m = restriction_difference_matrix(config)
    assert m.distinct_rows == tuple(map(_sparse, distinct)), where
    assert (m.rows, m.cols) == (len(dense), sum(c.h2_rank for c in config.components)), where
    assert m.entries == dense, where
    assert config.kernel_dim == m.cols - fraction_rank(distinct), where
    return m


def test_entries_and_kernel_match_the_cell_by_cell_oracles():
    """The dense rows equal the layout built cell by cell.  The distinct rows
    are that layout's distinct nonzero rows, in order of first appearance,
    each in ascending column order.  The kernel dimension is the columns
    less the Fraction rank; a repeated row adds nothing to the row space, so
    the oracle ranks each row once."""
    seen = 0
    for where, (config, divisor) in _blown_up_cases():
        tilde, _ = construction.sequential_blowup(config, divisor)
        _assert_matches_the_oracles(tilde, where)
        seen += 1
    assert seen == 2 * 63 + 30 + 176 + 24


def _parsed_exports():
    """The blown-up 63 catalog rows in component orders (0,1,2) and (2,0,1),
    and the degree-21 all-ones row, each exported and read back."""
    for fam_id, spec in all_catalog_cases():
        for order in ((0, 1, 2), (2, 0, 1)):
            config, divisor = catalog.instantiate(fam_id, spec, component_order=order)
            yield (fam_id, spec.display(), order), construction.sequential_blowup(config, divisor)[0]
    yield "d21 all ones", construction.sequential_blowup(*d21_all_ones_row())[0]


def _equal_neighbours_apart(config):
    """How many neighbouring restriction rows are equal but separate tuples."""
    return sum(
        a == b and a is not b
        for surface in config.surfaces
        for matrix in surface.restrictions
        for a, b in zip(matrix, matrix[1:])
    )


def test_parsed_exports_match_the_cell_by_cell_oracles():
    """The reader shares equal rows only in matrices of 32 rows or more, so in
    a smaller parsed matrix a run of equal restriction rows is found by
    comparing entries, where the blow-up's rows compare on identity.  The
    matrix still matches the oracles, and equal rows of its layout are one
    tuple."""
    seen = apart = 0
    for where, tilde in _parsed_exports():
        parsed = ncconfig.config_from_json(ncconfig.config_to_json(tilde))
        m = _assert_matches_the_oracles(parsed, where)
        assert len(set(map(id, m.entries))) == len(set(m.entries)), where
        assert _equal_neighbours_apart(tilde) == 0, where
        apart += _equal_neighbours_apart(parsed)
        seen += 1
    assert seen == 2 * 63 + 1
    assert apart > 0


def _quintic_with(**restrictions):
    """The quintic configuration with the named surfaces' restriction pairs replaced."""
    config, _ = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))
    surfaces = list(config.surfaces)
    for name, pair in restrictions.items():
        i = int(name[1:]) - 1
        surfaces[i] = replace(surfaces[i], restrictions=pair)
    return replace(config, surfaces=tuple(surfaces))


def _rows_handed_to_the_elimination(monkeypatch, config):
    seen = []
    original = exactlat._sparse_rank

    def recording(rows):
        rows = list(rows)
        seen.append(rows)
        return original(rows)

    monkeypatch.setattr(exactlat, "_sparse_rank", recording)
    kernel = config.kernel_dim
    assert len(seen) == 1
    return seen[0], kernel


def test_a_zero_difference_row_never_reaches_the_elimination(monkeypatch):
    """D2 restricts both sides to zero, so its row is zero.  Columns are
    (Y1, Y2, Y3); D1 gives (0, 1, -1) and D3 gives (1, -1, 0)."""
    config = _quintic_with(D2=(((0,),), ((0,),)))
    m = restriction_difference_matrix(config)
    assert m.entries == ((0, 1, -1), (0, 0, 0), (1, -1, 0))
    rows, kernel = _rows_handed_to_the_elimination(monkeypatch, config)
    assert rows == [((1, 1), (2, -1)), ((0, 1), (1, -1))]
    assert kernel == 3 - fraction_rank(m.entries) == 1


def test_equal_rows_on_two_surfaces_reach_the_elimination_once(monkeypatch):
    """D1 = Y2 ^ Y3 gives (0, 2, 0) from +2 on Y2; D3 = Y1 ^ Y2 gives the same
    row from -(-2) on Y2.  D2 = Y3 ^ Y1 takes Y3 first, so its row
    (-3, 0, 5) is written with Y1's column first."""
    config = _quintic_with(
        D1=(((2,),), ((0,),)),
        D2=(((5,),), ((3,),)),
        D3=(((0,),), ((-2,),)),
    )
    m = restriction_difference_matrix(config)
    assert m.entries == ((0, 2, 0), (-3, 0, 5), (0, 2, 0))
    rows, kernel = _rows_handed_to_the_elimination(monkeypatch, config)
    assert rows == [((1, 2),), ((0, -3), (2, 5))]
    assert kernel == 3 - fraction_rank(m.entries) == 1


def test_d21_all_ones_matrix_reads_its_shape_and_lays_out_entries_once(monkeypatch):
    """297 rows, 66 columns, 951 nonzeros and rank 23.  Neither ``hodge`` nor
    the rank lays out the dense rows; the first read of ``entries`` does, and
    a second read returns the rows the first read built."""
    ranked = []
    original = ncconfig.kernel_dimension

    def recording(m):
        ranked.append(m)
        return original(m)

    monkeypatch.setattr(ncconfig, "kernel_dimension", recording)
    config, divisor = d21_all_ones_row()
    invariants.hodge(config, divisor)
    assert len(ranked) == 1 and "entries" not in vars(ranked[0])
    tilde, _ = construction.sequential_blowup(config, divisor)
    m = restriction_difference_matrix(tilde)
    assert (m.rows, m.cols, kernel_dimension(m)) == (297, 66, 66 - 23)
    assert "entries" not in vars(m)
    entries = m.entries
    assert vars(m)["entries"] is entries and m.entries is entries
    assert (len(entries), sum(1 for r in entries for x in r if x)) == (297, 951)
    assert len(m.distinct_rows) == 24


def test_a_matrix_given_its_distinct_rows_equals_the_dense_one():
    """Equality, hashing and ``replace`` read the dense rows, however the
    matrix was built; a dense matrix derives its distinct rows on first read."""
    config, divisor = d21_all_ones_row()
    tilde, _ = construction.sequential_blowup(config, divisor)
    lazy = restriction_difference_matrix(tilde)
    dense = RationalMatrix.from_rows(dense_restriction_difference(tilde))
    assert lazy == dense and hash(lazy) == hash(dense)
    assert replace(lazy) == dense
    assert dense.distinct_rows == lazy.distinct_rows
    m = RationalMatrix.from_rows([[0, 0, 0], [0, 2, -1], [0, 2, -1], [3, 0, 0], [0, 0, 0]])
    assert m.distinct_rows == (((1, 2), (2, -1)), ((0, 3),))
    assert exactlat.matrix_rank(m) == 2
    with pytest.raises(AttributeError, match="'RationalMatrix' object has no attribute 'layout'"):
        m.layout
    assert not hasattr(lazy, "bogus")
