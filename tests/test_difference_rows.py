"""The restriction-difference matrix as the rank reads it: its distinct nonzero rows.

``restriction_difference_matrix`` builds the distinct nonzero rows as sparse
``(col, value)`` pairs and lays out the dense rows only when ``entries`` is
read.  These tests hold both forms to independent oracles: a dense layout
built cell by cell, and plain Fraction elimination.
"""

import collections
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


def test_entries_and_kernel_match_the_cell_by_cell_oracles():
    """The dense rows equal the layout built cell by cell.  The distinct rows
    are that layout's distinct nonzero rows, in order of first appearance,
    each in ascending column order.  The kernel dimension is the columns
    less the Fraction rank; a repeated row adds nothing to the row space, so
    the oracle ranks each row once."""
    seen = 0
    for where, (config, divisor) in _blown_up_cases():
        tilde, _ = construction.sequential_blowup(config, divisor)
        dense = dense_restriction_difference(tilde)
        distinct = [r for r in dict.fromkeys(dense) if any(r)]
        m = restriction_difference_matrix(tilde)
        assert m.distinct_rows == tuple(map(_sparse, distinct)), where
        assert (m.rows, m.cols) == (len(dense), sum(c.h2_rank for c in tilde.components)), where
        assert m.entries == dense, where
        assert tilde.kernel_dim == m.cols - fraction_rank(distinct), where
        seen += 1
    assert seen == 2 * 63 + 30 + 176 + 24


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
    """297 rows, 66 columns, 951 nonzeros and rank 23; ``hodge`` never lays
    out the dense rows, and a second read of ``entries`` returns the rows the
    first read built."""
    counts = collections.Counter()
    layout = ncconfig._dense_difference_rows

    def counted(*args):
        counts["layout"] += 1
        return layout(*args)

    monkeypatch.setattr(ncconfig, "_dense_difference_rows", counted)
    config, divisor = d21_all_ones_row()
    invariants.hodge(config, divisor)
    assert counts["layout"] == 0
    tilde, _ = construction.sequential_blowup(config, divisor)
    m = restriction_difference_matrix(tilde)
    assert (m.rows, m.cols, kernel_dimension(m)) == (297, 66, 66 - 23)
    assert counts["layout"] == 0
    entries = m.entries
    assert m.entries is entries and counts["layout"] == 1
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
