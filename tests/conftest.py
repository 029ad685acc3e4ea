from fractions import Fraction

import pytest

from nc3 import catalog, construction
from nc3.ncconfig import SURFACE_ADJACENCY


def quintic_partition(*parts: int) -> catalog.PartitionSpec:
    return catalog.PartitionSpec(parts=tuple((a,) for a in parts))


@pytest.fixture
def quintic5():
    return catalog.instantiate("quintic", quintic_partition(5))


@pytest.fixture
def quintic5_blown(quintic5):
    config, divisor = quintic5
    return construction.sequential_blowup(config, divisor)


def all_catalog_cases():
    """(family, partition) for every reference row; computed once per session."""
    cases = []
    for fam_id in catalog.family_ids():
        for spec in catalog.enumerate_partitions(fam_id):
            cases.append((fam_id, spec))
    return cases


def rank_one_family(degree: int) -> catalog.Family:
    """Synthetic rank-one family: all cuts (degree/3,), Gram [[2]], every Euler number 4.

    At degree 21 its all-ones partition gives the largest shape the package
    meets: gamma 294, a 295x295 blown-up D3 Gram and a 297x66
    restriction-difference matrix.
    """
    k = degree // 3
    return catalog.Family(
        id=f"rank-one-d{degree}",
        description=f"synthetic rank-one family of degree {degree}",
        rank=1,
        labels=("h",),
        ample=(1,),
        total_degree=(degree,),
        gamma=2 * k * degree,
        gamma_per_unit=2 * k,
        h2=1,
        tau_euler=0,
        components=tuple(
            catalog.FamilyComponent(name=f"Y{i + 1}", euler=4, cut=(k,)) for i in range(3)
        ),
        surfaces_opposite=tuple(catalog.FamilySurface(gram=((2,),), euler=4) for _ in range(3)),
    )


def rank_one_d21_family() -> catalog.Family:
    return rank_one_family(21)


def d21_all_ones_row():
    """(config, divisor) of the degree-21 all-ones row."""
    return catalog.instantiate(rank_one_d21_family(), quintic_partition(*(1,) * 21))


def fraction_rank(rows):
    """Plain Fraction Gaussian elimination, independent of the integer path."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_restriction_difference(config):
    """Cell by cell: row (i, r), column (c, q) holds +R_ij[r][q] if c is the
    first component adjacent to surface i, -R_ik[r][q] if c is the second, and
    zero otherwise."""
    rows = []
    for i, surf in enumerate(config.surfaces):
        j, k = SURFACE_ADJACENCY[i]
        for r in range(surf.lattice.rank):
            row = []
            for c, comp in enumerate(config.components):
                for q in range(comp.h2_rank):
                    if c == j:
                        row.append(config.restriction(i, j)[r][q])
                    elif c == k:
                        row.append(-config.restriction(i, k)[r][q])
                    else:
                        row.append(0)
            rows.append(tuple(row))
    return tuple(rows)
