"""The run-collapsing paths against independent oracles.

A blown-up third surface holds one restriction row per triple-curve point,
and the points over one curve share one row tuple.  The restriction-
difference matrix, its rank, ``NCConfiguration.restrict`` and the normal
class's ``is_zero`` collapse runs of equal consecutive rows.  Here each is
compared with a plain computation that collapses nothing, on three variants
of every blown-up configuration:

* as the blow-up built it, with shared row tuples;
* rebuilt with every restriction row copied into a fresh tuple, as a parsed
  file holds them;
* rebuilt fresh with the third surface's point rows permuted, so that equal
  rows are not consecutive.
"""

import random

import pytest

from nc3 import catalog, construction, degeneration
from nc3._record import replace
from nc3.exactlat import mat_vec, matrix_rank
from nc3.ncconfig import restriction_difference_matrix
from tests.conftest import (
    all_catalog_cases,
    dense_restriction_difference,
    fraction_rank,
    rank_one_family,
)


def _stress_rows():
    """One seeded partition per alpha of the rank-one families of degree 9, 15
    and 21: 45 rows, the all-ones row of each degree among them."""
    rng = random.Random(901)
    rows = []
    for degree in (9, 15, 21):
        fam = rank_one_family(degree)
        by_alpha = {}
        for spec in catalog.enumerate_partitions(fam):
            by_alpha.setdefault(spec.alpha, []).append(spec)
        for alpha in sorted(by_alpha):
            spec = rng.choice(by_alpha[alpha])
            rows.append((f"d{degree}:{spec.cli_form()}", fam, spec))
    return rows


def _cases():
    for order in ((0, 1, 2), (2, 0, 1)):
        for fam_id, spec in all_catalog_cases():
            yield f"{fam_id}:{spec.cli_form()}:{order}", catalog.instantiate(
                fam_id, spec, component_order=order
            )
    for label, fam, spec in _stress_rows():
        yield label, catalog.instantiate(fam, spec)


CASES = list(_cases())


def _with_rows(config, rows):
    """``config`` with restriction matrix m of surface i replaced by ``rows(i, m)``."""
    surfaces = tuple(
        replace(s, restrictions=tuple(rows(i, m) for m in s.restrictions))
        for i, s in enumerate(config.surfaces)
    )
    return replace(config, surfaces=surfaces)


def _variants(config, gamma, rng):
    fresh = _with_rows(config, lambda i, m: tuple(tuple(list(r)) for r in m))
    perm = list(range(gamma))
    rng.shuffle(perm)

    def permuted(i, m):
        if i != 2:
            return m
        base = len(m) - gamma
        return m[:base] + tuple(m[base + p] for p in perm)

    return {"shared": config, "fresh": fresh, "permuted": _with_rows(fresh, permuted)}


def _generator_is_zero(normal):
    return all(all(x == 0 for x in c) for c in normal.classes)


@pytest.mark.parametrize("label, case", CASES, ids=[label for label, _ in CASES])
def test_run_collapsing_paths_match_plain_computations(label, case):
    config, divisor = case
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    rng = random.Random(label)
    variants = _variants(config_tilde, divisor.gamma, rng)
    dense = dense_restriction_difference(config_tilde)
    # Repeated rows leave the rank alone; the oracle ranks the distinct ones.
    rank = fraction_rank(set(dense))
    for name, cfg in variants.items():
        where = (label, name)
        m = restriction_difference_matrix(cfg)
        assert m.entries == (dense if name != "permuted" else dense_restriction_difference(cfg)), where
        assert (m.rows, m.cols) == (len(dense), len(dense[0])), where
        # Equal rows share one tuple, consecutive or not.
        assert len(set(map(id, m.entries))) == len(set(m.entries)), where
        assert matrix_rank(m) == rank, where
        for i in range(3):
            for c in cfg.adjacent(i):
                n = cfg.components[c].h2_rank
                for v in (cfg.components[c].ample, tuple(rng.randint(-3, 3) for _ in range(n))):
                    assert cfg.restrict(i, c, v) == mat_vec(cfg.restriction(i, c), v), where
        assert cfg.normal_class.is_zero is _generator_is_zero(cfg.normal_class) is True, where
    assert config.normal_class.is_zero is _generator_is_zero(config.normal_class), label


@pytest.mark.parametrize("at", [0, 1, 150, 294])
def test_is_zero_sees_one_nonzero_point_coordinate(at):
    for x in (0, 1, -1):
        point = (0,) * at + (x,) + (0,) * (294 - at)
        normal = degeneration.NormalClassTriple(classes=((0,), (0,), point))
        assert normal.is_zero is _generator_is_zero(normal) is (x == 0)
