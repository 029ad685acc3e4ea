"""The run-collapsing paths against independent oracles.

A blown-up third surface holds one restriction row per triple-curve point,
and the points over one curve share one row tuple.  The blow-up and the
reader lay such a matrix out from its runs and state them
(``exactlat.RowRuns``); the restriction-difference matrix, its rank and
``NCConfiguration.restrict`` read the stated runs, and otherwise collapse
runs of equal consecutive rows, as does the normal class's ``is_zero``.
Here each is compared with a plain computation that collapses nothing, on
four variants of every blown-up configuration:

* as the blow-up built it, with shared row tuples and stated runs;
* rebuilt with every restriction row copied into a fresh tuple, stating
  nothing;
* rebuilt fresh with the third surface's point rows permuted, so that equal
  rows are not consecutive;
* exported and read back, so a matrix whose text repeats a row states the
  runs the reader read from the text.
"""

import random
from itertools import groupby

import pytest

from nc3 import catalog, configfile, construction, degeneration, ncconfig
from nc3._record import replace
from nc3.exactlat import RowRuns, mat_vec, matrix_rank
from nc3.ncconfig import SURFACE_ADJACENCY, restriction_difference_matrix
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

    return {
        "shared": config,
        "fresh": fresh,
        "permuted": _with_rows(fresh, permuted),
        "parsed": ncconfig.config_from_json(ncconfig.config_to_json(config)),
    }


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
            for c in SURFACE_ADJACENCY[i]:
                n = cfg.components[c].h2_rank
                for v in (cfg.components[c].ample, tuple(rng.randint(-3, 3) for _ in range(n))):
                    assert cfg.restrict(i, c, v) == mat_vec(cfg.restriction(i, c), v), where
        assert cfg.normal_class.is_zero is _generator_is_zero(cfg.normal_class) is True, where
    assert config.normal_class.is_zero is _generator_is_zero(config.normal_class), label


def _assert_states_its_rows(m, where):
    """A stated matrix is its heads repeated by their positive lengths, and
    each stated pair list is its head's nonzero entries in column order."""
    laid_out = []
    for head, n in zip(m.heads, m.lengths):
        assert n > 0, where
        laid_out += [head] * n
    assert m == tuple(laid_out), where
    for head, pairs in zip(m.heads, m.pairs or ()):
        if pairs is not None:
            assert pairs == tuple((j, x) for j, x in enumerate(head) if x), where


@pytest.mark.parametrize("label, case", CASES, ids=[label for label, _ in CASES])
def test_stated_runs_are_the_rows_and_change_no_result(label, case):
    """The blow-up states both matrices of the third surface, and a pair list
    for each curve that meets the triple curve.  The reader states a matrix
    exactly when its text repeats a row in a file long enough to be folded,
    with the runs of equal consecutive rows (an ``itertools.groupby``
    oracle), and the file it read re-exports byte for byte.  The
    restriction-difference matrix of either has the distinct rows and
    entries of the same configuration with plain tuples."""
    config, divisor = case
    tilde, _ = construction.sequential_blowup(config, divisor)
    text = ncconfig.config_to_json(tilde)
    parsed = ncconfig.config_from_json(text)
    assert ncconfig.config_to_json(parsed) == text, label
    folded = len(text) >= configfile._FOLD_MIN_CHARS
    curves = sum(1 for m in divisor.tau_multiplicities if m)
    for name, cfg in (("blown", tilde), ("parsed", parsed)):
        where = (label, name)
        for i, surface in enumerate(cfg.surfaces):
            for m in surface.restrictions:
                if name == "blown":
                    assert (type(m) is RowRuns) is (i == 2), where
                    if i == 2:
                        assert sum(p is not None for p in m.pairs) == curves, where
                else:
                    groups = [(head, len(list(run))) for head, run in groupby(m)]
                    assert (type(m) is RowRuns) is (folded and len(groups) < len(m)), where
                    if type(m) is RowRuns:
                        assert (m.heads, m.lengths) == tuple(map(tuple, zip(*groups))), where
                if type(m) is RowRuns:
                    _assert_states_its_rows(m, where)
        plain = _with_rows(cfg, lambda i, m: tuple(map(tuple, m)))
        stated, walked = restriction_difference_matrix(cfg), restriction_difference_matrix(plain)
        assert stated.distinct_rows == walked.distinct_rows, where
        assert (stated.rows, stated.cols, stated.entries) == (walked.rows, walked.cols, walked.entries), where


@pytest.mark.parametrize("at", [0, 1, 150, 294])
def test_is_zero_sees_one_nonzero_point_coordinate(at):
    for x in (0, 1, -1):
        point = (0,) * at + (x,) + (0,) * (294 - at)
        normal = degeneration.NormalClassTriple(classes=((0,), (0,), point))
        assert normal.is_zero is _generator_is_zero(normal) is (x == 0)
