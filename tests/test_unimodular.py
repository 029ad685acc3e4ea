"""Invariance under a unimodular change of each surface lattice's basis.

Linear equivalence is decided as coordinate equality, and every catalog
configuration comes in identity bases.  Here each surface lattice is
rewritten in a random basis U (integer, with integer inverse): the Gram
becomes U^T G U, and every class and restriction matrix on the surface goes
through U^-1.  The d-semistability verdict, the residual (transformed),
the error clauses of ``validate``, and e, h11, h12 must not change, both for
blown-up exports through ``smoothing_invariants`` and for configurations
before the blow-up, with transformed divisors, through ``hodge``.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from nc3 import catalog, construction, degeneration, invariants, ncconfig
from nc3._record import replace
from nc3.exactlat import mat_vec

ROWS = (
    ("quintic", ((5,),)),
    ("quintic", ((1,), (4,))),
    ("p2xp2", ((1, 0), (2, 3))),
    ("three-p3-quadric", None),
)


@functools.cache
def _row(index):
    """(config, divisor, blown-up config) of one row; the last row's first partition."""
    fam_id, parts = ROWS[index]
    spec = (
        catalog.enumerate_partitions(fam_id)[0]
        if parts is None
        else catalog.PartitionSpec(parts=parts)
    )
    config, divisor = catalog.instantiate(fam_id, spec)
    return config, divisor, construction.sequential_blowup(config, divisor)[0]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


@st.composite
def unimodular(draw, n):
    """(U, U^-1) as lists of rows, a product of elementary integer operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            # U <- U (I + k e_j e_i^T): column i gains k * column j;
            # U^-1 <- (I - k e_j e_i^T) U^-1: row j loses k * row i.
            k = draw(st.sampled_from((-2, -1, 1, 2)))
            for row in u:
                row[i] += k * row[j]
            inv[j] = [x - k * y for x, y in zip(inv[j], inv[i])]
        elif op == "swap":
            for row in u:
                row[i], row[j] = row[j], row[i]
            inv[i], inv[j] = inv[j], inv[i]
        elif op == "negate":
            for row in u:
                row[i] = -row[i]
            inv[i] = [-x for x in inv[i]]
    assert _matmul(u, inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    return u, inv


@st.composite
def bases(draw, config):
    """One (U, U^-1) per surface lattice of ``config``."""
    return tuple(draw(unimodular(s.lattice.rank)) for s in config.surfaces)


def _transform(config, bases_):
    """``config`` with every surface lattice rewritten in its new basis."""
    data = ncconfig.config_to_dict(config)
    for surf, (u, inv) in zip(data["surfaces"], bases_):
        surf["gram"] = _matmul(_matmul(list(map(list, zip(*u))), surf["gram"]), u)
        for key in ("canonical", "tau_class"):
            surf[key] = list(mat_vec(inv, surf[key]))
        surf["boundary_self"] = [list(mat_vec(inv, v)) for v in surf["boundary_self"]]
        for name, m in surf["restrictions"].items():
            surf["restrictions"][name] = _matmul(inv, m)
    return ncconfig.config_from_dict(data)


def _error_clauses(config):
    return sorted((d.clause, d.target) for d in ncconfig.validate(config) if d.is_error)


def _assert_same_verdict(config, moved, bases_):
    ok, residual = degeneration.is_d_semistable(config)
    moved_ok, moved_residual = degeneration.is_d_semistable(moved)
    assert moved_ok == ok
    assert moved_residual.classes == tuple(
        mat_vec(inv, r) for r, (_, inv) in zip(residual.classes, bases_)
    )
    assert _error_clauses(moved) == _error_clauses(config)


@st.composite
def blown_up_cases(draw):
    config_tilde = _row(draw(st.integers(0, len(ROWS) - 1)))[2]
    return config_tilde, draw(bases(config_tilde))


@settings(max_examples=40, deadline=None)
@given(blown_up_cases())
def test_smoothing_invariants_ignore_the_surface_bases(case):
    config_tilde, bases_ = case
    moved = _transform(config_tilde, bases_)
    _assert_same_verdict(config_tilde, moved, bases_)
    assert invariants.smoothing_invariants(moved) == invariants.smoothing_invariants(config_tilde)


@settings(max_examples=20, deadline=None)
@given(blown_up_cases())
def test_validation_errors_ignore_the_surface_bases(case):
    """A canonical class off by one on D1 fails C3.1(4) (and on some rows
    parity) in every basis."""
    config_tilde, bases_ = case
    d1 = config_tilde.surfaces[0]
    broken = replace(
        config_tilde,
        surfaces=(replace(d1, canonical=(d1.canonical[0] + 1,) + d1.canonical[1:]),)
        + config_tilde.surfaces[1:],
    )
    assert ("C3.1(4)", "D1") in _error_clauses(broken)
    _assert_same_verdict(broken, _transform(broken, bases_), bases_)


@st.composite
def unblown_cases(draw):
    config, divisor, _ = _row(draw(st.integers(0, len(ROWS) - 1)))
    return config, divisor, draw(bases(config))


@settings(max_examples=40, deadline=None)
@given(unblown_cases())
def test_hodge_ignores_the_surface_bases(case):
    config, divisor, bases_ = case
    moved = _transform(config, bases_)
    _assert_same_verdict(config, moved, bases_)
    moved_divisor = replace(
        divisor,
        components=tuple(
            tuple(mat_vec(inv, c) for c in curves)
            for curves, (_, inv) in zip(divisor.components, bases_)
        ),
    )
    assert invariants.hodge(moved, moved_divisor) == invariants.hodge(config, divisor)
