"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or on failure).  All tolerances are exact: every asserted
quantity is an integer and must match exactly.
"""

import random
from fractions import Fraction

import pytest

from nc3 import catalog, construction, degeneration, invariants, ncconfig
from nc3.exactlat import RationalMatrix, SmoothCurveParityError, adjunction_euler, kernel_dimension, make_lattice, mat_vec


def _report(n: int, description: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"acceptance criterion {n} [{description}]: {status}")
            return False

    return _Reporter()


@pytest.fixture(scope="module")
def catalog_runs():
    """(family, spec, config, divisor, blown-up config) for all 63 rows."""
    runs = []
    for fam_id in catalog.family_ids():
        for spec in catalog.enumerate_partitions(fam_id):
            config, divisor = catalog.instantiate(fam_id, spec)
            config_tilde, _ = construction.sequential_blowup(config, divisor)
            runs.append((fam_id, spec, config, divisor, config_tilde))
    return runs


def test_criterion_1_quintic_end_to_end():
    with _report(1, "quintic end-to-end"):
        spec = catalog.PartitionSpec(parts=((5,),))
        config, divisor = catalog.instantiate("quintic", spec)
        ok_before, residual = degeneration.is_d_semistable(config)
        assert ok_before is False
        assert residual.as_lists() == [[5], [5], [5]]
        config_tilde, _ = construction.sequential_blowup(config, divisor)
        ok_after, _ = degeneration.is_d_semistable(config_tilde)
        assert ok_after is True
        inv = invariants.hodge(config, divisor)
        assert inv.euler == -200
        assert (inv.h11, inv.h12) == (1, 101)
        assert inv.h_cubed == 5
        assert inv.h_dot_c2 == 50


def test_criterion_2_golden_tables(catalog_runs):
    with _report(2, "63 golden rows incl. star flags"):
        counts = {}
        for fam_id, spec, config, divisor, _ in catalog_runs:
            row = {
                r.partition.parts: r for r in catalog.expected_table(fam_id)
            }[spec.parts]
            inv = invariants.hodge(config, divisor)
            assert (inv.h11, inv.h12) == (row.h11, row.h12), (fam_id, spec.display())
            counts[fam_id] = counts.get(fam_id, 0) + 1
        assert counts == {
            "quintic": 7,
            "three-p3-quadric": 11,
            "quadric4fold-112": 5,
            "cubic4fold-111": 3,
            "two-quadrics-p6": 3,
            "gr25-section": 3,
            "p2xp2": 31,
        }
        assert sum(counts.values()) == 63
        stars = sum(
            1 for fam_id in counts for r in catalog.expected_table(fam_id) if r.star
        )
        assert stars == 11


def test_criterion_3_dual_path_consistency(catalog_runs):
    with _report(3, "dual-path euler and h11"):
        for fam_id, spec, config, divisor, config_tilde in catalog_runs:
            assert invariants.euler_smoothing(config_tilde) == invariants.euler_closed(
                config, divisor
            ), (fam_id, spec.display())
            assert invariants.h11_kernel(config_tilde) == invariants.h11_closed(
                config, divisor
            ), (fam_id, spec.display())


def test_criterion_4_closed_form_spot_checks():
    with _report(4, "per-family Euler closed forms"):
        for spec in catalog.enumerate_partitions("quintic"):
            config, divisor = catalog.instantiate("quintic", spec)
            q = sum(a[0] ** 2 for a in spec.parts)
            assert invariants.euler_closed(config, divisor) == -25 - 7 * q
        for spec in catalog.enumerate_partitions("three-p3-quadric"):
            config, divisor = catalog.instantiate("three-p3-quadric", spec)
            q = sum(a[0] ** 2 for a in spec.parts)
            assert invariants.euler_closed(config, divisor) == 12 - 6 * q
        for spec in catalog.enumerate_partitions("p2xp2"):
            config, divisor = catalog.instantiate("p2xp2", spec)
            q = sum(a * a + b * b + 4 * a * b for a, b in spec.parts)
            assert invariants.euler_closed(config, divisor) == -3 * q


def test_criterion_5a_permutation_invariance():
    with _report(5, "(a) permutation invariance, 120 randomized cases"):
        rng = random.Random(20250809)
        all_specs = [
            (fam_id, spec)
            for fam_id in catalog.family_ids()
            for spec in catalog.enumerate_partitions(fam_id)
        ]
        reference = {}
        for _ in range(120):
            fam_id, spec = rng.choice(all_specs)
            key = (fam_id, spec.parts)
            if key not in reference:
                c, d = catalog.instantiate(fam_id, spec)
                reference[key] = invariants.hodge(c, d)
            shuffled = list(spec.parts)
            rng.shuffle(shuffled)
            perm = tuple(rng.sample(range(3), 3))
            c, d = catalog.instantiate(
                fam_id, catalog.PartitionSpec(parts=tuple(shuffled)), component_order=perm
            )
            assert invariants.hodge(c, d) == reference[key], (fam_id, shuffled, perm)


def test_criterion_5b_ample_margin_positivity():
    with _report(5, "(b) ample margins on 10000 random tables"):
        rng = random.Random(99)
        for _ in range(10_000):
            k = rng.randint(1, 6)
            table = []
            for l in range(k):
                row = [0] * k
                row[l] = -1
                for lp in range(l + 1, k):
                    row[lp] = rng.randint(0, 9)
                table.append(tuple(row))
            cert = construction.ample_margin(
                construction.AmpleMarginProblem(table=tuple(table))
            )
            assert cert.m == cert.beta + 2
            assert all(v > 0 for v in cert.values)


def test_criterion_5c_kernel_classes_and_growth(catalog_runs):
    with _report(5, "(c) kernel classes and +2*alpha growth"):
        for fam_id, spec, config, divisor, config_tilde in catalog_runs:
            m_before = ncconfig.restriction_difference_matrix(config)
            m_after = ncconfig.restriction_difference_matrix(config_tilde)
            k0, k1 = kernel_dimension(m_before), kernel_dimension(m_after)
            assert k1 == k0 + 2 * divisor.alpha, (fam_id, spec.display())
            ext = construction.extend_restriction_matrix(
                m_before, divisor.alpha, gamma=divisor.gamma
            )
            assert kernel_dimension(ext) == k1
            e1, e2 = ncconfig.component_restriction_classes(config_tilde)
            assert all(x == 0 for x in mat_vec(m_after.entries, e1)), (fam_id, spec.display())
            assert all(x == 0 for x in mat_vec(m_after.entries, e2)), (fam_id, spec.display())


def test_criterion_5d_parity_and_positivity(catalog_runs):
    with _report(5, "(d) euler parity and h12 >= 0"):
        for fam_id, spec, config, divisor, _ in catalog_runs:
            inv = invariants.hodge(config, divisor)
            assert inv.euler % 2 == 0
            assert inv.h12 >= 0
            assert inv.h11 >= 0


def test_criterion_5e_adjunction_parity_errors():
    with _report(5, "(e) parity error fires exactly on odd sums"):
        lat = make_lattice([[1]])
        for a in range(1, 10):
            for k in range(-6, 7):
                s = a * a + a * k
                if s % 2 == 0:
                    assert adjunction_euler((a,), (k,), lat) == -s
                else:
                    with pytest.raises(SmoothCurveParityError):
                        adjunction_euler((a,), (k,), lat)


AUDIT_FAMILIES = {
    "quadric4fold-112": (2, (1, 1, 2)),
    "cubic4fold-111": (3, (1, 1, 1)),
    "gr25-section": (5, (1, 1, 1)),
}


def test_criterion_6_derived_data_audit():
    with _report(6, "table-inversion audit of derived families"):
        for fam_id, (ambient, degrees) in AUDIT_FAMILIES.items():
            fam = catalog.get_family(fam_id)
            rows = catalog.expected_table(fam)
            points = [
                (sum(a[0] ** 2 for a in r.partition.parts), 2 * (r.h11 - r.h12))
                for r in rows
            ]
            (q1, e1), (q2, e2) = points[0], points[1]
            assert q1 != q2
            slope = Fraction(e1 - e2, q2 - q1)
            intercept = Fraction(e1) + slope * q1
            # the fit is unique and every remaining row lies on it
            for q, e in points:
                assert Fraction(e) == intercept - slope * q
            assert slope.denominator == 1 and intercept.denominator == 1
            s_fit, a_fit = int(slope), int(intercept)

            d1, d2, d3 = degrees
            s_surfaces = sorted((ambient * d2 * d3, ambient * d3 * d1, ambient * d1 * d2))
            u = ambient * d1 * d2 * d3
            total = d1 + d2 + d3
            assert s_fit == sum(s_surfaces)

            config, _ = catalog.instantiate(fam, catalog.enumerate_partitions(fam)[0])
            from nc3.exactlat import pair

            stored_s = sorted(pair((1,), (1,), s.lattice) for s in config.surfaces)
            assert stored_s == s_surfaces
            stored_eulers = sorted(s.euler for s in config.surfaces)
            derived_eulers = sorted(
                12 - t * t * s for t, s in zip(degrees, (ambient * d2 * d3, ambient * d3 * d1, ambient * d1 * d2))
            )
            assert stored_eulers == derived_eulers
            assert fam.gamma == u * total
            assert sum(c.euler for c in config.components) == a_fit + 2 * sum(
                stored_eulers
            ) - u * total


def _flipped_transport(n, degree):
    h3, c2h, c1sqh = n
    return (h3, c2h - degree, c1sqh + degree)


def _flipped_sign_matrix(config):
    """Difference matrix with both restriction blocks taken positively."""
    col_offsets = [0]
    for comp in config.components:
        col_offsets.append(col_offsets[-1] + comp.h2_rank)
    rows = []
    for i, surf in enumerate(config.surfaces):
        j, k = ncconfig.SURFACE_ADJACENCY[i]
        r_plus = config.restriction(i, j)
        r_minus = config.restriction(i, k)
        for r in range(surf.lattice.rank):
            row = [0] * col_offsets[-1]
            for c in range(config.components[j].h2_rank):
                row[col_offsets[j] + c] += r_plus[r][c]
            for c in range(config.components[k].h2_rank):
                row[col_offsets[k] + c] += r_minus[r][c]
            rows.append(row)
    return RationalMatrix.from_rows(rows)


def _flipped_normal_class(config):
    from nc3.exactlat import vec_add, vec_sub

    classes = tuple(
        vec_sub(vec_add(s.boundary_self[0], s.boundary_self[1]), s.tau_class)
        for s in config.surfaces
    )
    return degeneration.NormalClassTriple(classes=classes)


def _quintic_golden_row():
    spec = catalog.PartitionSpec(parts=((5,),))
    config, divisor = catalog.instantiate("quintic", spec)
    inv = invariants.hodge(config, divisor)
    if (inv.h11, inv.h12, inv.euler, inv.h_cubed, inv.h_dot_c2) != (1, 101, -200, 5, 50):
        raise AssertionError("quintic golden row mismatch")


def test_criterion_7_fault_injection(monkeypatch):
    with _report(7, "sign flips break golden rows"):
        # sanity: the unpatched pipeline passes
        _quintic_golden_row()

        with monkeypatch.context() as mp:
            mp.setattr(construction, "transport_chern", _flipped_transport)
            with pytest.raises(AssertionError):
                _quintic_golden_row()

        with monkeypatch.context() as mp:
            mp.setattr(ncconfig, "restriction_difference_matrix", _flipped_sign_matrix)
            with pytest.raises(Exception):
                _quintic_golden_row()

        with monkeypatch.context() as mp:
            mp.setattr(degeneration, "collective_normal_class", _flipped_normal_class)
            with pytest.raises(Exception):
                _quintic_golden_row()
