
from nc3 import catalog, degeneration
from nc3._record import replace
from nc3.exactlat import pair
from tests.conftest import quintic_partition


def test_quintic_collective_class_is_degree_five(quintic5):
    config, _ = quintic5
    n = degeneration.collective_normal_class(config)
    assert n.classes == ((5,), (5,), (5,))
    # on the plane D3 the sum is 1h + 1h + 3h
    s = config.surfaces[2]
    assert s.boundary_self == ((1,), (1,))
    assert s.tau_class == (3,)


def test_three_p3_collective_class_is_degree_six():
    spec = quintic_partition(6)
    config, _ = catalog.instantiate("three-p3-quadric", spec)
    n = degeneration.collective_normal_class(config)
    assert n.classes == ((6,), (6,), (6,))


def test_blowup_output_has_trivial_collective_class(quintic5_blown):
    config_tilde, _ = quintic5_blown
    assert degeneration.collective_normal_class(config_tilde).is_zero


def test_quintic_not_d_semistable(quintic5):
    config, _ = quintic5
    ok, residual = degeneration.is_d_semistable(config)
    assert not ok
    assert residual.as_lists() == [[5], [5], [5]]


def test_blown_up_quintic_is_d_semistable(quintic5_blown):
    config_tilde, _ = quintic5_blown
    ok, residual = degeneration.is_d_semistable(config_tilde)
    assert ok
    assert residual.is_zero


def test_hand_built_cancelling_boundary_is_semistable(quintic5):
    config, _ = quintic5
    surfaces = []
    for s in config.surfaces:
        minus_t = tuple(-x for x in s.tau_class)
        surfaces.append(
            replace(s, boundary_self=(minus_t, (0,) * s.lattice.rank))
        )
    cooked = replace(config, surfaces=tuple(surfaces), h2_total=None)
    ok, residual = degeneration.is_d_semistable(cooked)
    assert ok and residual.is_zero


def test_triple_sum_quintic_residuals():
    # N(D_i).tau is 15 on every surface: 5h.h on the two cubic surfaces
    # (h^2 = 3) and 5h.3h on the plane; the square sum is 3+3+9.
    config, _ = catalog.instantiate("quintic", quintic_partition(5))
    report = degeneration.triple_sum_check(config)
    assert report.residuals == (15, 15, 15)
    assert report.tau_square_sum == 15
    assert sum(report.residuals) == 3 * report.tau_square_sum


def test_triple_sum_identity_holds_on_every_catalog_family():
    for fam_id in catalog.family_ids():
        fam = catalog.get_family(fam_id)
        spec = catalog.enumerate_partitions(fam)[0]
        config, _ = catalog.instantiate(fam, spec)
        report = degeneration.triple_sum_check(config)
        assert sum(report.residuals) == 3 * report.tau_square_sum


def test_triple_sum_vanishes_after_blowup(quintic5_blown):
    config_tilde, _ = quintic5_blown
    report = degeneration.triple_sum_check(config_tilde)
    assert report.residuals == (0, 0, 0)
    assert report.tau_square_sum == 0


def test_triple_sum_zero_configuration(quintic5):
    config, _ = quintic5
    surfaces = tuple(
        replace(
            s,
            boundary_self=((0,) * s.lattice.rank, (0,) * s.lattice.rank),
            tau_class=(0,) * s.lattice.rank,
            canonical=(0,) * s.lattice.rank,
        )
        for s in config.surfaces
    )
    zeroed = replace(config, surfaces=surfaces, h2_total=None)
    report = degeneration.triple_sum_check(zeroed)
    assert report.residuals == (0, 0, 0)
    assert report.tau_square_sum == 0


def test_collective_class_is_linear_in_boundary_perturbations(quintic5):
    config, _ = quintic5
    base = degeneration.collective_normal_class(config)
    s0 = config.surfaces[0]
    perturbed = replace(
        s0, boundary_self=(tuple(x + 7 for x in s0.boundary_self[0]), s0.boundary_self[1])
    )
    cooked = replace(
        config, surfaces=(perturbed, config.surfaces[1], config.surfaces[2]), h2_total=None
    )
    n = degeneration.collective_normal_class(cooked)
    assert n.classes[0] == tuple(x + 7 for x in base.classes[0])
    assert n.classes[1] == base.classes[1]
    assert n.classes[2] == base.classes[2]


def test_normal_class_degrees_scale_with_hyperplane_square():
    # pairing N(D_i) against the hyperplane class gives degree * h^2
    for fam_id in catalog.family_ids():
        fam = catalog.get_family(fam_id)
        spec = catalog.enumerate_partitions(fam)[0]
        config, _ = catalog.instantiate(fam, spec)
        n = degeneration.collective_normal_class(config)
        for i, surf in enumerate(config.surfaces):
            h = config.hyperplane_on_surface(i)
            want = pair(fam.total_degree, h, surf.lattice)
            assert pair(n.classes[i], h, surf.lattice) == want


def test_quintic_normal_class_degree_pattern():
    config, _ = catalog.instantiate("quintic", quintic_partition(5))
    n = degeneration.collective_normal_class(config)
    degrees = [
        pair(n.classes[i], config.hyperplane_on_surface(i), s.lattice)
        for i, s in enumerate(config.surfaces)
    ]
    # h^2 = (3, 3, 1) across the surfaces, total degree 5
    assert degrees == [15, 15, 5]


def test_every_blowup_output_passes_triple_sum_consistency():
    # triple_sum_check raises on a d-semistable configuration with nonzero
    # residuals, so running it over every catalog blow-up exercises both
    # the vanishing and the internal-consistency guard
    from nc3 import construction

    for fam_id in catalog.family_ids():
        for spec in catalog.enumerate_partitions(fam_id):
            config, divisor = catalog.instantiate(fam_id, spec)
            config_tilde, _ = construction.sequential_blowup(config, divisor)
            report = degeneration.triple_sum_check(config_tilde)
            assert report.residuals == (0, 0, 0)
            assert report.tau_square_sum == 0


def test_collective_class_linearity_randomized():
    import random

    rng = random.Random(5)
    for fam_id in catalog.family_ids():
        config, _ = catalog.instantiate(
            fam_id, catalog.enumerate_partitions(fam_id)[0]
        )
        base = degeneration.collective_normal_class(config)
        for _ in range(20):
            i = rng.randrange(3)
            slot = rng.randrange(2)
            s = config.surfaces[i]
            v = tuple(rng.randint(-9, 9) for _ in range(s.lattice.rank))
            new_pair = list(s.boundary_self)
            new_pair[slot] = tuple(a + b for a, b in zip(new_pair[slot], v))
            surfaces = list(config.surfaces)
            surfaces[i] = replace(s, boundary_self=tuple(new_pair))
            cooked = replace(
                config, surfaces=tuple(surfaces), h2_total=None
            )
            n = degeneration.collective_normal_class(cooked)
            for j in range(3):
                if j == i:
                    assert n.classes[j] == tuple(
                        a + b for a, b in zip(base.classes[j], v)
                    )
                else:
                    assert n.classes[j] == base.classes[j]
