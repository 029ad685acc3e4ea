import itertools
import random
from fractions import Fraction

import pytest

from nc3 import catalog, construction, invariants, ncconfig
from nc3.catalog import (
    PartitionSpec,
    PartitionError,
    enumerate_partitions,
    expected_table,
    family_ids,
    get_family,
    instantiate,
)
from nc3._record import replace
from nc3.exactlat import pair
from tests.conftest import quintic_partition, rank_one_family

EXPECTED_ROW_COUNTS = {
    "quintic": 7,
    "three-p3-quadric": 11,
    "quadric4fold-112": 5,
    "cubic4fold-111": 3,
    "two-quadrics-p6": 3,
    "gr25-section": 3,
    "p2xp2": 31,
}


def test_family_ids_and_counts():
    assert set(family_ids()) == set(EXPECTED_ROW_COUNTS)
    for fam_id, count in EXPECTED_ROW_COUNTS.items():
        assert len(enumerate_partitions(fam_id)) == count, fam_id
        assert len(expected_table(fam_id)) == count, fam_id


def test_enumeration_matches_expected_table_keys():
    for fam_id in family_ids():
        enumerated = {s.parts for s in enumerate_partitions(fam_id)}
        tabulated = {r.partition.parts for r in expected_table(fam_id)}
        assert enumerated == tabulated, fam_id


def test_enumeration_is_canonically_sorted():
    for fam_id in family_ids():
        specs = enumerate_partitions(fam_id)
        assert [s.parts for s in specs] == sorted(s.parts for s in specs)
        assert all(s.parts == s.canonical().parts for s in specs)


def _partition_count(n):
    """p(n), adding the parts 1, 2, ..., n one size at a time (coin-change recurrence)."""
    ways = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            ways[m] += ways[m - k]
    return ways[n]


def test_rank_one_enumeration_counts_partitions():
    assert [_partition_count(n) for n in (9, 15, 21)] == [30, 176, 792]
    for degree in range(1, 22):
        specs = [s.parts for s in enumerate_partitions(rank_one_family(degree))]
        assert len(specs) == _partition_count(degree), degree
        assert specs == sorted(set(specs)), degree


def _brute_force_partitions(target):
    """Every multiset of nonzero non-negative parts summing to ``target``, sorted."""
    parts = [p for p in itertools.product(*(range(t + 1) for t in target)) if any(p)]
    return sorted(
        combo
        for alpha in range(1, sum(target) + 1)
        for combo in itertools.combinations_with_replacement(parts, alpha)
        if tuple(map(sum, zip(*combo))) == target
    )


@pytest.mark.parametrize("target", [(3, 3), (2, 2), (2, 3), (0, 3)])
def test_rank_two_enumeration_matches_brute_force(target):
    fam = replace(get_family("p2xp2"), total_degree=target)
    specs = [s.parts for s in enumerate_partitions(fam)]
    assert specs == _brute_force_partitions(target)
    assert all(list(p) == sorted(p) for p in specs)


def test_partition_degree_constraint():
    with pytest.raises(PartitionError):
        instantiate("quintic", quintic_partition(1, 1, 1))
    with pytest.raises(PartitionError):
        instantiate("p2xp2", PartitionSpec(parts=((1, 1), (1, 1))))


@pytest.mark.parametrize(
    "family, parts, message",
    [
        ("p2xp2", ((1,), (2,)), "parts of (1,2) do not match family rank 2"),
        ("quintic", ((1, 1), (3, 0)), "parts of ((1,1),(3,0)) do not match family rank 1"),
        ("p2xp2", ((1, 1), (1, 1)), "partition ((1,1),(1,1)) has degree (2, 2), family p2xp2 requires (3, 3)"),
    ],
)
def test_partition_rank_is_checked_before_degree(family, parts, message):
    """Parts of the wrong rank are named as such, also when their degree,
    summed in the wrong rank, differs from the family's too."""
    with pytest.raises(PartitionError) as exc:
        instantiate(family, PartitionSpec(parts=parts))
    assert str(exc.value) == message


def test_partition_rejects_zero_part():
    with pytest.raises(PartitionError):
        PartitionSpec(parts=((0, 0), (3, 3)))


def _part_by_part_refusal(parts):
    """The partition checks written out part by part: the message of the
    first refusal, or None."""
    if not parts:
        return "a partition needs at least one part"
    if len({len(p) for p in parts}) != 1:
        return "all parts must have the same length"
    for p in parts:
        if any(x < 0 for x in p) or all(x == 0 for x in p):
            return f"part {p} must be non-negative and nonzero"
    return None


def test_partition_refusals_match_the_part_by_part_checks():
    """Every partition of up to three parts of length 0, 1 or 2 with entries
    -1, 0 and 2 is refused, with the same message naming the same first bad
    part, exactly when the part-by-part checks refuse it."""
    parts = [p for n in (0, 1, 2) for p in itertools.product((-1, 0, 2), repeat=n)]
    seen = refused = 0
    for count in (0, 1, 2, 3):
        for candidate in itertools.product(parts, repeat=count):
            expected = _part_by_part_refusal(candidate)
            if expected is None:
                assert PartitionSpec(parts=candidate).parts == candidate
            else:
                with pytest.raises(PartitionError) as exc:
                    PartitionSpec(parts=candidate)
                assert str(exc.value) == expected, candidate
                refused += 1
            seen += 1
    assert seen == 1 + 13 + 13**2 + 13**3 and 0 < refused < seen


def test_unknown_family():
    with pytest.raises(catalog.UnknownFamily):
        get_family("septic")


def test_instantiation_validates_and_checks():
    for fam_id in family_ids():
        for spec in enumerate_partitions(fam_id):
            config, divisor = instantiate(fam_id, spec)
            assert not any(d.is_error for d in ncconfig.validate(config))
            assert not any(
                d.is_error for d in construction.check_collective_divisor(config, divisor)
            )


def test_golden_tables_all_rows():
    for fam_id in family_ids():
        rows = {r.partition.parts: r for r in expected_table(fam_id)}
        for spec in enumerate_partitions(fam_id):
            config, divisor = instantiate(fam_id, spec)
            inv = invariants.hodge(config, divisor)
            row = rows[spec.parts]
            assert (inv.h11, inv.h12) == (row.h11, row.h12), (fam_id, spec.display())


def test_star_flags_transcription():
    starred = {
        (fam_id, row.partition.cli_form())
        for fam_id in family_ids()
        for row in expected_table(fam_id)
        if row.star
    }
    assert starred == {
        ("quintic", "2,3"),
        ("quadric4fold-112", "1,3"),
        ("quadric4fold-112", "4"),
        ("cubic4fold-111", "3"),
        ("gr25-section", "1,2"),
        ("gr25-section", "3"),
        ("p2xp2", "(1,3),(2,0)"),
        ("p2xp2", "(0,3),(3,0)"),
        ("p2xp2", "(0,2),(3,1)"),
        ("p2xp2", "(1,2),(2,1)"),
        ("p2xp2", "(0,1),(0,2),(1,0),(2,0)"),
    }


def test_stored_gamma_matches_pairing_for_every_partition():
    for fam_id in family_ids():
        fam = get_family(fam_id)
        for spec in enumerate_partitions(fam):
            config, _ = instantiate(fam, spec)
            total = sum(
                pair(c, config.surfaces[0].tau_class, config.surfaces[0].lattice)
                for c in spec.parts
            )
            assert total == fam.gamma, (fam_id, spec.display())


def test_gamma_per_unit_is_triple_curve_degree():
    for fam_id in family_ids():
        fam = get_family(fam_id)
        spec = enumerate_partitions(fam)[0]
        config, _ = instantiate(fam, spec)
        for i, surf in enumerate(config.surfaces):
            h = config.hyperplanes[i]
            assert pair(surf.tau_class, h, surf.lattice) == fam.gamma_per_unit


def test_surface_euler_satisfies_noether():
    # rational surfaces with chi(O) = 1: e = 12 - K.K on the tracked lattice
    for fam_id in family_ids():
        fam = get_family(fam_id)
        config, _ = instantiate(fam, enumerate_partitions(fam)[0])
        for surf in config.surfaces:
            assert surf.euler == 12 - pair(surf.canonical, surf.canonical, surf.lattice)


# ---------------------------------------------------------------------------
# component order


def test_component_order_permutations_fix_invariants_and_move_traces():
    spec = quintic_partition(1, 4)
    reference = None
    traces = set()
    for perm in itertools.permutations(range(3)):
        config, divisor = instantiate("quintic", spec, component_order=perm)
        inv = invariants.hodge(config, divisor)
        if reference is None:
            reference = inv
        assert inv == reference, perm
        _, trace = construction.sequential_blowup(config, divisor)
        traces.add(trace.steps)
    # the quintic has two fold-symmetric slots, so three distinct traces
    assert len(traces) > 1


def test_component_order_must_be_permutation():
    with pytest.raises(PartitionError):
        instantiate("quintic", quintic_partition(5), component_order=(0, 0, 2))


ORDERS = tuple(itertools.permutations(range(3)))


def test_shared_configuration_equals_a_cold_build_and_is_one_object_per_order():
    """Every partition of a family and order gets one configuration, equal to
    the one a copy of the family with nothing cached builds."""
    for fam_id in family_ids():
        fam = get_family(fam_id)
        first, last = enumerate_partitions(fam)[0], enumerate_partitions(fam)[-1]
        for order in ORDERS:
            shared, _ = instantiate(fam, first, component_order=order)
            cold, _ = instantiate(replace(fam), last, component_order=order)
            assert cold == shared and cold is not shared, (fam_id, order)
            assert instantiate(fam, last, component_order=order)[0] is shared, (fam_id, order)
            # A list order names the same configuration as its tuple.
            assert instantiate(fam, first, component_order=list(order))[0] is shared


def test_hodge_does_not_depend_on_which_rows_warmed_the_shared_configuration():
    """All 63 rows in all six component orders, on fresh families: in
    enumeration order, in reverse, and with a cold family per row."""
    rows = [
        (fam_id, spec, order)
        for fam_id in family_ids()
        for spec in enumerate_partitions(fam_id)
        for order in ORDERS
    ]
    assert len(rows) == 63 * 6

    def hodge_all(rows, family):
        return [
            invariants.hodge(*instantiate(family(fam_id), spec, component_order=order))
            for fam_id, spec, order in rows
        ]

    def fresh_families():
        families = {fam_id: replace(get_family(fam_id)) for fam_id in family_ids()}
        return families.__getitem__

    forward = hodge_all(rows, fresh_families())
    backward = hodge_all(rows[::-1], fresh_families())[::-1]
    cold = hodge_all(rows, lambda fam_id: replace(get_family(fam_id)))
    assert forward == backward == cold


def test_randomized_order_invariance():
    rng = random.Random(1234)
    cases = 0
    all_specs = [
        (fam_id, spec) for fam_id in family_ids() for spec in enumerate_partitions(fam_id)
    ]
    base_cache = {}
    while cases < 110:
        fam_id, spec = rng.choice(all_specs)
        shuffled = list(spec.parts)
        rng.shuffle(shuffled)
        perm = tuple(rng.sample(range(3), 3))
        config, divisor = instantiate(
            fam_id, PartitionSpec(parts=tuple(shuffled)), component_order=perm
        )
        key = (fam_id, spec.parts)
        if key not in base_cache:
            c0, d0 = instantiate(fam_id, spec)
            base_cache[key] = invariants.hodge(c0, d0)
        assert invariants.hodge(config, divisor) == base_cache[key]
        cases += 1


# ---------------------------------------------------------------------------
# derived-data audit: re-derive the inverted families from their tables


COMPLETE_INTERSECTION_FAMILIES = {
    # family id -> (ambient degree, hypersurface degrees)
    "quadric4fold-112": (2, (1, 1, 2)),
    "cubic4fold-111": (3, (1, 1, 1)),
    "gr25-section": (5, (1, 1, 1)),
}


def _fit_euler_line(rows):
    """Solve e(p) = A - S * sum(a^2) exactly from the reference rows.

    Returns (A, S) and asserts the fit is overdetermined-consistent and
    unique (two rows with distinct quadratic content exist).
    """
    points = []
    for row in rows:
        e = 2 * (row.h11 - row.h12)
        q = sum(a[0] ** 2 for a in row.partition.parts)
        points.append((q, e))
    (q1, e1), (q2, e2) = points[0], points[1]
    assert q1 != q2, "reference rows cannot pin the quadratic coefficient"
    s = Fraction(e1 - e2, q2 - q1)
    a = Fraction(e1) + s * q1
    for q, e in points:
        assert Fraction(e) == a - s * q, "reference rows are not on one line"
    assert a.denominator == 1 and s.denominator == 1
    return int(a), int(s)


def test_table_inversion_rederives_catalog_data():
    for fam_id, (ambient, degrees) in COMPLETE_INTERSECTION_FAMILIES.items():
        fam = get_family(fam_id)
        rows = expected_table(fam)

        # every row must wear the rank-one h11 closed form 2*alpha - 1
        for row in rows:
            assert row.h11 == 2 * row.partition.alpha - 1

        a_fit, s_fit = _fit_euler_line(rows)

        d1, d2, d3 = degrees
        total = d1 + d2 + d3
        assert fam.total_degree == (total,)

        # structural complete-intersection data
        s_surfaces = [ambient * d2 * d3, ambient * d3 * d1, ambient * d1 * d2]
        u = ambient * d1 * d2 * d3  # degree of the triple curve
        taus = [d1, d2, d3]
        assert all(t * s == u for t, s in zip(taus, s_surfaces))
        eulers = [12 - t * t * s for t, s in zip(taus, s_surfaces)]
        gamma = u * total

        # the quadratic coefficient is the sum of the surface degrees
        assert s_fit == sum(s_surfaces)
        # stored family data must solve the fitted line
        config, _ = instantiate(fam, enumerate_partitions(fam)[0])
        stored_s = [pair((1,), (1,), surf.lattice) for surf in config.surfaces]
        assert sorted(stored_s) == sorted(s_surfaces)
        assert sorted(surf.euler for surf in config.surfaces) == sorted(eulers)
        assert [surf.tau_class for surf in config.surfaces] == [(t,) for t in taus]
        assert [surf.canonical for surf in config.surfaces] == [(-t,) for t in taus]
        assert fam.gamma == gamma
        assert fam.gamma_per_unit == u

        # A = sum e(Y_i) - 2 sum e(D_j) + u * total pins the component sum
        component_euler_sum = a_fit + 2 * sum(eulers) - u * total
        assert sum(c.euler for c in config.components) == component_euler_sum


def test_table_inversion_rejects_the_alternative_ambient_reading():
    # a quartic fourfold with total boundary degree three cannot reproduce
    # the quadric4fold-112 rows: its rows would sum to 3, the table's sum to 4
    fam = get_family("quadric4fold-112")
    for row in expected_table(fam):
        assert sum(a[0] for a in row.partition.parts) == 4 != 3


# ---------------------------------------------------------------------------
# export


def test_catalog_export_round_trips():
    for fam_id in family_ids():
        fam = get_family(fam_id)
        spec = PartitionSpec(parts=(fam.total_degree,))
        config, _ = instantiate(fam, spec)
        parsed = ncconfig.config_from_json(ncconfig.config_to_json(config))
        assert ncconfig.validate(parsed) == ncconfig.validate(config)
        assert (
            ncconfig.restriction_difference_matrix(parsed).entries
            == ncconfig.restriction_difference_matrix(config).entries
        )

