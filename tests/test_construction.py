import itertools
import random
import re

import pytest

from nc3 import catalog, degeneration, invariants, ncconfig
from nc3._record import replace
from nc3.construction import (
    AdmissibilityError,
    AmpleMarginError,
    AmpleMarginProblem,
    BlowupStep,
    BlowupTrace,
    CollectiveDivisor,
    ample_margin,
    check_collective_divisor,
    extend_restriction_matrix,
    sequential_blowup,
    transport_chern,
)
from nc3.exactlat import RationalMatrix, ZeroCurveClass, kernel_dimension, mat_vec
from tests.conftest import all_catalog_cases, quintic_partition


def _divisor(config, per_surface, mults):
    return CollectiveDivisor(
        alpha=len(mults),
        components=per_surface,
        tau_multiplicities=tuple(mults),
    )


# ---------------------------------------------------------------------------
# check_collective_divisor


def test_quintic_partition_14_is_admissible():
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 4))
    assert divisor.tau_multiplicities == (3, 12)
    assert divisor.gamma == 15
    assert check_collective_divisor(config, divisor) == []


def test_wrong_sum_on_third_surface_fails_clause_a():
    config, _ = catalog.instantiate("quintic", quintic_partition(1, 4))
    bad = _divisor(config, (((1,), (4,)), ((1,), (4,)), ((2,), (4,))), [3, 12])
    diags = check_collective_divisor(config, bad)
    errors = [d for d in diags if d.is_error]
    assert ("CD(a)", "D3") in {(d.clause, d.target) for d in errors}
    # the off-degree curve also breaks the matched triple-curve counts
    assert all(d.target == "D3" for d in errors)


def test_mismatched_multiplicity_fails_clause_b():
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 4))
    bad = replace(divisor, tau_multiplicities=(3, 11))
    errors = [d for d in check_collective_divisor(config, bad) if d.is_error]
    assert errors and all(d.clause == "CD(b)" for d in errors)


def test_missing_projectivity_witness_is_a_warning():
    config, divisor = catalog.instantiate("quintic", quintic_partition(5))
    unattested = replace(divisor, g_witness_present=False)
    diags = check_collective_divisor(config, unattested)
    assert [d.severity for d in diags] == ["warning"]
    assert diags[0].clause == "CD(c)"


def test_odd_adjunction_curve_fails_clause_d(quintic5):
    config, _ = quintic5
    # synthetic surface data with K = -tau = (-2): class (1) has odd sum
    surfaces = tuple(
        replace(s, tau_class=(2,), canonical=(-2,), boundary_self=((1,), (1,)))
        for s in config.surfaces
    )
    cooked = replace(config, surfaces=surfaces, h2_total=None)
    bad = _divisor(cooked, (((1,), (3,)),) * 3, [2, 6])
    clauses = {d.clause for d in check_collective_divisor(cooked, bad) if d.is_error}
    assert "CD(d)" in clauses


def test_repeated_bad_class_gets_one_diagnostic_per_curve():
    """Equal classes are paired once, but every curve keeps its own (b) and (d)."""
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 1, 1, 1, 1))
    s0, s1, s2 = config.surfaces
    # K = 0 on D1 makes (1).(1 + K) = 3 odd for each of the five equal curves.
    odd = replace(config, surfaces=(replace(s0, canonical=(0,)), s1, s2))
    bad = replace(divisor, tau_multiplicities=(3, 2, 3, 2, 3))
    meets = "meets the triple curve in 3 points, declared multiplicity is 2"
    odd_sum = "has odd adjunction sum 3; no smooth curve carries this class"
    expected = [
        ("CD(b)", surf, f"curve {l} on {surf} {meets}") for surf in ("D1", "D2", "D3") for l in (2, 4)
    ] + [("CD(d)", "D1", f"curve {l} on D1 {odd_sum}") for l in range(1, 6)]
    for classes in (bad.components, tuple(tuple(map(list, comps)) for comps in bad.components)):
        diags = check_collective_divisor(odd, replace(bad, components=classes))
        assert all(d.is_error for d in diags)
        assert [(d.clause, d.target, d.message) for d in diags] == expected


def test_zero_curve_class_passes_the_check_but_is_refused_by_the_blowup():
    """A zero part sums, meets and adjoins like a curve, so every clause holds;
    only the blow-up, which needs the center's Euler number, refuses it."""
    config, _ = catalog.instantiate("quintic", quintic_partition(5))
    zero = CollectiveDivisor(
        alpha=2, components=(((0,), (5,)),) * 3, tau_multiplicities=(0, 15)
    )
    assert check_collective_divisor(config, zero) == []
    with pytest.raises(ZeroCurveClass):
        sequential_blowup(config, zero)
    with pytest.raises(ZeroCurveClass):
        invariants.hodge(config, zero)


def test_list_valued_curve_classes_give_the_same_invariants():
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        as_lists = replace(
            divisor, components=tuple(tuple(map(list, comps)) for comps in divisor.components)
        )
        assert invariants.hodge(config, as_lists) == invariants.hodge(config, divisor), (fam_id, spec)


def test_p2xp2_bidegree_divisor_matches_reference_gamma():
    spec = catalog.PartitionSpec(parts=((1, 0), (2, 3)))
    config, divisor = catalog.instantiate("p2xp2", spec)
    assert divisor.tau_multiplicities == (3, 15)
    assert divisor.gamma == 18
    assert check_collective_divisor(config, divisor) == []


@pytest.mark.parametrize("first", [0, 1])
def test_a_curve_that_misses_the_triple_curve_adds_no_point_row(first):
    """On p2xp2 the class (1,-1) meets the triple curve (1,1) in 0 points and
    (2,4) in 18; the two sum to the normal class (3,3).  The third surface
    gains 18 point rows, all over the second curve, and its two matrices
    state one run per base row and one for that curve alone.  Each row is
    checked cell by cell, and both routes of ``hodge`` agree."""
    config, _ = catalog.instantiate("p2xp2", catalog.PartitionSpec(parts=((1, 0), (2, 3))))
    classes, mults = ((1, -1), (2, 4)), (0, 18)
    if first:
        classes, mults = classes[::-1], mults[::-1]
    divisor = CollectiveDivisor(alpha=2, components=(classes,) * 3, tau_multiplicities=mults)
    assert check_collective_divisor(config, divisor) == []
    tilde, _ = sequential_blowup(config, divisor)
    s2 = config.surfaces[2]
    hit = mults.index(18)
    unit = tuple(int(l == hit) for l in range(2))
    expected = (
        tuple(r + (0, 0) + tuple(c[q] for c in classes) for q, r in enumerate(s2.restrictions[0]))
        + ((0, 0) + unit + tuple(-x for x in unit),) * 18,
        tuple(r + (0, 0) for r in s2.restrictions[1]) + ((0, 0) + unit,) * 18,
    )
    for m, rows in zip(tilde.surfaces[2].restrictions, expected):
        assert m == rows
        assert m.lengths == (1, 1, 18) and m.pairs[:2] == (None, None)
    assert tilde.surfaces[2].lattice.rank == 2 + 18
    result = invariants.hodge(config, divisor)
    assert (result.euler, result.h11, result.h12) == (-150, 4, 79)


def test_catalog_gamma_matches_every_partition():
    for fam_id in catalog.family_ids():
        fam = catalog.get_family(fam_id)
        for spec in catalog.enumerate_partitions(fam):
            _, divisor = catalog.instantiate(fam, spec)
            assert divisor.gamma == fam.gamma, (fam_id, spec.display())


# ---------------------------------------------------------------------------
# sequential_blowup


def test_quintic_blowup_euler_bookkeeping(quintic5_blown):
    config_tilde, trace = quintic5_blown
    assert [c.euler for c in config_tilde.components] == [-66, -56, -6]
    assert [s.euler for s in config_tilde.surfaces] == [9, 9, 18]
    assert config_tilde.h2_total == 3
    ok, _ = degeneration.is_d_semistable(config_tilde)
    assert ok


def test_quintic_blowup_trace_order(quintic5_blown):
    _, trace = quintic5_blown
    assert [s.as_dict() for s in trace.steps] == [
        {"component": "Y1", "center": "c[1,2]", "surface": "D2", "degree": 15, "euler": -60},
        {"component": "Y2", "center": "c[1,1]", "surface": "D1", "degree": 15, "euler": -60},
        {"component": "Y1", "center": "c'[1,3]", "surface": "D3", "degree": 5, "euler": -10},
    ]
    assert trace.exceptional_classes == ("E[1,2]", "E[1,1]", "E'[1,3]")
    assert trace.kernel_classes == ("E[1]", "E'[1]")


def test_blowup_trace_has_three_alpha_steps():
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 1, 3))
    _, trace = sequential_blowup(config, divisor)
    assert len(trace.steps) == 9
    names = [s.component for s in trace.steps]
    assert names == ["Y1"] * 3 + ["Y2"] * 3 + ["Y1"] * 3


def test_partition_order_changes_trace_not_invariants():
    a = catalog.PartitionSpec(parts=((1,), (4,)))
    b = catalog.PartitionSpec(parts=((4,), (1,)))
    config_a, div_a = catalog.instantiate("quintic", a)
    config_b, div_b = catalog.instantiate("quintic", b)
    _, trace_a = sequential_blowup(config_a, div_a)
    _, trace_b = sequential_blowup(config_b, div_b)
    assert trace_a.steps != trace_b.steps
    assert invariants.hodge(config_a, div_a) == invariants.hodge(config_b, div_b)


def test_alpha_zero_is_identity_on_semistable_input(quintic5_blown):
    config_tilde, _ = quintic5_blown
    empty = CollectiveDivisor(alpha=0, components=((), (), ()), tau_multiplicities=())
    out, trace = sequential_blowup(config_tilde, empty)
    assert out is config_tilde
    assert trace.steps == ()


def test_alpha_zero_rejected_when_class_nonzero(quintic5):
    config, _ = quintic5
    empty = CollectiveDivisor(alpha=0, components=((), (), ()), tau_multiplicities=())
    with pytest.raises(AdmissibilityError):
        sequential_blowup(config, empty)


def test_blowup_refuses_inadmissible_divisor(quintic5):
    config, _ = quintic5
    bad = _divisor(config, (((2,), (4,)),) * 3, [6, 12])
    with pytest.raises(AdmissibilityError):
        sequential_blowup(config, bad)


def test_stage_two_centers_have_unchanged_degree_and_euler():
    # the proper transform of a curve through blown-up points keeps both its
    # hyperplane degree and its Euler number; check on the blown-up surface
    config, divisor = catalog.instantiate("quintic", quintic_partition(2, 3))
    config_tilde, trace = sequential_blowup(config, divisor)
    s2 = config_tilde.surfaces[2]
    gamma = divisor.gamma
    for l, part in enumerate((2, 3)):
        primed = (part,) + tuple(
            -1 if divisor_offset(l, divisor) <= p < divisor_offset(l, divisor) + divisor.tau_multiplicities[l] else 0
            for p in range(gamma)
        )
        from nc3.exactlat import adjunction_euler, pair

        e = adjunction_euler(primed, s2.canonical, s2.lattice)
        assert e == trace.steps[4 + l].euler
        h = config_tilde.hyperplanes[2]
        assert pair(primed, h, s2.lattice) == trace.steps[4 + l].degree


def divisor_offset(l, divisor):
    return sum(divisor.tau_multiplicities[:l])


def _dense_pair(u, gram, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _dense_center_numbers(config, divisor, k, l):
    """(c.h, -c.(c + K)) of curve l on surface k, as dense double sums.

    h is the first adjacent component's ample class pushed through its
    restriction matrix, also summed densely.
    """
    surf = config.surfaces[k]
    c = divisor.components[k][l]
    ample = config.components[ncconfig.SURFACE_ADJACENCY[k][0]].ample
    h = [sum(r[a] * ample[a] for a in range(len(ample))) for r in surf.restrictions[0]]
    c_plus_k = [x + y for x, y in zip(c, surf.canonical)]
    return _dense_pair(c, surf.lattice.gram, h), -_dense_pair(c, surf.lattice.gram, c_plus_k)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_trace_numbers_against_dense_double_sum(order):
    """Each step's degree is c.h and its Euler number -c.(c + K), as dense sums.

    The steps run over the centers on D2, then D1, then D3, blowing up
    components 1, 2 and 1.
    """
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec, order)
        _, trace = sequential_blowup(config, divisor)
        alpha = divisor.alpha
        names = [c.name for c in config.components]
        assert [(s.component, s.surface) for s in trace.steps] == (
            [(names[0], "D2")] * alpha + [(names[1], "D1")] * alpha + [(names[0], "D3")] * alpha
        )
        for n, step in enumerate(trace.steps):
            match = re.fullmatch(r"c'?\[(\d+),(\d)\]", step.center)
            l, k = int(match[1]) - 1, int(match[2]) - 1
            assert (l, f"D{k + 1}") == (n % alpha, step.surface)
            degree, euler = _dense_center_numbers(config, divisor, k, l)
            assert step.degree == degree, (fam_id, spec, step)
            assert step.euler == euler, (fam_id, spec, step)


# The three rounds: (slot of the blown-up component, surface index of the
# centers, center label with {} for the curve number, exceptional label).
ROUNDS = ((0, 1, "c[{},2]", "E[{},2]"), (1, 0, "c[{},1]", "E[{},1]"), (0, 2, "c'[{},3]", "E'[{},3]"))


def _eager_trace(config, divisor):
    """The trace written out in full from the dense oracle, and the
    per-round fields a trace with the same steps holds."""
    alpha = divisor.alpha
    steps, rounds = [], []
    for slot, k, center, _ in ROUNDS:
        numbers = [_dense_center_numbers(config, divisor, k, l) for l in range(alpha)]
        comp = config.components[slot].name
        steps += [
            BlowupStep(component=comp, center=center.format(l + 1), surface=f"D{k + 1}", degree=d, euler=e)
            for l, (d, e) in enumerate(numbers)
        ]
        rounds.append((comp, f"D{k + 1}", center, *map(tuple, zip(*numbers))))
    exceptional = tuple(label.format(l + 1) for *_, label in ROUNDS for l in range(alpha))
    kernel = tuple(f"E[{l + 1}]" for l in range(alpha)) + tuple(f"E'[{l + 1}]" for l in range(alpha))
    fields = BlowupTrace(alpha=alpha, rounds=tuple(rounds))
    return tuple(steps), exceptional, kernel, fields


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_trace_built_on_read_equals_the_eager_trace(order):
    """The trace prints and compares as the fully built oracle trace; the
    closed Euler form read from its rounds is the sum over its steps."""
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec, order)
        _, trace = sequential_blowup(config, divisor)
        steps, exceptional, kernel, fields = _eager_trace(config, divisor)
        assert repr(trace) == (
            f"BlowupTrace(steps={steps!r}, exceptional_classes={exceptional!r}, "
            f"kernel_classes={kernel!r})"
        ), (fam_id, spec)
        assert trace.as_dict() == {
            "steps": [s.as_dict() for s in steps],
            "exceptional_classes": list(exceptional),
            "kernel_classes": list(kernel),
        }, (fam_id, spec)
        assert trace == fields and hash(trace) == hash(fields), (fam_id, spec)
        assert (fields.steps, fields.exceptional_classes, fields.kernel_classes) == (
            steps,
            exceptional,
            kernel,
        )
        assert replace(trace) == trace
        without_centers = (
            sum(c.euler for c in config.components)
            - 2 * sum(s.euler for s in config.surfaces)
            + 3 * config.triple.euler
            - 2 * divisor.gamma
        )
        assert invariants.euler_closed(config, divisor, trace) == without_centers + sum(
            step.euler for step in trace.steps
        ), (fam_id, spec)


def test_alpha_zero_trace_is_empty(quintic5_blown):
    config_tilde, _ = quintic5_blown
    empty = CollectiveDivisor(alpha=0, components=((), (), ()), tau_multiplicities=())
    _, trace = sequential_blowup(config_tilde, empty)
    assert trace == BlowupTrace(alpha=0, rounds=())
    assert repr(trace) == "BlowupTrace(steps=(), exceptional_classes=(), kernel_classes=())"
    assert trace.as_dict() == {"steps": [], "exceptional_classes": [], "kernel_classes": []}


def test_euler_identity_smoothing_equals_closed_everywhere():
    for fam_id in catalog.family_ids():
        for spec in catalog.enumerate_partitions(fam_id):
            config, divisor = catalog.instantiate(fam_id, spec)
            config_tilde, _ = sequential_blowup(config, divisor)
            assert invariants.euler_smoothing(config_tilde) == invariants.euler_closed(
                config, divisor
            ), (fam_id, spec.display())


# ---------------------------------------------------------------------------
# transport_chern


def test_transport_chern_reference_values():
    assert transport_chern((1, 6, 16), 15) == (1, 21, 1)
    assert transport_chern((1, 21, 1), 5) == (1, 26, -4)
    assert transport_chern((7, 3, 2), 0) == (7, 3, 2)


def test_transport_chern_conservation_laws():
    rng = random.Random(7)
    for _ in range(200):
        n = (rng.randint(1, 9), rng.randint(-30, 30), rng.randint(-30, 30))
        d = rng.randint(0, 25)
        out = transport_chern(n, d)
        assert out[0] == n[0]
        assert out[1] + out[2] == n[1] + n[2]
        assert (out[1] - out[2]) - (n[1] - n[2]) == 2 * d


def test_transport_chern_rejects_negative_degree():
    with pytest.raises(ValueError):
        transport_chern((1, 6, 16), -1)


# ---------------------------------------------------------------------------
# extend_restriction_matrix


def _quintic_matrix():
    return RationalMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


def test_extension_kernel_alpha_one():
    assert kernel_dimension(extend_restriction_matrix(_quintic_matrix(), 1, gamma=3)) == 3


def test_extension_kernel_alpha_five():
    m = extend_restriction_matrix(_quintic_matrix(), 5, gamma=15)
    assert kernel_dimension(m) == 11


def test_extension_alpha_zero_is_identity():
    m = _quintic_matrix()
    assert extend_restriction_matrix(m, 0) is m


def test_extension_agrees_with_full_blowup_matrix():
    for fam_id, parts in (
        ("quintic", quintic_partition(1, 1, 3)),
        ("p2xp2", catalog.PartitionSpec(parts=((1, 1), (1, 1), (1, 1)))),
    ):
        config, divisor = catalog.instantiate(fam_id, parts)
        config_tilde, _ = sequential_blowup(config, divisor)
        m = ncconfig.restriction_difference_matrix(config)
        ext = extend_restriction_matrix(m, divisor.alpha, gamma=divisor.gamma)
        full = ncconfig.restriction_difference_matrix(config_tilde)
        assert kernel_dimension(ext) == kernel_dimension(full)


def test_full_matrix_contains_declared_kernel_classes():
    # E[l] = (E[l,2], E[l,1], G[l,3]) and E'[l] = (E'[l,3], G[l,2]-E[l,1], 0)
    # stacked in the blown-up bases are kernel elements of the full matrix.
    config, divisor = catalog.instantiate("quintic", quintic_partition(2, 3))
    config_tilde, _ = sequential_blowup(config, divisor)
    m = ncconfig.restriction_difference_matrix(config_tilde)
    n0, n1, n2 = (c.h2_rank for c in config.components)
    alpha = divisor.alpha
    for l, part in enumerate((2, 3)):
        e_l = ncconfig.stack_component_vectors(
            config_tilde,
            (
                (0,) * n0 + tuple(1 if i == l else 0 for i in range(alpha)) + (0,) * alpha,
                (0,) * n1 + tuple(1 if i == l else 0 for i in range(alpha)),
                (part,),
            ),
        )
        assert all(x == 0 for x in mat_vec(m.entries, e_l)), f"E[{l + 1}]"
        e_l_prime = ncconfig.stack_component_vectors(
            config_tilde,
            (
                (0,) * n0 + (0,) * alpha + tuple(1 if i == l else 0 for i in range(alpha)),
                (part,) + tuple(-1 if i == l else 0 for i in range(alpha)),
                (0,),
            ),
        )
        assert all(x == 0 for x in mat_vec(m.entries, e_l_prime)), f"E'[{l + 1}]"


# ---------------------------------------------------------------------------
# ample_margin


def test_ample_margin_single_blowup():
    cert = ample_margin(AmpleMarginProblem(table=((-1,),)))
    assert (cert.beta, cert.m, cert.values) == (0, 2, (1,))


def test_ample_margin_two_blowups_reference():
    cert = ample_margin(AmpleMarginProblem(table=((-1, 1), (0, -1))))
    assert (cert.beta, cert.m) == (1, 3)
    assert cert.values == (2, 1)
    assert all(v > 0 for v in cert.values)


def test_ample_margin_invariant_violations():
    with pytest.raises(AmpleMarginError):
        AmpleMarginProblem(table=((0,),))
    with pytest.raises(AmpleMarginError):
        AmpleMarginProblem(table=((-1, 1), (1, -1)))
    with pytest.raises(AmpleMarginError):
        AmpleMarginProblem(table=((-1, -2), (0, -1)))


def random_margin_problem(rng: random.Random, max_k: int = 6, max_entry: int = 9):
    k = rng.randint(1, max_k)
    table = []
    for l in range(k):
        row = [0] * k
        row[l] = -1
        for lp in range(l + 1, k):
            row[lp] = rng.randint(0, max_entry)
        table.append(tuple(row))
    return AmpleMarginProblem(table=tuple(table))


def test_ample_margin_positivity_random_sample():
    rng = random.Random(20240)
    for _ in range(2000):
        cert = ample_margin(random_margin_problem(rng))
        assert all(v > 0 for v in cert.values)


def test_extension_rejects_negative_arguments():
    m = _quintic_matrix()
    with pytest.raises(ValueError):
        extend_restriction_matrix(m, -1)
    with pytest.raises(ValueError):
        extend_restriction_matrix(m, 1, gamma=-2)


def test_divisor_constructor_validations():
    with pytest.raises(ValueError):
        CollectiveDivisor(alpha=2, components=(((1,),), ((1,),), ((1,),)), tau_multiplicities=(3, 3))
    with pytest.raises(ValueError):
        CollectiveDivisor(alpha=1, components=(((1,),), ((1,),), ((1,),)), tau_multiplicities=(-1,))
