
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc3 import catalog, construction, invariants, ncconfig
from nc3._record import replace
from nc3.cli import main
from nc3.invariants import (
    NotDSemistable,
    PathDisagreement,
    SmoothingInvariants,
    euler_closed,
    euler_smoothing,
    h11_closed,
    h11_kernel,
    hodge,
    picard_one_pairings,
)
from tests.conftest import (
    all_catalog_cases,
    d21_all_ones_row,
    quintic_partition,
    rank_one_family,
)


def _case(fam_id, *parts):
    if fam_id == "p2xp2":
        spec = catalog.PartitionSpec(parts=tuple(parts))
    else:
        spec = quintic_partition(*parts)
    return catalog.instantiate(fam_id, spec)


# ---------------------------------------------------------------------------
# euler_smoothing


def test_euler_smoothing_blown_up_quintic(quintic5_blown):
    config_tilde, _ = quintic5_blown
    # (-66) + (-56) + (-6) - 2(9 + 9 + 18) + 0
    assert euler_smoothing(config_tilde) == -200


def test_euler_smoothing_refuses_non_semistable(quintic5):
    config, _ = quintic5
    with pytest.raises(NotDSemistable) as exc:
        euler_smoothing(config)
    assert exc.value.residual.as_lists() == [[5], [5], [5]]


def test_euler_smoothing_zero_configuration(quintic5):
    config, _ = quintic5
    surfaces = tuple(
        replace(
            s,
            euler=0,
            boundary_self=((0,), (0,)),
            tau_class=(0,),
            canonical=(0,),
        )
        for s in config.surfaces
    )
    comps = tuple(
        replace(c, euler=0, boundary=None) for c in config.components
    )
    zeroed = replace(
        config,
        components=comps,
        surfaces=surfaces,
        triple=ncconfig.TripleCurve(euler=0, connected=True),
        h2_total=None,
    )
    assert euler_smoothing(zeroed) == 0


def test_euler_smoothing_degree_six_family():
    config, divisor = _case("three-p3-quadric", 6)
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    assert euler_smoothing(config_tilde) == -204


# ---------------------------------------------------------------------------
# euler_closed


def test_euler_closed_quintic_term_by_term():
    config, divisor = _case("quintic", 5)
    # (4 + 4 - 6) - 2(3 + 9 + 9) + 0 + (-10 - 60 - 60) - 30
    assert sum(c.euler for c in config.components) == 2
    assert -2 * sum(s.euler for s in config.surfaces) == -42
    assert euler_closed(config, divisor) == -200


def test_euler_closed_bidegree_three_three():
    config, divisor = _case("p2xp2", (3, 3))
    assert euler_closed(config, divisor) == -162
    inv = hodge(config, divisor)
    assert (inv.h11, inv.h12) == (2, 83)


def test_euler_closed_cubic_fourfold_units():
    config, divisor = _case("cubic4fold-111", 1, 1, 1)
    assert euler_closed(config, divisor) == -90
    inv = hodge(config, divisor)
    assert (inv.h11, inv.h12) == (5, 50)


def test_euler_closed_standalone_refuses_inadmissible_divisor(quintic5):
    config, _ = quintic5
    # the curve classes sum to (6,), the collective normal class is (5,)
    bad = construction.CollectiveDivisor(
        alpha=2, components=(((2,), (4,)),) * 3, tau_multiplicities=(6, 12)
    )
    with pytest.raises(construction.AdmissibilityError):
        euler_closed(config, bad)


def test_euler_closed_without_trace_equals_the_trace_fed_value():
    """``hodge`` feeds its blow-up's trace to the closed form and refuses to
    return unless that value is its Euler number."""
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        assert euler_closed(config, divisor) == hodge(config, divisor).euler, (fam_id, spec)


# ---------------------------------------------------------------------------
# h11 paths


def test_h11_closed_quintic_partitions():
    for parts in ((5,), (1, 4), (1, 1, 3), (1, 1, 1, 1, 1)):
        config, divisor = _case("quintic", *parts)
        assert h11_closed(config, divisor) == 2 * len(parts) - 1


def test_h11_closed_p2xp2_is_two_alpha():
    config, divisor = _case("p2xp2", (1, 1), (2, 2))
    assert h11_closed(config, divisor) == 4


def test_h11_closed_alpha_zero_on_trivial_configuration(quintic5_blown):
    config_tilde, _ = quintic5_blown
    empty = construction.CollectiveDivisor(
        alpha=0, components=((), (), ()), tau_multiplicities=()
    )
    assert h11_closed(config_tilde, empty) == config_tilde.h2_total - 2


def test_h11_kernel_values():
    cases = [
        ("quintic", ((5,),), 1),
        ("quintic", ((1,), (1,), (3,)), 5),
        ("p2xp2", ((1, 1), (1, 1), (1, 1)), 6),
    ]
    for fam_id, parts, want in cases:
        spec = catalog.PartitionSpec(parts=parts)
        config, divisor = catalog.instantiate(fam_id, spec)
        config_tilde, _ = construction.sequential_blowup(config, divisor)
        assert h11_kernel(config_tilde) == want, (fam_id, parts)


def test_h11_closed_requires_h2_data(quintic5):
    config, divisor = quintic5
    stripped = replace(config, h2_total=None, lattice_is_full=False)
    with pytest.raises(ncconfig.MissingData):
        h11_closed(stripped, divisor)


# ---------------------------------------------------------------------------
# hodge


def test_hodge_reference_pairs():
    cases = [
        ("quintic", ((2,), (3,)), (3, 61)),
        ("quadric4fold-112", ((1,), (1,), (2,)), (5, 43)),
        ("gr25-section", ((3,),), (1, 76)),
    ]
    for fam_id, parts, want in cases:
        config, divisor = catalog.instantiate(fam_id, catalog.PartitionSpec(parts=parts))
        inv = hodge(config, divisor)
        assert (inv.h11, inv.h12) == want
        assert inv.euler == 2 * (inv.h11 - inv.h12)


def test_hodge_method_tags(quintic5):
    config, divisor = quintic5
    inv = hodge(config, divisor)
    tags = dict(inv.method_tags)
    assert set(tags["euler"]) == {"closed-form", "triple-point-sum"}
    assert set(tags["h11"]) == {"closed-form", "kernel"}
    assert tags["h12"] == ("derived",)


@st.composite
def rank_one_rows(draw):
    """(k, parts): a cut (k,) and a random ordered partition of 3k into positive parts."""
    k = draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, 3 * k - 1))))
    bounds = [0] + cuts + [3 * k]
    return k, tuple(b - a for a, b in zip(bounds, bounds[1:]))


@settings(max_examples=40, deadline=None)
@given(rank_one_rows())
def test_hodge_matches_rank_one_integer_oracle(row):
    """Synthetic rank-one families against integer formulas that do not use nc3.

    For cut (k,), Gram [[2]] and every Euler number 4, each of the alpha
    parts a is a center of Euler number -(2a^2 - 2ka) on each of the three
    surfaces, gamma = 6k^2 and h2 = 1.
    """
    k, parts = row
    config, divisor = catalog.instantiate(rank_one_family(3 * k), quintic_partition(*parts))
    inv = hodge(config, divisor)
    euler = 3 * 4 - 6 * 4 + 3 * sum(-(2 * a * a - 2 * k * a) for a in parts) - 12 * k * k
    assert (inv.euler, inv.h11) == (euler, 2 * len(parts) - 1)
    assert inv.h12 == inv.h11 - euler // 2


def test_hodge_degree_21_all_ones_row():
    """Largest shape: 21 lines of degree 1, gamma 294, a 297x66 matrix.

    A synthetic rank-one family (all cuts (7,), Gram [[2]], every Euler
    number 4), checked against integer formulas that do not use nc3: each
    center has Euler number -(2a^2 - 14a) on each of the three surfaces.
    """
    parts = (1,) * 21
    config, divisor = d21_all_ones_row()
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    m = ncconfig.restriction_difference_matrix(config_tilde)
    assert (m.rows, m.cols) == (297, 66)

    inv = hodge(config, divisor)
    assert inv.h11 == 41
    assert inv.euler == 3 * 4 - 6 * 4 + 3 * sum(-(2 * a * a - 14 * a) for a in parts) - 12 * 49
    tags = dict(inv.method_tags)
    assert set(tags["h11"]) == {"closed-form", "kernel"}
    assert set(tags["euler"]) == {"closed-form", "triple-point-sum"}


# Shifts of the triple curve's Euler number.  Every shipped and synthetic
# family has e(T) = 0, so only a shifted copy sees the 3 e(T) term.
TAU_EULER_SHIFTS = (-2, 2, 4)


@pytest.mark.parametrize("degree", [9, 15])
def test_triple_curve_euler_shift_moves_only_e_and_h12(degree):
    """Both Euler routes carry 3 e(T): e moves by exactly 3 delta, h11 stays
    and h12 moves by -3 delta / 2, on every row of the family."""
    fam = rank_one_family(degree)
    shifted = {delta: replace(fam, tau_euler=delta) for delta in TAU_EULER_SHIFTS}
    for spec in catalog.enumerate_partitions(fam):
        base = hodge(*catalog.instantiate(fam, spec))
        for delta, fam_delta in shifted.items():
            inv = hodge(*catalog.instantiate(fam_delta, spec))
            assert inv.euler == base.euler + 3 * delta, (degree, spec, delta)
            assert inv.h11 == base.h11, (degree, spec, delta)
            assert 2 * (inv.h12 - base.h12) == -3 * delta, (degree, spec, delta)
            assert inv.method_tags == base.method_tags


def test_triple_curve_euler_shift_through_a_blown_up_file(tmp_path, capsys):
    """The file route reads e(T) from the file.  A triple curve of Euler
    number 4 is no smooth connected curve, so validation refuses that shift."""
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 4))
    data = json.loads(ncconfig.config_to_json(construction.sequential_blowup(config, divisor)[0]))
    path = tmp_path / "blown_up.json"
    argv = ["invariants", "--config", str(path), "--format", "json"]

    def invariants_of(tau_euler):
        data["triple"]["euler"] = tau_euler
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    code, base = invariants_of(0)
    assert code == 0 and (base["invariants"]["euler"], base["invariants"]["h12"]) == (-144, 75)
    for delta in TAU_EULER_SHIFTS:
        code, out = invariants_of(delta)
        if delta > 2:
            assert code == 1 and "invariants" not in out
            assert "triple curve Euler number 4" in json.dumps(out["diagnostics"])
            continue
        inv = out["invariants"]
        assert code == 0, delta
        assert inv["euler"] == base["invariants"]["euler"] + 3 * delta
        assert inv["h11"] == base["invariants"]["h11"] == 3
        assert 2 * (inv["h12"] - base["invariants"]["h12"]) == -3 * delta
        assert {k: v for k, v in inv.items() if k not in ("euler", "h12")} == {
            k: v for k, v in base["invariants"].items() if k not in ("euler", "h12")
        }


def test_hodge_closed_form_only_when_lattice_partial(quintic5):
    config, divisor = quintic5
    partial = replace(config, lattice_is_full=False)
    inv = hodge(partial, divisor)
    assert dict(inv.method_tags)["h11"] == ("closed-form",)
    assert (inv.h11, inv.h12) == (1, 101)


def test_hodge_detects_path_disagreement(quintic5, monkeypatch):
    config, divisor = quintic5
    monkeypatch.setattr(invariants, "h11_kernel", lambda cfg: 99)
    with pytest.raises(PathDisagreement):
        hodge(config, divisor)


def test_hodge_relation_enforced_at_construction():
    with pytest.raises(PathDisagreement):
        SmoothingInvariants(euler=-200, h11=1, h12=100)
    with pytest.raises(PathDisagreement):
        SmoothingInvariants(euler=-199, h11=1, h12=101)


# ---------------------------------------------------------------------------
# picard_one_pairings


def test_picard_pairings_blown_up_quintic(quintic5_blown):
    config_tilde, _ = quintic5_blown
    p = picard_one_pairings(config_tilde)
    assert (p.h_cubed, p.h_dot_c2) == (5, 50)


def test_picard_pairings_pre_blowup_caveat(quintic5):
    config, _ = quintic5
    p = picard_one_pairings(config)
    assert (p.h_cubed, p.h_dot_c2) == (5, -20)


def test_picard_pairings_rank_caveat():
    config, divisor = _case("p2xp2", (1, 1), (1, 1), (1, 1))
    chern = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    comps = tuple(
        replace(c, chern_numbers=n)
        for c, n in zip(config.components, chern)
    )
    cooked = replace(config, components=comps)
    config_tilde, _ = construction.sequential_blowup(cooked, divisor)
    p = picard_one_pairings(config_tilde)
    assert p.h_cubed == 3


def test_picard_pairings_omitted_without_chern_data():
    config, divisor = _case("three-p3-quadric", 6)
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    p = picard_one_pairings(config_tilde)
    assert p.h_cubed is None and p.h_dot_c2 is None
    inv = hodge(config, divisor)
    assert inv.h_cubed is None and "h_cubed" not in inv.as_dict()


def test_h11_closed_from_kernel_when_h2_not_declared(quintic5):
    config, divisor = quintic5
    certified = replace(config, h2_total=None, lattice_is_full=True)
    assert h11_closed(certified, divisor) == 1 + 2 * divisor.alpha - 2
