import itertools
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nc3 import catalog, construction, ncconfig
from nc3._record import replace
from nc3.exactlat import IntersectionLattice, kernel_dimension, mat_vec
from nc3.ncconfig import (
    Diagnostic,
    SchemaError,
    component_restriction_classes,
    config_from_json,
    config_to_dict,
    config_to_json,
    dumps,
    restriction_difference_matrix,
    validate,
)
from tests.conftest import (
    all_catalog_cases,
    d21_all_ones_row,
    dense_restriction_difference,
    quintic_partition,
    rank_one_family,
)


def _with_surface(config, index, **changes):

    surfaces = list(config.surfaces)
    surfaces[index] = replace(surfaces[index], **changes)
    return replace(config, surfaces=tuple(surfaces))


# ---------------------------------------------------------------------------
# validate


def test_quintic_validates_with_four_assumption_notes(quintic5):
    config, _ = quintic5
    diags = validate(config)
    assert not any(d.is_error for d in diags)
    notes = [d for d in diags if d.severity == "note"]
    assert len(notes) == 4
    assert {d.clause for d in notes} == {"C3.1(2)", "C3.1(4)"}


def test_validate_is_deterministic_and_sorted(quintic5):
    config, _ = quintic5
    first = validate(config)
    second = validate(config)
    assert first == second
    assert first == sorted(first)


def test_broken_ample_matching_yields_single_c313_error(quintic5):
    config, _ = quintic5
    # double the restriction of the third component's classes into D2
    doubled = tuple(tuple(2 * x for x in row) for row in config.surfaces[1].restrictions[0])
    broken = _with_surface(config, 1, restrictions=(doubled, config.surfaces[1].restrictions[1]))
    diags = validate(broken)
    errors = [d for d in diags if d.is_error]
    assert len(errors) == 1
    assert errors[0].clause == "C3.1(3)"
    assert errors[0].target == "D2"


def test_disconnected_triple_curve_is_a_c312_error(quintic5):

    config, _ = quintic5
    broken = replace(
        config, triple=replace(config.triple, connected=False)
    )
    errors = [d for d in validate(broken) if d.is_error]
    assert [d.clause for d in errors] == ["C3.1(2)"]


def test_disconnected_triple_curve_does_not_hide_ample_matching(quintic5):
    """Every structural clause runs on every configuration: a disconnected
    triple curve is reported next to the broken ample matching on D2."""
    config, _ = quintic5
    doubled = tuple(tuple(2 * x for x in row) for row in config.surfaces[1].restrictions[0])
    broken = _with_surface(config, 1, restrictions=(doubled, config.surfaces[1].restrictions[1]))
    broken = replace(broken, triple=replace(broken.triple, connected=False))
    errors = [(d.clause, d.target) for d in validate(broken) if d.is_error]
    assert errors == [("C3.1(2)", "triple"), ("C3.1(3)", "D2")]


def test_anticanonical_restriction_checked_per_surface(quintic5):
    config, _ = quintic5
    broken = _with_surface(config, 0, canonical=(2,))
    errors = [d for d in validate(broken) if d.is_error]
    assert any(d.clause == "C3.1(4)" and d.target == "D1" for d in errors)


def test_blown_up_configuration_validates_cleanly(quintic5_blown):
    config_tilde, _ = quintic5_blown
    assert not any(d.is_error for d in validate(config_tilde))


_QUINTIC_1_4_BLOWN_UP = construction.sequential_blowup(
    *catalog.instantiate("quintic", quintic_partition(1, 4))
)[0]


@st.composite
def _repeating_matrices(draw, rows, cols):
    """``rows`` rows drawn from a few distinct ones and the zero row; some
    repeats are the same tuple object, as after the blow-up, others equal
    copies, as in a parsed file."""
    row = st.tuples(*[st.integers(-3, 3)] * cols)
    pool = draw(st.lists(row, min_size=1, max_size=4)) + [(0,) * cols]
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=rows, max_size=rows))
    return tuple(tuple(list(r)) if copy else r for r, copy in picks)


@given(st.data())
def test_restrict_on_distinct_rows_equals_the_dense_product(data):
    """D3 of the blown-up quintic (1,4) has rank 16; its restriction from Y2
    is replaced by a matrix with repeated and zero rows."""
    config = _QUINTIC_1_4_BLOWN_UP
    cols = config.components[1].h2_rank
    m = data.draw(_repeating_matrices(16, cols))
    v = data.draw(st.tuples(*[st.integers(-5, 5)] * cols))
    moved = _with_surface(config, 2, restrictions=(config.surfaces[2].restrictions[0], m))
    assert moved.restrict(2, 1, v) == mat_vec(m, v)


# ---------------------------------------------------------------------------
# restriction_difference_matrix


def test_quintic_matrix_blocks_and_kernel(quintic5):
    config, _ = quintic5
    m = restriction_difference_matrix(config)
    assert (m.rows, m.cols) == (3, 3)
    assert [[int(x) for x in row] for row in m.entries] == [
        [0, 1, -1],
        [-1, 0, 1],
        [1, -1, 0],
    ]
    assert kernel_dimension(m) == 1


def _blown_up_catalog_and_d21():
    for fam_id, spec in all_catalog_cases():
        yield f"{fam_id}:{spec.cli_form()}", catalog.instantiate(fam_id, spec)
    yield "d21-all-ones", d21_all_ones_row()


def test_blown_up_matrix_matches_dense_block_reference():
    seen = 0
    for label, (config, divisor) in _blown_up_catalog_and_d21():
        config_tilde, _ = construction.sequential_blowup(config, divisor)
        m = restriction_difference_matrix(config_tilde)
        reference = dense_restriction_difference(config_tilde)
        assert m.entries == reference, label
        assert (m.rows, m.cols) == (len(reference), len(reference[0])), label
        seen += 1
    assert seen == 64


def test_p2xp2_matrix_kernel_is_two():
    spec = catalog.PartitionSpec(parts=((3, 3),))
    config, _ = catalog.instantiate("p2xp2", spec)
    m = restriction_difference_matrix(config)
    assert m.cols == 6
    assert kernel_dimension(m) == 2


def test_zero_restrictions_give_full_kernel(quintic5):
    config, _ = quintic5
    zero = ((0,),)
    surfaces = tuple(
        ncconfig.SurfaceGeometry(
            name=s.name,
            lattice=s.lattice,
            canonical=s.canonical,
            tau_class=s.tau_class,
            euler=s.euler,
            restrictions=(zero, zero),
            boundary_self=s.boundary_self,
        )
        for s in config.surfaces
    )

    stripped = replace(
        config,
        surfaces=surfaces,
        h2_total=None,
        components=tuple(
            replace(c, boundary=None) for c in config.components
        ),
    )
    m = restriction_difference_matrix(stripped)
    assert kernel_dimension(m) == sum(c.h2_rank for c in stripped.components)


# ---------------------------------------------------------------------------
# component restriction classes


def _by_surface(config, v):
    """A codomain vector cut into its three per-surface slices."""
    ends = list(itertools.accumulate(s.lattice.rank for s in config.surfaces))
    assert ends[-1] == len(v)
    return [v[start:end] for start, end in zip([0] + ends, ends)]


def test_quintic_component_classes_and_residual_identity(quintic5):
    config, _ = quintic5
    e1, e2 = component_restriction_classes(config)
    assert e1 == (-4, 1, 1)
    assert e2 == (1, -4, 1)
    m = restriction_difference_matrix(config)
    from nc3 import degeneration

    n = degeneration.collective_normal_class(config).classes
    img1, img2 = (_by_surface(config, mat_vec(m.entries, e)) for e in (e1, e2))
    # not in the kernel before the blow-up; the images are the normal classes
    assert [list(map(int, v)) for v in img1] == [[0], list(n[1]), [-x for x in n[2]]]
    assert [list(map(int, v)) for v in img2] == [[-x for x in n[0]], [0], list(n[2])]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
@pytest.mark.parametrize("fam_id", catalog.family_ids())
def test_component_class_images_are_the_normal_classes(fam_id, order):
    """On every family, in an order that puts components of different
    degrees next to each other, the images of O(Y1) and O(Y2) are
    (0, N(D2), -N(D3)) and (-N(D1), 0, N(D3))."""
    from nc3 import degeneration

    fam = catalog.get_family(fam_id)
    config, _ = catalog.instantiate(fam, catalog.PartitionSpec(parts=(fam.total_degree,)), component_order=order)
    m = restriction_difference_matrix(config)
    n = degeneration.collective_normal_class(config).classes
    neg = [tuple(-x for x in c) for c in n]
    zero = [tuple(0 for _ in c) for c in n]
    img1, img2 = (_by_surface(config, mat_vec(m.entries, e)) for e in component_restriction_classes(config))
    assert img1 == [zero[0], n[1], neg[2]]
    assert img2 == [neg[0], zero[1], n[2]]


def test_component_classes_kernel_membership_after_blowup(quintic5_blown):
    config_tilde, _ = quintic5_blown
    m = restriction_difference_matrix(config_tilde)
    for e in component_restriction_classes(config_tilde):
        assert all(x == 0 for x in mat_vec(m.entries, e))


def test_third_cyclic_class_is_dependent(quintic5):
    config, _ = quintic5
    e1, e2 = component_restriction_classes(config)
    b = config.boundary_class
    e3 = ncconfig.stack_component_vectors(
        config,
        (
            b(0, 2),
            b(1, 2),
            tuple(-x - y for x, y in zip(b(2, 0), b(2, 1))),
        ),
    )
    assert tuple(a + b_ + c for a, b_, c in zip(e1, e2, e3)) == (0, 0, 0)


def test_missing_boundary_coordinates_raise(quintic5):

    config, _ = quintic5
    stripped = replace(
        config,
        components=tuple(replace(c, boundary=None) for c in config.components),
    )
    with pytest.raises(ncconfig.InsufficientBasis):
        component_restriction_classes(stripped)


# ---------------------------------------------------------------------------
# JSON round trip and schema rejection


def test_json_round_trip_preserves_validation_and_matrix(quintic5):
    config, _ = quintic5
    text = config_to_json(config)
    parsed = config_from_json(text)
    assert validate(parsed) == validate(config)
    m0 = restriction_difference_matrix(config)
    m1 = restriction_difference_matrix(parsed)
    assert m0.entries == m1.entries


def test_json_round_trip_after_blowup(quintic5_blown):
    config_tilde, _ = quintic5_blown
    parsed = config_from_json(config_to_json(config_tilde))
    assert validate(parsed) == validate(config_tilde)
    assert (
        restriction_difference_matrix(parsed).entries
        == restriction_difference_matrix(config_tilde).entries
    )


def _round_trip_cases():
    """Every catalog configuration and its blow-up, then the degree-15 and -21
    rank-one rows with alpha 1, d/3, 2d/3 and d and their blow-ups."""
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        yield f"{fam_id} {spec.display()}", config
        yield f"{fam_id} {spec.display()} blown up", construction.sequential_blowup(config, divisor)[0]
    for degree in (15, 21):
        family = rank_one_family(degree)
        for alpha in (1, degree // 3, 2 * degree // 3, degree):
            spec = quintic_partition(degree - alpha + 1, *(1,) * (alpha - 1))
            config, divisor = catalog.instantiate(family, spec)
            yield f"d{degree} alpha {alpha}", config
            yield f"d{degree} alpha {alpha} blown up", construction.sequential_blowup(config, divisor)[0]


def test_export_then_parse_is_the_identity():
    """The parser gives back the record that was exported, hash included.

    The blown-up D3 lattice is held as its base block and a count of -1
    classes but written dense; the parser must split the dense rows the
    same way.
    """
    cases = list(_round_trip_cases())
    assert len(cases) == 142
    for name, config in cases:
        parsed = config_from_json(config_to_json(config))
        assert parsed == config, name
        assert hash(parsed) == hash(config), name


@pytest.mark.parametrize(
    "surface,gram,message",
    [
        (0, [[]], "surface D1: invalid lattice: gram matrix must be 1x1, got 1 rows"),
        (0, [[1, 2]], "surface D1: invalid lattice: gram matrix must be 1x1, got 1 rows"),
        (2, [[]], "surface D3: invalid lattice: gram matrix must be 1x1, got 1 rows"),
        (2, [[-1]], "surface D3: invalid lattice: expected 1 basis labels, got 16"),
    ],
    ids=["empty-row", "long-row", "empty-row-D3", "minus-one-D3"],
)
def test_gram_refusals_on_blown_up_quintic(surface, gram, message):
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 4))
    data = config_to_dict(construction.sequential_blowup(config, divisor)[0])
    data["surfaces"][surface]["gram"] = gram
    with pytest.raises(SchemaError, match=re.escape(message) + "$"):
        ncconfig.config_from_dict(data)


def test_minus_one_gram_is_accepted_on_a_rank_one_surface(quintic5):
    config, _ = quintic5
    data = config_to_dict(config)
    data["surfaces"][0]["gram"] = [[-1]]
    lattice = ncconfig.config_from_dict(data).surfaces[0].lattice
    assert (lattice.rank, lattice.gram, lattice.exceptional) == (1, (), 1)


def test_asymmetric_tail_under_minus_identity_rows_is_refused():
    """D3 of the blown-up quintic (1,4) has rank 16: base [[1]] and 15 rows of -I.

    A nonzero entry in the base row's tail breaks symmetry; the -I rows below
    must not hide it.
    """
    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 4))
    data = config_to_dict(construction.sequential_blowup(config, divisor)[0])
    gram = data["surfaces"][2]["gram"]
    assert len(gram) == 16 and gram[15] == [0] * 15 + [-1]
    gram[0][15] = 1
    with pytest.raises(SchemaError, match=re.escape("surface D3: invalid lattice: gram matrix is not symmetric at (15,0)") + "$"):
        ncconfig.config_from_dict(data)


# Cells of the -I rows under D3's base row, given values a file can hold
# that are not integers.
@pytest.mark.parametrize(
    "row,col,bad",
    [(9, 0, False), (15, 15, True), (1, 1, -1.0), (7, 3, "0")],
    ids=["false-for-zero", "true-on-diagonal", "float-on-diagonal", "string-off-diagonal"],
)
def test_non_integer_cells_in_the_minus_identity_tail_are_refused(capsys, tmp_path, row, col, bad):
    from nc3.cli import main

    config, divisor = catalog.instantiate("quintic", quintic_partition(1, 4))
    data = config_to_dict(construction.sequential_blowup(config, divisor)[0])
    gram = data["surfaces"][2]["gram"]
    assert len(gram) == 16 and gram[row][col] == (-1 if row == col else 0)
    gram[row][col] = bad
    message = f"surface D3.gram: expected integer, got {bad!r}"
    with pytest.raises(SchemaError, match=re.escape(message) + "$"):
        ncconfig.config_from_dict(data)
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        json.dumps({"error": f"schema error in {path}: {message}"})
    ]


# In a vector or matrix the value sits after a valid integer, so the refusal
# has to find it; booleans are not integers.
@pytest.mark.parametrize(
    "bad", [True, 1.0, "1", None, [1]], ids=["true", "float", "string", "null", "list"]
)
@pytest.mark.parametrize(
    "field,place",
    [
        ("euler", lambda surf, bad: surf.update(euler=bad)),
        ("tau_class", lambda surf, bad: surf.update(tau_class=[0, bad])),
        ("gram", lambda surf, bad: surf.update(gram=[[0], [bad]])),
        ("restrictions", lambda surf, bad: surf["restrictions"].update(Y2=[[0], [bad]])),
    ],
    ids=["scalar", "vector", "gram", "restriction"],
)
def test_non_integer_numerics_rejected(quintic5, field, place, bad):
    config, _ = quintic5
    data = config_to_dict(config)
    place(data["surfaces"][0], bad)
    expected = f"surface D1.{field}: expected integer, got {bad!r}"
    with pytest.raises(SchemaError, match=re.escape(expected)):
        ncconfig.config_from_dict(data)


@pytest.mark.parametrize("key", ["components", "surfaces", "triple"])
@pytest.mark.parametrize("value", [[1, 2, 3], ["name", "euler", "gram"], 7])
def test_non_object_entries_are_schema_errors(quintic5, key, value):
    config, _ = quintic5
    data = config_to_dict(config)
    data[key] = value
    with pytest.raises(SchemaError):
        ncconfig.config_from_dict(data)


def test_asymmetric_gram_is_a_schema_error(quintic5):
    config, _ = quintic5
    data = config_to_dict(config)
    data["surfaces"][0]["gram"] = [[1, 2], [3, 1]]
    with pytest.raises(SchemaError, match=r"not symmetric at \(1,0\)"):
        ncconfig.config_from_dict(data)
    # the message names the first asymmetric entry in row order
    data["surfaces"][0]["gram"] = [[1, 0, 1], [0, 1, 2], [0, 3, 1]]
    with pytest.raises(SchemaError, match=r"not symmetric at \(2,0\)"):
        ncconfig.config_from_dict(data)


def test_restriction_shape_is_a_record_invariant(quintic5):
    """A restriction that does not fit its surface and component cannot be
    built; the message names the surface, the component and the shape."""
    config, _ = quintic5
    r0, r1 = config.surfaces[0].restrictions
    wide = tuple(row + (0,) for row in r0)
    tall = r0 + r0
    for bad, slot in ((wide, 0), (tall, 0), ((r1[0] + (0,),), 1)):
        restrictions = (bad, r1) if slot == 0 else (r0, bad)
        with pytest.raises(ncconfig.ConfigError) as info:
            _with_surface(config, 0, restrictions=restrictions)
        assert not isinstance(info.value, SchemaError)
        comp = ("Y2", "Y3")[slot]
        assert str(info.value) == f"surface D1: restriction from {comp} must be 1x1"


def _rename_y2_to_y1(data):
    """Y2 renamed Y1 wherever the parser looks a name up, so only the
    configuration record sees the clash."""
    data["components"][1]["name"] = "Y1"
    for comp in data["components"]:
        del comp["boundary"]
    d1 = data["surfaces"][0]["restrictions"]
    d1["Y1"] = d1.pop("Y2")


@pytest.mark.parametrize(
    "mutate,message",
    [
        (
            lambda d: d["surfaces"][0]["restrictions"].update(Y2=[[1], [1, 0]]),
            "surface D1: restriction from Y2 must be 1x1",
        ),
        (
            lambda d: d["surfaces"][0].update(gram=[[1, 0], [0]]),
            "surface D1: invalid lattice: gram matrix must be 2x2, got 2 rows",
        ),
        (_rename_y2_to_y1, "component names must be distinct"),
        (
            lambda d: d["components"][0].update(ample=[1, 0]),
            "component Y1: ample class has wrong length",
        ),
        (
            lambda d: d["surfaces"][2].update(canonical=[]),
            "surface D3: canonical has wrong length",
        ),
        (
            lambda d: d["surfaces"][1].update(boundary_self=[[3, 0], [1]]),
            "surface D2: boundary_self[0] has wrong length",
        ),
        (
            lambda d: d["surfaces"][1].update(boundary_self=[[3], []]),
            "surface D2: boundary_self[1] has wrong length",
        ),
    ],
    ids=[
        "ragged-restriction", "ragged-gram", "duplicate-names", "ample-length", "canonical-length",
        "first-self-class-length", "second-self-class-length",
    ],
)
def test_broken_record_invariants_are_schema_errors(quintic5, mutate, message):
    config, _ = quintic5
    data = config_to_dict(config)
    mutate(data)
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        ncconfig.config_from_dict(data)


def test_unknown_schema_version_rejected():
    with pytest.raises(SchemaError):
        config_from_json(json.dumps({"schema": "ncconfig/2"}))


def test_diagnostic_ordering_is_by_clause():
    d1 = Diagnostic("C3.1(2)", "error", "triple", "x")
    d2 = Diagnostic("C3.1(3)", "error", "D1", "y")
    d3 = Diagnostic("parity", "error", "D1", "z")
    assert sorted([d3, d2, d1]) == [d1, d2, d3]


def test_json_round_trip_blown_up_rank_two():
    spec = catalog.PartitionSpec(parts=((1, 1), (1, 1), (1, 1)))
    config, divisor = catalog.instantiate("p2xp2", spec)
    from nc3 import construction

    config_tilde, _ = construction.sequential_blowup(config, divisor)
    parsed = ncconfig.config_from_json(config_to_json(config_tilde))
    assert validate(parsed) == validate(config_tilde)
    assert (
        restriction_difference_matrix(parsed).entries
        == restriction_difference_matrix(config_tilde).entries
    )
    assert parsed.surfaces[2].lattice.rank == 2 + 18


# ---------------------------------------------------------------------------
# the JSON writer, against the stdlib encoder as oracle

_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()
    )
)
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
)
_int_lists = st.lists(st.one_of(_ints, st.booleans()), max_size=8)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _text, _int_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_text, children, max_size=5),
    ),
    max_leaves=40,
)


@given(_json_values)
def test_writer_matches_stdlib_encoder(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.0, [1, 2.5], {"a": [[0, -0.0]]}, {1, 2}, {1: 2}])
def test_writer_refuses_unknown_types(value):
    with pytest.raises(TypeError):
        dumps(value)


def _stress_rows(seed):
    """One seeded partition per alpha of the degree-9, -15 and -21 rank-one families."""
    rng = random.Random(seed)
    for degree in (9, 15, 21):
        family = rank_one_family(degree)
        by_alpha = {}
        for spec in catalog.enumerate_partitions(family):
            by_alpha.setdefault(spec.alpha, []).append(spec)
        for alpha in sorted(by_alpha):
            yield family, rng.choice(by_alpha[alpha])


def _edge_lattice_configs():
    """The raw quintic (5), whose lattices have no -1 classes, and copies with
    D1 replaced by an all -I lattice (base block of rank 0) and by rank 0."""
    config, _ = catalog.instantiate("quintic", quintic_partition(5))
    yield config
    minus_identity = IntersectionLattice(rank=1, gram=((-1,),), basis_labels=("e1",))
    assert (minus_identity.gram, minus_identity.exceptional) == ((), 1)
    yield _with_surface(config, 0, lattice=minus_identity)
    yield _with_surface(
        config,
        0,
        lattice=IntersectionLattice(rank=0, gram=(), basis_labels=()),
        canonical=(),
        tau_class=(),
        boundary_self=((), ()),
        restrictions=((), ()),
    )


def test_writer_matches_stdlib_encoder_on_blown_up_and_edge_configurations():
    """Every blow-up of the catalog and of a seeded stress sample (its
    degree-21 all-ones row has the 295x295 D3 Gram), in two component
    orders, and the edge lattices, written as the stdlib writes
    ``config_to_dict``; a parsed file, whose rows share nothing, writes back
    the same text."""
    rows = [(catalog.get_family(f), spec) for f, spec in all_catalog_cases()]
    rows += _stress_rows(seed=901)
    assert len(rows) == 63 + 45
    configs = [
        construction.sequential_blowup(*catalog.instantiate(family, spec, component_order=order))[0]
        for family, spec in rows
        for order in ((0, 1, 2), (2, 0, 1))
    ]
    configs += _edge_lattice_configs()
    for config in configs:
        text = config_to_json(config)
        assert text == json.dumps(config_to_dict(config), indent=2, sort_keys=True)
        assert config_to_json(config_from_json(text)) == text


def test_writer_writes_a_row_holding_a_bool_as_the_stdlib_encoder_does():
    """A record built in Python may hold ``True`` where a file holds 1; such
    a row is not all exact ints, and the writer still writes the text of
    ``config_to_dict`` (``true``), as for any other value."""
    config, _ = catalog.instantiate("quintic", quintic_partition(5))
    surface = config.surfaces[0]
    flagged = tuple(tuple(True if x == 1 else x for x in r) for r in surface.restrictions[0])
    assert bool in map(type, flagged[0])
    config = _with_surface(config, 0, restrictions=(flagged, surface.restrictions[1]))
    text = config_to_json(config)
    assert text == json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    assert "true" in text


def test_writer_writes_a_blown_up_gram_row_holding_a_bool_as_the_stdlib_encoder_does():
    """A blown-up Gram's base row may hold ``True`` too: the writer writes
    that row with the zeros over the -I columns after it, as
    ``config_to_dict`` lays them out, and then the -I rows."""
    config, _ = construction.sequential_blowup(*catalog.instantiate("quintic", quintic_partition(5)))
    lattice = config.surfaces[2].lattice
    assert lattice.gram == ((1,),) and lattice.exceptional == 15
    flagged = replace(lattice, gram=((True,),))
    config = _with_surface(config, 2, lattice=flagged)
    text = config_to_json(config)
    assert text == json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    assert "true" in text
