"""One gate for configuration files: ``check --config`` and ``invariants --config`` agree.

A hypothesis fuzz feeds arbitrary JSON and mutated exports to both commands
through ``cli.main`` in process.  Every outcome must be an exit code 0, 1 or
2 with at most one JSON line on stderr, never a traceback; both commands
must agree on what is malformed (exit 2) and on what fails validation
(exit 1); and on a file that validates, the only refusals left to
``invariants`` are the ones ``validate`` cannot see.
"""

import contextlib
import copy
import functools
import io
import json
import pathlib

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nc3 import catalog, cli, construction, ncconfig

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "schemas" / "ncconfig.schema.json").read_text()
)

# What `invariants --config` may still refuse on a file `check --config` accepts.
REFUSALS_AFTER_VALIDATION = (
    "not d-semistable",
    "neither complete lattices nor h2_total",
)


@functools.cache
def _exports():
    """The raw quintic and the blown-up quintic (1,4) and p2xp2 (1,0),(2,3) as dicts."""
    out = [ncconfig.config_to_dict(catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))[0])]
    for fam, parts in (("quintic", ((1,), (4,))), ("p2xp2", ((1, 0), (2, 3)))):
        config, divisor = catalog.instantiate(fam, catalog.PartitionSpec(parts=parts))
        out.append(ncconfig.config_to_dict(construction.sequential_blowup(config, divisor)[0]))
    return tuple(out)


def _int_paths(x, path=()):
    """Paths to every int leaf (bools excluded) of a JSON value."""
    if type(x) is int:
        yield path
    elif isinstance(x, dict):
        for k in sorted(x):
            yield from _int_paths(x[k], path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _int_paths(v, path + (i,))


def _get(data, path):
    for key in path:
        data = data[key]
    return data


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_exports(draw):
    data = copy.deepcopy(draw(st.sampled_from(_exports())))
    paths = list(_int_paths(data))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(paths))
        _get(data, path[:-1])[path[-1]] += draw(st.sampled_from((-2, -1, 1, 2)))
    if draw(st.booleans()):
        data["lattice_is_full"] = not data["lattice_is_full"]
    if draw(st.booleans()):
        data.pop("h2_total", None)
    return data


@st.composite
def grafted_exports(draw):
    """An export with one subtree replaced by arbitrary JSON."""
    data = copy.deepcopy(draw(st.sampled_from(_exports())))
    node, key = data, draw(st.sampled_from(sorted(data)))
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    node[key] = draw(_json)
    return data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2), (argv, rc)
    assert len(lines) <= 1, lines
    message = json.loads(lines[0])["error"] if lines else None
    return rc, message


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gate") / "config.json"


def _check_and_invariants_agree(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    check_rc, check_err = _run(["check", "--config", str(path)])
    inv_rc, inv_err = _run(["invariants", "--config", str(path)])
    assert (check_rc == 2) == (inv_rc == 2), (check_err, inv_err)
    if check_rc == 2:
        assert check_err == inv_err
    if check_rc == 1:
        assert inv_rc == 1
        assert inv_err == "configuration fails validation"
    if check_rc == 0 and inv_rc == 1:
        assert any(r in inv_err for r in REFUSALS_AFTER_VALIDATION) or (
            inv_err.startswith("Euler number") and inv_err.endswith("is odd")
        ), inv_err


_FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(data=mutated_exports())
def test_check_and_invariants_agree_on_mutated_exports(config_path, data):
    """About half of these fail validation and a third are malformed."""
    _check_and_invariants_agree(config_path, data)


@_FUZZ
@given(data=grafted_exports() | _json)
def test_check_and_invariants_agree_on_arbitrary_json(config_path, data):
    _check_and_invariants_agree(config_path, data)


def test_canonical_mutation_is_refused_by_both_commands(tmp_path, capsys):
    """The blown-up quintic (5) with D1's canonical raised by 1: C3.1(4) and
    parity errors, and `invariants` refuses with the same diagnostics."""
    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))
    data = ncconfig.config_to_dict(construction.sequential_blowup(config, divisor)[0])
    data["surfaces"][0]["canonical"][0] += 1
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["check", "--config", str(path)]) == 1
    checked = json.loads(capsys.readouterr().out)["diagnostics"]
    errors = sorted({(d["clause"], d["target"]) for d in checked if d["severity"] == "error"})
    assert errors == [("C3.1(4)", "D1"), ("parity", "D1")]
    assert cli.main(["invariants", "--config", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "configuration fails validation"}
    assert json.loads(captured.out)["diagnostics"] == checked


# Values of every JSON type and of the shapes the schema names: int vector,
# int matrix, string list.
ILL_TYPED = (None, True, 1.5, -1, "x", [], [1], ["x"], [None], [[1]], [["x"]], [[1.5]], {}, {"x": 1})


def _schema_mutations(data):
    """Each value of each object in ``data`` replaced by each of ``ILL_TYPED``,
    and each object given an extra key holding each of them.

    Yields the changed object and its part of the schema, with ``data``
    changed in place, and restores it on resumption.
    """
    objects = [(data, SCHEMA)]
    for obj, schema in objects:
        for key, value in list(obj.items()):
            for bad in ILL_TYPED:
                obj[key] = bad
                yield obj, schema
            obj[key] = value
        for bad in ILL_TYPED:
            obj["extra"] = bad
            yield obj, schema
        del obj["extra"]
        for key, value in obj.items():
            part = schema.get("properties", {}).get(key, schema.get("additionalProperties"))
            if isinstance(value, dict):
                objects.append((value, part))
            elif isinstance(value, list):
                objects.extend((v, part["items"]) for v in value if isinstance(v, dict))


def test_reader_refuses_every_mutation_the_schema_refuses():
    """The schema is the oracle: wherever it refuses a mutated export, the
    reader raises ``SchemaError``, which the commands report with exit 2.

    Only the changed object is validated, against its part of the schema:
    the rest of the export is valid and the schema ties no two objects
    together, so the file is valid exactly when that object is.
    """
    p2xp2 = catalog.instantiate("p2xp2", catalog.PartitionSpec(parts=((1, 0), (2, 3))))[0]
    validators = {}
    refused = 0
    for export in (_exports()[0], ncconfig.config_to_dict(p2xp2)):
        jsonschema.validate(export, SCHEMA)
        data = copy.deepcopy(export)
        for obj, schema in _schema_mutations(data):
            if id(schema) not in validators:
                part = {**schema, "$defs": SCHEMA["$defs"]}
                validators[id(schema)] = jsonschema.Draft202012Validator(part)
            if validators[id(schema)].is_valid(obj):
                continue
            refused += 1
            with pytest.raises(ncconfig.SchemaError):
                ncconfig.config_from_dict(data)
        assert data == export
    assert refused > 2000


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(
            lambda d: d["components"][0]["boundary"].update(Y9="x"),
            "component Y1.boundary: expected list of integers, got 'x'",
            id="boundary",
        ),
        pytest.param(
            lambda d: d["surfaces"][0]["restrictions"].update(Y9=[["x"]]),
            "surface D1.restrictions: expected integer, got 'x'",
            id="restrictions",
        ),
        pytest.param(
            lambda d: d["surfaces"][2].update(basis_labels=None),
            "surface D3: basis_labels must be a list of strings",
            id="basis_labels",
        ),
    ],
)
@pytest.mark.parametrize("command", ["check", "invariants"])
def test_ill_typed_extra_entries_and_null_labels_exit_2(config_path, command, mutate, message):
    """An entry of ``boundary`` or ``restrictions`` for no adjacent component
    is still typed by the schema, and ``basis_labels`` may be left out but
    not null."""
    data = copy.deepcopy(_exports()[1])
    mutate(data)
    config_path.write_text(json.dumps(data), encoding="utf-8")
    expected = (2, f"schema error in {config_path}: {message}")
    assert _run([command, "--config", str(config_path)]) == expected
