"""The record contract: every value class of nc3 behaves as a frozen record.

Each record class is exercised with two instances that differ in some
field.  Equality and hashing go by the fields and the exact class; a record
is never equal to a tuple or to a record of another class with the same
fields; assignment and deletion raise; ``replace`` rebuilds through
``__init__``, so ``__post_init__`` validation runs on the copy.
"""

import ast
import collections
import inspect
import itertools
import sys
import typing

import pytest

from nc3 import catalog, construction, degeneration, exactlat, invariants, ncconfig
from nc3._record import Record, replace
from tests.conftest import quintic_partition


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("nc3."):
            yield sub
        yield from _record_classes(sub)


def _sample_pairs():
    """Two instances of every record class of nc3, differing in some field."""
    quintic, p2 = catalog.get_family("quintic"), catalog.get_family("p2xp2")
    c5, d5 = catalog.instantiate(quintic, quintic_partition(5))
    c14, d14 = catalog.instantiate(quintic, quintic_partition(1, 4))
    t5, trace5 = construction.sequential_blowup(c5, d5)
    t14, trace14 = construction.sequential_blowup(c14, d14)
    diags = ncconfig.validate(c5)
    problems = (
        construction.AmpleMarginProblem(table=((-1,),)),
        construction.AmpleMarginProblem(table=((-1, 1), (0, -1))),
    )
    rows = catalog.expected_table(quintic)
    return [
        (quintic.components[0], p2.components[0]),
        (quintic.surfaces_opposite[0], p2.surfaces_opposite[0]),
        (quintic, p2),
        (quintic_partition(5), quintic_partition(1, 4)),
        (rows[0], rows[1]),
        (c5.surfaces[2].lattice, t5.surfaces[2].lattice),
        (exactlat.RationalMatrix.from_rows([[1, 2]]), exactlat.RationalMatrix.from_rows([[1, 3]])),
        (degeneration.collective_normal_class(c5), degeneration.collective_normal_class(t5)),
        (diags[0], diags[-1]),
        (t5.components[0], t14.components[0]),
        (t5.surfaces[2], t14.surfaces[2]),
        (ncconfig.TripleCurve(0, True), ncconfig.TripleCurve(euler=2, connected=True)),
        (c5, t5),
        (d5, d14),
        (trace14.steps[0], trace14.steps[1]),
        (trace5, trace14),
        problems,
        tuple(construction.ample_margin(p) for p in problems),
        (invariants.hodge(c5, d5), invariants.hodge(c14, d14)),
        (invariants.picard_one_pairings(c5), invariants.picard_one_pairings(t5)),
    ]


PAIRS = _sample_pairs()
IDS = [type(a).__name__ for a, _ in PAIRS]


def test_every_record_class_is_sampled():
    classes = set(_record_classes())
    assert len(classes) == 20
    assert {type(a) for a, _ in PAIRS} == classes
    assert all(type(a) is type(b) for a, b in PAIRS)


@pytest.mark.parametrize("a,b", PAIRS, ids=IDS)
def test_equality_and_hashing_by_field(a, b):
    copy = replace(a)
    assert copy is not a
    assert copy == a and not copy != a
    assert hash(copy) == hash(a)
    assert len({a, copy}) == 1
    assert a != b and not a == b
    assert len({a, b}) == 2
    assert copy == type(a)(*(getattr(a, f) for f in type(a)._fields))


@pytest.mark.parametrize("a,b", PAIRS, ids=IDS)
def test_never_equal_to_a_tuple_or_another_record_type(a, b):
    fields = type(a)._fields
    values = tuple(getattr(a, f) for f in fields)
    assert not isinstance(a, tuple)
    assert a != values and values != a
    twin_class = type(type(a).__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    twin = twin_class(*values)
    assert twin._fields == fields
    assert a != twin and twin != a


@pytest.mark.parametrize("a,b", PAIRS, ids=IDS)
def test_assignment_and_deletion_raise(a, b):
    field = type(a)._fields[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) is before
    assert not hasattr(a, "not_a_field")


def _with_type_checking_imports(module):
    """The globals of ``module`` plus the names it imports under ``if TYPE_CHECKING:``,
    the names a type checker sees."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            code = ast.Module(body=node.body, type_ignores=[])
            exec(compile(code, module.__file__, "exec"), namespace)
    return namespace


RECORD_CLASSES = sorted(_record_classes(), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_every_annotation_resolves(cls):
    """Each field annotation names a type defined in, or imported for type
    checking by, the record's module."""
    hints = typing.get_type_hints(cls, _with_type_checking_imports(sys.modules[cls.__module__]))
    assert set(cls._fields) <= set(hints)


def test_pinned_reprs():
    assert repr(quintic_partition(1, 4)) == "PartitionSpec(parts=((1,), (4,)))"
    diag = ncconfig.Diagnostic(
        clause="C3.1(4)", severity="error", target="D1", message="canonical class (-2,)"
    )
    assert repr(diag) == (
        "Diagnostic(clause='C3.1(4)', severity='error', target='D1', "
        "message='canonical class (-2,)')"
    )


def test_keyword_positional_and_default_construction_agree():
    assert ncconfig.TripleCurve(0, True) == ncconfig.TripleCurve(connected=True, euler=0)
    comp = ncconfig.ComponentGeometry("Y1", 4, 1, ("h",), (1,))
    assert comp.boundary is None and comp.chern_numbers is None
    divisor = construction.CollectiveDivisor(1, (((5,),),) * 3, (15,))
    assert divisor.g_witness_present is True
    with pytest.raises(TypeError):
        ncconfig.TripleCurve(0)
    with pytest.raises(TypeError):
        ncconfig.TripleCurve(0, True, 1)


def _invalid_changes():
    """(record, changes that break its __post_init__, expected exception)."""
    c5, d5 = catalog.instantiate("quintic", quintic_partition(5))
    inv = invariants.hodge(c5, d5)
    return [
        (exactlat.make_lattice([[3]]), {"rank": 2}, exactlat.DimensionMismatch),
        (exactlat.RationalMatrix.from_rows([[1, 2]]), {"cols": 1}, exactlat.DimensionMismatch),
        (c5.components[0], {"h2_rank": 0}, ncconfig.ConfigError),
        (c5.surfaces[0], {"canonical": (1, 1)}, ncconfig.ConfigError),
        (c5, {"surfaces": c5.surfaces[:2]}, ncconfig.ConfigError),
        (d5, {"alpha": 2}, ValueError),
        (construction.AmpleMarginProblem(((-1,),)), {"table": ((0,),)}, construction.AmpleMarginError),
        (inv, {"h12": inv.h12 + 1}, invariants.PathDisagreement),
        (quintic_partition(5), {"parts": ()}, catalog.PartitionError),
    ]


INVALID = _invalid_changes()


@pytest.mark.parametrize("record,changes,error", INVALID, ids=[type(r).__name__ for r, _, _ in INVALID])
def test_replace_runs_post_init_validation(record, changes, error):
    with pytest.raises(error):
        replace(record, **changes)


def test_every_validating_class_is_checked_by_replace():
    validating = {c for c in _record_classes() if hasattr(c, "__post_init__")}
    assert {type(r) for r, _, _ in INVALID} == validating


def test_replace_refuses_unknown_fields():
    with pytest.raises(TypeError):
        replace(ncconfig.TripleCurve(0, True), genus=1)


def test_sorted_on_mixed_diagnostics():
    d = ncconfig.Diagnostic
    mixed = [
        d("parity", "error", "D2", "b"),
        d("C3.1(4)", "note", "components", "x"),
        d("C3.1(2)", "error", "triple", "y"),
        d("C3.1(4)", "error", "D1", "z"),
        d("C3.1(2)", "error", "triple", "a"),
    ]
    ordered = sorted(mixed)
    assert [(x.clause, x.severity, x.target, x.message) for x in ordered] == sorted(
        (x.clause, x.severity, x.target, x.message) for x in mixed
    )
    assert mixed[3] < mixed[1] <= mixed[1] and mixed[0] > mixed[2] >= mixed[4]
    with pytest.raises(TypeError):
        mixed[0] < ("parity", "error", "D2", "b")
    with pytest.raises(TypeError):
        sorted([mixed[0], ncconfig.TripleCurve(0, True)])


def test_each_family_order_builds_its_surface_lattices_once(monkeypatch):
    """Instantiating every partition of every family in all six component
    orders builds three surface lattices per (family, order), and the
    configuration cache leaves a family's equality and hash alone."""
    calls = collections.Counter()
    original = catalog.make_lattice

    def counted(*args, **kwargs):
        calls["make_lattice"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog, "make_lattice", counted)
    orders = list(itertools.permutations(range(3)))
    families = [replace(catalog.get_family(f)) for f in catalog.family_ids()]
    for fam in families:
        for spec in catalog.enumerate_partitions(fam):
            for order in orders:
                catalog.instantiate(fam, spec, order)
        assert fam == replace(fam) and hash(fam) == hash(replace(fam))
    assert calls["make_lattice"] == 3 * len(orders) * len(families) == 3 * 6 * 7
