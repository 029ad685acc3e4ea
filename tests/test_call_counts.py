"""How often one row calls its stages: a perf guard that does not time anything.

Each stage is replaced, through monkeypatch, by a wrapper that counts its
calls, so the counts are the same on every machine.
"""

import collections
import functools
import itertools
import os
import pathlib
import sys

from nc3 import catalog, cli, construction, degeneration, exactlat, invariants, ncconfig
from nc3._record import replace
from tests.conftest import all_catalog_cases, d21_all_ones_row, quintic_partition, rank_one_family


def count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def cold_families():
    """A copy of every catalog family, without the values the shared one caches."""
    return {fam_id: replace(catalog.get_family(fam_id)) for fam_id in catalog.family_ids()}


def test_instantiate_builds_one_configuration_per_family_and_order(monkeypatch):
    counts = collections.Counter()
    count_calls(monkeypatch, counts, ncconfig.NCConfiguration, "__post_init__")
    families = cold_families()
    cases = all_catalog_cases()
    for fam_id, spec in cases:
        catalog.instantiate(families[fam_id], spec)
    assert len(cases) == 63
    assert counts["__post_init__"] == 7
    for fam_id, spec in cases:
        for order in itertools.permutations(range(3)):
            catalog.instantiate(families[fam_id], spec, component_order=order)
    assert counts["__post_init__"] == 7 * 6


def distinct_classes(divisor):
    """The number of distinct curve classes, summed over the three surfaces."""
    return sum(len(set(map(tuple, classes))) for classes in divisor.components)


def test_hodge_checks_once_and_takes_one_gram_product_per_distinct_class(monkeypatch):
    """One pass over the classes serves the check and the blow-up: each
    distinct class on each surface is multiplied by the Gram form once, and
    its multiplicity, adjunction sum and degree are dot products with it."""
    counts = collections.Counter()
    count_calls(monkeypatch, counts, construction, "check_collective_divisor")
    count_calls(monkeypatch, counts, construction, "_admissibility")
    # The pass imports gram_product by name; the exactlat binding also
    # counts a product reached another way.  Both bindings count under one
    # key.  A pairing or an adjunction sum reached through exactlat counts too.
    count_calls(monkeypatch, counts, construction, "gram_product")
    count_calls(monkeypatch, counts, exactlat, "gram_product")
    count_calls(monkeypatch, counts, exactlat, "pair")
    count_calls(monkeypatch, counts, exactlat, "adjunction_sum")
    families = cold_families()
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(families[fam_id], spec)
        counts.clear()
        invariants.hodge(config, divisor)
        assert counts["_admissibility"] == 1, (fam_id, spec)
        assert counts["check_collective_divisor"] == 0, (fam_id, spec)
        assert counts["gram_product"] <= distinct_classes(divisor), (fam_id, spec, counts)
        assert counts["pair"] == counts["adjunction_sum"] == 0, (fam_id, spec, counts)


def test_hodge_builds_no_blowup_step(monkeypatch):
    """The trace keeps per-round numbers; its 3*alpha steps are built only
    when something reads them, and ``hodge`` does not."""
    counts = collections.Counter()
    count_calls(monkeypatch, counts, construction, "BlowupStep")
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        blowup = construction.sequential_blowup(config, divisor)
        invariants.hodge(config, divisor)
        invariants.hodge(config, divisor, blowup)
        assert counts["BlowupStep"] == 0, (fam_id, spec)
        assert len(blowup[1].steps) == 3 * divisor.alpha
        assert counts["BlowupStep"] == 3 * divisor.alpha, (fam_id, spec)
        blowup[1].as_dict()
        assert counts["BlowupStep"] == 3 * divisor.alpha, (fam_id, spec)
        counts.clear()


def test_instantiate_pairs_each_distinct_part_once(monkeypatch):
    counts = collections.Counter()
    count_calls(monkeypatch, counts, catalog, "pair")
    for fam_id, spec in all_catalog_cases():
        counts.clear()
        _, divisor = catalog.instantiate(fam_id, spec)
        assert counts["pair"] == len(set(spec.parts)), (fam_id, spec)
        assert len(divisor.tau_multiplicities) == len(spec.parts)
    counts.clear()
    d21_all_ones_row()
    assert counts["pair"] == 1


def test_invariants_family_route_blows_up_once(monkeypatch, capsys):
    counts = collections.Counter()
    count_calls(monkeypatch, counts, construction, "sequential_blowup")
    count_calls(monkeypatch, counts, construction, "_admissibility")
    argv = ["invariants", "--family", "quintic", "--partition", "1,4", "--trace"]
    assert cli.main(argv) == 0
    assert "trace:" in capsys.readouterr().out
    assert counts == {"sequential_blowup": 1, "_admissibility": 1}


def test_standalone_euler_closed_blows_up_once(monkeypatch):
    """Without a trace the closed form takes its centers from one blow-up,
    which checks the divisor in one pass."""
    counts = collections.Counter()
    count_calls(monkeypatch, counts, construction, "sequential_blowup")
    count_calls(monkeypatch, counts, construction, "_admissibility")
    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((1,), (4,))))
    invariants.euler_closed(config, divisor)
    assert counts == {"sequential_blowup": 1, "_admissibility": 1}


def test_collective_normal_class_passes_per_hodge_and_per_invariants_call(monkeypatch, capsys):
    """Each configuration computes its normal class once: the check reads
    the one of its family's shared configuration, and the triple-point sum
    that of the blow-up.  The Chern pairings take none."""
    counts = collections.Counter()
    count_calls(monkeypatch, counts, degeneration, "collective_normal_class")
    families = cold_families()
    cases = all_catalog_cases()
    for fam_id, spec in cases:
        invariants.hodge(*catalog.instantiate(families[fam_id], spec))
    assert len(cases) == 63
    # 7 base configurations and 63 blow-ups.
    assert counts["collective_normal_class"] == 70
    counts.clear()
    monkeypatch.setitem(catalog.FAMILIES, "quintic", replace(catalog.get_family("quintic")))
    assert cli.main(["invariants", "--family", "quintic", "--partition", "1,4"]) == 0
    capsys.readouterr()
    # The input's residual and the divisor check share one pass; the
    # blow-up's residual and the triple-point sum share the other.
    assert counts["collective_normal_class"] == 2


def test_hodge_checks_shapes_once_and_ranks_once(monkeypatch):
    """Restriction shapes are checked when a configuration is built: once, for
    the blow-up.  The one rank goes through ``NCConfiguration.kernel_dim``."""
    counts = collections.Counter()
    count_calls(monkeypatch, counts, ncconfig.NCConfiguration, "__post_init__")
    count_calls(monkeypatch, counts, ncconfig, "kernel_dimension")
    count_calls(monkeypatch, counts, invariants, "kernel_dimension")
    count_calls(monkeypatch, counts, exactlat, "matrix_rank")
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        counts.clear()
        invariants.hodge(config, divisor)
        assert counts == {"__post_init__": 1, "kernel_dimension": 1, "matrix_rank": 1}, (fam_id, spec)


def test_invariants_config_route_ranks_once(monkeypatch, tmp_path, capsys):
    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((1,), (4,))))
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    assert config_tilde.lattice_is_full
    path = tmp_path / "blown_up.json"
    path.write_text(ncconfig.config_to_json(config_tilde), encoding="utf-8")
    assert config_tilde.h2_total is not None
    counts = collections.Counter()
    count_calls(monkeypatch, counts, ncconfig.NCConfiguration, "__post_init__")
    count_calls(monkeypatch, counts, ncconfig, "validate")
    count_calls(monkeypatch, counts, exactlat, "matrix_rank")
    assert cli.main(["invariants", "--config", str(path), "--format", "json"]) == 0
    assert '"kernel"' in capsys.readouterr().out
    # One parse builds (and shape-checks) one configuration; validation
    # matches h2_total against the kernel, and the kernel route reuses it.
    assert counts == {"__post_init__": 1, "validate": 1, "matrix_rank": 1}


def test_blown_up_d3_gram_stores_only_its_base_block():
    """The gamma = 294 points of the degree-21 all-ones row add no Gram cells."""
    config, divisor = d21_all_ones_row()
    base = config.surfaces[2].lattice
    lattice = construction.sequential_blowup(config, divisor)[0].surfaces[2].lattice
    assert lattice.rank == base.rank + divisor.gamma == 295
    assert sum(map(len, lattice.gram)) <= base.rank**2


def count_sparse_rank_rows(monkeypatch, rows_seen):
    """Record how many rows each ``_sparse_rank`` call receives."""
    original = exactlat._sparse_rank

    def counted(rows):
        rows = list(rows)
        rows_seen.append(len(rows))
        return original(rows)

    monkeypatch.setattr(exactlat, "_sparse_rank", counted)


def test_d21_all_ones_hodge_pairs_and_ranks_each_distinct_value_once(monkeypatch):
    """The 21 parts are one class, and the 297 rows of the
    restriction-difference matrix hold 24 distinct ones."""
    counts = collections.Counter()
    for module in (catalog, exactlat):
        count_calls(monkeypatch, counts, module, "pair")
    for module in (construction, exactlat):
        count_calls(monkeypatch, counts, module, "gram_product")
    count_calls(monkeypatch, counts, exactlat, "adjunction_sum")
    rows_seen = []
    count_sparse_rank_rows(monkeypatch, rows_seen)
    config, divisor = d21_all_ones_row()
    invariants.hodge(config, divisor)
    # instantiate pairs the one distinct part with the triple curve; the
    # blow-up's pass takes one Gram product of it per surface.
    assert counts["pair"] <= 1, counts
    assert counts["gram_product"] <= 3, counts
    assert counts["adjunction_sum"] == 0, counts
    assert len(rows_seen) == 1 and rows_seen[0] <= 24, rows_seen


def test_rank_never_sees_more_rows_than_the_distinct_nonzero_ones(monkeypatch):
    distinct = []
    original_rank = exactlat.matrix_rank

    def recording_rank(m):
        distinct.append(len({tuple(r) for r in m.entries if any(r)}))
        return original_rank(m)

    monkeypatch.setattr(exactlat, "matrix_rank", recording_rank)
    rows_seen = []
    count_sparse_rank_rows(monkeypatch, rows_seen)
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        distinct.clear()
        rows_seen.clear()
        invariants.hodge(config, divisor)
        assert len(distinct) == len(rows_seen) == 1, (fam_id, spec)
        assert rows_seen[0] <= distinct[0], (fam_id, spec, rows_seen, distinct)


def nc3_trace_events(config, divisor):
    """The ``sys.settrace`` events of one ``hodge`` call in nc3's own frames."""
    root = pathlib.Path(invariants.__file__).parent
    prefix = str(root) + os.sep
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += 1
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        invariants.hodge(config, divisor)
    finally:
        sys.settrace(previous)
    return events


def test_hodge_takes_no_python_step_per_triple_curve_point():
    """Both rows have alpha = 15; gamma is 150 and 294.  The 144 extra
    points of D3 must cost fewer than 144 traced events: none of the
    blow-up, the normal-class check, the matrix or the rank takes a Python
    step per point."""
    rows = [
        catalog.instantiate(rank_one_family(degree), quintic_partition(*parts))
        for degree, parts in ((15, (1,) * 15), (21, (1,) * 14 + (7,)))
    ]
    assert [(d.alpha, d.gamma) for _, d in rows] == [(15, 150), (15, 294)]
    for config, divisor in rows:
        invariants.hodge(config, divisor)  # warm: shared configurations and labels
    small, large = (nc3_trace_events(config, divisor) for config, divisor in rows)
    assert large - small < 144, (small, large)


def test_hodge_traced_events_grow_less_than_twice_when_alpha_doubles():
    """The all-ones rows of degree 30 and 60 have alpha 30 and 60.  Doubling
    alpha doubles the curves, the distinct matrix rows and their columns; the
    Python work of one ``hodge`` must grow less than twice as fast, so no
    stage (the exact rank above all) rescans its rows once per pivot."""
    rows = [
        catalog.instantiate(rank_one_family(degree), quintic_partition(*(1,) * degree))
        for degree in (30, 60)
    ]
    assert [d.alpha for _, d in rows] == [30, 60]
    for config, divisor in rows:
        invariants.hodge(config, divisor)  # warm: shared configurations and tables
    small, large = (nc3_trace_events(config, divisor) for config, divisor in rows)
    assert large < 2 * small, (small, large)
