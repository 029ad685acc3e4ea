"""How often one row calls its stages: a perf guard that does not time anything.

Each stage is replaced, through monkeypatch, by a wrapper that counts its
calls, so the counts are the same on every machine.
"""

import collections
import functools

from nc3 import catalog, cli, construction, exactlat, invariants, ncconfig
from tests.conftest import all_catalog_cases, d21_all_ones_row


def count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_hodge_checks_once_and_sums_adjunction_at_most_six_alpha(monkeypatch):
    counts = collections.Counter()
    count_calls(monkeypatch, counts, construction, "check_collective_divisor")
    # The check imports adjunction_sum by name; adjunction_euler reaches it
    # through exactlat.  Both bindings count under one key.
    count_calls(monkeypatch, counts, construction, "adjunction_sum")
    count_calls(monkeypatch, counts, exactlat, "adjunction_sum")
    for fam_id, spec in all_catalog_cases():
        config, divisor = catalog.instantiate(fam_id, spec)
        counts.clear()
        invariants.hodge(config, divisor)
        assert counts["check_collective_divisor"] == 1, (fam_id, spec)
        assert counts["adjunction_sum"] <= 6 * divisor.alpha, (fam_id, spec, counts)


def test_invariants_family_route_blows_up_once(monkeypatch, capsys):
    counts = collections.Counter()
    count_calls(monkeypatch, counts, construction, "sequential_blowup")
    count_calls(monkeypatch, counts, construction, "check_collective_divisor")
    argv = ["invariants", "--family", "quintic", "--partition", "1,4", "--trace"]
    assert cli.main(argv) == 0
    assert "trace:" in capsys.readouterr().out
    assert counts["sequential_blowup"] == 1
    assert counts["check_collective_divisor"] == 1


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
