"""Start-up guard: what a fresh interpreter loads for ``nc3``.

Each check runs in a subprocess with ``PYTHONPATH=src``, the way the
``nc3`` console script runs, and compares ``sys.modules`` before and after
nc3 is imported, so modules the interpreter itself loads at start-up do not
count.  ``import nc3.cli`` must load no record machinery, no rational
arithmetic, no digest or CSV module and none of the computing modules, and a
command that reads and writes no configuration file or JSON payload does not
load the file format module, ``nc3.configfile``.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

NOT_AT_IMPORT = (
    "dataclasses",
    "inspect",
    "fractions",
    "hashlib",
    "csv",
    "nc3.catalog",
    "nc3.construction",
)


def _loaded_by(code: str) -> tuple[list[str], list[str]]:
    """(stdout lines before the last, modules that ``code`` added to sys.modules)."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "added = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(added))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    *lines, modules = proc.stdout.splitlines()
    return lines, json.loads(modules)


def test_import_cli_loads_no_computing_module():
    _, added = _loaded_by("import nc3.cli")
    assert "nc3.cli" in added
    assert sorted(set(NOT_AT_IMPORT) & set(added)) == []


def test_import_nc3_loads_no_submodule():
    _, added = _loaded_by("import nc3")
    assert [m for m in added if m.startswith("nc3.")] == []


def test_verify_all_without_dataclasses_or_fractions():
    lines, added = _loaded_by("from nc3.cli import main\nassert main(['verify', '--family', 'all']) == 0")
    assert lines == ["63/63 rows match"]
    assert "nc3.catalog" in added
    assert "dataclasses" not in added and "fractions" not in added
    # verify prints no payload and reads no file.
    assert "nc3.configfile" not in added


def test_table_csv_loads_no_json_digest_rational_or_record_module():
    """The command behind the benchmark's ``cli_table_s``."""
    lines, added = _loaded_by(
        "from nc3.cli import main\n"
        "assert main(['table', '--family', 'p2xp2', '--format', 'csv']) == 0"
    )
    assert lines[0] == "family,partition,h11,h12,euler,star" and len(lines) == 32
    assert sorted({"json", "hashlib", "fractions", "dataclasses", "nc3.configfile"} & set(added)) == []


def test_check_config_loads_neither_catalog_nor_construction(tmp_path):
    """``check --config`` reads an exported file; the README says it never
    builds a catalog family, so neither module that does is loaded."""
    from nc3 import catalog, ncconfig

    config, _ = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))
    path = tmp_path / "quintic.json"
    path.write_text(ncconfig.config_to_json(config), encoding="utf-8")
    lines, added = _loaded_by(
        f"from nc3.cli import main\nassert main(['check', '--config', {str(path)!r}]) == 0"
    )
    assert json.loads("\n".join(lines))["source"]["path"] == str(path)
    assert "nc3.ncconfig" in added and "nc3.configfile" in added
    assert "nc3.catalog" not in added and "nc3.construction" not in added


def test_every_public_name_resolves():
    """``__all__`` and ``dir(nc3)`` list only names that the lazy lookup finds."""
    import nc3

    assert [name for name in nc3.__all__ if not hasattr(nc3, name)] == []
    assert [name for name in dir(nc3) if not hasattr(nc3, name)] == []


def test_ncconfig_forwards_the_file_names_and_refuses_the_rest():
    """``ncconfig`` hands out the file format's names from ``configfile``;
    any other missing name is an ``AttributeError`` that loads nothing."""
    lines, added = _loaded_by(
        "import nc3.ncconfig as m\n"
        "from nc3.ncconfig import NCConfiguration, validate\n"
        "print(hasattr(m, '__path__'), hasattr(m, 'config_to_jsn'))"
    )
    assert lines == ["False False"]
    assert "nc3.ncconfig" in added and "nc3.configfile" not in added

    from nc3 import configfile, ncconfig

    for name in ncconfig._FILE_NAMES:
        assert getattr(ncconfig, name) is getattr(configfile, name), name
