import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nc3 import catalog, cli
from nc3.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schemas"
OUTPUT_SCHEMA = json.loads((SCHEMA_DIR / "output.schema.json").read_text())
CONFIG_SCHEMA = json.loads((SCHEMA_DIR / "ncconfig.schema.json").read_text())


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_raw_quintic_valid_but_not_semistable(capsys):
    rc, out, err = run(capsys, "check", "--family", "quintic")
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, OUTPUT_SCHEMA)
    assert payload["d_semistable"] is False
    assert payload["normal_class_residual"] == [[5], [5], [5]]
    assert not any(d["severity"] == "error" for d in payload["diagnostics"])


def test_check_after_blowup_semistable(capsys):
    rc, out, _ = run(
        capsys, "check", "--family", "quintic", "--partition", "5", "--after-blowup"
    )
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, OUTPUT_SCHEMA)
    assert payload["d_semistable"] is True
    residual = payload["normal_class_residual"]
    # D1, D2 keep rank 1; D3 gains the 15 exceptional point classes
    assert [len(v) for v in residual] == [1, 1, 16]
    assert all(x == 0 for v in residual for x in v)


def test_check_broken_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"schema": "ncconfig/1", "components": []}))
    rc, out, err = run(capsys, "check", "--config", str(bad))
    assert rc == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])


@pytest.mark.parametrize("key", ["components", "surfaces"])
def test_check_non_object_entries_exit_2(tmp_path, capsys, key):
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    data = json.loads(out)
    data[key] = [1, 2, 3]
    bad = tmp_path / "not-objects.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run(capsys, "check", "--config", str(bad))
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert f"{key} must be a list of exactly three objects" in json.loads(lines[0])["error"]


def test_check_non_integer_exits_2(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    data = json.loads(out)
    data["surfaces"][0]["tau_class"] = [True]
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run(capsys, "check", "--config", str(bad))
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "surface D1.tau_class: expected integer, got True" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("command", ["check", "invariants"])
@pytest.mark.parametrize("also_canonical", [False, True], ids=["name-only", "name-and-canonical"])
def test_non_string_surface_name_exits_2(tmp_path, capsys, command, also_canonical):
    """A surface name that is not a string is a schema error.

    Alone it used to pass as a target of -1; with more errors on the file,
    sorting the diagnostics compared a string with an int and raised.
    """
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    data = json.loads(out)
    data["surfaces"][0]["name"] = -1
    if also_canonical:
        data["surfaces"][0]["canonical"][0] += 1
        data["surfaces"][1]["canonical"][0] += 1
    bad = tmp_path / "named.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run(capsys, command, "--config", str(bad))
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "surface name must be a string" in json.loads(lines[0])["error"]


def test_check_asymmetric_gram_exits_2(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    data = json.loads(out)
    data["surfaces"][0]["gram"] = [[1, 2], [3, 1]]
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps(data))
    rc, _, err = run(capsys, "check", "--config", str(bad))
    assert rc == 2


def test_check_config_file_round_trip(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    assert rc == 0
    jsonschema.validate(json.loads(out), CONFIG_SCHEMA)
    path = tmp_path / "quintic.json"
    path.write_text(out)
    rc, out2, _ = run(capsys, "check", "--config", str(path))
    assert rc == 0
    payload = json.loads(out2)
    assert payload["source"]["path"] == str(path)
    assert len(payload["source"]["sha256"]) == 64


def test_invariants_quintic_json(capsys):
    rc, out, _ = run(
        capsys,
        "invariants",
        "--family",
        "quintic",
        "--partition",
        "5",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    jsonschema.validate(payload, OUTPUT_SCHEMA)
    inv = payload["invariants"]
    assert (inv["euler"], inv["h11"], inv["h12"]) == (-200, 1, 101)
    assert (inv["h_cubed"], inv["h_dot_c2"]) == (5, 50)
    assert payload["normal_class_residual"][1] == [0]
    assert payload["input_normal_class_residual"] == [[5], [5], [5]]


def test_invariants_p2xp2_row(capsys):
    rc, out, _ = run(
        capsys,
        "invariants",
        "--family",
        "p2xp2",
        "--partition",
        "(1,0),(2,3)",
        "--format",
        "json",
    )
    assert rc == 0
    inv = json.loads(out)["invariants"]
    assert (inv["h11"], inv["h12"]) == (4, 61)


def test_invariants_order_changes_trace_only(capsys):
    rc, out1, _ = run(
        capsys,
        "invariants",
        "--family",
        "quintic",
        "--partition",
        "1,4",
        "--trace",
        "--format",
        "json",
    )
    rc2, out2, _ = run(
        capsys,
        "invariants",
        "--family",
        "quintic",
        "--partition",
        "1,4",
        "--order",
        "4,1",
        "--trace",
        "--format",
        "json",
    )
    assert rc == rc2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["invariants"] == p2["invariants"]
    assert p1["trace"]["steps"] != p2["trace"]["steps"]


def test_invariants_inadmissible_partition_exits_1(capsys):
    rc, _, err = run(
        capsys, "invariants", "--family", "quintic", "--partition", "1,1,1"
    )
    assert rc == 1  # parseable but inadmissible for the family degree
    assert "error" in err


def test_unparseable_partition_exits_2(capsys):
    rc, _, err = run(
        capsys, "invariants", "--family", "quintic", "--partition", "five"
    )
    assert rc == 2


def test_invariants_bad_order_rejected(capsys):
    rc, _, err = run(
        capsys,
        "invariants",
        "--family",
        "quintic",
        "--partition",
        "1,4",
        "--order",
        "2,3",
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--family", "quintic", "--partition", ""], "cannot parse partition '': empty"),
        (
            ["invariants", "--family", "quintic", "--partition", "1,4", "--order", ""],
            "cannot parse --order '': empty",
        ),
        (
            ["invariants", "--family", "quintic", "--partition", "1,4", "--order", "x"],
            "cannot parse --order 'x': invalid literal for int() with base 10: 'x'",
        ),
        (["invariants", "--family", "quintic", "--partition", ""], "cannot parse partition '': empty"),
        (
            ["invariants", "--family", "quintic", "--partition", " ", "--format", "json"],
            "cannot parse partition ' ': empty",
        ),
        (["check", "--family", "quintic", "--order", ""], "--order needs --partition"),
    ],
)
def test_empty_partition_or_order_is_a_parse_error(capsys, argv, message):
    """An empty value is given, not absent: it is refused, never read as the
    bare family or as no ordering."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", json.dumps({"error": message}) + "\n")


_NEGATIVE_PART = "cannot parse partition '-1,6': part (-1,) must be non-negative and nonzero"
_NEGATIVE_ORDER = "cannot parse --order '-4,1': part (-4,) must be non-negative and nonzero"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariants", "--family", "quintic", "--partition", "-1,6"], _NEGATIVE_PART),
        (["invariants", "--family", "quintic", "--partition=-1,6"], _NEGATIVE_PART),
        (["check", "--family", "quintic", "--partition", "-1,6", "--after-blowup"], _NEGATIVE_PART),
        (["invariants", "--family", "quintic", "--partition", "1,4", "--order", "-4,1"], _NEGATIVE_ORDER),
        (["check", "--family", "quintic", "--after-blowup", "--partition", "1,4", "--order", "-4,1"], _NEGATIVE_ORDER),
        (["invariants", "--family", "quintic", "--partition=1,4", "--order=-4,1"], _NEGATIVE_ORDER),
        # a flag is still no value, and a subcommand without the flag does not take it
        (["invariants", "--family", "quintic", "--partition", "--order", "1"], "argument --partition: expected one argument"),
        (["invariants", "--family", "quintic", "--partition", "-x"], "argument --partition: expected one argument"),
        (["table", "--family", "quintic", "--partition", "-1,6"], "unrecognized arguments: --partition -1,6"),
    ],
)
def test_a_value_with_a_leading_minus_is_parsed_not_taken_for_a_flag(capsys, argv, message):
    """``--partition -1,6`` is refused as ``--partition=-1,6`` is, by the
    partition parser, and ``--order -4,1`` likewise."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", json.dumps({"error": message}) + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--family", "quintic", "--partition", "1,4"],
        ["check", "--family", "quintic", "--partition", "5"],
        ["check", "--family", "quintic", "--partition", "1,4", "--order", "4,1"],
        ["check", "--family", "p2xp2", "--partition", "(1,0),(2,3)"],
        # refused before the partition meets the family: no degree message
        ["check", "--family", "quintic", "--partition", "9"],
    ],
)
def test_check_refuses_partition_without_after_blowup(monkeypatch, capsys, argv):
    """Before the blow-up no partition changes the configuration, so a
    partition without ``--after-blowup`` is refused before it is built."""

    def fail(*args, **kwargs):
        raise AssertionError("configuration built")

    monkeypatch.setattr(catalog, "instantiate", fail)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", json.dumps({"error": "--partition needs --after-blowup"}) + "\n")


def test_a_partition_of_the_wrong_rank_is_refused_by_its_rank(capsys):
    rc, out, err = run(capsys, "invariants", "--family", "p2xp2", "--partition", "1,2")
    assert (rc, out, err) == (
        1, "", json.dumps({"error": "parts of (1,2) do not match family rank 2"}) + "\n"
    )


@pytest.mark.parametrize("source", [["--family", "quintic", "--partition", "1,4"], ["--config", "-"]])
def test_invariants_refuses_trace_with_csv_before_computing(monkeypatch, capsys, source):
    """The CSV columns are fixed, so a trace would be dropped without a word."""

    def fail(*args, **kwargs):
        raise AssertionError("computed before the refusal")

    monkeypatch.setattr(catalog, "instantiate", fail)
    rc, out, err = run(capsys, "invariants", *source, "--format", "csv", "--trace")
    expected = json.dumps({"error": "--trace needs --format text or json"}) + "\n"
    assert (rc, out, err) == (2, "", expected)


def test_invariants_text_format(capsys):
    rc, out, _ = run(capsys, "invariants", "--family", "quintic", "--partition", "5")
    assert rc == 0
    assert "euler = -200" in out
    assert "H^3   = 5" in out


def test_table_csv_contract(capsys):
    rc, out, _ = run(capsys, "table", "--family", "p2xp2", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "partition", "h11", "h12", "euler", "star"]
    assert len(rows) == 32
    starred = [r for r in rows[1:] if r[5] == "*"]
    assert len(starred) == 5


def test_table_text_and_row_count(capsys):
    rc, out, _ = run(capsys, "table", "--family", "cubic4fold-111")
    assert rc == 0
    assert len([l for l in out.splitlines() if l.strip()]) == 2 + 3


def test_table_text_puts_two_spaces_after_the_longest_partition(capsys):
    """The partition column is two wider than the longest partition, and
    h11, h12 and euler are right-aligned in fields of 5, 5 and 8."""
    _, out, _ = run(capsys, "table", "--family", "p2xp2", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    _, text, _ = run(capsys, "table", "--family", "p2xp2")
    lines = text.splitlines()
    width = max(len(r["partition"]) for r in rows) + 2
    assert lines[1] == "partition".ljust(width) + "  h11  h12   euler  star"
    assert lines[2:] == [
        r["partition"].ljust(width) + r["h11"].rjust(5) + r["h12"].rjust(5) + r["euler"].rjust(8) + "  " + r["star"]
        for r in rows
    ]


@pytest.mark.parametrize(
    "argv, built",
    [(["catalog", "list"], "catalog"), (["check", "--help"], "check"), (["bogus"], None), ([], None)],
)
def test_main_builds_only_the_named_subcommands_parser(monkeypatch, capsys, argv, built):
    seen = []
    original = cli.build_parser

    def recording(subcommand=None):
        seen.append(subcommand)
        return original(subcommand)

    monkeypatch.setattr(cli, "build_parser", recording)
    try:
        main(argv)
    except SystemExit:
        pass
    assert seen == [built]


def test_table_deterministic(capsys):
    rc1, out1, _ = run(capsys, "table", "--family", "quintic", "--format", "json")
    rc2, out2, _ = run(capsys, "table", "--family", "quintic", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    jsonschema.validate(json.loads(out1), OUTPUT_SCHEMA)


def test_verify_all_63_rows(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "all")
    assert rc == 0
    assert "63/63 rows match" in out


def test_verify_single_family(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "gr25-section")
    assert rc == 0
    assert "3/3 rows match" in out


def test_verify_detects_injected_mismatch(capsys, monkeypatch):
    from nc3 import catalog

    rows = catalog.expected_table("gr25-section")
    broken = [
        catalog.TableRow(r.partition, r.h11, r.h12 + (1 if i == 0 else 0), r.star)
        for i, r in enumerate(rows)
    ]
    monkeypatch.setattr(
        catalog, "expected_table", lambda fam: broken if getattr(fam, "id", fam) == "gr25-section" else rows
    )
    rc, out, _ = run(capsys, "verify", "--family", "gr25-section")
    assert rc == 1
    assert "MISMATCH" in out


def _patch_reference(monkeypatch, fam_id, rows):
    """Make ``catalog.expected_table`` return ``rows`` for ``fam_id``."""
    original = catalog.expected_table
    monkeypatch.setattr(
        catalog,
        "expected_table",
        lambda fam: rows if getattr(fam, "id", fam) == fam_id else original(fam),
    )


def test_verify_mismatch_output_for_a_wrong_reference_pair(capsys, monkeypatch):
    rows = catalog.expected_table("gr25-section")
    broken = [catalog.TableRow(rows[0].partition, rows[0].h11, rows[0].h12 + 1, rows[0].star)]
    _patch_reference(monkeypatch, "gr25-section", broken + rows[1:])
    assert run(capsys, "verify", "--family", "gr25-section") == (
        1,
        "MISMATCH gr25-section 1,1,1: computed (5,35), expected (5,36)\n"
        "2/3 rows match\n",
        "",
    )


def test_verify_mismatch_output_for_a_row_that_raises(capsys, monkeypatch):
    from nc3 import invariants

    original = invariants.hodge

    def hodge(config, divisor, blowup=None):
        if divisor.alpha == 2:
            raise RuntimeError("row failed")
        return original(config, divisor, blowup)

    monkeypatch.setattr(invariants, "hodge", hodge)
    assert run(capsys, "verify", "--family", "gr25-section") == (
        1,
        "MISMATCH gr25-section 1,2: computed error: row failed, expected (3,48)\n"
        "2/3 rows match\n",
        "",
    )


def test_verify_counts_only_reference_rows_that_match(capsys, monkeypatch):
    """A partition missing from the reference table does not lower the count
    of matching reference rows."""
    rows = catalog.expected_table("gr25-section")
    _patch_reference(monkeypatch, "gr25-section", [rows[0], rows[2]])
    assert run(capsys, "verify", "--family", "gr25-section") == (
        1,
        "MISMATCH gr25-section -: computed 3 partitions enumerated, expected 2 reference rows\n"
        "MISMATCH gr25-section 1,2: computed enumerated, expected absent from reference table\n"
        "2/2 rows match\n",
        "",
    )


def test_verify_does_not_count_a_reference_row_never_enumerated(capsys, monkeypatch):
    rows = catalog.expected_table("gr25-section")
    extra = catalog.TableRow(
        partition=catalog.PartitionSpec(parts=((1,),) * 4), h11=7, h12=30, star=False
    )
    _patch_reference(monkeypatch, "gr25-section", rows + [extra])
    assert run(capsys, "verify", "--family", "gr25-section") == (
        1,
        "MISMATCH gr25-section -: computed 3 partitions enumerated, expected 4 reference rows\n"
        "3/4 rows match\n",
        "",
    )


def test_catalog_list(capsys):
    rc, out, _ = run(capsys, "catalog", "list")
    assert rc == 0
    assert len(out.strip().splitlines()) == 7
    assert "quintic" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--family", "quintic"), "--family needs catalog export"),
        (("--family", ""), "--family needs catalog export"),
        (("--expected",), "--expected needs catalog export"),
        (("--expected", "--family", "quintic"), "--family needs catalog export"),
    ],
)
def test_catalog_list_refuses_export_flags(tmp_path, capsys, flags, message):
    """``list`` cannot narrow its families: an export flag is one JSON error
    line and exit 2, with nothing printed or written first."""
    target = tmp_path / "list.txt"
    rc, out, err = run(capsys, "catalog", "list", *flags, "--out", str(target))
    assert (rc, out) == (2, "")
    assert [json.loads(line)["error"] for line in err.splitlines()] == [message]
    assert not target.exists()


def test_catalog_list_keeps_out(tmp_path, capsys):
    target = tmp_path / "list.txt"
    rc, out, _ = run(capsys, "catalog", "list")
    assert rc == 0
    assert run(capsys, "catalog", "list", "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


def test_catalog_expected_csv(capsys):
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic", "--expected")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "h11", "h12", "star"]
    assert ["5", "1", "101", ""] in rows
    assert ["2,3", "3", "61", "*"] in rows


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "row.json"
    rc, out, _ = run(
        capsys,
        "invariants",
        "--family",
        "quintic",
        "--partition",
        "5",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["invariants"]["euler"] == -200


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "list"),
        ("table", "--family", "quintic"),
        ("check", "--family", "quintic"),
        ("invariants", "--config", None),
    ],
    ids=["catalog-list", "table", "check", "invariants-failing-validation"],
)
def test_out_to_unwritable_path_exits_2(tmp_path, capsys, argv):
    """An --out that cannot be opened is one error line and exit 2, also where
    the command would have exited 1 with a payload."""
    argv = [str(_h2_contradicting_file(tmp_path)) if a is None else a for a in argv]
    target = tmp_path / "missing-dir" / "out.txt"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert (rc, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"].startswith(f"cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("rank", [2**62, 2**63])
def test_default_ample_is_sized_from_labels(tmp_path, capsys, rank):
    """Without an `ample` entry the default class has one entry per label, so a
    huge h2_rank is the rank/labels schema error, not an allocation."""
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    data = json.loads(out)
    del data["components"][0]["ample"]
    data["components"][0]["h2_rank"] = rank
    path = tmp_path / "huge-rank.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "check", "--config", str(path))
    assert (rc, out) == (2, "")
    assert err == json.dumps(
        {"error": f"schema error in {path}: component Y1: 1 labels for rank {rank}"}
    ) + "\n"


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_deeply_nested_config_exits_2(tmp_path, capsys, command):
    """Nesting deeper than the JSON parser can follow is invalid JSON, not a
    RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    rc, out, err = run(capsys, command, "--config", str(path))
    assert (rc, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"].startswith(f"schema error in {path}: invalid JSON: ")


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    """An integer literal longer than Python's 4,300-digit conversion limit is
    a schema error with one JSON line, not a ValueError traceback."""
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    text = out.replace('"euler": -6', '"euler": -' + "9" * 5001, 1)
    assert text != out
    path = tmp_path / "huge-literal.json"
    path.write_text(text)
    rc, out, err = run(capsys, command, "--config", str(path))
    assert (rc, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"].startswith(f"schema error in {path}: invalid JSON: ")


def test_a_python_without_a_digit_limit_reads_a_file_and_restores_nothing(monkeypatch, capsys, blown_up_export):
    """Before 3.10.7 Python has no integer digit limit and no functions to
    read or set one: a command that reads a file runs as on a later Python."""
    expected = run(capsys, "invariants", "--config", blown_up_export, "--format", "json")
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(capsys, "invariants", "--config", blown_up_export, "--format", "json") == expected


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_products_past_the_digit_limit_are_reported_and_the_limit_returns(tmp_path, capsys, command):
    """Entries within the 4,300-digit limit are read, but their products can
    pass it.  With a 2,501-digit ample class on Y1 and 2,501-digit Y1
    restriction entries, ample matching fails with values of about 5,000
    digits: the command reports it and exits 1.  The limit is back in force
    afterwards: a 4,301-digit literal read next is still a schema error."""
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    data = json.loads(out)
    big = 10**2500 + 7
    [y1] = [c for c in data["components"] if c["name"] == "Y1"]
    y1["ample"] = [big] * len(y1["ample"])
    for surface in data["surfaces"]:
        if "Y1" in surface["restrictions"]:
            surface["restrictions"]["Y1"] = [[big] * len(r) for r in surface["restrictions"]["Y1"]]
    path = tmp_path / "big-entries.json"
    path.write_text(json.dumps(data))
    limit = sys.get_int_max_str_digits()

    rc, out, err = run(capsys, command, "--config", str(path))
    assert rc == 1
    errors = [d for d in json.loads(out)["diagnostics"] if d["severity"] == "error"]
    assert {d["clause"] for d in errors} == {"C3.1(3)"}
    # big**2 = 10**5000 + 14 * 10**2500 + 49, written out without str(), which
    # the limit refuses here.
    assert "1" + "0" * 2498 + "14" + "0" * 2498 + "49" in errors[0]["message"]
    assert len(err.splitlines()) == (command == "invariants")
    assert sys.get_int_max_str_digits() == limit

    text = json.dumps(data)
    huge = tmp_path / "huge-literal.json"
    huge.write_text(text.replace('"euler": -6', '"euler": -' + "9" * 4301, 1))
    assert huge.read_text() != text
    rc, out, err = run(capsys, command, "--config", str(huge))
    assert (rc, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"].startswith(f"schema error in {huge}: invalid JSON: ")


def test_parse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--format", "yaml", "--family", "quintic"])
    assert exc.value.code == 2


def test_missing_source_is_parse_error(capsys):
    rc, _, err = run(capsys, "invariants", "--partition", "5")
    assert rc == 2


def test_invariants_from_semistable_config_file(tmp_path, capsys):
    from nc3 import catalog, construction, ncconfig

    spec = catalog.PartitionSpec(parts=((5,),))
    config, divisor = catalog.instantiate("quintic", spec)
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    path = tmp_path / "blown.json"
    path.write_text(ncconfig.config_to_json(config_tilde))
    rc, out, _ = run(capsys, "invariants", "--config", str(path), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    inv = payload["invariants"]
    assert (inv["euler"], inv["h11"], inv["h12"]) == (-200, 1, 101)
    assert inv["methods"]["h11"] == ["kernel"]
    assert payload["normal_class_residual"][1] == [0]


def test_invariants_config_file_refuses_non_semistable(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "export", "--family", "quintic")
    path = tmp_path / "raw.json"
    path.write_text(out)
    rc, out, err = run(capsys, "invariants", "--config", str(path))
    assert (rc, out) == (1, "")
    assert err == json.dumps(
        {"error": "configuration is not d-semistable; normal-class residual [[5], [5], [5]]"}
    ) + "\n"


def _wide_restriction_file(tmp_path, lattice_is_full):
    """The blown-up quintic (5) export with D1's restriction from Y2 one column too wide."""
    from nc3 import catalog, construction, ncconfig

    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    data = ncconfig.config_to_dict(config_tilde)
    assert data["lattice_is_full"] is True
    assert data["h2_total"] == 3
    assert [c["h2_rank"] for c in data["components"]] == [3, 2, 1]
    assert len(data["surfaces"][0]["gram"]) == 1
    for row in data["surfaces"][0]["restrictions"]["Y2"]:
        row.append(0)
    data["lattice_is_full"] = lattice_is_full
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["check", "invariants"])
def test_invariants_config_shape_mismatch_exits_2(tmp_path, capsys, command):
    """A restriction of the wrong width breaks a record invariant: a schema
    error (exit 2) naming the surface, the component and the expected shape,
    the same for `check` and `invariants`, with no traceback."""
    path = _wide_restriction_file(tmp_path, lattice_is_full=True)
    rc, out, err = run(capsys, command, "--config", str(path))
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        json.dumps(
            {"error": f"schema error in {path}: surface D1: restriction from Y2 must be 1x2"}
        )
    ]


def test_invariants_config_shape_mismatch_partial_lattice_exits_2(tmp_path, capsys):
    """Without complete lattices h11 would come from h2_total, and a restriction
    of the wrong width is still refused before any invariant: exit 2, as
    `check --config` does."""
    path = _wide_restriction_file(tmp_path, lattice_is_full=False)
    outcomes = [run(capsys, c, "--config", str(path)) for c in ("invariants", "check")]
    expected = json.dumps(
        {"error": f"schema error in {path}: surface D1: restriction from Y2 must be 1x2"}
    )
    assert outcomes == [(2, "", expected + "\n")] * 2


def _h2_contradicting_file(tmp_path):
    """The blown-up quintic (5) export with h2_total 4 against kernel dimension 3."""
    from nc3 import catalog, construction, ncconfig

    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    data = ncconfig.config_to_dict(config_tilde)
    assert data["lattice_is_full"] is True
    assert data["h2_total"] == 3
    data["h2_total"] = 4
    path = tmp_path / "h2-contradicts.json"
    path.write_text(json.dumps(data))
    return path


def test_invariants_config_refuses_h2_total_contradicting_kernel(tmp_path, capsys):
    """With complete lattices a declared h2_total must match the kernel; a file
    where it does not fails validation, and `invariants --config` refuses it
    with exit 1 and the diagnostics `check --config` reports."""
    path = _h2_contradicting_file(tmp_path)
    rc, out, err = run(capsys, "check", "--config", str(path))
    assert rc == 1
    assert err == ""
    checked = json.loads(out)["diagnostics"]
    assert [d["clause"] for d in checked if d["severity"] == "error"] == ["h2-total"]
    assert any(
        d["clause"] == "h2-total" and "h2_total 4" in d["message"] and "kernel dimension 3" in d["message"]
        for d in checked
    )
    rc, out, err = run(capsys, "invariants", "--config", str(path))
    assert rc == 1
    assert err.splitlines() == [json.dumps({"error": "configuration fails validation"})]
    payload = json.loads(out)
    jsonschema.validate(payload, OUTPUT_SCHEMA)
    assert "invariants" not in payload
    assert payload["diagnostics"] == checked


def test_invariants_csv_star_column(capsys):
    rc, out, _ = run(
        capsys,
        "invariants",
        "--family",
        "quintic",
        "--partition",
        "2,3",
        "--format",
        "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["quintic", "2,3", "3", "61", "-116", "*"]


@pytest.mark.parametrize("reverse_order", [False, True], ids=["canonical", "reversed-order"])
def test_invariants_csv_star_matches_the_reference_for_every_row(capsys, reverse_order):
    stars = {}
    for fam_id in catalog.family_ids():
        for ref in catalog.expected_table(fam_id):
            text = ref.partition.cli_form()
            argv = ["invariants", "--family", fam_id, "--partition", text, "--format", "csv"]
            if reverse_order:
                reversed_spec = catalog.PartitionSpec(parts=ref.partition.parts[::-1])
                argv += ["--order", reversed_spec.cli_form()]
            rc, out, _ = run(capsys, *argv)
            assert rc == 0, argv
            (row,) = csv.DictReader(io.StringIO(out))
            stars[fam_id, text] = (row["star"], "*" if ref.star else "")
    assert len(stars) == 63
    assert all(got == want for got, want in stars.values())


def test_partition_parser_tolerates_spaces(capsys):
    rc, out, _ = run(
        capsys,
        "invariants",
        "--family",
        "p2xp2",
        "--partition",
        " (1, 0) , (2, 3) ",
        "--format",
        "json",
    )
    assert rc == 0
    assert json.loads(out)["invariants"]["h11"] == 4


def test_partition_parser_rejects_stray_tokens(capsys):
    rc, _, err = run(
        capsys, "invariants", "--family", "p2xp2", "--partition", "(1,0)x(2,3)"
    )
    assert rc == 2


def test_check_and_invariants_outputs_byte_identical(capsys):
    for argv in (
        ["check", "--family", "quintic"],
        ["invariants", "--family", "quintic", "--partition", "1,4", "--format", "json"],
        ["catalog", "export", "--family", "p2xp2"],
    ):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


@pytest.fixture(scope="module")
def blown_up_export(tmp_path_factory):
    """The blown-up quintic (1,4) configuration, exported to a file."""
    from nc3 import construction, ncconfig

    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((1,), (4,))))
    path = tmp_path_factory.mktemp("export") / "quintic-1-4.json"
    path.write_text(ncconfig.config_to_json(construction.sequential_blowup(config, divisor)[0]))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["table"],
        ["table", "--family", "quintic", "--format", "xml"],
        ["invariants", "--family", "quintic", "--partition", "--order", "1"],
    ],
)
def test_argument_errors_are_one_json_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    [line] = captured.err.splitlines()
    assert set(json.loads(line)) == {"error"}


def test_help_goes_to_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "-h"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert captured.out.startswith("usage: nc3 table")


# (argv, exit code, SHA-256 of stdout, stderr), taken at an 80-column width
# while every call still built the parsers of all five subcommands.
ARGUMENT_PARSER_OUTPUTS = [
    ((), 2, "", '{"error": "the following arguments are required: subcommand"}\n'),
    (("--help",), 0, "9d201ad7aa24914d7fbab5db781ee33ba0cf1f2e7e56a8f6888113455c7b6bdd", ""),
    (("check", "--help"), 0, "7c73a5664c36e31f91a56c36527a4074fcf30d8c5db3e602b02ce23547184a9d", ""),
    (("invariants", "--help"), 0, "ce05bff50b740b31ba1bd8e1faa1ea35d5f82c597babc5bb99915e543c2024f6", ""),
    (("table", "--help"), 0, "e267bcd311d2ece9369d0286133d60977246bf29b1255b4afd9e2b945171cc9d", ""),
    (("verify", "--help"), 0, "ff0736a46e5f7a8ceff4cf97bd5b0e7a46f526a8990f3f8c5d7bd24c7a0a4f98", ""),
    (("catalog", "--help"), 0, "398f28ae83ae8c062195fe85b1a9caeda5308c8f512f256a749bc7c8b2ec703d", ""),
    (
        ("bogus",),
        2,
        "",
        '{"error": "argument subcommand: invalid choice: \'bogus\' (choose from '
        "'check', 'invariants', 'table', 'verify', 'catalog')\"}\n",
    ),
    (("verify", "--bogus"), 2, "", '{"error": "unrecognized arguments: --bogus"}\n'),
    (("table",), 2, "", '{"error": "the following arguments are required: --family"}\n'),
]


@pytest.mark.parametrize("argv, code, stdout_digest, stderr", ARGUMENT_PARSER_OUTPUTS)
def test_parser_of_one_subcommand_prints_what_all_five_printed(
    monkeypatch, capsys, argv, code, stdout_digest, stderr
):
    """A call builds only the parser of the subcommand it names, and the top
    level still lists all five with their help lines: help, usage and
    argument errors are byte-identical to those of the parser with every
    subcommand built."""
    import hashlib

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest() if captured.out else ""
    assert (exc.value.code, digest, captured.err) == (code, stdout_digest, stderr)


@pytest.mark.parametrize(
    "flags,message",
    [(["--trace"], "--trace needs --family"), (["--order", "1,4"], "--order needs --partition")],
)
def test_invariants_config_refuses_family_only_flags(capsys, blown_up_export, flags, message):
    rc, out, err = run(capsys, "invariants", "--config", blown_up_export, *flags)
    assert (rc, out, err) == (2, "", json.dumps({"error": message}) + "\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["invariants", "--partition", "5"], "--partition needs --family"),
        (["invariants", "--partition", "5", "--trace"], "--partition needs --family"),
        (["invariants", "--trace"], "--trace needs --family"),
        (["check", "--partition", "5"], "--partition needs --family"),
        (["check", "--after-blowup"], "--after-blowup needs --family with --partition"),
    ],
)
def test_config_flag_refusals_do_not_read_the_file(tmp_path, capsys, argv, message):
    """A flag that ``--config`` cannot take is refused before the file is
    opened, so the refusal is the same for a missing file as for a valid one."""
    missing = str(tmp_path / "missing.json")
    rc, out, err = run(capsys, argv[0], "--config", missing, *argv[1:])
    assert (rc, out, err) == (2, "", json.dumps({"error": message}) + "\n")


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


UNKNOWN_KEY_CASES = {
    "configuration": (
        lambda d: _rename(d, "lattice_is_full", "lattice_is_ful"),
        "configuration: unknown key 'lattice_is_ful'",
    ),
    "component": (
        lambda d: _rename(d["components"][0], "ample", "amplee"),
        "component Y1: unknown key 'amplee'",
    ),
    "surface": (
        lambda d: _rename(d["surfaces"][2], "basis_labels", "basis_label"),
        "surface D3: unknown key 'basis_label'",
    ),
    # Of several unknown keys the first in sorted order is named.
    "triple": (lambda d: d["triple"].update(genus=1, degree=0), "triple: unknown key 'degree'"),
}


@pytest.mark.parametrize("command", ["check", "invariants"])
@pytest.mark.parametrize("level", sorted(UNKNOWN_KEY_CASES))
def test_unknown_key_is_a_schema_error(tmp_path, capsys, blown_up_export, command, level):
    """The schema sets additionalProperties false on every object, so a
    misspelt key is refused instead of silently taking a default."""
    mutate, message = UNKNOWN_KEY_CASES[level]
    data = json.loads(pathlib.Path(blown_up_export).read_text())
    mutate(data)
    path = tmp_path / "unknown-key.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, command, "--config", str(path))
    assert (rc, out) == (2, "")
    assert err == json.dumps({"error": f"schema error in {path}: {message}"}) + "\n"


def test_reader_accepts_exactly_the_schema_properties():
    from nc3 import configfile

    levels = CONFIG_SCHEMA["properties"]
    objects = [
        (configfile._CONFIG_KEYS, CONFIG_SCHEMA),
        (configfile._COMPONENT_KEYS, levels["components"]["items"]),
        (configfile._SURFACE_KEYS, levels["surfaces"]["items"]),
        (configfile._TRIPLE_KEYS, levels["triple"]),
    ]
    for keys, schema in objects:
        assert schema["additionalProperties"] is False
        assert keys == set(schema["properties"])


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nc3.cli", "verify"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


_FAMILIES = catalog.family_ids()
_PARTITION_TEXT = st.one_of(
    st.sampled_from(["5", "1,4", "2,3", "1,1,3", "0,5", "-1,6", "1,,4", " 1 , 4 ", "(1,0),(0,1)",
                     "(1,1),(1,1),(1,1)", "(1,4", "--trace", "-", ""]),
    st.text(alphabet="0123456789-,() x", max_size=12),
)
_FLAG_WITH_VALUE = st.tuples(
    st.sampled_from(["--family", "--config", "--partition", "--order", "--format"]),
    st.one_of(st.sampled_from(_FAMILIES + ("nope", "json", "csv", "text", "xml")), _PARTITION_TEXT),
).map(list)
_BARE = st.sampled_from(["--trace", "--after-blowup", "--expected", "list", "export", "--bogus"]).map(
    lambda flag: [flag]
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sub=st.sampled_from(["check", "invariants", "table", "verify", "catalog", "bogus"]),
    family=st.sampled_from(_FAMILIES),
    chunks=st.lists(st.one_of(_FLAG_WITH_VALUE, _BARE), max_size=5),
    use_export=st.booleans(),
)
def test_argv_fuzz_exits_0_1_or_2_with_at_most_one_json_error_line(
    capsys, blown_up_export, sub, family, chunks, use_export
):
    # verify names one family first, so that no draw verifies all of them.
    argv = [sub] + (["--family", family] if sub == "verify" else [])
    for chunk in chunks:
        if use_export and chunk[0] == "--config":
            chunk = ["--config", blown_up_export]
        argv += chunk
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    lines = err.splitlines()
    assert len(lines) <= 1, (argv, err)
    for line in lines:
        assert set(json.loads(line)) == {"error"}, (argv, line)
