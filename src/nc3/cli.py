"""Command-line front end.

Subcommands:

* ``check``       validate a configuration and report d-semistability;
* ``invariants``  smoothing invariants for one (family, partition);
* ``table``       invariants for every partition of a family;
* ``verify``      diff computed tables against the embedded reference rows;
* ``catalog``     list families, export configurations and reference tables.

Exit codes: 0 success, 1 validation/verification failure or inadmissible
input or a closed stdout, 2 parse or schema errors.  Payloads go to stdout
and are deterministic (stable ordering, no timestamps); diagnostics for
failures, argument errors included, go to stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NoReturn, Sequence

if TYPE_CHECKING:
    from . import catalog, construction, ncconfig

OUTPUT_FORMAT_VERSION = "nc3-output/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2

TABLE_COLUMNS = ["family", "partition", "h11", "h12", "euler", "star"]


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _emit(payload: dict[str, Any], args: argparse.Namespace) -> None:
    from . import ncconfig
    _emit_text(ncconfig.dumps(payload), args)


def _emit_text(text: str, args: argparse.Namespace) -> None:
    out = args.out
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}", EXIT_PARSE)
    else:
        print(text)


def _emit_csv(columns: list[str], rows: Iterable[dict[str, Any]], args: argparse.Namespace) -> None:
    """A header line, then each row's values under ``columns``; ``star`` is ``*`` or empty."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for r in rows:
        writer.writerow([("*" if r[c] else "") if c == "star" else r[c] for c in columns])
    _emit_text(buf.getvalue().rstrip("\n"), args)


def _error_record(message: str) -> str:
    import json
    return json.dumps({"error": message})


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports an argument error as one JSON line on stderr, exit code 2.

    ``add_subparsers`` builds the subcommand parsers with the same class.
    """

    def error(self, message: str) -> NoReturn:
        print(_error_record(message), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _parse_partition(text: str) -> catalog.PartitionSpec:
    """Parse ``5``, ``1,4`` or ``(1,0),(2,3)`` into a partition."""
    from . import catalog
    s = text.strip()
    try:
        if "(" in s:
            if not re.fullmatch(r"\s*\([^()]*\)(\s*,\s*\([^()]*\))*\s*", s):
                raise ValueError("expected comma-separated parenthesized pairs")
            parts = tuple(
                tuple(int(x.strip()) for x in group.split(","))
                for group in re.findall(r"\(([^()]*)\)", s)
            )
            return catalog.PartitionSpec(parts=parts)
        nums = tuple(int(x.strip()) for x in s.split(","))
        return catalog.PartitionSpec(parts=tuple((a,) for a in nums))
    except (ValueError, catalog.PartitionError) as exc:
        raise CliError(f"cannot parse partition {text!r}: {exc}", EXIT_PARSE)


def _load_config_file(path: str) -> tuple[ncconfig.NCConfiguration, dict[str, Any]]:
    import hashlib
    from . import ncconfig
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        config = ncconfig.config_from_json(raw.decode("utf-8"))
    except (ncconfig.SchemaError, UnicodeDecodeError) as exc:
        raise CliError(f"schema error in {path}: {exc}", EXIT_PARSE)
    # The file was read under Python's integer digit limit, so a longer
    # literal is a schema error and every entry has at most that many
    # digits.  Products of entries can have more, and diagnostics and
    # payloads print them: from here on any integer prints.  ``main``
    # restores the limit.  (Python before 3.10.7 has no limit.)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    return config, {"path": path, "sha256": digest}


_AFTER_BLOWUP_NEEDS = "--after-blowup needs --family with --partition"


def _resolve_source(
    args: argparse.Namespace,
) -> tuple[
    ncconfig.NCConfiguration, construction.CollectiveDivisor | None, dict[str, Any], tuple | None
]:
    """Configuration (+ divisor and canonical parts when a catalog partition
    is given) from flags."""
    if args.family and args.config:
        raise CliError("give either --family or --config, not both", EXIT_PARSE)
    if args.order and not args.partition:
        raise CliError("--order needs --partition", EXIT_PARSE)
    if args.config:
        # Flags are refused before the file is read, whatever it holds.
        if args.partition:
            raise CliError("--partition needs --family", EXIT_PARSE)
        if getattr(args, "trace", False):
            raise CliError("--trace needs --family", EXIT_PARSE)
        if getattr(args, "after_blowup", False):
            raise CliError(_AFTER_BLOWUP_NEEDS, EXIT_PARSE)
        config, provenance = _load_config_file(args.config)
        return config, None, provenance, None
    if not args.family:
        raise CliError("one of --family or --config is required", EXIT_PARSE)
    from . import catalog
    fam = catalog.get_family(args.family)
    provenance = {"catalog": fam.id}
    if not args.partition:
        # Degree-one placeholder not meaningful: check-style commands on raw
        # family configurations use the trivial instantiation below.
        spec = catalog.PartitionSpec(parts=(fam.total_degree,))
        config, divisor = catalog.instantiate(fam, spec)
        return config, None, provenance, None
    spec = _parse_partition(args.partition).canonical()
    parts = spec.parts
    if args.order:
        ordered = _parse_partition(args.order)
        if ordered.canonical().parts != parts:
            raise CliError(
                f"--order {args.order!r} is not an ordering of partition "
                f"{spec.display()}",
                EXIT_PARSE,
            )
        spec = ordered
    # a partition that parsed but is inadmissible here is a PartitionError: exit 1
    config, divisor = catalog.instantiate(fam, spec)
    provenance["partition"] = spec.cli_form()
    return config, divisor, provenance, parts


def _base_record(command: str, provenance: dict[str, Any]) -> dict[str, Any]:
    return {
        "format_version": OUTPUT_FORMAT_VERSION,
        "command": command,
        "source": provenance,
    }


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    from . import degeneration, ncconfig
    config, divisor, provenance, _ = _resolve_source(args)
    record = _base_record("check", provenance)
    if args.after_blowup:
        if divisor is None:
            raise CliError(_AFTER_BLOWUP_NEEDS, EXIT_PARSE)
        from . import construction
        try:
            config, _ = construction.sequential_blowup(config, divisor)
        except construction.AdmissibilityError as exc:
            record["diagnostics"] = [d.as_dict() for d in exc.diagnostics]
            _emit(record, args)
            return EXIT_FAIL
    diagnostics = ncconfig.validate(config)
    ok, residual = degeneration.is_d_semistable(config)
    record["diagnostics"] = [d.as_dict() for d in diagnostics]
    record["d_semistable"] = ok
    record["normal_class_residual"] = residual.as_lists()
    _emit(record, args)
    return EXIT_OK if not ncconfig.has_errors(diagnostics) else EXIT_FAIL


# ---------------------------------------------------------------------------
# invariants


def _invariants_record(
    config: ncconfig.NCConfiguration,
    divisor: construction.CollectiveDivisor | None,
    want_trace: bool,
) -> dict[str, Any]:
    from . import construction, degeneration, invariants
    out: dict[str, Any] = {}
    if divisor is None:
        # Configuration-file route: the file must already be d-semistable.
        inv = invariants.smoothing_invariants(config)
    else:
        _, pre_residual = degeneration.is_d_semistable(config)
        blowup = construction.sequential_blowup(config, divisor)
        inv = invariants.hodge(config, divisor, blowup=blowup)
        out["input_normal_class_residual"] = pre_residual.as_lists()
        config, trace = blowup
        if want_trace:
            out["trace"] = trace.as_dict()
    # Residual of the configuration that is smoothed: the file or the blow-up.
    _, residual = degeneration.is_d_semistable(config)
    out["invariants"] = inv.as_dict()
    out["normal_class_residual"] = residual.as_lists()
    return out


def cmd_invariants(args: argparse.Namespace) -> int:
    from . import construction, ncconfig
    config, divisor, provenance, parts = _resolve_source(args)
    if args.family and divisor is None:
        raise CliError("invariants needs --partition with --family", EXIT_PARSE)
    record = _base_record("invariants", provenance)
    try:
        record.update(_invariants_record(config, divisor, args.trace))
    except (construction.AdmissibilityError, ncconfig.InvalidConfiguration) as exc:
        record["diagnostics"] = [d.as_dict() for d in exc.diagnostics]
        summary = (
            "inadmissible collective divisor"
            if isinstance(exc, construction.AdmissibilityError)
            else str(exc)
        )
        # The payload first: an --out that cannot be written is then the
        # only error line.
        _emit(record, args)
        print(_error_record(summary), file=sys.stderr)
        return EXIT_FAIL

    if args.format == "json":
        _emit(record, args)
    elif args.format == "csv":
        partition = provenance.get("partition")
        row = {**record["invariants"], "family": args.family or "-", "partition": partition or "-"}
        reference = _reference_rows(args.family).get(parts) if parts else None
        row["star"] = reference is not None and reference.star
        _emit_csv(TABLE_COLUMNS, [row], args)
    else:
        import json
        inv = record["invariants"]
        lines = [
            f"source: {json.dumps(provenance, sort_keys=True)}",
            f"euler = {inv['euler']}",
            f"h11   = {inv['h11']}",
            f"h12   = {inv['h12']}",
        ]
        if "h_cubed" in inv:
            lines.append(f"H^3   = {inv['h_cubed']}")
            lines.append(f"H.c2  = {inv['h_dot_c2']}")
        if "trace" in record:
            lines.append("trace:")
            for s in record["trace"]["steps"]:
                lines.append(
                    f"  blow up {s['component']} along {s['center']} on {s['surface']}"
                    f" (degree {s['degree']}, euler {s['euler']})"
                )
        _emit_text("\n".join(lines), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table / verify


def _reference_rows(fam: catalog.Family | str) -> dict[tuple, catalog.TableRow]:
    """The reference table of ``fam``, keyed by canonical partition parts."""
    from . import catalog
    return {r.partition.parts: r for r in catalog.expected_table(fam)}


def _family_rows(fam: catalog.Family) -> Iterator[tuple[Any, Any, Any]]:
    """Each enumerated partition of ``fam``, its reference row (``None`` if
    the reference table lacks it), and ``hodge``'s result or the exception
    that building or computing the row raised."""
    from . import catalog, invariants
    expected = _reference_rows(fam)
    for spec in catalog.enumerate_partitions(fam):
        try:
            result = invariants.hodge(*catalog.instantiate(fam, spec))
        except Exception as exc:  # verify counts a failing row as a mismatch
            result = exc
        yield spec, expected.get(spec.parts), result


def cmd_table(args: argparse.Namespace) -> int:
    from . import catalog
    fam = catalog.get_family(args.family)
    rows = []
    for spec, exp, inv in _family_rows(fam):
        if isinstance(inv, Exception):
            raise inv
        rows.append(
            {
                "family": fam.id,
                "partition": spec.cli_form(),
                "h11": inv.h11,
                "h12": inv.h12,
                "euler": inv.euler,
                "star": bool(exp.star) if exp else False,
            }
        )
    if args.format == "json":
        _emit(
            {
                "format_version": OUTPUT_FORMAT_VERSION,
                "command": "table",
                "source": {"catalog": fam.id},
                "rows": rows,
            },
            args,
        )
    elif args.format == "csv":
        _emit_csv(TABLE_COLUMNS, rows, args)
    else:
        width = max(len(r["partition"]) for r in rows) + 2
        lines = [f"family {fam.id}: {fam.description}"]
        lines.append(f"{'partition':<{width}}{'h11':>5}{'h12':>5}{'euler':>8}  star")
        for r in rows:
            lines.append(
                f"{r['partition']:<{width}}{r['h11']:>5}{r['h12']:>5}{r['euler']:>8}"
                f"  {'*' if r['star'] else ''}"
            )
        _emit_text("\n".join(lines), args)
    return EXIT_OK


def verify_family(fam: catalog.Family) -> tuple[int, int, list[str]]:
    """Compare computed rows against the reference table.

    Returns (matches, total, MISMATCH lines): ``total`` counts the reference
    rows and ``matches`` those whose computed pair equals the reference
    pair.  A row that raises is a mismatch.
    """
    reference = _reference_rows(fam).keys()
    rows = list(_family_rows(fam))
    lines = []
    if {spec.parts for spec, _, _ in rows} != reference:
        lines.append(
            f"MISMATCH {fam.id} -: computed {len(rows)} partitions enumerated, "
            f"expected {len(reference)} reference rows"
        )
    matches = 0
    for spec, exp, inv in rows:
        if exp is None:
            computed, wanted = "enumerated", "absent from reference table"
        else:
            wanted = f"({exp.h11},{exp.h12})"
            computed = f"error: {inv}" if isinstance(inv, Exception) else f"({inv.h11},{inv.h12})"
            if computed == wanted:
                matches += 1
                continue
        lines.append(f"MISMATCH {fam.id} {spec.cli_form()}: computed {computed}, expected {wanted}")
    return matches, len(reference), lines


def cmd_verify(args: argparse.Namespace) -> int:
    from . import catalog
    ids = catalog.family_ids() if args.family == "all" else (args.family,)
    results = [verify_family(catalog.get_family(f)) for f in ids]
    lines = [line for _, _, mismatches in results for line in mismatches]
    matched = sum(r[0] for r in results)
    total = sum(r[1] for r in results)
    print(*lines, f"{matched}/{total} rows match", sep="\n")
    return EXIT_OK if not lines else EXIT_FAIL


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args: argparse.Namespace) -> int:
    from . import catalog, ncconfig
    if args.action == "list":
        lines = []
        for fam_id in catalog.family_ids():
            fam = catalog.get_family(fam_id)
            n_rows = len(catalog.expected_table(fam))
            lines.append(f"{fam_id:<20} {n_rows:>3} partitions  {fam.description}")
        _emit_text("\n".join(lines), args)
        return EXIT_OK
    # export
    if not args.family:
        raise CliError("catalog export needs --family", EXIT_PARSE)
    fam = catalog.get_family(args.family)
    if args.expected:
        rows = catalog.expected_table(fam)
        _emit_csv(
            ["partition", "h11", "h12", "star"],
            ({**r.as_dict(), "partition": r.partition.cli_form()} for r in rows),
            args,
        )
    else:
        spec = catalog.PartitionSpec(parts=(fam.total_degree,))
        config, _ = catalog.instantiate(fam, spec)
        _emit_text(ncconfig.config_to_json(config), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _source_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="catalog family id")
    p.add_argument("--config", help="path to an ncconfig/1 JSON file")
    p.add_argument("--partition", help="e.g. 5 or 1,4 or (1,0),(2,3)")
    p.add_argument(
        "--order",
        help="ordering of the partition parts for the blow-up trace",
    )
    p.add_argument("--out", help="write the payload to a file")


def _check_arguments(p: argparse.ArgumentParser) -> None:
    _source_arguments(p)
    p.add_argument(
        "--after-blowup",
        action="store_true",
        help="materialize the blown-up configuration before checking",
    )
    p.set_defaults(fn=cmd_check)


def _invariants_arguments(p: argparse.ArgumentParser) -> None:
    _source_arguments(p)
    p.add_argument("--trace", action="store_true", help="include the blow-up trace")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(fn=cmd_invariants)


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="all", help="family id or 'all'")
    p.set_defaults(fn=cmd_verify)


def _catalog_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("--family")
    p.add_argument(
        "--expected",
        action="store_true",
        help="export the reference table as CSV instead of the configuration",
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_catalog)


# Each subcommand's help line and the function that adds its arguments, in
# the order ``nc3 --help`` lists them.
SUBCOMMANDS = {
    "check": ("validate and report d-semistability", _check_arguments),
    "invariants": ("smoothing invariants for one partition", _invariants_arguments),
    "table": ("invariants for every partition of a family", _table_arguments),
    "verify": ("diff computed tables against the reference", _verify_arguments),
    "catalog": ("list or export built-in families", _catalog_arguments),
}


@functools.cache
def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The ``nc3`` argument parser, built once per process and subcommand.

    Every subcommand is listed with its help line, but only the parser of
    ``subcommand`` is built: a call parses one subcommand's arguments.  With
    ``None`` every subcommand gets its parser.
    """
    parser = _JsonErrorParser(
        prog="nc3",
        description=(
            "exact invariants of smoothed three-component normal crossing "
            "Calabi-Yau threefolds"
        ),
    )
    sub = parser.add_subparsers(
        dest="subcommand", required=True, parser_class=_subcommand_parser
    )
    for name, (help_line, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line, parsed=subcommand in (None, name))
        if p is not None:
            add_arguments(p)
    return parser


def _subcommand_parser(*, parsed: bool, **kwargs: Any) -> _JsonErrorParser | None:
    """A subcommand's parser, or ``None`` for one that is listed but not parsed.

    Each ``ArgumentParser`` costs about half a millisecond to build, most of
    it looking up the translations of its messages.
    """
    return _JsonErrorParser(**kwargs) if parsed else None


# The library's errors that main() reports as one JSON line on stderr, with
# their exit codes; the first match wins.  They are looked up in sys.modules:
# a module that was never loaded raised none of them.
LIBRARY_ERRORS = (
    ("nc3.ncconfig", "SchemaError", EXIT_PARSE),
    ("nc3.ncconfig", "ConfigError", EXIT_FAIL),
    ("nc3.catalog", "UnknownFamily", EXIT_PARSE),
    ("nc3.catalog", "PartitionError", EXIT_FAIL),
    ("nc3.construction", "AdmissibilityError", EXIT_FAIL),
    ("nc3.invariants", "NotDSemistable", EXIT_FAIL),
    ("nc3.invariants", "PathDisagreement", EXIT_FAIL),
)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(name).parse_args(argv)
    # 0 when there is no limit to restore: none is set, or Python has none.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # interpreter exit cannot raise again (the recipe in Python's
        # ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        return args.fn(args)
    except CliError as exc:
        print(_error_record(str(exc)), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        for module, name, code in LIBRARY_ERRORS:
            if isinstance(exc, getattr(sys.modules.get(module), name, ())):
                print(_error_record(str(exc)), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
