"""One workload in a fresh interpreter: set-up, then a timed or a traced loop.

``run.py`` starts this file with ``PYTHONPATH=src`` and reads the one JSON
object it prints.  ``ready`` in that object is the ``time.monotonic()``
reading at the end of set-up; the parent subtracts the time at which it
started the process.

Modes:

* ``run``: time every operation, in whole passes over the inputs, for
  about ``--seconds``, timing ``speed``'s loop between operations;
* ``trace``: alternate untraced and traced passes for ``--seconds``.  A
  traced pass pushes each row through every layer: instantiate, hodge, a
  standalone admissibility check, then the round trip of its blown-up
  configuration.  Spans are written to ``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

import speed
import tracing
import workloads
from nc3 import catalog, construction, invariants
from workloads import ConfigItem, Row

WRONG_HODGE = "hodge differs from the reference"
WRONG_ROUNDTRIP = "round trip output is wrong"
VERIFY_REPS = 3


class Tally:
    """Operations attempted and failed; a failure is an exception or a wrong output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {what}")

    def fail(self, label: str, exc: Exception) -> None:
        self.record(label, False, f"{type(exc).__name__}: {exc}")


def setup(
    workload: str, seed: int, with_items: bool, tally: Tally
) -> tuple[list[Row], list[ConfigItem]]:
    """The workload's rows and, when asked, their blown-up configurations."""
    rows = workloads.ROWS[workload](random.Random(seed))
    items = []
    if with_items:
        for row in rows:
            try:
                item, ok = workloads.config_item(row)
            except Exception as exc:  # a failing row is counted, not fatal
                tally.fail(row.label, exc)
                continue
            tally.record(row.label, ok, WRONG_HODGE)
            items.append(item)
    return rows, items


class Operation(NamedTuple):
    """The timed operation of a workload, its output check and the failure text."""

    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    what: str


def operation(workload: str, path: Path) -> Operation:
    if workload == "roundtrip":
        return Operation(
            lambda item: workloads.roundtrip(item, path), workloads.roundtrip_ok, WRONG_ROUNDTRIP
        )
    return Operation(workloads.compute, workloads.hodge_ok, WRONG_HODGE)


def timed_pass(
    inputs: list[Any], op: Operation, tally: Tally, log: speed.SpeedLog | None = None
) -> list[tuple[float, float]]:
    """Run and check every operation once; return the start and the wall time of each.

    With ``log``, the speed loop is timed between operations whenever it is due.
    """
    samples = []
    for x in inputs:
        if log is not None and log.due():
            log.mark()
        start = time.monotonic()
        t = time.perf_counter()
        try:
            out = op.run(x)
        except Exception as exc:  # a failing operation is counted, not fatal
            samples.append((start, time.perf_counter() - t))
            tally.fail(x.label, exc)
            continue
        samples.append((start, time.perf_counter() - t))
        tally.record(x.label, op.check(x, out), op.what)
    return samples


def timed_run(inputs: list[Any], op: Operation, tally: Tally, seconds: float) -> dict[str, Any]:
    """Whole passes over the inputs, ending at the pass end nearest ``seconds``."""
    log = speed.SpeedLog()
    per_pass: list[list[tuple[float, float]]] = []
    t0 = time.perf_counter()
    while not per_pass or time.perf_counter() - t0 + pass_s(per_pass[-1]) / 2 < seconds:
        per_pass.append(timed_pass(inputs, op, tally, log))
    log.mark()
    return {"item_s": [list(samples) for samples in zip(*per_pass)], "loop_s": log.points}


def pass_s(samples: list[tuple[float, float]]) -> float:
    return sum(dt for _, dt in samples)


def traced_row(
    tracer: tracing.Tracer, item: ConfigItem, path: Path, tally: Tally
) -> tuple[float, float]:
    """Push one row through every layer under spans.

    Returns the wall time of instantiate + hodge and that of the round trip.
    """
    row = item.row
    tracer.row = row.label
    root = tracer.open("row")
    try:
        t = time.perf_counter()
        config, divisor = catalog.instantiate(row.family, row.spec)
        inv = invariants.hodge(config, divisor)
        compute_s = time.perf_counter() - t
        construction.check_collective_divisor(config, divisor)
        t = time.perf_counter()
        res = workloads.roundtrip(item, path)
        roundtrip_s = time.perf_counter() - t
    finally:
        tracer.close(root)
        tracer.end_row()
    tally.record(row.label, workloads.hodge_ok(row, inv), WRONG_HODGE)
    tally.record(row.label, workloads.roundtrip_ok(item, res), WRONG_ROUNDTRIP)
    return compute_s, roundtrip_s


def traced_run(
    workload: str, items: list[ConfigItem], path: Path, tally: Tally, seconds: float, spans: Path
) -> dict[str, Any]:
    """Per-layer metrics from traced passes, and the overhead against untraced ones."""
    tracer = tracing.Tracer()
    inputs = [item.row for item in items] if workload != "roundtrip" else items
    op = operation(workload, path)
    ratios = []
    t_end = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < t_end:
        # Alternate which pass goes first, so that drift favours neither.
        order = (False, True) if len(ratios) % 2 == 0 else (True, False)
        op_s = {}
        for traced in order:
            if not traced:
                op_s[False] = pass_s(timed_pass(inputs, op, tally))
                continue
            total = 0.0
            tracer.install()
            try:
                for item in items:
                    try:
                        compute_s, roundtrip_s = traced_row(tracer, item, path, tally)
                    except Exception as exc:  # a failing row is counted, not fatal
                        tally.fail(item.label, exc)
                        continue
                    total += roundtrip_s if workload == "roundtrip" else compute_s
            finally:
                tracer.uninstall()
            op_s[True] = total
        ratios.append(op_s[True] / op_s[False])

    verify_ms = []
    for _ in range(VERIFY_REPS):
        t = time.perf_counter()
        code, out, _ = workloads.run_cli(["verify", "--family", "all"])
        verify_ms.append((time.perf_counter() - t) * 1e3)
        tally.record("verify", workloads.verify_ok(code, out), "verify output is wrong")

    tracer.dump(spans)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead"] = statistics.median(ratios)
    metrics["cli.verify_inproc_ms"] = statistics.median(verify_ms)
    coverage = tracing.stage_coverage_by_row(tracer.spans)
    heaviest = max(coverage, key=lambda r: coverage[r][1])
    return {
        "metrics": metrics,
        "rounds": len(ratios),
        "heaviest_row": heaviest,
        "heaviest_row_coverage": coverage[heaviest][0] / coverage[heaviest][1],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.ROWS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument(
        "--check-reexport",
        action="store_true",
        help="after timing, check that each parsed export re-exports to the same text",
    )
    args = parser.parse_args()

    tally = Tally()
    with_items = args.workload == "roundtrip" or args.mode == "trace"
    rows, items = setup(args.workload, args.seed, with_items, tally)
    out: dict[str, Any] = {"ready": time.monotonic()}
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        path = Path(tmp) / "config.json"
        if args.mode == "run":
            inputs = items if args.workload == "roundtrip" else rows
            out.update(timed_run(inputs, operation(args.workload, path), tally, args.seconds))
            if args.check_reexport:
                for item in items:
                    tally.record(item.label, workloads.reexport_ok(item), "re-export differs")
        else:
            out.update(traced_run(args.workload, items, path, tally, args.seconds, args.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
