"""Spans around calls into nc3's public functions, kept in memory.

``Tracer.install`` replaces module attributes of nc3 with timing wrappers and
``uninstall`` puts the originals back.  nc3's modules call each other through
module attributes (``construction.sequential_blowup``) or through names bound
in the calling module (``invariants.kernel_dimension``), so replacing those
attributes also records the calls nc3 makes internally, for example the
stages inside ``invariants.hodge``.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from nc3 import catalog, cli, construction, degeneration, invariants, ncconfig

# (module, attribute, span name).  Both names that rank a matrix map to one
# span; a ``cli.main`` span is named after its subcommand.
TARGETS: tuple[tuple[Any, str, str | Callable[[list[str]], str]], ...] = (
    (cli, "main", lambda argv: f"cli.{argv[0]}_config"),
    (catalog, "instantiate", "catalog.instantiate"),
    (construction, "check_collective_divisor", "construction.check"),
    (construction, "sequential_blowup", "construction.blowup"),
    (degeneration, "is_d_semistable", "degeneration.semistable"),
    (ncconfig, "restriction_difference_matrix", "ncconfig.matrix"),
    (ncconfig, "kernel_dimension", "exactlat.rank"),
    (ncconfig, "config_to_json", "ncconfig.export"),
    (ncconfig, "config_from_json", "ncconfig.parse"),
    (ncconfig, "validate", "ncconfig.validate"),
    (invariants, "kernel_dimension", "exactlat.rank"),
    (invariants, "hodge", "invariants.hodge"),
    (invariants, "euler_closed", "invariants.euler_closed"),
    (invariants, "euler_smoothing", "invariants.euler_smoothing"),
    (invariants, "h11_closed", "invariants.h11_closed"),
    (invariants, "h11_kernel", "invariants.h11_kernel"),
    (invariants, "picard_one_pairings", "invariants.pairings"),
)

ROW = "row"
HODGE = "invariants.hodge"
HODGE_STAGES = {
    "construction.blowup",
    "invariants.euler_closed",
    "invariants.euler_smoothing",
    "invariants.h11_closed",
    "invariants.h11_kernel",
    "invariants.pairings",
}

# Per-row self time, in ms, summed over every call with the span's name.
SELF_TIME_METRICS = {
    "catalog.instantiate": "catalog.instantiate_ms",
    "construction.blowup": "construction.blowup_ms",
    "degeneration.semistable": "degeneration.semistable_ms",
    "ncconfig.matrix": "ncconfig.matrix_ms",
    "ncconfig.export": "ncconfig.export_ms",
    "ncconfig.parse": "ncconfig.parse_ms",
    "ncconfig.validate": "ncconfig.validate_ms",
    "cli.check_config": "cli.check_config_ms",
    "cli.invariants_config": "cli.invariants_config_ms",
    "exactlat.rank": "exactlat.rank_ms",
    "invariants.euler_closed": "invariants.euler_closed_ms",
    "invariants.euler_smoothing": "invariants.euler_smoothing_ms",
    "invariants.h11_closed": "invariants.h11_closed_ms",
    "invariants.h11_kernel": "invariants.h11_kernel_ms",
    "invariants.pairings": "invariants.pairings_ms",
}

# Mean per call of the counts recorded on spans.
COUNT_METRICS = {
    "d3_gram_cells": "construction.d3_gram_cells",
    "json_bytes": "ncconfig.json_bytes",
    "rows": "exactlat.matrix_rows",
    "cols": "exactlat.matrix_cols",
    "nnz": "exactlat.matrix_nnz",
    "rank": "exactlat.rank",
}


def _counts(name: str, args: tuple[Any, ...], result: Any) -> Any:
    """What a span records besides its times; cheap, as it runs inside the parent span."""
    if name == "exactlat.rank":
        return (args[0], result)  # counted in Tracer.end_row, outside every span
    if name == "construction.blowup":
        return {"d3_gram_cells": result[0].surfaces[2].lattice.rank ** 2}
    if name == "ncconfig.export":
        return {"json_bytes": len(result.encode("utf-8"))}
    return None


class Tracer:
    """Records spans as [row, id, parent, name, start, end, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.row: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._pending: list[list[Any]] = []

    def open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        rec = [self.row, len(self.spans), parent, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        rec[4] = perf_counter()
        return rec

    def close(self, rec: list[Any]) -> None:
        rec[5] = perf_counter()
        self._stack.pop()

    def _wrap(
        self, name: str | Callable[[list[str]], str], fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = name if isinstance(name, str) else name(args[0])
            rec = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            rec[6] = _counts(span, args, result)
            if span == "exactlat.rank":
                self._pending.append(rec)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def end_row(self) -> None:
        """Replace the matrices kept by rank spans with their shape, nnz and rank."""
        for rec in self._pending:
            m, kernel = rec[6]
            nnz = sum(1 for r in m.entries for x in r if x)
            rec[6] = {"rows": m.rows, "cols": m.cols, "nnz": nnz, "rank": m.cols - kernel}
        self._pending.clear()

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][4] if self.spans else 0.0
        records = [
            {
                "row": row,
                "id": sid,
                "parent": parent,
                "name": name,
                "start_ms": (start - t0) * 1e3,
                "end_ms": (end - t0) * 1e3,
                **(attrs or {}),
            }
            for row, sid, parent, name, start, end, attrs in self.spans
        ]
        path.write_text(json.dumps(records), encoding="utf-8")


def stage_coverage_by_row(spans: list[list[Any]]) -> dict[str, tuple[float, float]]:
    """Per row label: (time of hodge's direct stage spans, time of hodge), in s."""
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for row, _, parent, name, start, end, _ in spans:
        if name == HODGE:
            out[row][1] += end - start
        elif name in HODGE_STAGES and spans[parent][3] == HODGE:
            out[row][0] += end - start
    return {row: (s, h) for row, (s, h) in out.items()}


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-row self times, mean counts per call, and hodge's stage coverage.

    Self time is a span's duration minus that of its child spans.  The
    exceptions: ``construction.check_ms`` counts only the standalone call
    made from the row, and ``invariants.hodge_ms`` is inclusive.
    """
    children: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent] += end - start
    rows = sum(1 for s in spans if s[3] == ROW)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, list[int]] = defaultdict(list)
    hodge_s = check_s = 0.0
    for _, sid, parent, name, start, end, attrs in spans:
        self_s[name] += end - start - children[sid]
        if name == HODGE:
            hodge_s += end - start
        elif name == "construction.check" and spans[parent][3] == ROW:
            check_s += end - start
        for key, value in (attrs or {}).items():
            counts[key].append(value)
    out = {metric: self_s[name] * 1e3 / rows for name, metric in SELF_TIME_METRICS.items()}
    out["construction.check_ms"] = check_s * 1e3 / rows
    out["invariants.hodge_ms"] = hodge_s * 1e3 / rows
    stages = sum(s for s, _ in stage_coverage_by_row(spans).values())
    out["invariants.stage_coverage"] = stages / hodge_s
    for key, metric in COUNT_METRICS.items():
        out[metric] = sum(counts[key]) / len(counts[key])
    return out
