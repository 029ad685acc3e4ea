"""nc3 benchmark: one workload, one seed, one result line.

Usage, from the root of the repository:

    python3 bench/run.py --workload catalog|stress|roundtrip --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric.  End-to-end times are scaled to a reference machine
speed measured during the run (``speed.py``).  A fuller record (seed, Python
version, nproc, CPU model, commit, raw figures, samples, errors) goes to
``.bench_out/``.  See ``bench/README.md`` for the workloads and what each
metric should move.

Every workload runs in fresh interpreters started from here, one process
at a time.  The CLI calls run the way the ``nc3`` console script does:
``from nc3.cli import main`` with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WALL_LIMIT_S = 170.0
ROUNDS = 6  # worker processes per timed run
CLI_REPEATS = 3  # calls of each CLI command per round

CLI_MAIN = "import sys; from nc3.cli import main; sys.exit(main())"
CLI_CALLS = {
    "cli_verify_s": ["-c", CLI_MAIN, "verify", "--family", "all"],
    "cli_table_s": ["-c", CLI_MAIN, "table", "--family", "p2xp2", "--format", "csv"],
    "cli_import_s": ["-c", "import nc3.cli"],
}


class Runner:
    """Starts one child process at a time, each within the run's wall-time limit."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + WALL_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH="src")

    def run(self, args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """Run ``python args``; return its start time, wall time and result."""
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - t0),
        )
        return t0, time.monotonic() - t0, proc

    def worker(self, *args: str) -> tuple[float, dict[str, Any]]:
        """Run worker.py; return its set-up time and its JSON result."""
        t0, _, proc = self.run([str(BENCH / "worker.py"), *args])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result["ready"] - t0, result


def cli_ok(name: str, proc: subprocess.CompletedProcess, first: dict[str, str]) -> bool:
    """Check a CLI call's output; the table must also repeat byte for byte."""
    import workloads  # imports nc3, which main() has put on sys.path

    try:
        if name == "cli_verify_s":
            return workloads.verify_ok(proc.returncode, proc.stdout)
        if name == "cli_table_s":
            first.setdefault(name, proc.stdout)
            return workloads.table_ok(proc.returncode, proc.stdout) and proc.stdout == first[name]
        return proc.returncode == 0 and proc.stdout == "" and proc.stderr == ""
    except (ValueError, KeyError):
        return False


def summarize(rounds: list[dict[str, Any]], scale: Callable[[float], float]) -> dict[str, float]:
    """End-to-end metrics from the rounds' (start, seconds) samples.

    Each sample counts ``scale(t)`` times its length, ``t`` being its midpoint.
    """
    def value(sample: list[float]) -> float:
        start, dt = sample
        return dt * scale(start + dt / 2)

    out = {"setup_s": statistics.median(value(r["setup_s"]) for r in rounds)}
    for name in CLI_CALLS:
        out[name] = statistics.median(value(s) for r in rounds for s in r[name])
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    # Per-row medians over passes first: a pass that ran while the machine
    # was slow moves a median less than a mean.
    n_items = len(rounds[0]["item_s"])
    item_ms = [
        statistics.median(value(s) for r in rounds for s in r["item_s"][i]) * 1e3
        for i in range(n_items)
    ]
    pass_s = [sum(value(s) for s in p) for r in rounds for p in zip(*r["item_s"])]
    out["rows_per_s"] = n_items / statistics.median(pass_s)
    out["row_ms_p50"] = statistics.median(item_ms)
    out["row_ms_p90"] = statistics.quantiles(item_ms, n=10)[8]
    return out


def timed(
    runner: Runner, base: list[str], seconds: float
) -> tuple[dict[str, float], dict[str, Any]]:
    """Time the workload in ROUNDS rounds of seconds/ROUNDS each.

    A round is a fresh worker process, then CLI_REPEATS calls of each CLI
    command, so that every metric samples the whole run rather than one
    stretch of it.
    ``speed``'s loop is timed before every child process here and between
    operations in the workers; each sample is scaled by the mean loop time
    within ``speed.WINDOW_S`` of its midpoint.
    """
    log = speed.SpeedLog()
    rounds: list[dict[str, Any]] = []
    attempted = failed = 0
    errors: list[str] = []
    first: dict[str, str] = {}
    for i in range(ROUNDS):
        log.mark()
        args = [*base, "--mode", "run", "--seconds", str(seconds / ROUNDS)]
        setup_s, res = runner.worker(*args, *(["--check-reexport"] if i == 0 else []))
        log.points += res["loop_s"]
        rnd: dict[str, Any] = {
            "setup_s": (res["ready"] - setup_s, setup_s),
            "peak_rss_mb": res["peak_rss_mb"],
            "item_s": res["item_s"],
            **{name: [] for name in CLI_CALLS},
        }
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
        for _ in range(CLI_REPEATS):
            for name, cli_args in CLI_CALLS.items():
                log.mark()
                start, wall, proc = runner.run(cli_args)
                rnd[name].append((start, wall))
                attempted += 1
                if not cli_ok(name, proc, first):
                    failed += 1
                    errors.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        rounds.append(rnd)
    log.mark()
    detail = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "rows": len(rounds[0]["item_s"]),
        "passes": sum(len(r["item_s"][0]) for r in rounds),
        "raw": summarize(rounds, lambda t: 1.0),
        "loop_s": log.points,
        "samples": [{k: v for k, v in r.items() if k != "item_s"} for r in rounds],
    }
    return summarize(rounds, speed.scale_at(log.points)), detail


def traced(
    runner: Runner, base: list[str], seconds: float, spans: Path
) -> tuple[dict[str, float], dict[str, Any]]:
    args = [*base, "--mode", "trace", "--seconds", str(seconds), "--spans", str(spans)]
    _, res = runner.worker(*args)
    attempted, failed, errors = res["attempted"], res["failed"], list(res["errors"])
    verify_s = []
    first: dict[str, str] = {}
    for _ in range(CLI_REPEATS):
        _, wall, proc = runner.run(CLI_CALLS["cli_verify_s"])
        verify_s.append(wall)
        attempted += 1
        if not cli_ok("cli_verify_s", proc, first):
            failed += 1
            errors.append(f"cli_verify_s: exit {proc.returncode}")
    metrics = dict(res["metrics"])
    metrics["cli.startup_ms"] = statistics.median(verify_s) * 1e3 - metrics["cli.verify_inproc_ms"]
    detail = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "rounds": res["rounds"],
        "heaviest_row": res["heaviest_row"],
        "heaviest_row_stage_coverage": res["heaviest_row_coverage"],
        "spans": str(spans.relative_to(ROOT)),
    }
    return metrics, detail


def commit() -> str:
    """The checked-out commit, read from .git without running git; else 'unknown'."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("catalog", "stress", "roundtrip"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "nc3" / "__init__.py").is_file():
        print(f"nc3 sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner()
    base = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(OUT)]
    if args.trace:
        metrics, detail = traced(runner, base, args.seconds, OUT / f"spans-{tag}.json")
    else:
        metrics, detail = timed(runner, base, args.seconds)

    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": reported,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(),
        "fail_rate": detail["failed"] / detail["attempted"],
        **detail,
        **result,
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for err in detail["errors"]:
        print(f"FAILED {err}")
    raw = detail.get("raw", {})
    for name, m in reported.items():
        note = f"  (raw {raw[name]:.4f})" if name in raw else ""
        print(f"{name:<32} {m['value']:>14.4f} {m['unit']}{note}")
    counts = f"({detail['failed']}/{detail['attempted']})"
    print(f"{'fail_rate':<32} {record['fail_rate']:>14.4f} {counts}")
    print(" ".join(f"{k}={record[k]}" for k in ("seed", "python", "nproc", "cpu", "commit")))
    print(f"record: {(OUT / f'record-{tag}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
