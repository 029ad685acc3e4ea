"""Mutation probe: how many small faults in a module do the tests catch?

Usage, from the root of the repository:

    python3 tools/mutants.py src/nc3/exactlat.py [more modules] \\
        [--seed 1] [--sample N] [--timeout SECONDS]

A mutant changes one site of one module:

* an arithmetic operator, also in an augmented assignment (``+`` and
  ``-`` swap, ``*`` becomes ``//``, ``//`` and ``/`` become ``*``, ``%``
  becomes ``//``);
* a comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in`` swap);
* a unary minus, which becomes a plus;
* an integer literal, which grows by one.

The tree is copied to a temporary directory first, and only the copy is
ever edited: each mutant is written into the copy's module, the tests run
against it in one pytest process with a time limit (``-x``, so a killed
mutant stops at its first failing test), and the module's original text is
written back before the next mutant.  One pytest process runs at a time.
The tests first run once on the unmutated copy, within ``CLEAN_TIMEOUT``
seconds, and must pass; the time limit per mutant is ``TIMEOUT_FACTOR``
times that run's wall time.  ``--timeout`` sets both limits instead.  A
mutant is killed when pytest fails, and timed out when it runs out of
time; a timeout is reported apart from a kill, so a shorter limit cannot
raise the kill count by itself.  With ``--sample N`` a seeded random sample
of N sites per module is run, else every site.  The tests run are the
module's own test file, when there is one, then the rest of ``tests/``.
Per module the probe prints ``K killed, T timed out, S survived of N``,
then each timed-out mutant and each survivor with its line.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_out"
)

# The default time limit per mutant, as a multiple of the unmutated run.
TIMEOUT_FACTOR = 3
# The unmutated run's time limit in seconds, unless --timeout sets it.
CLEAN_TIMEOUT = 300.0

OPERATORS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"),
    ast.FloorDiv: ("//", "*"),
    ast.Div: ("/", "*"),
    ast.Mod: ("%", "//"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"),
}


class Site:
    """One mutation: replace ``old`` at bytes [start, end) of the module by ``new``."""

    def __init__(self, start: int, end: int, old: str, new: str, line: int) -> None:
        self.start, self.end, self.old, self.new, self.line = start, end, old, new, line

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.new.encode() + source[self.end :]

    def describe(self, lines: list[str]) -> str:
        return f"line {self.line}: {self.old!r} -> {self.new!r}  | {lines[self.line - 1].strip()}"


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each line starts (line 1 at index 1)."""
    starts = [0, 0]
    for i, b in enumerate(source):
        if b == 0x0A:
            starts.append(i + 1)
    return starts


def _operator_between(source: bytes, start: int, end: int, op: str) -> tuple[int, int] | None:
    """The span of ``op`` between two operands, if only brackets, blanks and
    line breaks surround it there; otherwise ``None`` (the site is skipped)."""
    gap = source[start:end]
    words = gap.replace(b"(", b" ").replace(b")", b" ").replace(b"\\", b" ").split()
    if b" ".join(words) != op.encode():
        return None
    first = gap.index(op.split()[0].encode())
    last = gap.rindex(op.split()[-1].encode()) + len(op.split()[-1])
    return start + first, start + last


def sites(source: bytes) -> list[Site]:
    """Every mutation site of a module, in source order."""
    tree = ast.parse(source)
    starts = _offsets(source)

    def at(lineno: int, col: int) -> int:
        return starts[lineno] + col

    def begin(node: ast.AST) -> int:
        return at(node.lineno, node.col_offset)

    def finish(node: ast.AST) -> int:
        return at(node.end_lineno, node.end_col_offset)

    in_fstring: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            in_fstring.update(id(n) for n in ast.walk(node))
    found = []

    def operator(left: ast.AST, right: ast.AST, op: ast.AST, line: int) -> None:
        if type(op) not in OPERATORS:
            return
        old, new = OPERATORS[type(op)]
        span = _operator_between(source, finish(left), begin(right), old)
        if span is not None:
            found.append(Site(*span, old, new, line))

    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.BinOp):
            operator(node.left, node.right, node.op, node.lineno)
        elif isinstance(node, ast.AugAssign):
            if type(node.op) in OPERATORS:
                old, new = OPERATORS[type(node.op)]
                span = _operator_between(source, finish(node.target), begin(node.value), old + "=")
                if span is not None:
                    found.append(Site(*span, old + "=", new + "=", node.lineno))
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                operator(left, right, op, node.lineno)
                left = right
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            start = begin(node)
            if source[start : start + 1] == b"-":
                found.append(Site(start, start + 1, "-", "+", node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and source[begin(node) : finish(node)].isdigit()
        ):
            found.append(Site(begin(node), finish(node), str(node.value), str(node.value + 1), node.lineno))
    found.sort(key=lambda s: s.start)
    return found


def run_tests(copy: Path, tests: list[str], timeout: float) -> str:
    """``killed``, ``timeout`` or ``survived``: one pytest process in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    proc = subprocess.Popen(
        argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "survived" if code == 0 else "killed"


def default_tests(copy: Path, module: Path) -> list[str]:
    own = Path("tests") / f"test_{module.stem}.py"
    return ([str(own)] if (copy / own).exists() else []) + ["tests"]


def probe(copy: Path, module: Path, tests: list[str], sample: int | None,
          rng: random.Random, timeout: float) -> tuple[int, int, list[str], list[str]]:
    """Mutants run and killed, and a line per timed-out and per surviving
    mutant, for one module."""
    path = copy / module
    original = path.read_bytes()
    chosen = sites(original)
    if sample is not None and sample < len(chosen):
        chosen = sorted(rng.sample(chosen, sample), key=lambda s: s.start)
    lines = original.decode().splitlines()
    killed, timed_out, survivors = 0, [], []
    try:
        for n, site in enumerate(chosen, 1):
            mutant = site.apply(original)
            ast.parse(mutant)  # every mutant is valid Python
            path.write_bytes(mutant)
            t0 = time.monotonic()
            outcome = run_tests(copy, tests, timeout)
            path.write_bytes(original)
            print(
                f"  [{n}/{len(chosen)}] {outcome:8} {time.monotonic() - t0:6.1f}s  {site.describe(lines)}",
                flush=True,
            )
            if outcome == "survived":
                survivors.append(site.describe(lines))
            elif outcome == "timeout":
                timed_out.append(site.describe(lines))
            else:
                killed += 1
    finally:
        path.write_bytes(original)
    return len(chosen), killed, timed_out, survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module paths relative to the repository root")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=int, default=None, help="sites per module (default: all)")
    parser.add_argument(
        "--timeout", type=float, default=None,
        help=f"seconds per mutant (default: {TIMEOUT_FACTOR} times the unmutated run)",
    )
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix="nc3-mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        modules = [Path(m) for m in args.modules]
        for module in modules:
            if not (copy / module).is_file():
                parser.error(f"no module {module}")
        # The unmutated copy must pass, or no mutant can be told apart.
        t0 = time.monotonic()
        clean_limit = args.timeout if args.timeout is not None else CLEAN_TIMEOUT
        if run_tests(copy, default_tests(copy, modules[0]), clean_limit) != "survived":
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 1
        clean = time.monotonic() - t0
        timeout = args.timeout if args.timeout is not None else TIMEOUT_FACTOR * clean
        print(f"unmutated run {clean:.1f}s, time limit {timeout:.1f}s per mutant", flush=True)
        summary = []
        for module in modules:
            tests = default_tests(copy, module)
            print(f"{module}: tests {' '.join(tests)}", flush=True)
            summary.append((module, *probe(copy, module, tests, args.sample, rng, timeout)))
        for module, total, killed, timed_out, survivors in summary:
            print(
                f"{module}: {killed} killed, {len(timed_out)} timed out, "
                f"{len(survivors)} survived of {total}"
            )
            for line in timed_out:
                print(f"  timed out {line}")
            for line in survivors:
                print(f"  survived {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
