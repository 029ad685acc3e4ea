"""Reachability guard: every function in ``src/nc3`` is called by a command or kept by name.

A fresh interpreter installs ``sys.setprofile`` before it imports nc3, then
runs a fixed set of ``cli.main`` calls: every subcommand and output format,
``--trace`` and ``--order``, ``check --config`` and ``invariants --config``
on catalog, blown-up, degree-21 and invalid exports, and refusals.  It
reports the code of ``src/nc3`` that ran.  In process the result would
depend on test order (parsers, family configurations and label tables that
earlier tests built are cached), and import-time code would not be seen.

Every function and method that ``src/nc3`` defines must have been called,
or be named in ``KEPT`` with what keeps it.  A ``KEPT`` entry that the calls
reach, or that names no function, fails too, so the list cannot go stale.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

from nc3 import catalog, construction, ncconfig
from tests.conftest import quintic_partition, rank_one_family

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "nc3"

# Functions no command calls, each with what keeps it.
KEPT = {
    "__init__:__dir__": "module protocol: dir(nc3) lists the lazy public names (test_startup)",
    "_record:Record.__delattr__": "Record protocol: a field cannot be deleted (test_records)",
    "_record:Record.__hash__": "Record protocol (test_records)",
    "_record:Record.__repr__": "Record protocol (test_records)",
    "_record:Record.__setattr__": "Record protocol: a field cannot be assigned (test_records)",
    "_record:replace": "the copy of a record with changed fields, for tests and callers",
    "configfile:_dense": "config_to_dict's matrices: the writer tests' oracle",
    "configfile:config_to_dict": "the writer tests' oracle for config_to_json",
    "construction:AdmissibilityError.__init__": "the blow-up's refusal of an inadmissible divisor",
    "construction:AmpleMarginProblem.__post_init__": "acceptance criteria 5b and 5c",
    "construction:AmpleMarginProblem.k": "acceptance criteria 5b and 5c",
    "construction:BlowupTrace.__repr__": "Record protocol: a trace's repr (test_records)",
    "construction:ample_margin": "acceptance criteria 5b and 5c",
    "construction:check_collective_divisor": "bench/worker.py and bench/tracing.py",
    "construction:extend_restriction_matrix": "acceptance criterion 5c",
    "exactlat:RationalMatrix.entries": "the dense rows laid out from the runs: bench/tracing.py",
    "exactlat:RationalMatrix.from_rows": "the checked integer constructor, for tests and callers",
    "exactlat:RationalMatrix.rows": "the row count read from the runs: bench/tracing.py",
    "exactlat:adjunction_euler": "acceptance criterion 5e",
    "ncconfig:NCConfiguration.boundary_class": "ROADMAP item 3, a second d-semistability route",
    "ncconfig:component_restriction_classes": "ROADMAP item 3, a second d-semistability route",
    "ncconfig:stack_component_vectors": "ROADMAP item 3, a second d-semistability route",
}


def _definitions():
    """``{(file, first line, name): "module:qualname"}`` for every def in ``src/nc3``.

    A decorated function's code starts at its first decorator.
    """
    out = {}

    def walk(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                out[(path, first, child.name)] = f"{module}:{qualname}"
                walk(child, module, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, prefix + child.name + ".")
            else:
                walk(child, module, path, prefix)

    for file in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(file.read_text(encoding="utf-8")), file.stem, str(file), "")
    return out


SCAN = """
import contextlib, io, json, sys
package, calls = sys.argv[1], json.loads(sys.argv[2])
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(profile)
from nc3.cli import main
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(
    (c.co_filename, c.co_firstlineno, c.co_name) for c in seen if c.co_filename.startswith(package)
)))
"""


def _exports(tmp_path):
    """Paths of the files the ``--config`` calls read."""
    quintic, divisor = catalog.instantiate("quintic", quintic_partition(5))
    blown_up = construction.sequential_blowup(quintic, divisor)[0]
    d21, d21_divisor = catalog.instantiate(rank_one_family(21), quintic_partition(*(1,) * 21))
    no_labels = ncconfig.config_to_dict(blown_up)
    for surface in no_labels["surfaces"]:
        del surface["basis_labels"]
    invalid = ncconfig.config_to_dict(blown_up)
    invalid["surfaces"][0]["canonical"][0] += 1
    malformed = ncconfig.config_to_dict(quintic)
    malformed["triple"]["euler"] = 1.5
    d21_blown_up = construction.sequential_blowup(d21, d21_divisor)[0]
    # The D3 tail is verified, but the base row is not zero over its columns.
    asymmetric = ncconfig.config_to_dict(d21_blown_up)
    asymmetric["surfaces"][2]["gram"][0][-1] = 1
    texts = {
        "quintic": ncconfig.config_to_json(quintic),
        "blown-up": ncconfig.config_to_json(blown_up),
        "d21": ncconfig.config_to_json(d21),
        "d21-blown-up": ncconfig.config_to_json(d21_blown_up),
        "d21-asymmetric": ncconfig.dumps(asymmetric),
        "no-labels": json.dumps(no_labels),
        "invalid": json.dumps(invalid),
        "malformed": json.dumps(malformed),
        "not-json": "{",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


def _calls(paths, out):
    calls = [
        ["verify", "--family", "all"],
        ["verify", "--family", "quintic"],
        ["catalog", "list"],
        ["catalog", "export", "--family", "p2xp2"],
        ["catalog", "export", "--family", "quintic", "--expected"],
        ["catalog", "export", "--family", "quintic", "--out", out],
        ["check", "--family", "quintic"],
        ["check", "--family", "quintic", "--partition", "5", "--after-blowup"],
        ["invariants", "--family", "quintic", "--partition", "1,4", "--order", "4,1", "--trace"],
        ["invariants", "--family", "p2xp2", "--partition", "(1,0),(2,3)", "--format", "json"],
        ["invariants", "--family", "quintic", "--partition", "5", "--format", "csv"],
        # refusals
        [],
        ["bogus"],
        ["table", "--family", "bogus"],
        ["invariants", "--family", "quintic", "--partition", "(1"],
        ["invariants", "--family", "quintic", "--partition", "1,1,1"],
        ["invariants", "--family", "quintic", "--partition", "1,4", "--order", "2,3"],
        ["invariants", "--family", "quintic"],
        ["check", "--family", "quintic", "--after-blowup"],
    ]
    for fmt in ("text", "json", "csv"):
        calls.append(["table", "--family", "p2xp2", "--format", fmt])
    for path in paths.values():
        calls.append(["check", "--config", path])
        calls.append(["invariants", "--config", path, "--format", "json"])
    calls.append(["invariants", "--config", paths["blown-up"], "--trace"])
    return calls


def test_every_function_is_called_by_a_command_or_kept(tmp_path):
    paths = _exports(tmp_path)
    calls = _calls(paths, str(tmp_path / "out.json"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCAN, str(PACKAGE), json.dumps(calls)],
        env=env, capture_output=True, text=True, check=True,
    )
    called = {tuple(c) for c in json.loads(proc.stdout)}
    definitions = _definitions()
    reached = {name for key, name in definitions.items() if key in called}
    unreached = set(definitions.values()) - reached
    assert sorted(unreached - KEPT.keys()) == [], "called by no command and not in KEPT"
    assert sorted(KEPT.keys() & reached) == [], "in KEPT but called by a command"
    assert sorted(KEPT.keys() - unreached) == [], "in KEPT but not defined"
