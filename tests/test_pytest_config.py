"""The repository's pytest settings report a failing hypothesis test as a failure."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_given_test_is_a_failure_not_an_internal_error(tmp_path):
    """With ``filterwarnings = ["error"]``, a warning raised while hypothesis
    reports a failing example would end the run with exit code 3 and lose
    every later test."""
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "FAILED test_fails.py::test_fails" in proc.stdout, output
    assert "INTERNALERROR" not in output
