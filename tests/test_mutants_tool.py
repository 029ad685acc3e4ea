"""``tools/mutants.py``: its time limit per mutant and its report, with every
pytest run stubbed, so no mutant's tests run here."""

import types

import pytest

from tools import mutants


def _probe(monkeypatch, capsys, argv, outcomes, clean_seconds):
    """Run the probe with ``run_tests`` stubbed: the unmutated run passes in
    ``clean_seconds`` of a fake clock, and the mutants give ``outcomes`` in
    turn.  Returns the exit code, each run's time limit, and stdout."""
    now = [0.0]
    limits = []

    def run_tests(copy, tests, timeout):
        limits.append(timeout)
        if len(limits) == 1:
            now[0] += clean_seconds
            return "survived"
        return outcomes[len(limits) - 2]

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    monkeypatch.setattr(mutants, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    code = mutants.main(argv)
    return code, limits, capsys.readouterr().out


OUTCOMES = ["killed", "timeout", "survived", "killed"]


def test_the_default_limit_is_a_multiple_of_the_unmutated_run_and_timeouts_count_apart(
    monkeypatch, capsys
):
    argv = ["src/nc3/degeneration.py", "--sample", "4", "--seed", "1"]
    code, limits, out = _probe(monkeypatch, capsys, argv, OUTCOMES, 12.5)
    assert code == 0
    # The unmutated run has a fixed limit; every mutant gets the derived one.
    assert limits == [mutants.CLEAN_TIMEOUT] + [mutants.TIMEOUT_FACTOR * 12.5] * 4
    assert "src/nc3/degeneration.py: 2 killed, 1 timed out, 1 survived of 4" in out
    # The summary names each timed-out and each surviving site.
    assert out.count("  timed out line ") == 1 and out.count("  survived line ") == 1


def test_the_timeout_flag_overrides_the_derived_limit(monkeypatch, capsys):
    argv = ["src/nc3/degeneration.py", "--sample", "4", "--seed", "1", "--timeout", "7"]
    code, limits, out = _probe(monkeypatch, capsys, argv, OUTCOMES, 12.5)
    assert code == 0
    assert limits == [7.0] * 5
    assert "2 killed, 1 timed out, 1 survived of 4" in out


def test_a_failing_unmutated_run_stops_the_probe(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "run_tests", lambda copy, tests, timeout: "killed")
    assert mutants.main(["src/nc3/degeneration.py", "--sample", "1"]) == 1
    assert "the tests fail on the unmutated copy" in capsys.readouterr().err


@pytest.mark.parametrize("outcome", ["killed", "timeout", "survived"])
def test_one_mutant_is_reported_once(monkeypatch, capsys, outcome):
    argv = ["src/nc3/degeneration.py", "--sample", "1"]
    _, _, out = _probe(monkeypatch, capsys, argv, [outcome], 1.0)
    counts = {"killed": 0, "timeout": 0, "survived": 0, outcome: 1}
    assert (
        f"{counts['killed']} killed, {counts['timeout']} timed out, "
        f"{counts['survived']} survived of 1"
    ) in out
