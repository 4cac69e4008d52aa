"""The suite's own pytest settings, met by a failing test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Warnings are errors here, and Hypothesis's report hook warns while it
    # formats the falsifying example; unless that warning is let through,
    # the session ends in an INTERNALERROR (exit 3) with the example unshown
    # and the tests after it not run.
    (tmp_path / "test_failing.py").write_text(FAILING)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "Falsifying example: test_fails(" in res.stdout
    assert "1 failed, 1 passed" in res.stdout
