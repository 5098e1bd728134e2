"""pyproject.toml's pytest settings report a failing Hypothesis test as one
failure, and the session goes on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_it():
    pass
"""


def test_a_failing_hypothesis_test_is_one_failure(tmp_path):
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
