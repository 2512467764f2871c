"""The test suite's own configuration: the warning filters of pyproject.toml
turn warnings into errors without ending a session at a failing test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """Under the suite's warning filters a failing hypothesis test is one
    failure, and the test after it still runs: hypothesis's failure report
    raises a DeprecationWarning that "error" alone turned into an
    INTERNALERROR ending the session."""
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
