"""The scripts under tools/: tools/count_points.py, which compares the
solution-jet counts of two checkouts point by point."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_POINTS = ROOT / "tools" / "count_points.py"


def _count_points():
    spec = importlib.util.spec_from_file_location("count_points", COUNT_POINTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_points_reads_the_repo_against_itself():
    """One corpus file at 3 points, this checkout against itself: the
    histogram of each, no mismatch and exit 0."""
    run = subprocess.run(
        [sys.executable, str(COUNT_POINTS), str(ROOT), str(ROOT), "--points", "3",
         "--files", "ex6.4"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "ex6.4" and len(lines) == 4, lines
    for line in lines[1:3]:
        assert line.split(";")[0][7:] == "((2, 4, 6), 2) x3", line
    assert lines[1][7:] == lines[2][7:]
    assert lines[3] == "3 points, 0 mismatches"


def test_count_points_lists_each_mismatch():
    """A point that reads another count, or an error, in one checkout is
    listed, and so is a file whose point count differs."""
    tool = _count_points()
    old = {"a": [[0, 0, [[1, 2, 3], 1], 0.5, 1e-15], [0, 1, [[1, 2, 3], 1], 0.2, 1e-16]],
           "b": [[0, 0, [[0, 0, 0], 0], 0.1, 0.0]]}
    new = {"a": [[0, 0, [[1, 2, 3], 1], 0.4, 1e-15], [0, 1, "error: dead zone", None, None]],
           "b": []}
    lines, mismatches = tool.compare(old, new)
    assert mismatches == 2
    assert "  old: ((1, 2, 3), 1) x2; smallest kept 2.00e-01, largest dropped 1.00e-15" in lines
    assert "  new: ((1, 2, 3), 1) x1, error: dead zone x1; smallest kept 4.00e-01, " \
           "largest dropped 1.00e-15" in lines
    assert "  seed 0 point 1: old ((1, 2, 3), 1), new error: dead zone" in lines
    assert "  1 points in old, 0 in new" in lines
    assert lines[-1] == "2 points, 2 mismatches"
    assert tool.compare(old, old)[1] == 0
