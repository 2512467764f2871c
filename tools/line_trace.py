"""List the lines of src/eigenframe that the Tier-1 tests, or the
benchmark's ops, never execute.

    python3 tools/line_trace.py [PYTEST_ARGS ...]
    python3 tools/line_trace.py --workloads

Runs pytest in this process (by default on tests/, the Tier-1 suite) with
a ``sys.settrace`` line tracer that records only frames whose code lies in
``src/eigenframe``, then prints, for each module, how many executable
lines it has (the line numbers of its compiled code objects) and which of
them no traced frame ran.  Uses only the standard library besides pytest,
so it works where ``coverage`` is not installed; a full Tier-1 run takes
about twice as long as without the tracer.

Tests that run the CLI in a subprocess are not traced: a line that only
such a test reaches is listed as never run.  Exit status is pytest's.

With ``--workloads`` it runs, under the same tracer, every op of the
benchmark's corpus-verdicts and reconstruct-grids workloads once at each
op seed of WORKLOAD_SEEDS, each followed by its check, importing
``perfbench/workloads.py`` read only (input and output files go to a
temporary directory).  The lines it lists are the ones no benchmark op
runs.  Exit status 1 if a check fails.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eigenframe"
WORKLOADS = ("corpus-verdicts", "reconstruct-grids")
WORKLOAD_SEEDS = (0, 3)


def executable_lines(path: Path) -> set:
    """Line numbers of every code object compiled from the file."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(run_once) -> tuple:
    """(run_once(), {file name: set of lines run}) of one call."""
    prefix = str(PACKAGE) + "/"
    run = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = run_once()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, run


def run_workloads() -> int:
    """Every op of WORKLOADS once at each of WORKLOAD_SEEDS, then its
    check; 1 if a check fails (printed), else 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for op in workloads.prepare(name, Path(tmp) / name):
                for seed in WORKLOAD_SEEDS:
                    failure = op.check(op.run(seed))
                    if failure:
                        print(f"{name} | {op.label} | seed {seed}: {failure}")
                        status = 1
    return status


def _ranges(lines: list) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list) -> int:
    if argv == ["--workloads"]:
        status, run = trace(run_workloads)
    else:
        import pytest

        args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        status, run = trace(lambda: pytest.main(args))
    print(f"\n{'module':<14} {'lines':>6} {'not run':>8}  lines never run")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - run.get(str(path), set()))
        print(f"{path.stem:<14} {len(lines):>6} {len(missed):>8}  {_ranges(missed)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
