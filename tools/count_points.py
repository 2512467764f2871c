"""Compare the solution-jet counts of two source checkouts of eigenframe,
point by point.

    python3 tools/count_points.py OLD_CHECKOUT NEW_CHECKOUT [--points N]
        [--seeds 0,7] [--files ex6.4,ex6.9]

For each corpus file, of any dimension (the bundled examples and their
extended variants; --files keeps the named ones) and each seed, runs
``systems.beta_jet_count`` on a one-point connection at each of N Halton
points of the file's box (``FrameSpec.sample_points(N, seed)``), in a fresh
process per checkout that imports that checkout's ``src/`` (read only:
nothing is written inside either checkout).  A point reads its
``(dims, support)``, or the message of the error the count raised.

Prints, for each file and checkout, the histogram of the readings over the
points, the smallest kept and the largest dropped value of the counts, and
every point whose readings differ.  Exit status 1 if any point reads
differently in the two checkouts.  Uses only the standard library and
numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def collect(checkout: Path, points: int, seeds: list, files: list) -> dict:
    """{file id: [[seed, point, reading, kept, dropped], ...]} in this
    process against the checkout (the --collect mode); reading is
    [dims, support] or an error message, kept and dropped are None for an
    error."""
    sys.path.insert(0, str(checkout / "src"))
    from eigenframe import corpus, geometry, systems
    from eigenframe.errors import EigenframeError

    paths = [entry["path"] for entry in corpus.list_examples()]
    paths += sorted(str(p) for p in (corpus.corpus_dir() / "extended").glob("*.json"))
    readings = {}
    for path in paths:
        case = corpus.load_example(path)
        if files and case.id not in files:
            continue
        rows = readings[case.id] = []
        for seed in seeds:
            for index, point in enumerate(case.spec.sample_points(points, seed)):
                try:
                    count = systems.beta_jet_count(geometry.eval_connection(case.spec, point[None]))
                except EigenframeError as err:
                    rows.append([seed, index, f"error: {err}", None, None])
                    continue
                rows.append([seed, index, [list(count.dims), count.support],
                             count.kept, count.dropped])
    return readings


def run_checkout(checkout: Path, args) -> dict:
    """collect in a fresh process, so the two checkouts never share an import."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "EIGENFRAME_CORPUS")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(dict.fromkeys(_THREAD_VARS, "1"))  # the same BLAS schedule for both
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([sys.executable, __file__, str(checkout), out.name, "--collect",
                        "--points", str(args.points), "--seeds", args.seeds,
                        "--files", args.files], env=env, check=True)
        return json.loads(Path(out.name).read_text())


def _reading(row: list) -> str:
    value = row[2]
    return value if isinstance(value, str) else f"({tuple(value[0])}, {value[1]})"


def summary(rows: list) -> str:
    """The histogram of the readings, most frequent first, and the smallest
    kept and largest dropped value of the counts."""
    hist = ", ".join(f"{reading} x{k}" for reading, k in Counter(map(_reading, rows)).most_common())
    counted = [row for row in rows if row[3] is not None]
    if not counted:
        return hist
    kept = min(row[3] for row in counted)
    dropped = max(row[4] for row in counted)
    return f"{hist}; smallest kept {kept:.2e}, largest dropped {dropped:.2e}"


def compare(old: dict, new: dict) -> tuple:
    """The report lines of two collections, and the number of points (or
    files) whose readings differ."""
    lines, mismatches = [], 0
    for cid in sorted(old.keys() | new.keys()):
        a, b = old.get(cid, []), new.get(cid, [])
        lines += [cid, f"  old: {summary(a)}", f"  new: {summary(b)}"]
        if len(a) != len(b):
            lines.append(f"  {len(a)} points in old, {len(b)} in new")
            mismatches += 1
            continue
        for x, y in zip(a, b):
            if _reading(x) != _reading(y):
                lines.append(f"  seed {x[0]} point {x[1]}: old {_reading(x)}, new {_reading(y)}")
                mismatches += 1
    points = sum(len(rows) for rows in new.values())
    lines.append(f"{points} points, {mismatches} mismatches")
    return lines, mismatches


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--points", type=int, default=100, help="points per seed (default 100)")
    parser.add_argument("--seeds", default="0",
                        help="a range lo-hi or a comma list (default 0)")
    parser.add_argument("--files", default="",
                        help="a comma list of file ids (default every corpus file)")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    files = [f for f in args.files.split(",") if f]
    if args.collect:  # old is the checkout, new the output file
        readings = collect(args.old.resolve(), args.points, _seeds(args.seeds), files)
        args.new.write_text(json.dumps(readings))
        return 0
    lines, mismatches = compare(run_checkout(args.old.resolve(), args),
                                run_checkout(args.new.resolve(), args))
    print("\n".join(lines))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
