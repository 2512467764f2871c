"""Time and peak memory of `analyze` at bulk sample counts, in two source
checkouts of eigenframe.

    python3 tools/bulk_rows.py OLD_CHECKOUT NEW_CHECKOUT [--samples 2000,8000] [--runs 2]
                               [--frame ex6.9]

For each sample count and run, each checkout calls
``cli.main(["--samples", N, "analyze", FRAME])`` in a fresh process that
imports that checkout's ``src/`` (nothing is written inside either
checkout); the checkouts take turns at going first.  FRAME is a bundled
corpus file named by its id: ex6.9 (the default) is an n = 3 frame with a
rank-1 length system, whose label is counted, and ex6.12 the n = 4 one.  A row
is the process's start-up seconds, from starting it until it has run
``from eigenframe import cli`` (read on the system-wide monotonic clock of
``time.perf_counter``, as perfbench's ``setup_s``), the seconds of the
call, and the process's peak resident set from ``getrusage`` (imports
included), in MB of 2^20 bytes as perfbench reports it.  With
``--samples 50`` the rows are the cold start of an ordinary ``analyze``.
Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

CORPUS = Path("src/eigenframe/corpus_data")


def measure(checkout: Path, samples: int, frame: str) -> str:
    """One analyze call against the checkout, in this process (the --measure
    mode): "imported seconds peak_rss_mb", imported the clock's reading
    once eigenframe.cli is imported."""
    sys.path.insert(0, str(checkout / "src"))
    from eigenframe import cli

    imported = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        path = checkout / CORPUS / f"{frame}.json"
        code = cli.main(["--samples", str(samples), "analyze", str(path)])
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"analyze exited {code} in {checkout}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return f"{imported!r} {seconds:.3f} {rss:.1f}"


def run_checkout(checkout: Path, samples: int, frame: str) -> tuple:
    """(import seconds, seconds, peak_rss_mb) of measure in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "EIGENFRAME_CORPUS")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    out = subprocess.run([sys.executable, __file__, "--measure", str(checkout), str(samples),
                          "--frame", frame],
                         env=env, check=True, capture_output=True, text=True).stdout
    imported, seconds, rss = out.split()
    return float(imported) - start, float(seconds), float(rss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--samples", default="2000,8000", help="a comma list (default 2000,8000)")
    parser.add_argument("--runs", type=int, default=2, help="runs per checkout (default 2)")
    parser.add_argument("--frame", default="ex6.9",
                        help="the id of the bundled corpus frame to analyze (default ex6.9)")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # old is the checkout, new the sample count
        print(measure(args.old.resolve(), int(str(args.new)), args.frame))
        return 0
    checkouts = {"old": args.old.resolve(), "new": args.new.resolve()}
    print(f"analyze {args.frame}")
    print("samples  run  checkout  import_s  seconds  peak_rss_mb")
    for samples in (int(s) for s in args.samples.split(",")):
        for run in range(args.runs):
            order = ("old", "new") if run % 2 == 0 else ("new", "old")
            for name in order:
                imported, seconds, rss = run_checkout(checkouts[name], samples, args.frame)
                print(f"{samples:7d}  {run + 1:3d}  {name:8s}  {imported:8.3f}  {seconds:7.3f}"
                      f"  {rss:11.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
