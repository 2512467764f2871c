"""Run every workload over several seeds, print every metric and record them.

    python3 perfbench/baseline.py [--seeds 10] [--seconds S] [--workloads a,b] [--out F]

For each workload this runs ``run.py`` once per seed untraced and once traced
(on the first seed), then prints every end-to-end metric, the workload's own
named metrics and the per-layer metrics, each by name with its unit.  For the
untraced runs it gives the median and the spread (distance between the first
and third quartile as a share of the median).  The numbers, with the
environment each run recorded, replace the workload's entry in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()[-3:]]
    return {"env": lines[0]["env"], "details": lines[1]["details"], "result": lines[2]}


def spread_row(values: list, unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarize(runs: list, key) -> dict:
    names = key(runs[0]).keys()
    return {name: spread_row([key(r)[name]["value"] for r in runs], key(runs[0])[name]["unit"])
            for name in names}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = parser.parse_args(argv)

    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = run_once(workload, 1, args.seconds, 1)
        entry = {
            "seconds": args.seconds,
            "runs": [{"env": r["env"], "correct": r["result"]["correct"],
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"]}
                     for r in runs + [traced]],
            "end_to_end": summarize(runs, lambda r: r["result"]["metrics"]),
            "details": summarize(runs, lambda r: r["details"]),
            "per_layer": traced["result"]["metrics"],
        }
        report["workloads"][workload] = entry
        print(f"== {workload}: {args.seeds} seeds, {args.seconds:g} s each; "
              f"failed ops {sum(r['failed'] for r in entry['runs'])} of "
              f"{sum(r['attempted'] for r in entry['runs'])}")
        for section in ("end_to_end", "details"):
            for name, row in entry[section].items():
                print(f"  {name:32s} {row['median']:14.6g} {row['unit']:6s} "
                      f"spread {row['spread']:.3f}")
        for name, row in entry["per_layer"].items():
            print(f"  {name:32s} {row['value']:14.6g} {row['unit']:6s} (traced)")
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
