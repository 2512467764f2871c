"""The eigenframe benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client in this process runs the workload's ops
(see ``workloads.py``) pass after pass, for at least ``--seconds`` seconds
and at least ``MIN_PASSES`` passes, and checks every output.  ``--seed``
shuffles the order of every pass and draws each op's ``--seed``.  BLAS and
OpenMP are pinned to at most two threads, and never more than ``nproc``.

Other tenants of a shared host slow it by up to 40% for stretches of tens of
seconds to minutes, longer than a run.  So a fixed pure-Python loop (the
probe) is timed just before every op, and the end-to-end times other than
``setup_s`` are scaled to a reference host speed: multiplied by
``PROBE_REF_S`` over the run's median probe time.  The raw wall times are
on the ``details`` line, together with that factor (``host_speed``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` list of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` list.  The lines before it record the environment and the
workload's own named metrics (``details``).  A traced run alternates
untraced and traced passes, reports per-layer numbers per traced pass and
the tracing overhead, and writes its spans to ``.bench_out/``.  Input and
output files of the ops live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 5
MIN_PASSES = 3
PROBE_LOOPS = 60000
# The probe's time on a quiet 2-core Xeon host (4 MiB L2, 105 MiB L3); a
# fixed scale, so that reference-speed times read close to wall times there.
PROBE_REF_S = 0.005


def pin_environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(2, nproc))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ.pop("EIGENFRAME_CORPUS", None)
    return {"nproc": nproc, "threads": {var: threads for var in THREAD_VARS}}


def cpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {key.strip(): value.strip() for key, value in
            (line.split(":", 1) for line in text.splitlines() if ":" in line)
            if "cache" in key}


def probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def measure_setup(name: str, workdir: Path) -> float:
    """Median wall time from starting a fresh process until it has imported
    the package and prepared the workload's inputs (what a user pays before
    the first op).  The child reads the system-wide monotonic clock when it
    is done: waiting for it with a timeout polls in steps of up to 50 ms."""
    times = []
    for rep in range(SETUP_REPS):
        target = workdir / f"setup{rep}"
        target.mkdir()
        code = ("import sys, time; from pathlib import Path; "
                f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; import workloads; "
                f"workloads.prepare({name!r}, Path({str(target)!r})); "
                "print(time.perf_counter())")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], check=True, timeout=150,
                              capture_output=True, text=True).stdout
        times.append(float(done) - start)
    return statistics.median(times)


def run_pass(ops, plan, tracer=None, pass_no=0) -> list:
    """The planned (op index, op seed) pairs in order: a row of (op index,
    seconds, failure or None, probe seconds just before) for each."""
    rows = []
    for i, seed in plan:
        op = ops[i]
        probe_s = probe()
        if tracer is not None:
            tracer.op_id = f"{pass_no}:{i}"
        start = time.perf_counter()
        try:
            result = op.run(seed)
        except Exception as err:  # a failing op is counted; the run goes on
            rows.append((i, time.perf_counter() - start,
                         f"{type(err).__name__}: {err}", probe_s))
            continue
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op_id = None
        try:
            failure = op.check(result)
        except Exception as err:  # a check that cannot read the output fails it
            failure = f"check raised {type(err).__name__}: {err}"
        rows.append((i, elapsed, failure, probe_s))
    return rows


def op_medians(ops, rows) -> list:
    """Each op's median time over the run's passes (and op seeds)."""
    times = [[] for _ in ops]
    for i, elapsed, _, _ in rows:
        times[i].append(elapsed)
    return [statistics.median(t) for t in times]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def host_speed(rows) -> float:
    return PROBE_REF_S / statistics.median(row[3] for row in rows)


def end_to_end(ops, rows, setup_s: float) -> tuple:
    """The contract metrics, common to every workload, and the workload's
    own named metrics in wall time (details)."""
    med = op_medians(ops, rows)
    speed = host_speed(rows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for row in rows if row[2] is not None)
    metrics = {
        "setup_s": setup_s,
        "pass_ref_s": speed * sum(med),
        "op_ref_ms_p50": speed * 1e3 * statistics.median(med),
        "op_ref_ms_p90": speed * 1e3 * p90(med),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_s": (setup_s, "s"),
        "fail_ratio": (failed / len(rows), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "host_speed": (speed, "ratio"),
        "pass_s": (sum(med), "s"),
    }
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.group, []).append(i)
    for group, members in groups.items():
        times = [med[i] for i in members]
        if group.endswith("_ms"):
            details[f"{group}_p50"] = (1e3 * statistics.median(times), "ms")
            details[f"{group}_p90"] = (1e3 * p90(times), "ms")
        elif group.endswith("_points_per_s"):
            details[group] = (sum(ops[i].points for i in members) / sum(times), "1/s")
        else:
            details[group] = (statistics.fmean(times), "s")
    return metrics, details


def per_layer(tracer, traced_rows, untraced_rows, ops, traced_passes: int) -> dict:
    """Per traced pass: calls, points and self seconds of each span name,
    the counters, frame-jet useful/attempted, and the tracing overhead."""
    summary = tracer.summary()
    spans = summary["spans"]
    metrics = {}
    for name in ("exprlang.jet2", "exprlang.values", "exprlang.parse",
                 "exprlang.differentiate", "geometry.frame_jets", "geometry.connection",
                 "geometry.checks", "systems.residual", "systems.rank", "systems.sevennec",
                 "systems.convexity", "classify.lambda_n3", "classify.beta_rich",
                 "classify.beta_nonrich", "classify.normalize", "potential.field_values",
                 "potential.field_grad", "potential.curl", "potential.sweep", "potential.io",
                 "corpus.load", "corpus.run_example", "cli"):
        row = spans.get(name, {"calls": 0, "points": 0, "self_s": 0.0})
        for key in ("calls", "points", "self_s"):
            metrics[f"{name}.{key}"] = row[key] / traced_passes
    attempted = metrics["geometry.frame_jets.calls"] * traced_passes
    metrics["geometry.frame_jets.per_op"] = (
        summary["frame_sets"] / attempted if attempted else 1.0)
    for name in ("classify.perms_tried", "potential.quad_panels"):
        metrics[name] = summary["counts"].get(name, 0) / traced_passes
    traced = host_speed(traced_rows) * sum(op_medians(ops, traced_rows))
    untraced = host_speed(untraced_rows) * sum(op_medians(ops, untraced_rows))
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    return metrics


def warm_up_plan(ops) -> list:
    """The smallest op of each kind that the workload runs more than once,
    so that lazy set-up is done before timing starts."""
    by_kind = {}
    for i, op in enumerate(ops):
        by_kind.setdefault(op.kind, []).append(i)
    return [(min(members, key=lambda i: (ops[i].points, ops[i].label)), 0)
            for members in by_kind.values() if len(members) > 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    env = pin_environment()
    if not (SRC / "eigenframe" / "cli.py").is_file():
        print(f"error: no eigenframe sources under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import numpy as np

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env.update({"python": platform.python_version(), "numpy": np.__version__,
                "caches": cpu_caches(), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace})

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = measure_setup(args.workload, workdir)
        ops = workloads.prepare(args.workload, workdir / "ops")
        rng = random.Random(f"{args.workload}:{args.seed}")
        rows = run_pass(ops, warm_up_plan(ops))
        untraced, traced = [], []
        tracer = Tracer() if args.trace else None
        passes = traced_passes = 0
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or passes < MIN_PASSES
               or (tracer is not None and traced_passes == 0)):
            plan = workloads.schedule(ops, rng)
            if tracer is not None and passes % 2 == 1:
                tracer.install()
                try:
                    traced += run_pass(ops, plan, tracer, passes)
                finally:
                    tracer.uninstall()
                traced_passes += 1
            else:
                untraced += run_pass(ops, plan)
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    rows += untraced + traced
    for i, _, failure, _ in rows:
        if failure is not None:
            print(f"FAIL {ops[i].label}: {failure}", file=sys.stderr)
    metrics, details = end_to_end(ops, untraced, setup_s)
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced, ops, traced_passes)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    failed = sum(1 for row in rows if row[2] is not None)
    env["passes"] = {"untraced": passes - traced_passes, "traced": traced_passes}
    print(json.dumps({"env": env}))
    print(json.dumps({"details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
