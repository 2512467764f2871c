"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402
from eigenframe import corpus as corpus_mod  # noqa: E402
from eigenframe import exprlang  # noqa: E402


def git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_contract_metrics_and_leaves_tree_clean(trace, section):
    if not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout")
    before = git_status()
    proc = bench("--workload", "corpus-verdicts", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in contract[section]]
    for m in contract[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    env = json.loads(proc.stdout.splitlines()[-3])["env"]
    assert env["seed"] == 3 and env["threads"]["OMP_NUM_THREADS"] in ("1", "2")
    assert git_status() == before
    assert not (ROOT / ".bench_work").exists()


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "corpus-verdicts", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_evaluator_matches_exprlang():
    """The checks' own evaluator agrees with exprlang on every closed form."""
    for path in workloads.corpus_files():
        doc = json.loads(path.read_text())
        case = corpus_mod.load_example(path)
        points = case.spec.sample_points(20)
        for (_, cand), raw in zip(case.candidates, doc["candidates"]):
            params = {**case.spec.params, **cand.params}
            sources = [raw.get("closed_eta")] + raw.get("closed_f", []) + raw["exprs"]
            for source in filter(None, sources):
                ours = workloads.np_eval(source, points, doc["vars"], params)
                ref = exprlang.eval_scalar_many(
                    exprlang.parse_expression(source, doc["vars"], params), points, params)
                assert np.allclose(ours, ref, rtol=1e-13, atol=1e-13), (path.name, source)


def test_checks_reject_wrong_outputs():
    expected = {"rich": False, "rank_beta": 1, "rank_lambda": 1,
                "lambda_case": "IIb", "beta_case": "nr-3b"}
    report = {"richness": False, "rank_beta": 1, "rank_lambda": 1,
              "lambda_case": "IIb", "beta_case": "nr-3a"}
    assert workloads.check_analyze(expected)((0, json.dumps(report))) is not None
    report["beta_case"] = "nr-3b"
    assert workloads.check_analyze(expected)((0, json.dumps(report))) is None
    assert workloads.check_verify((1, json.dumps({"passed": False}))) is not None
    assert workloads.check_verify(
        (0, json.dumps({"passed": True, "max_scaled_residual": 2e-8, "tol": 1e-8}))) is not None

    class Grid:
        def __init__(self, shift):
            self.nodes_ = np.random.default_rng(0).uniform(1.0, 2.0, size=(30, 3))
            n = self.nodes_
            self.values = {"q": n[:, 1] * np.exp(n[:, 2]) * n[:, 0] ** -1.4 + shift}

        def nodes(self):
            return self.nodes_

    assert workloads.check_q(Grid(3.0)) is None
    bad = Grid(0.0)
    bad.values["q"][4] += 1e-6
    assert workloads.check_q(bad) is not None
