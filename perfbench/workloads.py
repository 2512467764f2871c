"""The benchmark's workloads: the operations each one runs and the checks on
their outputs.

Every operation goes through a public entry point the way a user reaches it:
``eigenframe.cli.main(argv)`` in-process, or ``potential.entropy_flux`` for
the entropy flux q, which has no CLI command.  Each operation returns its raw
output; its check runs afterwards, outside the timed region, and turns that
output into ``None`` (correct) or a one-line failure reason.

The checks evaluate closed forms with their own numpy evaluator (``np_eval``)
and fit the affine gauge with their own least squares, so a defect in
``exprlang`` or ``potential`` cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from eigenframe import cli
from eigenframe import corpus as corpus_mod
from eigenframe import potential

# Halton offsets passed to ops as --seed.  The workload seed draws one for
# every op in every pass; every op passes its checks at each of these.
OP_SEEDS = tuple(range(8))

DEFAULT_SAMPLES = 50
# Frame-Hessian arrays at 8000 samples are 5.2 MB for n=3 and 16 MB for
# n=4 (computed from array sizes): above a 4 MiB L2, well inside the L3.
BULK_SAMPLES = 8000
BULK_IDS = ("ex6.1b", "ex6.4", "ex6.9", "ex6.12")
GRIDS = (6, 11)
# Bounds of the test suite for reconstructed grids: eta against its closed
# form up to the affine gauge (1e-8 at coarse grids, 1e-6 at 11^3), flux up
# to a constant, and the path-independence residual.
ETA_BOUND = {6: 1e-8, 11: 1e-6}
FLUX_BOUND = 1e-8
PATH_BOUND = 1e-7
Q_BOUND = 1e-8

_NP_FUNCS = {
    "sqrt": np.sqrt, "exp": np.exp, "ln": np.log, "sin": np.sin,
    "cos": np.cos, "tan": np.tan, "arctan": np.arctan,
}


def np_eval(source: str, points: np.ndarray, var_names, params: dict) -> np.ndarray:
    """Evaluate a closed form written in the expression grammar with numpy.

    The grammar's '^' is right-associative and binds tighter than unary
    minus, exactly like Python's '**', so the translation is textual.
    """
    env = dict(_NP_FUNCS)
    env.update(params)
    env.update({name: points[:, d] for d, name in enumerate(var_names)})
    value = eval(source.replace("^", "**"), {"__builtins__": {}}, env)
    return np.broadcast_to(np.asarray(value, dtype=float), points.shape[:1])


def affine_residual(points: np.ndarray, values: np.ndarray, reference: np.ndarray) -> float:
    """Max of values - reference after removing the best-fit affine field."""
    diff = values - reference
    design = np.hstack([points, np.ones((points.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
    return float(np.abs(diff - design @ coef).max())


def grid_nodes(axes) -> np.ndarray:
    mesh = np.meshgrid(*[np.asarray(a) for a in axes], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class Op:
    kind: str  # analyze, verify, selftest, eta, flux, q
    label: str
    group: str  # the end-to-end metric family this op feeds
    points: int  # sample points or grid nodes the op works on
    run: Callable[[int], object]  # takes the op seed
    check: Callable[[object], Optional[str]]


def run_cli(argv: list) -> tuple:
    """eigenframe.cli.main in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def cli_op(argv: list) -> Callable[[int], tuple]:
    return lambda seed: run_cli(["--seed", str(seed)] + argv)


def _json_out(result) -> tuple:
    rc, text = result
    try:
        return rc, json.loads(text)
    except json.JSONDecodeError:
        return rc, None


def corpus_files() -> list:
    """The 13 bundled and 3 extended corpus files, in name order."""
    root = Path(corpus_mod.corpus_dir())
    return sorted(root.glob("*.json")) + sorted((root / "extended").glob("*.json"))


def write_candidates(path: Path, workdir: Path) -> tuple:
    """The corpus document and one written file per recorded candidate."""
    doc = json.loads(path.read_text())
    files = []
    for idx, cand in enumerate(doc["candidates"]):
        target = workdir / f"{doc['id']}.c{idx}.{cand['kind']}.json"
        target.write_text(json.dumps(cand))
        files.append(target)
    return doc, files


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_analyze(expected: dict):
    def check(result):
        rc, out = _json_out(result)
        if rc != cli.EXIT_PASS or out is None:
            return f"exit {rc}"
        got = {"rich": out["richness"], "rank_beta": out["rank_beta"],
               "rank_lambda": out["rank_lambda"], "lambda_case": out["lambda_case"],
               "beta_case": out["beta_case"]}
        if got != expected:
            return f"labels {got} != expected {expected}"
        return None
    return check


def check_verify(result):
    rc, out = _json_out(result)
    if rc != cli.EXIT_PASS or out is None or out.get("passed") is not True:
        return f"exit {rc}, passed={None if out is None else out.get('passed')}"
    if not out["max_scaled_residual"] < out["tol"]:
        return f"residual {out['max_scaled_residual']:.3e} >= tol {out['tol']:.1e}"
    return None


def check_selftest(result):
    rc, out = _json_out(result)
    if rc != cli.EXIT_PASS or out is None or out.get("passed") is not True:
        return f"exit {rc}"
    return None


def _read_grid(result, suffix: str, cand_file: Path):
    """The grid the op wrote; removed once read, so every pass must write
    its own."""
    rc, _ = result
    if rc != cli.EXIT_PASS:
        return None, f"exit {rc}"
    written = cand_file.with_name(cand_file.stem + suffix)
    payload = json.loads(written.read_text())
    written.unlink()
    return payload, None


def check_eta(cand_file: Path, doc: dict, cand: dict, grid: int):
    params = {**doc.get("params", {}), **cand.get("params", {})}

    def check(result):
        payload, err = _read_grid(result, "_eta.json", cand_file)
        if err:
            return err
        nodes = grid_nodes(payload["axes"])
        eta = np.asarray(payload["values"]["eta"]).ravel()
        ref = np_eval(cand["closed_eta"], nodes, doc["vars"], params)
        res = affine_residual(nodes, eta, ref)
        path = payload["meta"]["path_independence_residual"]
        if not (res < ETA_BOUND[grid] and path < PATH_BOUND):
            return f"eta gauge residual {res:.3e}, path residual {path:.3e}"
        return None
    return check


def check_flux(cand_file: Path, doc: dict, cand: dict):
    params = {**doc.get("params", {}), **cand.get("params", {})}

    def check(result):
        payload, err = _read_grid(result, "_flux.json", cand_file)
        if err:
            return err
        nodes = grid_nodes(payload["axes"])
        f = np.asarray(payload["values"]["f"]).reshape(nodes.shape[0], -1)
        ref = np.stack([np_eval(s, nodes, doc["vars"], params) for s in cand["closed_f"]], axis=1)
        diff = f - ref
        res = float(np.abs(diff - diff.mean(axis=0)).max())
        path = payload["meta"]["path_independence_residual"]
        if not (res < FLUX_BOUND and path < PATH_BOUND):
            return f"flux residual {res:.3e}, path residual {path:.3e}"
        return None
    return check


def check_q(grid):
    """q = u e^S v^-1.4 for the gas in (v, u, S), up to a constant."""
    nodes = grid.nodes()
    q = np.asarray(grid.values["q"]).ravel()
    ref = nodes[:, 1] * np.exp(nodes[:, 2]) * nodes[:, 0] ** -1.4
    diff = q - ref
    res = float(np.abs(diff - diff.mean()).max())
    return None if res < Q_BOUND else f"q residual {res:.3e}"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _analyze_op(path: Path, doc: dict, samples: int, group: str) -> Op:
    argv = ["--samples", str(samples), "--output", "json", "analyze", str(path)]
    return Op("analyze", f"analyze {doc['id']}", group, samples,
              cli_op(argv), check_analyze(doc["expected"]))


def _verify_op(path: Path, cand_file: Path, samples: int, group: str) -> Op:
    argv = ["--samples", str(samples), "--output", "json", "verify", str(path), str(cand_file)]
    return Op("verify", f"verify {cand_file.stem}", group, samples,
              cli_op(argv), check_verify)


def corpus_verdicts(workdir: Path) -> list:
    ops = []
    for path in corpus_files():
        doc, cand_files = write_candidates(path, workdir)
        ops.append(_analyze_op(path, doc, DEFAULT_SAMPLES, "analyze_ms"))
        for cand_file in cand_files:
            ops.append(_verify_op(path, cand_file, DEFAULT_SAMPLES, "verify_ms"))
    ops.append(Op("selftest", "selftest", "selftest_s", DEFAULT_SAMPLES,
                  cli_op(["--output", "json", "selftest"]), check_selftest))
    return ops


def bulk_samples(workdir: Path) -> list:
    ops = []
    by_id = {p.stem: p for p in corpus_files()}
    for cid in BULK_IDS:
        doc, cand_files = write_candidates(by_id[cid], workdir)
        ops.append(_analyze_op(by_id[cid], doc, BULK_SAMPLES, "analyze_points_per_s"))
        for cand_file in cand_files:
            ops.append(_verify_op(by_id[cid], cand_file, BULK_SAMPLES, "verify_points_per_s"))
    return ops


def _pick(doc: dict, kind: str, params: dict) -> dict:
    for cand in doc["candidates"]:
        if cand["kind"] == kind and all(
                cand.get("params", {}).get(k) == v for k, v in params.items()):
            return cand
    raise LookupError(f"{doc['id']} has no {kind} candidate with params {params}")


def _gas_total_energy(doc: dict) -> int:
    """Index of the ex6.1b length candidate carrying the total energy: its
    first component is 2 * 1.4 e^S v^-2.4 at the base point."""
    base = np.asarray(doc["base"], dtype=float)
    target = 2 * 1.4 * np.exp(base[2]) * base[0] ** -2.4
    for idx, cand in enumerate(doc["candidates"]):
        if cand["kind"] != "beta" or "closed_eta" not in cand:
            continue
        params = {**doc.get("params", {}), **cand.get("params", {})}
        first = np_eval(cand["exprs"][0], base[None, :], doc["vars"], params)[0]
        if abs(first - target) < 1e-10:
            return idx
    raise LookupError("ex6.1b has no total-energy length candidate")


def reconstruct_grids(workdir: Path) -> list:
    ops = []
    by_id = {p.stem: p for p in corpus_files()}
    jobs = [("ex6.10", "beta", {"K1": 1.0, "K2": 0.0}),
            ("ex6.11", "beta", {"K": 1.0}),
            ("ex6.6", "lambda", {})]
    for cid, kind, params in jobs:
        doc = json.loads(by_id[cid].read_text())
        cand = _pick(doc, kind, params)
        for g in GRIDS:
            # each grid writes its outputs next to its own candidate copy
            cand_file = workdir / f"{cid}.{kind}.g{g}.json"
            cand_file.write_text(json.dumps(cand))
            argv = ["--grid", f"{g},{g},{g}", "--output", "json"]
            files = [str(by_id[cid]), str(cand_file)]
            if kind == "beta":
                ops.append(Op("eta", f"eta {cid} g{g}", f"eta_s_g{g}", g ** 3,
                              cli_op(argv + ["reconstruct"] + files),
                              check_eta(cand_file, doc, cand, g)))
            else:
                ops.append(Op("flux", f"flux {cid} g{g}", f"flux_s_g{g}", g ** 3,
                              cli_op(argv + ["--flux", "reconstruct"] + files),
                              check_flux(cand_file, doc, cand)))
    gas = by_id["ex6.1b"]
    energy = _gas_total_energy(json.loads(gas.read_text()))

    def entropy_flux_q(seed):  # q samples no points, so the seed is unused
        case = corpus_mod.load_example(gas)
        lam = next(c for k, c in case.candidates if k == "lambda")
        return potential.entropy_flux(case.spec, lam, case.candidates[energy][1],
                                      case.spec.base_point, (6, 6, 6))

    ops.append(Op("q", "q ex6.1b g6", "q_s_g6", 6 ** 3, entropy_flux_q, check_q))
    return ops


WORKLOADS = {
    "corpus-verdicts": corpus_verdicts,
    "reconstruct-grids": reconstruct_grids,
    "bulk-samples": bulk_samples,
}


def prepare(name: str, workdir: Path) -> list:
    """The workload's ops, with their input files written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](workdir)


def schedule(ops: list, rng: random.Random) -> list:
    """One pass: every op once, in shuffled order, each with its op seed."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [(i, rng.choice(OP_SEEDS)) for i in order]
