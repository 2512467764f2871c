"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import V3, connect, frame_jets, jets, random_orthonormal_frame, random_polynomial_frame

from eigenframe import classify as cl
from eigenframe import corpus as corpus_mod
from eigenframe import exprlang as ex
from eigenframe import geometry as g
from eigenframe import potential as pot
from eigenframe import systems as sy


def _line(num: int, tag: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {tag}: {status} ({detail})")
    assert passed, f"criterion {num} {tag}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_corpus_residuals(corpus_cases):
    """Every recorded candidate of every example verifies below 1e-9 over
    50 Halton samples, within the stated time budget."""
    start = time.time()
    worst = 0.0
    count = 0
    for cid, case in sorted(corpus_cases.items()):
        conn = connect(case.spec)
        for kind, cand in case.candidates:
            if kind == "beta":
                rec = sy.beta_residual(conn, cand)
            else:
                rec = sy.lambda_residual(conn, cand)
            worst = max(worst, rec.max_scaled)
            count += 1
    elapsed = time.time() - start
    _line(1, "corpus-residuals", worst < 1e-9 and elapsed < 60.0,
          f"{count} candidates, max residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_rank_duality(corpus_cases):
    rng = np.random.default_rng(2024)
    worst_identity = 0.0
    ranks_equal = True
    for _ in range(100):
        spec = random_polynomial_frame(rng)
        conn = g.eval_connection(spec, spec.sample_points(12))
        worst_identity = max(worst_identity, sy.check_rank_duality_n3(conn))
        a = sy.beta_algebraic(conn)
        b = sy.lambda_algebraic(conn)
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        per_sample_a = (sa > 1e-8 * np.maximum(sa[:, :1], 1e-300)).sum(axis=1)
        per_sample_b = (sb > 1e-8 * np.maximum(sb[:, :1], 1e-300)).sum(axis=1)
        ranks_equal = ranks_equal and bool(np.all(per_sample_a == per_sample_b))
    spec4 = corpus_cases["ex6.12"].spec
    conn4 = g.eval_connection(spec4, spec4.sample_points(30))
    rank_l = sy.generic_rank(sy.lambda_algebraic(conn4))
    rank_b = sy.generic_rank(sy.beta_algebraic(conn4))
    ok = worst_identity < 1e-12 and ranks_equal and (rank_l, rank_b) == (3, 2)
    _line(2, "rank-duality", ok,
          f"identity {worst_identity:.2e}, ranks equal {ranks_equal}, "
          f"n=4 ranks ({rank_l},{rank_b})")


EXPECTED_TABLE = {
    "ex6.5": "nr-1",
    "ex6.6": "nr-2",
    "ex6.7": "nr-2",
    "ex6.8": "nr-3a",
    "ex6.9-g0": "nr-3a",
    "ex6.9": "nr-3b",
    "ex6.1b": "nr-4a",
    "ex6.10-nr4a-variant": "nr-4a",
    "ex6.10": "nr-4b",
    "ex6.11": "nr-4c",
    "ex6.2": "unconstrained",
    "ex6.1a": "unconstrained",
    "ex6.4": "rich-3",
}


def test_criterion_3_classification(corpus_cases):
    mismatches = []
    for cid, expected in EXPECTED_TABLE.items():
        report = cl.classify(connect(corpus_cases[cid].spec))
        if report.beta_case != expected:
            mismatches.append((cid, expected, report.beta_case))
    report = cl.classify(connect(corpus_cases["ex6.3"].spec))
    if not (report.rank_beta == 2 and report.lambda_case == "III"):
        mismatches.append(("ex6.3", "rank2/III", f"{report.rank_beta}/{report.lambda_case}"))
    _line(3, "classification", not mismatches,
          f"{len(EXPECTED_TABLE) + 1} cases checked" +
          (f"; mismatches {mismatches}" if mismatches else ""))


def test_criterion_4_geometric_identities(corpus_cases):
    rng = np.random.default_rng(4)
    worst_sym = worst_flat = worst_bracket = 0.0
    specs = [case.spec for case in corpus_cases.values()]
    specs += [random_polynomial_frame(rng) for _ in range(100)]
    for spec in specs:
        conn = connect(spec, 10)
        t, c = g.check_symmetry_flatness(conn)
        worst_sym = max(worst_sym, t)
        worst_flat = max(worst_flat, c)
        cb = g.structure_coefficients_bracket(conn)
        worst_bracket = max(
            worst_bracket,
            float(np.abs(conn.c - cb).max() / (1.0 + np.abs(conn.Gamma).max())),
        )
    ok = worst_sym < 1e-8 and worst_flat < 1e-8 and worst_bracket < 1e-10
    _line(4, "geometric-identities", ok,
          f"{len(specs)} frames: torsion {worst_sym:.2e}, curvature {worst_flat:.2e}, "
          f"bracket {worst_bracket:.2e}")


def test_criterion_5_scaling_covariance(corpus_cases):
    rng = np.random.default_rng(55)
    sources = []
    for cid, case in sorted(corpus_cases.items()):
        if case.spec.n != 3:
            continue
        for kind, cand in case.candidates:
            if kind == "beta" and any(not isinstance(e, ex.Num) for e in cand.exprs):
                sources.append((case.spec, cand))
    worst = 0.0
    trials = 0
    i = 0
    while trials < 20:
        spec, cand = sources[i % len(sources)]
        i += 1
        a, b, c = rng.uniform(0.2, 0.8, size=3)
        alphas = [f"{1 + a:.4f}+{b:.4f}*{spec.vars[0]}^2",
                  f"{1 + b:.4f}+{c:.4f}*{spec.vars[1]}",
                  f"{1 + c:.4f}+{a:.4f}*{spec.vars[2]}^2"]
        pts = spec.sample_points(25, seed=trials)
        base_res = sy.beta_residual(g.eval_connection(spec, pts), cand).max_scaled
        if base_res > 1e-9:
            continue
        scaled_spec = g.scale_frame(spec, alphas)
        scaled_sources = [
            f"(({al})^2)*({ex.to_source(e)})" for al, e in zip(alphas, cand.exprs)
        ]
        scaled_cand = sy.BetaCandidate.from_sources(scaled_sources, spec.vars, cand.params)
        scaled_conn = g.eval_connection(scaled_spec, pts)
        worst = max(worst, sy.beta_residual(scaled_conn, scaled_cand).max_scaled)
        trials += 1
    _line(5, "scaling-covariance", worst < 1e-8, f"20 triples, max residual {worst:.3e}")


def test_criterion_6_orthonormal_coincidence():
    rng = np.random.default_rng(66)
    worst = 0.0
    for trial in range(20):
        spec = random_orthonormal_frame(rng)
        pts = spec.sample_points(12, seed=trial)
        R, _, _ = frame_jets(spec, pts)
        gram = np.einsum("mai,maj->mij", R, R)
        assert np.abs(gram - np.eye(3)).max() < 1e-12
        cand_sources = [
            f"u1+{rng.uniform(0.5, 1.5):.4f}*u2",
            f"sin(u2)+{rng.uniform(0.5, 1.5):.4f}*u3",
            f"u3^2+{rng.uniform(0.5, 1.5):.4f}",
        ]
        b = sy.BetaCandidate.from_sources(cand_sources, V3)
        l = sy.LambdaCandidate.from_sources(cand_sources, V3)
        conn = g.eval_connection(spec, pts)
        rb = sy.beta_residual(conn, b)
        rl = sy.lambda_residual(conn, l)
        worst = max(
            worst,
            float(np.abs(rb.pde_raw - rl.pde_raw).max()),
            float(np.abs(rb.alg_raw - rl.alg_raw).max()),
        )
    _line(6, "orthonormal-coincidence", worst < 1e-12,
          f"20 frames, max componentwise gap {worst:.3e}")


def test_criterion_7_reconstruction(corpus_cases):
    results = []
    # scalar potentials on 11^3 grids
    for cid, pick in (("ex6.10", {"K1": 1.0, "K2": 0.0}), ("ex6.11", {"K": 1.0})):
        case = corpus_cases[cid]
        cand = next(
            c for k, c in case.candidates
            if k == "beta" and c.eta_expr is not None
            and all(abs(c.params.get(p) - v) < 1e-12 for p, v in pick.items())
        )
        grid = pot.reconstruct_eta(case.spec, cand, case.spec.base_point, (11, 11, 11))
        pts = grid.nodes()
        ref = ex.eval_scalar_many(cand.eta_expr, pts, {**case.spec.params, **cand.params})
        err = pot.affine_gauge_compare(pts, grid.values["eta"].ravel(), ref)
        results.append((f"{cid} eta", err, 1e-6, grid.meta["path_independence_residual"]))
    # flux on ex6.6
    case = corpus_cases["ex6.6"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    grid = pot.reconstruct_flux(case.spec, lam, case.spec.base_point, (9, 9, 9))
    pts = grid.nodes()
    ref = np.stack(
        [ex.eval_scalar_many(e, pts, {**case.spec.params, **lam.params}) for e in lam.f_exprs],
        axis=1,
    )
    F = grid.values["f"].reshape(-1, 3)
    shift = (F - ref).mean(axis=0)
    err = float(np.abs(F - ref - shift).max())
    results.append(("ex6.6 flux", err, 1e-8, grid.meta["path_independence_residual"]))
    ok = all(err < bound and path < 1e-7 for _, err, bound, path in results)
    detail = "; ".join(f"{tag} err {err:.2e} path {path:.2e}" for tag, err, bound, path in results)
    _line(7, "reconstruction", ok, detail)


def test_criterion_8_eigenvalue_gap_identity(corpus_cases):
    worst = 0.0
    pairs = 0
    for cid, case in sorted(corpus_cases.items()):
        conn = connect(case.spec)
        lams = [c for k, c in case.candidates if k == "lambda"]
        bets = [c for k, c in case.candidates if k == "beta"]
        for lam in lams:
            lrec = sy.lambda_residual(conn, lam)
            if lrec.max_scaled > 1e-9:
                continue
            for bet in bets:
                brec = sy.beta_residual(conn, bet)
                if brec.max_scaled > 1e-9:
                    continue
                try:
                    res = sy.sevennec_identity(conn, brec.values, lrec.values)
                except sy.CoincidentEigenvaluesError:
                    continue
                worst = max(worst, res)
                pairs += 1
    _line(8, "eigenvalue-gap-identity", worst < 1e-9 and pairs >= 4,
          f"{pairs} verified strictly hyperbolic pairs, max residual {worst:.3e}")


def test_criterion_9_chart_space_solver(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    base_w = np.array([0.0, 0.2, 1.0])
    phi = [lambda t: np.exp(2 * t), lambda t: 1.0 + np.sin(t), lambda t: t]

    def closed(W):
        return (
            np.exp(2 * W[..., 0]),
            np.exp(2 * W[..., 0]) + np.exp(W[..., 0]) * np.sin(W[..., 1]),
            W[..., 2],
        )

    errs = {}
    for h in (1 / 32, 1 / 64):
        counts = [int(round(0.5 / h)) + 1] * 3
        grid = pot.solve_rich_beta(spec, spec.chart, phi, base_w, counts, h)
        W = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
        refs = closed(W)
        errs[h] = max(
            np.abs(grid.values[f"gamma{j + 1}"] - refs[j]).max() for j in range(3)
        )
    ratio = errs[1 / 32] / errs[1 / 64]
    ok = errs[1 / 64] < 1e-6 and 12.0 <= ratio <= 20.0
    _line(9, "chart-space-solver", ok,
          f"error at h=1/64 {errs[1 / 64]:.3e}, refinement ratio {ratio:.1f}")


def test_criterion_10_entropy_classification(corpus_cases):
    case = corpus_cases["ex6.1b"]
    bet = next(
        c for k, c in case.candidates
        if k == "beta" and c.eta_expr is not None
        and abs(ex.eval_scalar_many(c.exprs[0], case.spec.base_point, c.params)
                - 1.4 * np.exp(case.spec.base_point[2]) * case.spec.base_point[0] ** -2.4) < 1e-10
    )
    gas = sy.convexity_classify(ex.eval_scalar_many(bet.tape, case.spec.sample_points(50)))
    case11 = corpus_cases["ex6.11"]
    bet11 = next(c for k, c in case11.candidates if k == "beta")
    mixed = sy.convexity_classify(ex.eval_scalar_many(bet11.tape, case11.spec.sample_points(50)))
    ok = gas["verdict"] == "strict_entropy" and mixed["verdict"] == "extension_only"
    _line(10, "entropy-classification", ok,
          f"gas {gas['verdict']}, mixed-sign {mixed['verdict']}")


def test_criterion_11_property_suite(corpus_cases):
    rng = np.random.default_rng(11)
    sources = [
        "u1^2/2 + u2*u3 - 3*u1",
        "exp(-u3)*sin(u1) + cos(u2)^2",
        "sqrt(u1+2)*ln(u2+3)",
        "(u1+u2)/(u3+2) + arctan(u1*u2)",
        "tan(u1/4) + u2^3*u3",
    ]
    worst_fd = 0.0
    h = 1e-5
    for trial in range(100):
        e = ex.parse_expression(sources[trial % len(sources)], V3)
        p = rng.uniform(0.3, 1.7, size=3)
        _, grad, _ = jets(e, p)
        grad_fd = np.zeros(3)
        for i in range(3):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            grad_fd[i] = (ex.eval_scalar_many(e, pp) - ex.eval_scalar_many(e, pm)) / (2 * h)
        scale = 1.0 + np.abs(grad).max()
        worst_fd = max(worst_fd, float(np.abs(grad - grad_fd).max() / scale))
    # bit-for-bit scalar/jet agreement and exact Hessian symmetry
    pts = rng.uniform(0.4, 1.6, size=(30, 3))
    exact_ok = True
    for src in sources:
        e = ex.parse_expression(src, V3)
        value, _, hess = jets(e, pts)
        exact_ok = exact_ok and np.array_equal(value, ex.eval_scalar_many(e, pts))
        exact_ok = exact_ok and np.array_equal(hess, np.swapaxes(hess, -1, -2))
    # trivial solutions, n=2 emptiness
    spec2 = g.frame_from_sources(
        [["1", "u2"], ["0", "1+u1^2"]], ["u1", "u2"], domain=((0, 0), (1, 1))
    )
    conn2 = g.eval_connection(spec2, spec2.sample_points(10))
    empty_ok = sy.beta_algebraic(conn2).shape[1] == 0
    spec = corpus_cases["ex6.8"].spec
    zero = sy.BetaCandidate.from_sources(["0", "0", "0"], V3)
    const = sy.LambdaCandidate.from_sources(["7", "7", "7"], V3)
    conn3 = connect(spec, 20)
    trivial_ok = (
        sy.beta_residual(conn3, zero).max_scaled == 0.0
        and sy.lambda_residual(conn3, const).max_scaled < 1e-13
    )
    ok = worst_fd < 1e-5 and exact_ok and empty_ok and trivial_ok
    _line(11, "property-suite", ok,
          f"fd gap {worst_fd:.2e}, exact identities {exact_ok}, "
          f"empty n=2 algebra {empty_ok}, trivial solutions {trivial_ok}")
