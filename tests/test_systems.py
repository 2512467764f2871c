"""Algebraic systems, residual records, rank duality, the eigenvalue-gap
identity, convexity classification, and chart-space compatibility."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import V3, connect, random_polynomial_frame

from eigenframe import geometry as g
from eigenframe import systems as sy
from eigenframe.errors import CoincidentEigenvaluesError


def standard_frame():
    return g.frame_from_sources(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], V3,
        domain=((0, 0, 0), (1, 1, 1)),
    )


# ---------------------------------------------------------------------------
# algebraic parts
# ---------------------------------------------------------------------------


def test_standard_frame_algebraic_parts_vanish():
    spec = standard_frame()
    conn = g.eval_connection(spec, spec.sample_points(10))
    assert np.abs(sy.beta_algebraic(conn).matrix).max() == 0.0
    assert np.abs(sy.lambda_algebraic(conn).matrix).max() == 0.0
    assert sy.generic_rank(sy.beta_algebraic(conn).matrix) == 0


def test_two_component_frame_has_no_algebraic_part():
    spec = g.frame_from_sources(
        [["1", "u2"], ["0", "1+u1^2"]], ["u1", "u2"], domain=((0, 0), (1, 1))
    )
    conn = g.eval_connection(spec, spec.sample_points(10))
    assert sy.beta_algebraic(conn).matrix.shape[1] == 0
    assert sy.lambda_algebraic(conn).matrix.shape[1] == 0


def test_euler_rows_reduce_to_single_constraint(corpus_cases):
    """For the gas frame every nonzero algebraic row is proportional to
    (1, 0, -1): the first and third lengths agree."""
    spec = corpus_cases["ex6.1b"].spec
    conn = g.eval_connection(spec, spec.sample_points(20))
    rows = sy.beta_algebraic(conn).matrix
    target = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
    for p in range(rows.shape[0]):
        for r in range(rows.shape[1]):
            nrm = np.linalg.norm(rows[p, r])
            if nrm > 1e-12:
                assert abs(abs(rows[p, r] @ target) / nrm - 1.0) < 1e-10


def test_ex66_lambda_constraint_direction(corpus_cases):
    spec = corpus_cases["ex6.6"].spec
    pts = spec.sample_points(10)
    conn = g.eval_connection(spec, pts)
    rows = sy.lambda_algebraic(conn).matrix
    for p in range(rows.shape[0]):
        u2 = conn.points[p, 1]
        target = np.array([1 - u2, -2.0, 1 + u2])
        target /= np.linalg.norm(target)
        _, _, vt = np.linalg.svd(rows[p])
        assert abs(abs(vt[0] @ target) - 1.0) < 1e-10


def test_n4_frame_rank_witness(corpus_cases):
    spec = corpus_cases["ex6.12"].spec
    conn = g.eval_connection(spec, spec.sample_points(25))
    assert sy.generic_rank(sy.lambda_algebraic(conn).matrix) == 3
    assert sy.generic_rank(sy.beta_algebraic(conn).matrix) == 2


def test_rank2_frame(corpus_cases):
    spec = corpus_cases["ex6.3"].spec
    conn = g.eval_connection(spec, spec.sample_points(25))
    assert sy.generic_rank(sy.beta_algebraic(conn).matrix) == 2
    assert sy.generic_rank(sy.lambda_algebraic(conn).matrix) == 2


def test_rank_duality_on_random_frames():
    rng = np.random.default_rng(21)
    for _ in range(5):
        spec = random_polynomial_frame(rng)
        conn = g.eval_connection(spec, spec.sample_points(20))
        assert sy.check_rank_duality_n3(conn) < 1e-12
        a = sy.beta_algebraic(conn).matrix
        b = sy.lambda_algebraic(conn).matrix
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        assert np.abs(sa - sb).max() < 1e-12


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_trivial_solutions_have_zero_residual():
    rng = np.random.default_rng(23)
    spec = random_polynomial_frame(rng)
    conn = connect(spec, 15)
    zero = sy.BetaCandidate.from_sources(["0", "0", "0"], V3)
    assert sy.beta_residual(conn, zero).max_scaled == 0.0
    const = sy.LambdaCandidate.from_sources(["2.5", "2.5", "2.5"], V3)
    assert sy.lambda_residual(conn, const).max_scaled < 1e-14


def test_corpus_candidate_residuals(corpus_cases):
    for cid in ("ex6.11", "ex6.6", "ex6.1b"):
        case = corpus_cases[cid]
        conn = connect(case.spec)
        for kind, cand in case.candidates:
            if kind == "beta":
                rec = sy.beta_residual(conn, cand)
            else:
                rec = sy.lambda_residual(conn, cand)
            assert rec.max_scaled < 1e-10, (cid, kind)


def test_broken_candidate_is_located(corpus_cases):
    case = corpus_cases["ex6.11"]
    bad = sy.BetaCandidate.from_sources(["-2*u2", "2*u2", "u1"], V3)
    rec = sy.beta_residual(connect(case.spec, 20), bad)
    assert rec.max_scaled > 1e-3
    worst = rec.worst()
    assert worst["label"] is not None and worst["value"] > 1e-3


# ---------------------------------------------------------------------------
# cross-system identity
# ---------------------------------------------------------------------------


def test_sevennec_identity_on_gas_frame(corpus_cases):
    case = corpus_cases["ex6.1b"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    bet = next(c for k, c in case.candidates if k == "beta")
    res = sy.sevennec_identity(connect(case.spec, 40), bet, lam)
    assert res < 1e-9


def test_sevennec_trivial_for_rich_rank0(corpus_cases):
    case = corpus_cases["ex6.2"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    bet = next(c for k, c in case.candidates if k == "beta")
    res = sy.sevennec_identity(connect(case.spec, 30), bet, lam)
    assert res < 1e-12


def test_sevennec_rejects_coincident_eigenvalues(corpus_cases):
    case = corpus_cases["ex6.1b"]
    bet = next(c for k, c in case.candidates if k == "beta")
    trivial = sy.LambdaCandidate.from_sources(["1", "1", "1"], case.spec.vars)
    with pytest.raises(CoincidentEigenvaluesError):
        sy.sevennec_identity(connect(case.spec, 20), bet, trivial)


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def test_convexity_strict_entropy_for_gas(corpus_cases):
    case = corpus_cases["ex6.1b"]
    bet = next(c for k, c in case.candidates if k == "beta")
    out = sy.convexity_classify(bet, case.spec.sample_points(40))
    assert out["verdict"] == "strict_entropy"


def test_convexity_degenerate_zero():
    spec = standard_frame()
    zero = sy.BetaCandidate.from_sources(["0", "0", "0"], V3)
    out = sy.convexity_classify(zero, spec.sample_points(10))
    assert out["verdict"] == "entropy"


def test_convexity_extension_only(corpus_cases):
    case = corpus_cases["ex6.11"]
    bet = next(c for k, c in case.candidates if k == "beta")
    out = sy.convexity_classify(bet, case.spec.sample_points(40))
    assert out["verdict"] == "extension_only"


def test_convexity_indefinite():
    spec = standard_frame()
    cand = sy.BetaCandidate.from_sources(["u1-0.5", "1", "1"], V3)
    out = sy.convexity_classify(cand, spec.sample_points(40))
    assert out["verdict"] == "indefinite"


# ---------------------------------------------------------------------------
# chart-space compatibility coefficients
# ---------------------------------------------------------------------------


def test_darboux_compatibility_rotational(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    rng = np.random.default_rng(31)
    w = np.stack(
        [rng.uniform(0.0, 0.4, 20), rng.uniform(0.2, 0.6, 20), rng.uniform(1.0, 1.4, 20)],
        axis=1,
    )
    assert sy.darboux_compatibility(spec, spec.chart, w) < 1e-8


def test_darboux_compatibility_identity_chart():
    spec = standard_frame()
    chart = g.chart_from_sources(["u1", "u2", "u3"], ["w1", "w2", "w3"], V3)
    assert sy.darboux_compatibility(spec, chart, spec.sample_points(10)) == 0.0


def test_darboux_compatibility_detector(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    rng = np.random.default_rng(33)
    w = np.stack(
        [rng.uniform(0.0, 0.4, 10), rng.uniform(0.2, 0.6, 10), rng.uniform(1.0, 1.4, 10)],
        axis=1,
    )
    pb = g.pullback_connection(spec, spec.chart, w)
    Z = pb.Z.copy()
    Z[:, 1, 2, 0] += 0.1  # corrupt one cross component
    assert sy.compat_coefficient_residual(Z, pb.ZGrad) > 0.01


def test_rank1_chart_reports_large_compat_residual(corpus_cases):
    spec = corpus_cases["ex6.4"].spec
    rng = np.random.default_rng(35)
    w = np.stack([rng.uniform(0.1, 0.3, 10) for _ in range(3)], axis=1)
    assert sy.darboux_compatibility(spec, spec.chart, w) > 0.01
