"""Algebraic systems, residual records, rank duality, the eigenvalue-gap
identity and convexity classification."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import V3, connect, random_polynomial_frame

from eigenframe import exprlang as ex
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
    assert np.abs(sy.beta_algebraic(conn)).max() == 0.0
    assert np.abs(sy.lambda_algebraic(conn)).max() == 0.0
    assert sy.generic_rank(sy.beta_algebraic(conn)) == 0


def test_two_component_frame_has_no_algebraic_part():
    spec = g.frame_from_sources(
        [["1", "u2"], ["0", "1+u1^2"]], ["u1", "u2"], domain=((0, 0), (1, 1))
    )
    conn = g.eval_connection(spec, spec.sample_points(10))
    assert sy.beta_algebraic(conn).shape[1] == 0
    assert sy.lambda_algebraic(conn).shape[1] == 0


def test_euler_rows_reduce_to_single_constraint(corpus_cases):
    """For the gas frame every nonzero algebraic row is proportional to
    (1, 0, -1): the first and third lengths agree."""
    spec = corpus_cases["ex6.1b"].spec
    conn = g.eval_connection(spec, spec.sample_points(20))
    rows = sy.beta_algebraic(conn)
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
    rows = sy.lambda_algebraic(conn)
    for p in range(rows.shape[0]):
        u2 = conn.points[p, 1]
        target = np.array([1 - u2, -2.0, 1 + u2])
        target /= np.linalg.norm(target)
        _, _, vt = np.linalg.svd(rows[p])
        assert abs(abs(vt[0] @ target) - 1.0) < 1e-10


def test_n4_frame_rank_witness(corpus_cases):
    spec = corpus_cases["ex6.12"].spec
    conn = g.eval_connection(spec, spec.sample_points(25))
    assert sy.generic_rank(sy.lambda_algebraic(conn)) == 3
    assert sy.generic_rank(sy.beta_algebraic(conn)) == 2


def test_rank_duality_is_refused_off_n3(corpus_cases):
    conn = connect(corpus_cases["ex6.12"].spec, 5)
    with pytest.raises(ValueError, match="specific to n=3"):
        sy.check_rank_duality_n3(conn)


def test_rank2_frame(corpus_cases):
    spec = corpus_cases["ex6.3"].spec
    conn = g.eval_connection(spec, spec.sample_points(25))
    assert sy.generic_rank(sy.beta_algebraic(conn)) == 2
    assert sy.generic_rank(sy.lambda_algebraic(conn)) == 2


def test_rank_duality_on_random_frames():
    rng = np.random.default_rng(21)
    for _ in range(5):
        spec = random_polynomial_frame(rng)
        conn = g.eval_connection(spec, spec.sample_points(20))
        assert sy.check_rank_duality_n3(conn) < 1e-12
        a = sy.beta_algebraic(conn)
        b = sy.lambda_algebraic(conn)
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


def _residual_loop(conn, kind, cand):
    """The residual families by a loop over the ordered pairs and triples:
    the reference for the vectorized residuals."""
    vals, grads = sy.eval_candidate(cand.tape, conn.points)
    G, c, n = conn.Gamma, conn.c, conn.n
    pde_raw, pde_scale = [], []
    for i, j in sy._ordered_pairs(n):
        deriv = np.einsum("ma,ma->m", grads[:, j, :], conn.R[:, :, i])
        if kind == "beta":
            terms = [vals[:, j] * (G[:, i, j, j] + c[:, i, j, j]), vals[:, i] * G[:, j, j, i]]
            pde_raw.append(deriv - (terms[0] - terms[1]))
        else:
            terms = [G[:, j, i, j] * (vals[:, i] - vals[:, j])]
            pde_raw.append(deriv - terms[0])
        pde_scale.append(1.0 + np.abs(deriv) + sum(np.abs(t) for t in terms))
    triples = sy.algebraic_triples(n)
    rows = np.zeros((len(vals), len(triples), n))
    for r, (i, j, k) in enumerate(triples):
        if kind == "beta":
            rows[:, r, k] += c[:, i, j, k]
            rows[:, r, j] += G[:, i, k, j]
            rows[:, r, i] -= G[:, j, k, i]
        else:
            rows[:, r, i] += G[:, j, i, k]
            rows[:, r, j] -= G[:, i, j, k]
            rows[:, r, k] += c[:, i, j, k]
    return np.stack(pde_raw, axis=1), np.stack(pde_scale, axis=1), rows


def test_residuals_match_pair_loop(corpus_cases):
    """On every corpus candidate, the pair- and triple-indexed residuals
    agree with the per-pair loop to 1e-15 of each term's scale, and the
    algebraic rows are the loop's bit for bit."""
    for cid, case in corpus_cases.items():
        for seed in (0, 3):
            conn = connect(case.spec, seed=seed)
            for kind, cand in case.candidates:
                residual, algebraic = (
                    (sy.beta_residual, sy.beta_algebraic) if kind == "beta"
                    else (sy.lambda_residual, sy.lambda_algebraic))
                pde_raw, pde_scale, rows = _residual_loop(conn, kind, cand)
                rec = residual(conn, cand)
                assert (np.abs(rec.pde_raw - pde_raw) <= 1e-15 * pde_scale).all(), (cid, kind)
                assert algebraic(conn).tobytes() == rows.tobytes(), (cid, kind)
                assert len(rec.pde_labels) == pde_raw.shape[1]
                assert len(rec.alg_labels) == rows.shape[1]


def test_broken_candidate_is_located(corpus_cases):
    case = corpus_cases["ex6.11"]
    bad = sy.BetaCandidate.from_sources(["-2*u2", "2*u2", "u1"], V3)
    rec = sy.beta_residual(connect(case.spec, 20), bad)
    assert rec.max_scaled > 1e-3
    worst = rec.worst()
    assert worst["label"] is not None and worst["value"] > 1e-3


def test_worst_of_a_record_with_no_algebraic_rows_is_a_pde_row():
    """An n = 2 frame has no algebraic rows: worst() skips the empty family
    and reports the worst PDE residual."""
    spec = g.frame_from_sources([["1", "0"], ["0", "u1"]], ["u1", "u2"])
    rec = sy.beta_residual(connect(spec, 10), sy.BetaCandidate.from_sources(["u2", "u1"], ["u1", "u2"]))
    assert rec.alg_scaled.size == 0
    worst = rec.worst()
    assert worst["label"].startswith("beta-pde") and worst["value"] == rec.pde_scaled.max()


# ---------------------------------------------------------------------------
# cross-system identity
# ---------------------------------------------------------------------------


def _values(cand, points):
    return ex.eval_scalar_many(cand.tape, points)


def _gap_identity(conn, bet, lam):
    return sy.sevennec_identity(conn, _values(bet, conn.points), _values(lam, conn.points))


def test_sevennec_identity_on_gas_frame(corpus_cases):
    case = corpus_cases["ex6.1b"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    bet = next(c for k, c in case.candidates if k == "beta")
    res = _gap_identity(connect(case.spec, 40), bet, lam)
    assert res < 1e-9


def test_sevennec_trivial_for_rich_rank0(corpus_cases):
    case = corpus_cases["ex6.2"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    bet = next(c for k, c in case.candidates if k == "beta")
    res = _gap_identity(connect(case.spec, 30), bet, lam)
    assert res < 1e-12


def test_sevennec_rejects_coincident_eigenvalues(corpus_cases):
    case = corpus_cases["ex6.1b"]
    bet = next(c for k, c in case.candidates if k == "beta")
    trivial = sy.LambdaCandidate.from_sources(["1", "1", "1"], case.spec.vars)
    with pytest.raises(CoincidentEigenvaluesError):
        _gap_identity(connect(case.spec, 20), bet, trivial)


def test_coincident_speeds_is_the_gap_check_of_the_identity(corpus_cases):
    """coincident_speeds finds no coincidence in speeds apart at every
    sample, where the identity is formed, and where two speeds meet names
    the sample and gap that sevennec_identity's error reports; for n < 3 the
    identity has no term and nothing coincides."""
    case = corpus_cases["ex6.1b"]
    conn = connect(case.spec, 20)
    bvals = _values(next(c for k, c in case.candidates if k == "beta"), conn.points)
    lvals = _values(next(c for k, c in case.candidates if k == "lambda"), conn.points)
    assert sy.coincident_speeds(lvals) is None
    assert sy.sevennec_identity(conn, bvals, lvals) < 1e-9
    close = lvals.copy()
    close[7, 2] = close[7, 1] + 1e-12
    gap = abs(close[7, 1] - close[7, 2])
    assert sy.coincident_speeds(close) == (7, gap)
    with pytest.raises(CoincidentEigenvaluesError) as err:
        sy.sevennec_identity(conn, bvals, close)
    assert str(err.value) == str(CoincidentEigenvaluesError(conn.points[7], gap))
    assert sy.coincident_speeds(np.ones((5, 2))) is None


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def test_convexity_strict_entropy_for_gas(corpus_cases):
    case = corpus_cases["ex6.1b"]
    bet = next(c for k, c in case.candidates if k == "beta")
    out = sy.convexity_classify(_values(bet, case.spec.sample_points(40)))
    assert out["verdict"] == "strict_entropy"


def test_convexity_degenerate_zero():
    spec = standard_frame()
    zero = sy.BetaCandidate.from_sources(["0", "0", "0"], V3)
    out = sy.convexity_classify(_values(zero, spec.sample_points(10)))
    assert out["verdict"] == "entropy"


def test_convexity_extension_only(corpus_cases):
    case = corpus_cases["ex6.11"]
    bet = next(c for k, c in case.candidates if k == "beta")
    out = sy.convexity_classify(_values(bet, case.spec.sample_points(40)))
    assert out["verdict"] == "extension_only"


def test_convexity_indefinite():
    spec = standard_frame()
    cand = sy.BetaCandidate.from_sources(["u1-0.5", "1", "1"], V3)
    out = sy.convexity_classify(_values(cand, spec.sample_points(40)))
    assert out["verdict"] == "indefinite"
