"""Connection evaluation, structure coefficients, richness, scalings, and
chart verification."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import V3, connect, random_polynomial_frame

from eigenframe import exprlang as ex
from eigenframe import geometry as g
from eigenframe.errors import SingularFrameError, ZeroScalingError
from eigenframe.systems import beta_residual, BetaCandidate


def standard_frame():
    return g.frame_from_sources(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], V3,
        domain=((0, 0, 0), (1, 1, 1)),
    )


def test_standard_frame_connection_vanishes():
    spec = standard_frame()
    conn = g.eval_connection(spec, spec.sample_points(10))
    assert np.abs(conn.Gamma).max() == 0.0
    assert np.abs(conn.c).max() == 0.0


def test_rotational_frame_commutes(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    conn = g.eval_connection(spec, np.array([[1.0, 1.0, 1.0]]))
    mask = g.distinct_triple_mask(3)
    assert np.abs(conn.c[0][mask]).max() < 1e-14


def test_gamma_matches_finite_difference_oracle():
    rng = np.random.default_rng(5)
    spec = random_polynomial_frame(rng)
    pts = spec.sample_points(5)
    conn = g.eval_connection(spec, pts)
    h = 1e-5
    pts_, R, _, _ = g.eval_frame_jets(spec, pts)
    L = np.linalg.inv(R)
    n = 3
    DR_fd = np.zeros((len(pts), n, n, n))
    for b in range(n):
        stepped = pts.copy()
        stepped[:, b] += h
        _, Rp, _, _ = g.eval_frame_jets(spec, stepped)
        stepped[:, b] -= 2 * h
        _, Rm, _, _ = g.eval_frame_jets(spec, stepped)
        DR_fd[:, :, :, b] = (Rp - Rm) / (2 * h)
    gamma_fd = np.einsum("mka,majb,mbi->mijk", L, DR_fd, R)
    assert np.abs(gamma_fd - conn.Gamma).max() < 1e-5


def test_bracket_agrees_with_antisymmetrized_gamma():
    rng = np.random.default_rng(7)
    for _ in range(3):
        spec = random_polynomial_frame(rng)
        conn = connect(spec, 20)
        cb = g.structure_coefficients_bracket(conn)
        assert np.abs(conn.c - cb).max() < 1e-10


def test_commuting_frame_has_zero_bracket(corpus_cases):
    spec = corpus_cases["ex6.4"].spec
    cb = g.structure_coefficients_bracket(connect(spec, 25))
    assert np.abs(cb).max() < 1e-12


def test_symmetry_flatness_identities_hold():
    rng = np.random.default_rng(11)
    specs = [standard_frame()] + [random_polynomial_frame(rng) for _ in range(3)]
    for spec in specs:
        torsion, curvature = g.check_symmetry_flatness(connect(spec, 20))
        assert torsion < 1e-8
        assert curvature < 1e-8


def test_standard_frame_flatness_exact():
    spec = standard_frame()
    torsion, curvature = g.check_symmetry_flatness(connect(spec, 10))
    assert torsion == 0.0
    assert curvature == 0.0


def test_corrupted_gamma_trips_curvature_detector():
    rng = np.random.default_rng(13)
    spec = random_polynomial_frame(rng)
    pts = spec.sample_points(10)
    conn = g.eval_connection(spec, pts)
    bad = conn.Gamma.copy()
    bad[:, 0, 1, 2] += 1.0
    res = g.flatness_residual(bad, bad - bad.transpose(0, 2, 1, 3), g.directional_gamma(conn))
    assert res.max() > 0.1


def test_singular_frame_detected():
    spec = g.frame_from_sources(
        [["u1", "u2", "0"], ["u1", "u2", "0"], ["0", "0", "1"]], V3,
        domain=((0, 0, 0), (1, 1, 1)),
    )
    with pytest.raises(SingularFrameError):
        g.eval_connection(spec, np.array([[0.5, 0.5, 0.5]]))


# ---------------------------------------------------------------------------
# richness
# ---------------------------------------------------------------------------


def test_is_rich_verdicts(corpus_cases):
    assert g.is_rich(connect(standard_frame(), 20))[0]
    assert g.is_rich(connect(corpus_cases["ex6.2"].spec, 25))[0]
    rich, witness = g.is_rich(connect(corpus_cases["ex6.6"].spec, 25))
    assert not rich
    assert witness["value"] > 1e-3


# ---------------------------------------------------------------------------
# scalings
# ---------------------------------------------------------------------------


def test_scale_by_one_is_identity(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    scaled = g.scale_frame(spec, ["1", "1", "1"])
    pts = spec.sample_points(10)
    _, R0, _, _ = g.eval_frame_jets(spec, pts)
    _, R1, _, _ = g.eval_frame_jets(scaled, pts)
    assert np.abs(R0 - R1).max() == 0.0


def test_zero_scaling_rejected(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    with pytest.raises(ZeroScalingError):
        g.scale_frame(spec, ["u1-1.5", "1", "1"])


def test_scaling_covariance_of_length_solutions(corpus_cases):
    """b solves the system for the frame iff (alpha^2 b) solves it for the
    scaled frame."""
    case = corpus_cases["ex6.11"]
    spec = case.spec
    bcand = next(c for k, c in case.candidates if k == "beta")
    alphas = ["1+u1^2/3", "2+u2/2", "1+u3/4"]
    scaled_spec = g.scale_frame(spec, alphas)
    scaled_sources = [
        f"(({a})^2)*({ex.to_source(e)})" for a, e in zip(alphas, bcand.exprs)
    ]
    scaled_cand = BetaCandidate.from_sources(scaled_sources, spec.vars, bcand.params)
    pts = spec.sample_points(30)
    assert beta_residual(g.eval_connection(spec, pts), bcand).max_scaled < 1e-12
    assert beta_residual(g.eval_connection(scaled_spec, pts), scaled_cand).max_scaled < 1e-9


def test_orthonormal_scaling_of_orthogonal_frame(corpus_cases):
    """Scaling the rotational frame by inverse lengths gives an orthonormal
    frame on which the two systems' residuals coincide."""
    spec = corpus_cases["ex6.2"].spec
    v = "u1^2+u2^2"
    scaled = g.scale_frame(spec, [f"1/sqrt({v})", f"1/sqrt({v})", "1"])
    pts = spec.sample_points(15)
    _, R, _, _ = g.eval_frame_jets(scaled, pts)
    gram = np.einsum("mai,maj->mij", R, R)
    assert np.abs(gram - np.eye(3)).max() < 1e-12
    from eigenframe.systems import LambdaCandidate, lambda_residual

    cand_sources = ["u1+u2", "sin(u2)", "u3^2"]
    b = BetaCandidate.from_sources(cand_sources, V3)
    l = LambdaCandidate.from_sources(cand_sources, V3)
    conn = g.eval_connection(scaled, pts)
    rb = beta_residual(conn, b)
    rl = lambda_residual(conn, l)
    assert np.abs(rb.pde_raw - rl.pde_raw).max() < 1e-12
    assert np.abs(rb.alg_raw - rl.alg_raw).max() < 1e-12


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def test_chart_verification_log_polar(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    rep = g.verify_riemann_chart(connect(spec, 25), spec.chart)
    assert rep["normalization_residual"] < 1e-9
    assert rep["roundtrip_residual"] < 1e-9


def test_chart_verification_log_linear(corpus_cases):
    spec = corpus_cases["ex6.4"].spec
    rep = g.verify_riemann_chart(connect(spec, 25), spec.chart)
    assert rep["normalization_residual"] < 1e-9
    assert rep["roundtrip_residual"] < 1e-9


def test_identity_chart_on_standard_frame():
    spec = standard_frame()
    chart = g.chart_from_sources(
        ["u1", "u2", "u3"], ["w1", "w2", "w3"], V3
    )
    rep = g.verify_riemann_chart(connect(spec, 10), chart)
    assert rep["normalization_residual"] == 0.0
    assert rep["roundtrip_residual"] == 0.0
    pb = g.pullback_connection(spec, chart, spec.sample_points(10))
    assert np.abs(pb.Z).max() == 0.0


def test_pullback_symmetry_and_flatness(corpus_cases):
    spec = corpus_cases["ex6.4"].spec
    rng = np.random.default_rng(3)
    w = np.stack(
        [rng.uniform(0.1, 0.4, 10), rng.uniform(-0.2, 0.2, 10), rng.uniform(-0.2, 0.2, 10)],
        axis=1,
    )
    pb = g.pullback_connection(spec, spec.chart, w)
    assert pb.symmetry_residual() < 1e-9
    assert pb.flatness_residual() < 1e-8


def test_halton_deterministic():
    lo, hi = np.zeros(3), np.ones(3)
    a = g.halton_points(lo, hi, 20, seed=4)
    b = g.halton_points(lo, hi, 20, seed=4)
    c = g.halton_points(lo, hi, 20, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_connection_eval_residual_methods(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    conn = g.eval_connection(spec, spec.sample_points(15))
    torsion, curvature = g.check_symmetry_flatness(conn)
    assert torsion < 1e-10
    assert curvature < 1e-8
