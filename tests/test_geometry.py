"""Connection evaluation, structure coefficients, richness, scalings, and
chart verification."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from conftest import (
    V3,
    connect,
    frame_jets,
    frames_with_condition,
    frames_with_special_rows,
    random_polynomial_frame,
    singular_batch,
    spherical_frame_and_chart,
)
import halton_reference

from eigenframe import exprlang as ex
from eigenframe import geometry as g
from eigenframe.errors import DomainError, SingularFrameError, ZeroScalingError
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
    R, _, _ = frame_jets(spec, pts)
    L = np.linalg.inv(R)
    n = 3
    DR_fd = np.zeros((len(pts), n, n, n))
    for b in range(n):
        stepped = pts.copy()
        stepped[:, b] += h
        Rp, _, _ = frame_jets(spec, stepped)
        stepped[:, b] -= 2 * h
        Rm, _, _ = frame_jets(spec, stepped)
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


def _adjugate_det3_loop(R):
    """The cyclic cofactor loop, the reference of geometry._cofactor_rows."""
    adj = np.empty_like(R)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[:, j, i] = R[:, i1, j1] * R[:, i2, j2] - R[:, i1, j2] * R[:, i2, j1]
    det = (R[:, 0, :] * adj[:, :, 0]).sum(axis=1)
    return adj, det


def _cofactor_rows_loop(rows):
    """_cofactor_rows' contract, from the cofactor loop."""
    with np.errstate(over="ignore", invalid="ignore"):
        adj, det = _adjugate_det3_loop(rows.T.reshape(-1, 3, 3))
    return list(adj.reshape(-1, 9).T), det


@pytest.mark.parametrize("m", [1, 50, 4096])
@pytest.mark.parametrize("special", [False, True])
def test_adjugate_matches_cofactor_loop(m, special):
    """The row cofactors (_cofactor_rows), which serve _invert_frame and the
    n = 3 ray kernel, have the bits of the cofactor loop."""
    rng = np.random.default_rng(m + special)
    if special:
        R = frames_with_special_rows(rng, m)
    else:
        R = rng.normal(size=(m, 3, 3)) * 10.0 ** rng.integers(-8, 9, size=(m, 3, 3))
    with np.errstate(all="ignore"):
        ref_adj, ref_det = _adjugate_det3_loop(R)
    C, det = g._cofactor_rows(np.ascontiguousarray(R.reshape(-1, 9).T))
    assert np.stack(C, axis=1).tobytes() == ref_adj.tobytes()
    assert det.tobytes() == ref_det.tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind, error", [("special rows", DomainError), ("zero rows", SingularFrameError)])
def test_invert_frame_errors_match_cofactor_loop(monkeypatch, seed, kind, error):
    """_invert_frame raises the same DomainError or SingularFrameError at the
    same point with the row cofactors or the cofactor loop."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(40, 3, 3))
    bad = rng.integers(5, 40, size=3)
    if kind == "special rows":
        R[bad] = frames_with_special_rows(rng, 3)
        R[bad[0], 0] = [np.inf, 1.0, 1.0]
    else:
        R[bad, rng.integers(0, 3, size=3)] = 0.0
    points = np.arange(120.0).reshape(40, 3)

    def raised():
        with pytest.raises(error) as info:
            g._invert_frame(points, R)
        return str(info.value), info.value.point.tobytes()

    new = raised()
    monkeypatch.setattr(g, "_cofactor_rows", _cofactor_rows_loop)
    assert new == raised()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cond", [None, 1e8])
def test_invert_frame_matches_lapack(n, cond):
    rng = np.random.default_rng(10 * n)
    m = 200
    R = rng.normal(size=(m, n, n)) if cond is None else frames_with_condition(rng, n, m, cond)
    L, det = g._invert_frame(np.zeros((m, n)), R)
    inv = np.linalg.inv(R)
    kappa = np.linalg.cond(R)
    # both inverses carry errors of order kappa * eps relative to |R^-1|
    err = np.abs(L - inv).max(axis=(1, 2)) / np.abs(inv).max(axis=(1, 2))
    assert np.all(err < 4e-16 * n * kappa), (err / kappa).max()
    # a determinant carries errors of order eps * |R|^n
    scale = np.linalg.norm(R, axis=(1, 2)) ** n
    assert np.all(np.abs(det - np.linalg.det(R)) < 4e-16 * n * scale)
    if cond is None:
        assert err.max() < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["zero", "equal columns", "below"])
def test_singular_frame_gate_without_warnings(n, kind):
    R = singular_batch(n, kind)
    points = np.arange(3.0 * n).reshape(3, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrameError) as info:
            g._invert_frame(points, R)
    assert np.array_equal(info.value.point, points[1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_just_above_singular_gate_inverts(n):
    R = singular_batch(n, "above")
    L, det = g._invert_frame(np.zeros((3, n)), R)
    assert np.abs(L @ R - np.eye(n)).max() < 1e-3


def _polynomial_frame(rng, n, scale=0.15):
    """Near-identity n x n frame with degree-2 entries on [0, 1]^n."""
    vars_ = [f"u{a + 1}" for a in range(n)]
    cols = []
    for j in range(n):
        col = []
        for a in range(n):
            c1, c2, c3 = rng.uniform(-scale, scale, size=3)
            lead = "1" if a == j else "0"
            col.append(f"{lead}+{c1:.6f}*u1+{c2:.6f}*u{n - 1}*u{n}+{c3:.6f}*u{a + 1}^2")
        cols.append(col)
    return g.frame_from_sources(cols, vars_, domain=((0.0,) * n, (1.0,) * n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_connection_matches_einsum_formulas(n):
    """Gamma, its derivatives and c against the formulas of the geometry
    module docstring, written as plain einsums."""
    spec = _polynomial_frame(np.random.default_rng(n), n)
    conn = g.eval_connection(spec, spec.sample_points(40))
    R, Rgrad, Rhess = frame_jets(spec, conn.points)
    L = np.linalg.inv(R)
    Gamma = np.einsum("mka,majb,mbi->mijk", L, Rgrad, R)
    dL = -np.einsum("mkp,mpqd,mqa->mkad", L, Rgrad, L)
    GammaGrad = (
        np.einsum("mkad,majb,mbi->mijkd", dL, Rgrad, R)
        + np.einsum("mka,majbd,mbi->mijkd", L, Rhess, R)
        + np.einsum("mka,majb,mbid->mijkd", L, Rgrad, Rgrad)
    )
    c = Gamma - Gamma.transpose(0, 2, 1, 3)
    scale = 1.0 + np.abs(Gamma).max()
    assert np.abs(conn.L - L).max() < 1e-13
    assert np.abs(conn.Gamma - Gamma).max() < 1e-13 * scale
    assert np.abs(conn.GammaGrad - GammaGrad).max() < 1e-13 * scale**2
    assert np.abs(conn.c - c).max() < 1e-13 * scale
    dGamma = np.einsum("mijke,med->mdijk", GammaGrad, R)
    assert np.abs(g.directional_gamma(conn) - dGamma).max() < 1e-13 * scale**2
    assert np.abs(g.structure_coefficients_bracket(conn) - c).max() < 1e-13 * scale


def test_taylor_fields_are_exact(corpus_cases):
    """The order-3 Gamma field of every n = 3 corpus frame, without a finite
    difference: its value and r_d match Gamma and directional_gamma; the
    commutator identity r_i(r_j f) - r_j(r_i f) = c[i,j,k] r_k f holds for
    every component f, which checks the frame operators r; and the
    curvature identity of flatness_residual holds for every Taylor
    coefficient up to order 2, which checks the series of Gamma through its
    third derivatives."""
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        conn = connect(case.spec)
        G = conn.taylor(3)
        scale = 1.0 + np.abs(conn.Gamma).max()
        assert np.abs(G.value - conn.Gamma).max() < 1e-14 * scale, cid
        rG = [conn.r(d, G) for d in range(3)]
        dG = np.stack([f.value for f in rG], axis=1)
        assert np.abs(dG - g.directional_gamma(conn)).max() < 1e-14 * scale**2, cid
        for i in range(3):
            for j in range(3):
                lhs = (conn.r(i, rG[j]) - conn.r(j, rG[i])).value
                rhs = sum(conn.c[:, i, j, k, None, None, None] * rG[k].value for k in range(3))
                assert np.abs(lhs - rhs).max() < 1e-12 * scale**3, (cid, i, j)
        c = G - g.Taylor(G.coef.transpose(0, 2, 1, 3, 4), 3, 3)
        worst = 0.0
        for i, j, k, d in itertools.product(range(3), repeat=4):
            lhs = rG[d][:, k, i, j] - rG[k][:, d, i, j]
            rhs = (G[:, k, :, j] * G[:, d, i, :] - G[:, d, :, j] * G[:, k, i, :]
                   - c[:, k, d, :] * G[:, :, i, j]).sum(1)
            worst = max(worst, float(np.abs((lhs - rhs).coef).max()))
        assert worst < 1e-12 * np.abs(G.coef).max() ** 2, cid


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
    R0, _, _ = frame_jets(spec, pts)
    R1, _, _ = frame_jets(scaled, pts)
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
    R, _, _ = frame_jets(scaled, pts)
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
    conn = g.eval_connection(spec, g.chart_inverse(chart, spec.sample_points(10)))
    assert np.abs(conn.Gamma).max() == 0.0


def test_pullback_symmetry_and_flatness(corpus_cases):
    spec = corpus_cases["ex6.4"].spec
    rng = np.random.default_rng(3)
    w = np.stack(
        [rng.uniform(0.1, 0.4, 10), rng.uniform(-0.2, 0.2, 10), rng.uniform(-0.2, 0.2, 10)],
        axis=1,
    )
    conn = g.eval_connection(spec, g.chart_inverse(spec.chart, w))
    assert conn.symmetry_residual() < 1e-9
    torsion, curvature = g.check_symmetry_flatness(conn)
    assert torsion < 1e-9
    assert curvature < 1e-8


def test_frame_derivative_is_chart_derivative(corpus_cases):
    """On a normalized chart d/dw^d is the frame field r_d, so r_d Gamma at
    u(w) is the chain rule d Gamma/du^e du^e/dw^d through the inverse
    chart's series."""
    rng = np.random.default_rng(37)
    rotational = corpus_cases["ex6.2"].spec
    cases = [
        ((rotational, rotational.chart), ((0.0, 0.4), (0.2, 0.6), (1.0, 1.4))),
        (spherical_frame_and_chart(), ((1.0, 1.5), (0.5, 1.0), (0.3, 0.8))),
    ]
    for (spec, chart), box in cases:
        w = np.stack([rng.uniform(lo, hi, 10) for lo, hi in box], axis=1)
        conn = g.eval_connection(spec, g.chart_inverse(chart, w))
        du = ex.eval_series(chart.u_tape, w, 1)[..., 1:]  # (m, e, d) = du^e/dw^d
        chain = np.einsum("mijke,med->mijkd", conn.GammaGrad, du)
        along_frame = np.moveaxis(g.directional_gamma(conn), 1, -1)
        assert np.abs(along_frame - chain).max() <= 1e-15 * (1.0 + np.abs(chain).max())


def test_halton_deterministic():
    lo, hi = np.zeros(3), np.ones(3)
    a = g.halton_points(lo, hi, 20, seed=4)
    b = g.halton_points(lo, hi, 20, seed=4)
    c = g.halton_points(lo, hi, 20, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0


@pytest.mark.parametrize("count", [1, 8, 50, 8000])
def test_halton_matches_digit_loop(count):
    """The digit table gives the digit loop's points bit for bit, in 2 to 10
    variables, for seeds 0-40 and the largest seed the count admits.  At
    8000 points only the 10-variable draw is compared: coordinate d uses the
    d-th prime whatever n is, so it covers the bases of every smaller n."""
    top = (np.iinfo(np.int64).max - 20 - count) // 1009
    for seed in [*range(41), top]:
        for n in range(2, 11) if count <= 50 else [10]:
            lo, hi = np.linspace(-1.0, 0.5, n), np.linspace(0.5, 3.0, n)
            want = halton_reference.halton_points(lo, hi, count, seed)
            assert g.halton_points(lo, hi, count, seed).tobytes() == want.tobytes(), (n, seed)


def test_radical_inverse_golden_value():
    # 20 = 10100 in base 2, reflected 0.00101
    assert g._radical_inverse(np.array([20]), 2)[0] == 0.15625
    assert g._radical_inverse(np.array([0, 1, 2, 3]), 3).tolist() == [0.0, 1 / 3, 2 / 3, 1 / 9]
    assert g._primes(11) == list(halton_reference.PRIMES)


@pytest.mark.parametrize("seed", [-1, 2**63 // 1009 + 1, 10**20])
def test_halton_rejects_seeds_outside_the_index_range(seed):
    with pytest.raises(ValueError, match="seed"):
        g.halton_points(np.zeros(3), np.ones(3), 20, seed=seed)


def test_connection_eval_residual_methods(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    conn = g.eval_connection(spec, spec.sample_points(15))
    torsion, curvature = g.check_symmetry_flatness(conn)
    assert torsion < 1e-10
    assert curvature < 1e-8
