"""Curl tests, the ray quadrature, reconstruction by ray integration, gauge
comparison, and the chart-space boundary-value solver."""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np
import pytest

import rates_reference
from conftest import (
    V3,
    frame_jets,
    frames_with_condition,
    frames_with_special_rows,
    singular_batch,
    spherical_frame_and_chart,
)

from eigenframe import geometry as g
from eigenframe import potential as pot
from eigenframe import systems as sy
from eigenframe.errors import (
    CurlViolationError,
    DomainError,
    NotRankZeroError,
    NotRichError,
    QuadratureFailureError,
    SingularFrameError,
)


def standard_frame():
    return g.frame_from_sources(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], V3,
        domain=((0, 0, 0), (1, 1, 1)),
    )


# ---------------------------------------------------------------------------
# ray quadrature
# ---------------------------------------------------------------------------


def test_gauss_kronrod_ray_known_integral():
    """The ray from 0 to 2 carries G(1) = int_0^2 e^t dt."""

    def rates(pts, d):
        return np.exp(pts) * d, None

    G, *_ = pot._ray_family(rates, np.zeros(1), np.array([[2.0]]), 1e-12, 0.0)
    assert abs(G[0, 0] - (np.exp(2.0) - 1.0)) < 1e-12


def test_gauss_kronrod_ray_vector_integrand():
    """The diagonal ray to (pi/2, pi/2) carries (int sin, int cos) over
    [0, pi/2]."""

    def rates(pts, d):
        return np.stack([np.sin(pts[:, 0]), np.cos(pts[:, 1])], axis=1) * d, None

    G, *_ = pot._ray_family(rates, np.zeros(2), np.full((1, 2), np.pi / 2), 1e-12, 0.0)
    assert np.abs(G[0] - np.array([1.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize("rule_name", ["kronrod", "gauss"])
@pytest.mark.parametrize("further", [0, 1])
def test_advance_takes_eta_from_the_weights(rule_name, further):
    """_advance integrates eta, G(t) . d, from the rule's weights; it equals
    the per-node sum over G at the nodes with d stacked as one more field,
    and the further fields' integrals and the carried vector are those of
    the per-node sum too."""
    rule = pot._ray_rule(pot._RAY_Q)
    w, K = (rule.w, rule.K) if rule_name == "kronrod" else (rule.w_gauss, rule.K_gauss)
    rng = np.random.default_rng(w.size + further)
    m, n, h = 50, 3, 0.25
    G, S, d = rng.normal(size=(m, n)), rng.normal(size=(m, 1 + further)), rng.normal(size=(m, n))
    Jd, A = rng.normal(size=(w.size, m, n)), rng.normal(size=(w.size, further, m, n))
    G_end, S_end = pot._advance(G, S, h, w, K, Jd, A, d)
    G_nodes = G + h * np.einsum("ij,jmn->imn", K, Jd)
    V = np.concatenate([np.broadcast_to(d, (w.size, 1, m, n)), A], axis=1)
    ref = S + h * np.einsum("j,jmn,jkmn->mk", w, G_nodes, V)
    assert np.abs(S_end - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(G_end - (G + h * np.einsum("j,jmn->mn", w, Jd))).max() <= 1e-14 * np.abs(G_end).max()
    G_flux, S_flux = pot._advance(G, 0.0, h, w, K, Jd, None, d)
    assert G_flux.tobytes() == G_end.tobytes() and S_flux.shape == (m, 0)


def test_gauss_kronrod_rule():
    """The 33 Kronrod nodes contain the 16 Gauss nodes bit for bit and
    interlace with them; the sums and cumulative matrices are exact to the
    degrees of each rule."""
    rule = pot._ray_rule(16)
    t, g = rule.t, rule.gauss
    x, _ = np.polynomial.legendre.leggauss(16)
    assert t.shape == (33,) and np.all((t > 0.0) & (t < 1.0))
    assert np.all(np.diff(t) > 0.0) and np.array_equal(g, np.arange(1, 33, 2))
    assert np.array_equal(t[g], 0.5 * (x + 1.0))
    assert np.all(rule.w > 0.0) and np.all(rule.w_gauss > 0.0)
    for n in range(50):
        assert abs(rule.w @ t**n - 1.0 / (n + 1)) < 1e-15, n
    for n in range(32):
        assert abs(rule.w_gauss @ t[g] ** n - 1.0 / (n + 1)) < 1e-15, n
    # random polynomials in the shifted Legendre basis, integrated from 0
    leg = np.polynomial.legendre
    rng = np.random.default_rng(5)
    for K, nodes, degree in ((rule.K, t, 32), (rule.K_gauss, t[g], 15)):
        for _ in range(5):
            c = rng.standard_normal(degree + 1)
            exact = 0.5 * leg.legval(2.0 * nodes - 1.0, leg.legint(c, lbnd=-1))
            assert np.abs(K @ leg.legval(2.0 * nodes - 1.0, c) - exact).max() < 1e-14


def test_cumulative_simpson_fourth_order():
    for npts, bound in ((17, 2e-7), (33, 2e-8)):
        x = np.linspace(0.0, 1.0, npts)
        vals = np.exp(x)
        cum = pot.cumulative_simpson(vals, x[1] - x[0], axis=0)
        assert np.abs(cum - (np.exp(x) - 1.0)).max() < bound


# ---------------------------------------------------------------------------
# curl tests
# ---------------------------------------------------------------------------


def test_length_field_curl_free_for_solution(corpus_cases):
    case = corpus_cases["ex6.10"]
    bet = next(c for k, c in case.candidates if k == "beta")
    field = pot.MatrixField(case.spec, (bet,))
    assert pot.curl_residual(field, case.spec.sample_points(30)) < 1e-9


def test_non_solution_trips_curl_detector(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    bad = sy.BetaCandidate.from_sources(["1", "1", "1"], V3)
    field = pot.MatrixField(spec, (bad,))
    assert pot.curl_residual(field, spec.sample_points(20)) > 1e-3
    with pytest.raises(CurlViolationError):
        pot.reconstruct_eta(spec, bad, spec.base_point, (5, 5, 5))


def test_matrix_fields_match_einsum_formulas(corpus_cases):
    """Values and exact gradients of L^T diag[b] L and R diag[l] L against
    the product rule with d L = -L (d R) L, written as plain einsums; the
    values path applies them to random directions."""
    case = corpus_cases["ex6.1b"]
    spec = case.spec
    pts = spec.sample_points(30, 2)
    d = np.random.default_rng(3).standard_normal(pts.shape)
    R, Rgrad, _ = frame_jets(spec, pts)
    L = np.linalg.inv(R)
    Lgrad = -np.einsum("mkp,mpqd,mqa->mkad", L, Rgrad, L)
    for kind, cand in case.candidates:
        vals, grads = sy.eval_candidate(cand.tape, pts)  # grads: (m, k, d)
        field = pot.MatrixField(spec, (cand,))
        if kind == "beta":
            V = np.einsum("mka,mk,mkb->mab", L, vals, L)
            G = (
                np.einsum("mkad,mk,mkb->mabd", Lgrad, vals, L)
                + np.einsum("mka,mkd,mkb->mabd", L, grads, L)
                + np.einsum("mka,mk,mkbd->mabd", L, vals, Lgrad)
            )
        else:
            V = np.einsum("mak,mk,mkb->mab", R, vals, L)
            G = (
                np.einsum("makd,mk,mkb->mabd", Rgrad, vals, L)
                + np.einsum("mak,mkd,mkb->mabd", R, grads, L)
                + np.einsum("mak,mk,mkbd->mabd", R, vals, Lgrad)
            )
        [(V_field, G_field)] = field.value_grad(pts)
        [Md] = field.values(pts, d)
        Vd = np.einsum("mab,mb->ma", V, d)
        assert np.abs(Md - Vd).max() < 1e-13 * np.abs(Vd).max()
        assert np.abs(V_field - V).max() < 1e-13 * np.abs(V).max()
        assert np.abs(G_field - G).max() < 1e-13 * np.abs(G).max()


# ---------------------------------------------------------------------------
# reconstruction by ray integration
# ---------------------------------------------------------------------------


def test_identity_field_integrates_to_displacement():
    spec = standard_frame()
    lam = sy.LambdaCandidate.from_sources(["1", "1", "1"], V3)
    grid = pot.reconstruct_flux(spec, lam, (0.0, 0.0, 0.0), (5, 5, 5))
    assert np.abs(grid.values["f"].reshape(-1, 3) - grid.nodes()).max() < 1e-12


def test_ray_families_agree_on_subbox(corpus_cases):
    """Rays from the base corner and from the opposite corner of a sub-box
    give the same flux map."""
    case = corpus_cases["ex6.6"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    lo, hi = (1.2, 1.7, 1.2), (1.9, 2.4, 1.9)
    spec = dataclasses.replace(case.spec, domain_lo=lo, domain_hi=hi)
    grid = pot.reconstruct_flux(spec, lam, lo, (5, 5, 5))
    assert grid.meta["path_independence_residual"] < 1e-8


def test_flux_reconstruction_matches_closed_form(corpus_cases):
    case = corpus_cases["ex6.6"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    grid = pot.reconstruct_flux(case.spec, lam, case.spec.base_point, (7, 7, 7))
    pts = grid.nodes()
    params = {**case.spec.params, **lam.params}
    from eigenframe import exprlang as ex

    ref = np.stack(
        [ex.eval_scalar_many(e, pts, params) for e in lam.f_exprs], axis=1
    )
    F = grid.values["f"].reshape(-1, 3)
    shift = (F - ref).mean(axis=0)
    assert np.abs(F - ref - shift).max() < 1e-8
    assert grid.meta["path_independence_residual"] < 1e-7


def test_trivial_flux_reconstruction():
    spec = standard_frame()
    lam = sy.LambdaCandidate.from_sources(["3", "3", "3"], V3)
    grid = pot.reconstruct_flux(spec, lam, (0.0, 0.0, 0.0), (5, 5, 5))
    pts = grid.nodes()
    assert np.abs(grid.values["f"].reshape(-1, 3) - 3 * pts).max() < 1e-10


def test_eta_reconstruction_matches_closed_forms(corpus_cases):
    for cid, kparams in (("ex6.11", {"K": 1.0}), ("ex6.10", {"K1": 1.0, "K2": 0.0})):
        case = corpus_cases[cid]
        bet = next(
            c for k, c in case.candidates
            if k == "beta" and c.eta_expr is not None and all(
                abs(c.params.get(p, None) - v) < 1e-12 for p, v in kparams.items())
        )
        grid = pot.reconstruct_eta(case.spec, bet, case.spec.base_point, (9, 9, 9))
        pts = grid.nodes()
        from eigenframe import exprlang as ex

        ref = ex.eval_scalar_many(bet.eta_expr, pts, {**case.spec.params, **bet.params})
        res = pot.affine_gauge_compare(pts, grid.values["eta"].ravel(), ref)
        assert res < 1e-8, cid
        assert grid.meta["path_independence_residual"] < 1e-7
        assert grid.meta["grad_consistency_residual"] < 1e-8
        assert grid.meta["symmetry_residual"] < 1e-8


def test_zero_candidate_reconstructs_affine(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    zero = sy.BetaCandidate.from_sources(["0", "0", "0"], V3)
    grid = pot.reconstruct_eta(spec, zero, spec.base_point, (5, 5, 5))
    assert np.abs(grid.values["eta"]).max() < 1e-12


def test_path_independence_residual_detects_non_solution(corpus_cases, monkeypatch):
    """With the curl gate off, the second ray family must disagree with the
    first for a Hessian field that is not closed."""
    spec = corpus_cases["ex6.10"].spec
    bad = sy.BetaCandidate.from_sources(["1", "1", "1"], V3)
    monkeypatch.setattr(pot, "CURL_TOL", np.inf)
    grid = pot.reconstruct_eta(spec, bad, spec.base_point, (5, 5, 5))
    assert grid.meta["path_independence_residual"] > 1e-6


def test_unresolvable_ray_raises_quadrature_failure():
    spec = g.frame_from_sources([["1", "0"], ["0", "1"]], ["u1", "u2"],
                                domain=((0, 0), (1, 1)))
    lam = sy.LambdaCandidate.from_sources(["sin(20000*u1)", "0"], ["u1", "u2"])
    with pytest.raises(QuadratureFailureError):
        pot.reconstruct_flux(spec, lam, spec.base_point, (2, 2))


def test_flux_vanishes_exactly_at_base_node(corpus_cases):
    case = corpus_cases["ex6.6"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    grid = pot.reconstruct_flux(case.spec, lam, case.spec.base_point, (11, 11, 11))
    assert np.all(grid.values["f"][5, 5, 5] == 0.0)
    # a node that misses the base point by rounding is moved onto it
    lo, hi = (0.3,) * 3, (1.6,) * 3
    base = (0.5 * (0.3 + 1.6),) * 3
    assert np.linspace(0.3, 1.6, 9)[4] != base[0]
    trivial = sy.LambdaCandidate.from_sources(["3", "3", "3"], V3)
    spec = dataclasses.replace(standard_frame(), domain_lo=lo, domain_hi=hi)
    grid = pot.reconstruct_flux(spec, trivial, base, (9, 9, 9))
    assert grid.axes[0][4] == base[0]
    assert np.all(grid.values["f"][4, 4, 4] == 0.0)


def test_singular_frame_raises_singular_frame_error():
    """det R = u1 vanishes on the face u1 = 0 of the box."""
    spec = g.frame_from_sources(
        [["u1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], V3,
        domain=((0, 0, 0), (1, 1, 1)),
    )
    lam = sy.LambdaCandidate.from_sources(["1", "1", "1"], V3)
    bet = sy.BetaCandidate.from_sources(["1", "1", "1"], V3)
    singular = np.array([[0.0, 0.5, 0.5]])
    for field in (pot.MatrixField(spec, (lam,)), pot.MatrixField(spec, (bet,))):
        with pytest.raises(SingularFrameError):
            field.values(singular, np.ones_like(singular))
        with pytest.raises(SingularFrameError):
            field.value_grad(singular)
    with pytest.raises(SingularFrameError):
        pot.reconstruct_flux(spec, lam, spec.base_point, (3, 3, 3))


def test_affine_gauge_absorbs_affine_shift(corpus_cases):
    rng = np.random.default_rng(9)
    pts = rng.uniform(1.0, 2.0, size=(50, 3))
    vals = np.sin(pts[:, 0]) + pts[:, 1] * pts[:, 2]
    assert pot.affine_gauge_compare(pts, vals, vals) == 0.0
    shifted = vals + 3 * pts[:, 0] - 7.0
    assert pot.affine_gauge_compare(pts, shifted, vals) < 1e-12


# ---------------------------------------------------------------------------
# entropy flux
# ---------------------------------------------------------------------------


def test_entropy_flux_of_trivial_speeds_is_scaled_potential(corpus_cases):
    case = corpus_cases["ex6.10"]
    bet = next(c for k, c in case.candidates if k == "beta")
    lam = sy.LambdaCandidate.from_sources(["3", "3", "3"], V3)
    grid = pot.entropy_flux(case.spec, lam, bet, case.spec.base_point, (5, 5, 5))
    assert np.abs(grid.values["q"] - 3 * grid.values["eta"]).max() < 1e-10


def _gas_entropy_flux(corpus_cases, counts):
    case = corpus_cases["ex6.1b"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    # pick the candidate carrying the total energy: its first component is
    # twice the second v-derivative of the internal energy at the base point
    from eigenframe import exprlang as ex

    base = np.asarray(case.spec.base_point)
    target = 2 * 1.4 * np.exp(base[2]) * base[0] ** -2.4
    bet = next(
        c for k, c in case.candidates
        if k == "beta" and c.eta_expr is not None
        and abs(ex.eval_scalar_many(c.exprs[0], base, c.params) - target) < 1e-10
    )
    grid = pot.entropy_flux(case.spec, lam, bet, case.spec.base_point, counts)
    pts = grid.nodes()
    qref = pts[:, 1] * np.exp(pts[:, 2]) * pts[:, 0] ** -1.4
    q = grid.values["q"].ravel()
    assert np.abs(q - qref - (q - qref).mean()).max() < 1e-8
    assert grid.meta["q_curl_residual"] < 1e-9


def test_entropy_flux_gas_matches_physical(corpus_cases):
    _gas_entropy_flux(corpus_cases, (6, 6, 6))


def test_entropy_flux_gas_matches_physical_on_fine_grid(corpus_cases):
    _gas_entropy_flux(corpus_cases, (11, 11, 11))


def test_entropy_flux_vanishes_exactly_at_base_node(corpus_cases):
    case = corpus_cases["ex6.10"]
    bet = next(c for k, c in case.candidates if k == "beta")
    lam = next(c for k, c in case.candidates if k == "lambda")
    grid = pot.entropy_flux(case.spec, lam, bet, case.spec.base_point, (5, 5, 5))
    assert grid.values["q"][2, 2, 2] == 0.0
    assert grid.values["eta"][2, 2, 2] == 0.0


def test_entropy_flux_rejects_non_solution(corpus_cases):
    case = corpus_cases["ex6.10"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    bad = sy.BetaCandidate.from_sources(["1", "1", "1"], V3)
    with pytest.raises(CurlViolationError):
        pot.entropy_flux(case.spec, lam, bad, case.spec.base_point, (5, 5, 5))


# ---------------------------------------------------------------------------
# chart-space solver
# ---------------------------------------------------------------------------


def _rotational_setup(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    base_w = np.array([0.0, 0.2, 1.0])
    phi = [
        lambda t: np.exp(2 * t),
        lambda t: 1.0 + np.sin(t),
        lambda t: t,
    ]

    def closed(W):
        return (
            np.exp(2 * W[..., 0]),
            np.exp(2 * W[..., 0]) + np.exp(W[..., 0]) * np.sin(W[..., 1]),
            W[..., 2],
        )

    return spec, base_w, phi, closed


def test_solver_reproduces_closed_family(corpus_cases):
    spec, base_w, phi, closed = _rotational_setup(corpus_cases)
    h = 1 / 16
    counts = [9, 9, 9]
    grid = pot.solve_rich_beta(spec, spec.chart, phi, base_w, counts, h)
    W = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
    refs = closed(W)
    err = max(np.abs(grid.values[f"gamma{j + 1}"] - refs[j]).max() for j in range(3))
    assert err < 5e-6


def test_solver_zero_data_gives_zero(corpus_cases):
    spec, base_w, _, _ = _rotational_setup(corpus_cases)
    zero = [lambda t: np.zeros_like(t)] * 3
    grid = pot.solve_rich_beta(spec, spec.chart, zero, base_w, [7, 7, 7], 1 / 16)
    assert max(np.abs(grid.values[f"gamma{j + 1}"]).max() for j in range(3)) == 0.0


def test_solver_rejects_rank1_frame(corpus_cases):
    spec = corpus_cases["ex6.4"].spec
    phi = [lambda t: np.ones_like(t)] * 3
    with pytest.raises(NotRankZeroError):
        pot.solve_rich_beta(spec, spec.chart, phi, [0.2, 0.0, 0.0], [6, 6, 6], 1 / 32)


def test_solver_refuses_nonrich_frame(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    chart = g.chart_from_sources(["u1", "u2", "u3"], ["w1", "w2", "w3"], V3)
    phi = [lambda t: np.ones_like(t)] * 3
    with pytest.raises(NotRichError, match="frame is not rich"):
        pot.solve_rich_beta(spec, chart, phi, [1.0, 1.0, 1.0], [5, 5, 5], 1 / 8)


def test_solver_handles_cross_coupled_spherical_chart():
    """The radial/polar/azimuthal coordinate frame has a fully coupled but
    cross-free chart-space connection; the solver must converge there too.
    Checked by grid self-consistency (coarse vs fine restriction) and the
    2nd-order decay of the central-difference residual."""
    spec, chart = spherical_frame_and_chart()
    rep = g.verify_riemann_chart(g.eval_connection(spec, spec.sample_points(20)), chart)
    assert rep["normalization_residual"] < 1e-9 and rep["roundtrip_residual"] < 1e-9, rep
    phi = [lambda t: 1.0 + t, lambda t: np.cos(t), lambda t: t**2]
    base_w = [1.2, 0.7, 0.5]
    errs = {}
    sols = {}
    for h in (1 / 8, 1 / 16):
        counts = [int(round(0.5 / h)) + 1] * 3
        grid = pot.solve_rich_beta(spec, chart, phi, base_w, counts, h)
        errs[h] = grid.meta["fd_residual"]
        sols[h] = grid
    # the PDE residual is measured with O(h^2) central differences
    assert errs[1 / 8] / errs[1 / 16] > 3.0
    # the solution itself is 4th order: coarse vs fine-grid restriction
    coarse = sols[1 / 8].values["gamma2"]
    fine = sols[1 / 16].values["gamma2"][::2, ::2, ::2]
    assert np.abs(coarse - fine).max() < 1e-5


def test_flux_jacobian_eigendecomposes_to_candidate(corpus_cases):
    """R diag[l] L applied to the frame columns returns the speeds."""
    case = corpus_cases["ex6.1b"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    field = pot.MatrixField(case.spec, (lam,))
    pts = case.spec.sample_points(20)
    R, _, _ = frame_jets(case.spec, pts)
    vals, _ = sy.eval_candidate(lam.tape, pts)
    worst = 0.0
    for i in range(3):
        [AR] = field.values(pts, R[:, :, i])
        res = AR - vals[:, i][:, None] * R[:, :, i]
        worst = max(worst, float(np.abs(res).max()))
    assert worst < 1e-7


def test_gauge_pinned_exactly_at_base_node(corpus_cases):
    case = corpus_cases["ex6.10"]
    bet = next(c for k, c in case.candidates if k == "beta")
    grid = pot.reconstruct_eta(case.spec, bet, case.spec.base_point, (9, 9, 9))
    center = (4, 4, 4)
    assert grid.values["eta"][center] == 0.0
    assert np.all(grid.values["grad_eta"][center] == 0.0)


# ---------------------------------------------------------------------------
# grid output
# ---------------------------------------------------------------------------


_SPECIALS = np.array([-0.0, 5e-324, 1e300, -2.5e-310, 1 / 3, -1e-300])


def _random_grid_values(shape, seed):
    """Values of every magnitude, the specials among them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values.flat[: _SPECIALS.size] = _SPECIALS
    return values


CSV_GRIDS = {
    "specials": (
        [np.array([-0.0, 5e-324, 1.0]), np.array([0.1, 1e300])],
        np.array([[-0.0, 1e300], [5e-324, -2.5e-310], [1 / 3, -1e-300]]),
    ),
    # 323 rows: past one 256-row chunk of the writer
    "17x19": ([np.linspace(-1.0, 1.0, 17), np.linspace(0.1, 1e300, 19)],
              _random_grid_values((17, 19), 11)),
}


def test_csv_matches_row_by_row_formatting():
    """to_csv is byte for byte the csv module writing f"{v:.17g}" per cell."""
    import csv
    import io

    for case, (axes, eta) in CSV_GRIDS.items():
        grad = np.stack([eta, -eta], axis=-1)
        grid = pot.PotentialGrid(axes, {"eta": eta, "grad_eta": grad}, (0.0, 0.0))
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["w1", "w2", "eta", "grad_eta1", "grad_eta2"])
        columns = [eta.ravel(), grad[..., 0].ravel(), grad[..., 1].ravel()]
        for row, node in enumerate(grid.nodes()):
            writer.writerow([f"{v:.17g}" for v in node] + [f"{col[row]:.17g}" for col in columns])
        assert grid.to_csv(["w1", "w2"]) == out.getvalue(), case


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2)], ids=["2-variables", "3-variables"])
def test_json_matches_json_dumps_of_lists(shape):
    """to_json is byte for byte json.dumps of the nested lists, for finite
    value arrays and for arrays holding NaN and inf."""
    import json

    axes = [np.linspace(0.0, 1.0, k) for k in shape]
    eta = _random_grid_values(shape, 5)
    grad = np.stack([eta * (k + 1) for k in range(len(shape))], axis=-1)
    psi = grad.copy()
    psi.flat[1:4] = [np.nan, np.inf, -np.inf]
    values = {"eta": eta, "grad_eta": grad, "psi": psi}
    meta = {"curl_residual": 5e-324, "ray_panels": 1, "kind": "eta"}
    grid = pot.PotentialGrid(axes, values, (0.5,) * len(shape), meta)
    expected = json.dumps({
        "axes": [a.tolist() for a in axes],
        "base_point": [0.5] * len(shape),
        "meta": meta,
        "values": {k: v.tolist() for k, v in values.items()},
    })
    assert grid.to_json() == expected


@pytest.mark.parametrize("kind", ["eta", "q"])
def test_frame_inverted_once_per_point_set(corpus_cases, monkeypatch, kind):
    """The frame and its candidates are evaluated once per block of ray
    parameters (q's Hessian and flux fields share it) and once on the
    closedness probes, and each evaluation passes the inversion gate once,
    whether L is formed (_invert_frame) or applied by cofactors (the n = 3
    ray blocks): every ray block reaches the gate, and no point set twice."""
    seen, blocks = [], []
    gate, values = g._require_invertible, pot.MatrixField.values

    def recording(points, R, det):
        seen.append(np.ascontiguousarray(points).tobytes())
        return gate(points, R, det)

    def block(self, points, d):
        blocks.append(np.ascontiguousarray(points).tobytes())
        return values(self, points, d)

    monkeypatch.setattr(g, "_require_invertible", recording)
    monkeypatch.setattr(pot, "_require_invertible", recording)
    monkeypatch.setattr(pot.MatrixField, "values", block)
    case = corpus_cases["ex6.1b"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    bet = [c for k, c in case.candidates if k == "beta"][1]
    if kind == "eta":
        pot.reconstruct_eta(case.spec, bet, case.spec.base_point, (4, 4, 4))
    else:
        pot.entropy_flux(case.spec, lam, bet, case.spec.base_point, (4, 4, 4))
    assert blocks and set(blocks) <= set(seen), (len(blocks), len(set(blocks) & set(seen)))
    assert len(seen) == len(set(seen)), (len(seen), len(set(seen)))


@pytest.mark.parametrize("kind", ["eta", "flux", "q"])
def test_meta_counts_ray_panels_and_field_evaluations(corpus_cases, monkeypatch, kind):
    """The grid meta counts the ray parameters of both ray families, summed
    over panels, and the largest panel count.  One MatrixField.values call
    (q's Hessian and flux fields included) covers a block of ray parameters:
    on these one-panel 4^3 grids the points passed sum to 33 x 64 per
    family, and no call exceeds max(_RAY_BATCH_POINTS, nodes) points."""
    calls = []
    values = pot.MatrixField.values

    def counted(self, points, d):
        calls.append(len(points))
        return values(self, points, d)

    monkeypatch.setattr(pot.MatrixField, "values", counted)
    if kind == "eta":
        case = corpus_cases["ex6.10"]
        bet = next(c for k, c in case.candidates if k == "beta")
        grid = pot.reconstruct_eta(case.spec, bet, case.spec.base_point, (4, 4, 4))
    elif kind == "flux":
        case = corpus_cases["ex6.6"]
        lam = next(c for k, c in case.candidates if k == "lambda")
        grid = pot.reconstruct_flux(case.spec, lam, case.spec.base_point, (4, 4, 4))
    else:
        case = corpus_cases["ex6.1b"]
        lam = next(c for k, c in case.candidates if k == "lambda")
        bet = [c for k, c in case.candidates if k == "beta"][1]
        grid = pot.entropy_flux(case.spec, lam, bet, case.spec.base_point, (4, 4, 4))
    assert grid.meta["ray_panels"] == 1
    assert grid.meta["field_evaluations"] == 2 * 33
    assert sum(calls) == 2 * 33 * 64
    assert max(calls) <= max(pot._RAY_BATCH_POINTS, 64)


def _reconstruct(kind, spec, lam, bet, counts):
    if kind == "eta":
        return pot.reconstruct_eta(spec, bet, spec.base_point, counts)
    if kind == "flux":
        return pot.reconstruct_flux(spec, lam, spec.base_point, counts)
    return pot.entropy_flux(spec, lam, bet, spec.base_point, counts)


@pytest.mark.parametrize("name, kind, counts", [
    pytest.param("ex6.10", "eta", (6,) * 3, id="ex6.10-eta"),
    pytest.param("ex6.11", "eta", (6,) * 3, id="ex6.11-eta"),
    pytest.param("ex6.6", "flux", (6,) * 3, id="ex6.6-flux"),
    pytest.param("ex6.1b", "q", (6,) * 3, id="ex6.1b-q"),
    *(pytest.param("ex6.12", kind, (4,) * 4, id=f"ex6.12-{kind}") for kind in ("eta", "flux", "q")),
])
def test_grids_match_rates_of_formed_matrices(corpus_cases, monkeypatch, name, kind, counts):
    """Rays whose rates apply each field to the direction give the grids of
    rates that form the Hessian and flux matrices first (rates_reference),
    to 1e-14 relative, with the same ray panels and field evaluations."""
    spec = corpus_cases[name].spec
    lam = next(c for k, c in corpus_cases[name].candidates if k == "lambda")
    bet = [c for k, c in corpus_cases[name].candidates if k == "beta"][-1]
    grid = _reconstruct(kind, spec, lam, bet, counts)
    monkeypatch.setattr(pot, "_rates", rates_reference.rates)
    ref = _reconstruct(kind, spec, lam, bet, counts)
    for key in ("ray_panels", "field_evaluations"):
        assert grid.meta[key] == ref.meta[key], key
    assert grid.values.keys() == ref.values.keys()
    for key, value in ref.values.items():
        assert np.abs(grid.values[key] - value).max() <= 1e-14 * np.abs(value).max(), key


def _field_on_frames(monkeypatch, R):
    """A MatrixField of one length and one speed candidate on a 3-variable
    frame, whose tape is replaced by one that returns the frames R (m, 3, 3)
    and random candidate values at the m points."""
    spec = standard_frame()
    bet = sy.BetaCandidate.from_sources(["1", "1", "1"], V3)
    lam = sy.LambdaCandidate.from_sources(["1", "1", "1"], V3)
    field = pot.MatrixField(spec, (bet, lam))
    cands = np.random.default_rng(R.shape[0]).normal(size=(R.shape[0], 6))
    block = np.hstack([R.reshape(-1, 9), cands])
    monkeypatch.setattr(pot.ex, "eval_scalar_many", lambda tape, pts: block)
    return field, block


def _gate_frames(seed, kind):
    """40 random frames, three of them replaced according to kind."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(40, 3, 3))
    bad = rng.integers(5, 40, size=3)
    if kind == "special rows":
        R[bad] = frames_with_special_rows(rng, 3)
        R[bad[0], 0] = [np.inf, 1.0, 1.0]
    elif kind == "zero rows":
        R[bad, rng.integers(0, 3, size=3)] = 0.0
    else:
        R[bad[0]] = singular_batch(3, kind)[1]
    return R


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["special rows", "zero rows", "below", "above"])
def test_cofactor_rates_gate_like_invert_frame(monkeypatch, seed, kind):
    """MatrixField.values applies L by cofactors for n = 3 without calling
    _invert_frame; on the same frames it raises the same exception, at the
    same point and with the same message, or passes where _invert_frame
    does, with no RuntimeWarning either way."""
    R = _gate_frames(seed, kind)
    field, _ = _field_on_frames(monkeypatch, R)
    points = np.arange(120.0).reshape(40, 3)

    def outcome(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except (DomainError, SingularFrameError) as err:
                return type(err), err.point.tobytes(), str(err)
        return None

    d = np.ones((40, 3))
    kernel = outcome(lambda: field.values(points, d))
    assert kernel == outcome(lambda: g._invert_frame(points, R))
    assert (kernel is None) == (kind == "above")


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_cofactor_rates_match_formed_matrices(monkeypatch, cond):
    """On random frames of condition number up to 1e8 the cofactor rates
    match L^T diag[b] L d and R diag[l] L d formed from _invert_frame's L
    (rates_reference) within a kappa * eps bound relative to the same
    products on absolute values."""
    rng = np.random.default_rng(int(np.log10(cond)))
    m = 200
    R = frames_with_condition(rng, 3, m, cond)
    field, block = _field_on_frames(monkeypatch, R)
    d = rng.normal(size=(m, 3))
    Hd, Ad = field.values(np.zeros((m, 3)), d)
    L, _ = g._invert_frame(np.zeros((m, 3)), R)
    b, lam = block[:, 9:12], block[:, 12:]
    kappa = np.linalg.cond(R)[:, None]
    for got, M, scale in [
        (Hd, rates_reference.hessian_matrix(L, b), rates_reference.hessian_matrix(np.abs(L), np.abs(b))),
        (Ad, rates_reference.flux_matrix(R, L, lam), rates_reference.flux_matrix(np.abs(R), np.abs(L), np.abs(lam))),
    ]:
        ref = np.einsum("mab,mb->ma", M, d)
        bound = np.einsum("mab,mb->ma", scale, np.abs(d))
        assert np.all(np.abs(got - ref) <= 4e-16 * 3 * kappa * bound)


def _diagonal_frame_2d():
    """R = diag(1, u1) on [1, 2]^2: L = diag(1, 1/u1) comes from LAPACK."""
    spec = g.frame_from_sources([["1", "0"], ["0", "u1"]], ["u1", "u2"],
                                domain=((1.0, 1.0), (2.0, 2.0)))
    lam = sy.LambdaCandidate.from_sources(["u1", "u2^2"], ["u1", "u2"])
    bet = sy.BetaCandidate.from_sources(["u1", "u1^2*u2"], ["u1", "u2"])
    return spec, lam, bet


def _grids_at_budgets(monkeypatch, nodes: int, build) -> list:
    """build() at the one-node schedule, at uneven blocks of 5 nodes (and
    more once the todo set shrinks) and at the default budget."""
    grids = []
    for budget in (1, 5 * nodes + 1, pot._RAY_BATCH_POINTS):
        with monkeypatch.context() as patch:
            patch.setattr(pot, "_RAY_BATCH_POINTS", budget)
            grids.append(build())
    return grids


def _assert_bit_identical(grids):
    first, *rest = grids
    for grid in rest:
        assert grid.meta == first.meta
        assert grid.values.keys() == first.values.keys()
        for key, value in first.values.items():
            assert grid.values[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("name, counts", [
    *(pytest.param(name, (c,) * 3, id=f"{name}-{c}^3")
      for name in ("ex6.10", "ex6.6", "ex6.1b") for c in (4, 5, 6)),
    pytest.param("ex6.12", (4,) * 4, id="ex6.12-4^4"),
    pytest.param("diagonal-2d", (5, 5), id="diagonal-2d-5^2"),
])
def test_grids_independent_of_ray_batch_budget(corpus_cases, monkeypatch, name, counts):
    """Eta, flux and q grids and metas are bit-identical whether a rates call
    covers one Kronrod node, uneven blocks of them or the default budget;
    ex6.12 (n = 4) and the 2-D frame invert through LAPACK."""
    if name == "diagonal-2d":
        spec, lam, bet = _diagonal_frame_2d()
    else:
        spec = corpus_cases[name].spec
        lam = next(c for k, c in corpus_cases[name].candidates if k == "lambda")
        bet = next(c for k, c in corpus_cases[name].candidates if k == "beta")
    for kind in ("eta", "flux", "q"):
        build = functools.partial(_reconstruct, kind, spec, lam, bet, counts)
        _assert_bit_identical(_grids_at_budgets(monkeypatch, int(np.prod(counts)), build))


def test_two_panel_rays_independent_of_ray_batch_budget(monkeypatch):
    """With speed sin(40 u1) the rays need two panels, and the second pass
    runs only the unfinished nodes, in blocks of its own size."""
    spec = g.frame_from_sources([["1", "0"], ["0", "1"]], ["u1", "u2"],
                                domain=((0, 0), (1, 1)))
    lam = sy.LambdaCandidate.from_sources(["sin(40*u1)", "0"], ["u1", "u2"])
    grids = _grids_at_budgets(
        monkeypatch, 25, lambda: pot.reconstruct_flux(spec, lam, spec.base_point, (5, 5))
    )
    assert grids[0].meta["ray_panels"] == 2
    _assert_bit_identical(grids)


@pytest.mark.parametrize("budget", [1, None])
def test_failing_block_raises_the_first_failing_node_error(monkeypatch, budget):
    """A tape runs its checks in order over all the points of a call, so in a
    block a check that comes first can fail at a later node than another
    check.  A failing block is run again node by node, and the error is the
    one the first failing node raises, as with one call per node."""
    rule = pot._ray_rule(pot._RAY_Q)

    def rates(pts, d):
        # check "late" runs first and fails at node 5; "early" fails at node 3
        for name, t in (("late", rule.t[5]), ("early", rule.t[3])):
            hit = pts[:, 0] == t
            if hit.any():
                raise DomainError(name, pts[int(np.argmax(hit))], "test")
        return d.copy(), None

    if budget is not None:
        monkeypatch.setattr(pot, "_RAY_BATCH_POINTS", budget)
    with pytest.raises(DomainError) as info:
        pot._panel_sums(rates, np.zeros(1), np.ones((1, 1)), np.zeros((1, 1)), 1)
    assert info.value.node == "early" and info.value.point[0] == rule.t[3]
