"""Curl tests and reconstruction of potentials by ray integration, the one
integration scheme of every potential, flux map and entropy flux.

Given a frame and a verified length candidate b, the matrix field
L^T diag[b] L is the Hessian of the scalar potential being reconstructed;
given a verified speed candidate l, R diag[l] L is the Jacobian of the flux
map.  The box is convex, so every grid node x is reached from the base point
x0 by the ray x0 + t d, d = x - x0 (the homotopy operator of the Poincare
lemma):

    f(x)        = int_0^1 M(x0 + t d) d dt,
    grad eta(x) = int_0^1 H(x0 + t d) d dt,
    eta(x)      = int_0^1 grad eta(x0 + t d) . d dt,
    q(x)        = int_0^1 grad eta(x0 + t d) . A(x0 + t d) d dt,

with grad eta carried along the ray by a Legendre-basis cumulative-integration
matrix at the quadrature nodes.  All nodes are integrated together, one
values-only field evaluation over the grid per ray parameter: one tape run
over the frame and the candidates, and one inversion of the frame, which
the Hessian and flux fields of q share.  A nested Gauss-Kronrod pair of Q
and 2Q+1 nodes estimates the error of every ray from one set of field
values (the Q Gauss nodes are among the 2Q+1); rays over the tolerance are
split into panels, and a ray that does not converge raises
QuadratureFailureError.  Curl tests gate every integration; path
independence is checked by a second family of rays from another grid node.

The chart-space boundary-value solver (solve_rich_beta) fills a grid with
the unique solution determined by one single-variable function per axis,
by Picard iteration of the axis-ordered Volterra integral form with
4th-order cumulative Simpson quadrature.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import exprlang as ex
from .errors import (
    CurlViolationError,
    NotRankZeroError,
    QuadratureFailureError,
    StepFailureError,
)
from .geometry import (
    FrameSpec,
    RiemannChart,
    _invert_frame,
    distinct_triple_mask,
    eval_connection,
    frame_block,
    frame_tape,
    pullback_connection,
)
from .systems import BetaCandidate, LambdaCandidate, require_rich

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_CURL_TOL = 1e-7
_RAY_Q = 16  # Gauss nodes per ray panel; the Kronrod rule nested in it has 2Q+1
_RAY_MAX_PANELS = 64  # a ray still over the tolerance at this many panels fails


# ---------------------------------------------------------------------------
# Matrix fields with exact first derivatives
# ---------------------------------------------------------------------------


class MatrixField:
    """An evaluable n x n matrix field M(x) with exact first derivatives.

    values(points) -> (m, N, N); value_grad(points) -> (V, G) with
    G[p, a, b, d] = dM[a,b]/dx_d.
    """

    def __init__(self, n: int, values_fn: Callable, value_grad_fn: Callable):
        self.n = n
        self._values = values_fn
        self._value_grad = value_grad_fn

    def values(self, points: np.ndarray) -> np.ndarray:
        return self._values(np.atleast_2d(np.asarray(points, dtype=float)))

    def value_grad(self, points: np.ndarray):
        return self._value_grad(np.atleast_2d(np.asarray(points, dtype=float)))


class _FrameEval:
    """The frame entries and the components of some candidates in one tape:
    one evaluation and one inversion of the frame per point set."""

    def __init__(self, spec: FrameSpec, *cands):
        self.n = spec.n
        self.count = len(cands)
        self.tape = frame_tape(spec, *cands)

    def _split(self, block: np.ndarray) -> list:
        nn, n = self.n * self.n, self.n
        return [block[:, nn + c * n : nn + (c + 1) * n] for c in range(self.count)]

    def values(self, pts: np.ndarray):
        """R, L = R^-1 and each candidate's values (m, k)."""
        vals = ex.eval_scalar_many(self.tape, pts)
        R = frame_block(vals, self.n)
        L, _ = _invert_frame(pts, R)
        return R, L, self._split(vals)

    def grads(self, pts: np.ndarray):
        """R, L, the frame derivatives dR, shape (m, d, a, j) = d_d R^a_j, and
        each candidate's values (m, k) and gradients (m, d, k) = d_d s_k."""
        jet = ex.eval_jet2_many(self.tape, pts, order=1)
        R = frame_block(jet.value, self.n)
        L, _ = _invert_frame(pts, R)
        dR = frame_block(jet.grad, self.n).transpose(0, 3, 1, 2)
        grads = [g.transpose(0, 2, 1) for g in self._split(jet.grad)]
        return R, L, dR, self._split(jet.value), grads


def _hessian_values(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (L.transpose(0, 2, 1) * b[:, None, :]) @ L


def _hessian_value_grad(L, dR, b, bg):
    Lt = L.transpose(0, 2, 1)
    V = _hessian_values(L, b)
    # d_d L = -L (d_d R) L, so L^T diag[b] d_d L = -V (d_d R) L
    W = V[:, None] @ dR @ L[:, None]
    G = (Lt[:, None] * bg[:, :, None, :]) @ L[:, None] - W - W.transpose(0, 1, 3, 2)
    return V, G.transpose(0, 2, 3, 1)


def _flux_values(R: np.ndarray, L: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return (R * lam[:, None, :]) @ L


def _flux_value_grad(R, L, dR, lam, lg):
    V = _flux_values(R, L, lam)
    # d_d (R diag[l] L) = (d_d R diag[l] + R diag[d_d l] - V d_d R) L
    G = dR * lam[:, None, None, :] + R[:, None] * lg[:, :, None, :] - V[:, None] @ dR
    G = G @ L[:, None]
    return V, G.transpose(0, 2, 3, 1)


def length_hessian_field(spec: FrameSpec, cand: BetaCandidate) -> MatrixField:
    """M = L^T diag[b] L, the Hessian field of the scalar potential."""
    frame = _FrameEval(spec, cand)

    def values(pts):
        _, L, (b,) = frame.values(pts)
        return _hessian_values(L, b)

    def value_grad(pts):
        _, L, dR, (b,), (bg,) = frame.grads(pts)
        return _hessian_value_grad(L, dR, b, bg)

    return MatrixField(spec.n, values, value_grad)


def flux_jacobian_field(spec: FrameSpec, cand: LambdaCandidate) -> MatrixField:
    """M = R diag[l] L, the Jacobian field of the flux map."""
    frame = _FrameEval(spec, cand)

    def values(pts):
        R, L, (lam,) = frame.values(pts)
        return _flux_values(R, L, lam)

    def value_grad(pts):
        R, L, dR, (lam,), (lg,) = frame.grads(pts)
        return _flux_value_grad(R, L, dR, lam, lg)

    return MatrixField(spec.n, values, value_grad)


def _curl(V: np.ndarray, G: np.ndarray) -> float:
    curl = G - G.transpose(0, 1, 3, 2)  # [p,k,j,i] - [p,k,i,j]
    scale = 1.0 + np.abs(V).max() + np.abs(G).max()
    return float(np.abs(curl).max() / scale)


def curl_residual(field: MatrixField, points: np.ndarray) -> float:
    """Max over rows k and pairs i<j of |d_i M[k,j] - d_j M[k,i]|,
    normalized by the field magnitude."""
    return _curl(*field.value_grad(points))


# ---------------------------------------------------------------------------
# Potential grids
# ---------------------------------------------------------------------------


@dataclass
class PotentialGrid:
    axes: list  # per-variable node arrays
    values: dict  # name -> ndarray over the grid (vector fields have a trailing axis)
    base_point: tuple
    meta: dict = dc_field(default_factory=dict)

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def to_json(self) -> str:
        payload = {
            "axes": [a.tolist() for a in self.axes],
            "base_point": list(self.base_point),
            "meta": self.meta,
            "values": {k: np.asarray(v).tolist() for k, v in self.values.items()},
        }
        return json.dumps(payload)

    def to_csv(self, var_names: Sequence[str]) -> str:
        names = []
        columns = []
        for key, arr in self.values.items():
            arr = np.asarray(arr)
            if arr.ndim == len(self.axes):
                names.append(key)
                columns.append(arr.ravel())
            else:
                for c in range(arr.shape[-1]):
                    names.append(f"{key}{c + 1}")
                    columns.append(arr[..., c].ravel())
        out = io.StringIO()
        csv.writer(out).writerow(list(var_names) + names)
        table = np.column_stack([self.nodes()] + columns)
        np.savetxt(out, table, fmt="%.17g", delimiter=",", newline="\r\n")
        return out.getvalue()


def _grid_axes(lo, hi, counts, base: np.ndarray) -> list:
    """Node arrays per axis; a node within rounding of the base point is
    moved onto it, so the gauge holds exactly at that node."""
    axes = [np.linspace(lo[d], hi[d], counts[d]) for d in range(len(counts))]
    for axis, b in zip(axes, base):
        axis[np.abs(axis - b) <= 1e-12 * max(1.0, abs(b))] = b
    return axes


# ---------------------------------------------------------------------------
# Ray integration from the base point
# ---------------------------------------------------------------------------


class _RayRule(NamedTuple):
    """A nested Gauss-Kronrod pair on [0, 1]: the 2q+1 Kronrod nodes t with
    their weights w and cumulative-integration matrix K, and the q embedded
    Gauss nodes t[gauss] with their own weights and matrix.  (K f)_i is the
    integral from 0 to t_i of the polynomial interpolating the values f."""

    t: np.ndarray
    w: np.ndarray
    K: np.ndarray
    gauss: np.ndarray
    w_gauss: np.ndarray
    K_gauss: np.ndarray


@lru_cache(maxsize=None)
def _ray_rule(q: int) -> _RayRule:
    """The Gauss-Kronrod pair of q and 2q+1 nodes, built in the Legendre
    basis (a monomial basis is unstable at these orders).  The q+1 Kronrod
    nodes are the roots of the Stieltjes polynomial E_{q+1}, which is
    orthogonal to P_q P_k for every k <= q; the Kronrod weights solve the
    Legendre moment equations at all 2q+1 nodes."""
    leg = np.polynomial.legendre
    x, w_gauss = leg.leggauss(q)
    # E = P_{q+1} + sum_{j<=q} c_j P_j; the integrals of P_q P_k P_j have
    # degree <= 3q+1, exact with 2q Gauss nodes
    y, wy = leg.leggauss(2 * q)
    P = leg.legvander(y, q + 1)
    A = np.einsum("y,yk,yj->kj", wy * P[:, q], P[:, : q + 1], P)
    c = np.linalg.solve(A[:, : q + 1], -A[:, q + 1])
    z = np.concatenate([x, leg.legroots(np.append(c, 1.0))])
    order = np.argsort(z)
    z, gauss = z[order], np.flatnonzero(order < q)
    V = leg.legvander(z, 2 * q)
    moments = np.zeros(2 * q + 1)
    moments[0] = 2.0
    w = np.linalg.solve(V.T, moments)
    # Kronrod: Legendre coefficients of the interpolant by a Vandermonde
    # solve; Gauss: exact by Gauss orthogonality
    anti = leg.legval(z, leg.legint(np.eye(2 * q + 1), lbnd=-1)).T
    K = np.linalg.solve(V.T, anti.T).T
    to_coef = (np.arange(q) + 0.5)[:, None] * (leg.legvander(x, q - 1) * w_gauss[:, None]).T
    K_gauss = leg.legval(x, leg.legint(np.eye(q), lbnd=-1)).T @ to_coef
    return _RayRule(
        0.5 * (z + 1.0), 0.5 * w, 0.5 * K, gauss, 0.5 * w_gauss, 0.5 * K_gauss
    )


def _advance(G, S, h: float, w, K, Jd, V):
    """One panel of width h of one rule: G(t) = G + h K Jd at the nodes, and
    the carried vector and scalar integrals at the panel's end."""
    Jd_flat = Jd.reshape(w.size, -1)
    G_nodes = (h * K @ Jd_flat).reshape(Jd.shape)
    G_nodes += G
    S = S + h * np.einsum("j,jmn,jkmn->mk", w, G_nodes, V)
    return G + h * (w @ Jd_flat).reshape(G.shape), S


def _panel_sums(rates, base, d, grad0, panels: int):
    """The Kronrod and the embedded Gauss rule of _ray_rule(_RAY_Q) on each
    of `panels` equal panels of [0, 1], from one rates call per Kronrod node:
    the carried vector G(1) and the scalar integrals S(1) of every ray, as
    (Kronrod, Gauss) pairs."""
    rule = _ray_rule(_RAY_Q)
    g = rule.gauss
    h = 1.0 / panels
    G = np.array(grad0, dtype=float)
    (Gk, Sk), (Gg, Sg) = (G, 0.0), (G, 0.0)
    for p in range(panels):
        steps = [rates(base + (p + tj) * h * d, d) for tj in rule.t]
        Jd = np.stack([s[0] for s in steps])  # (2Q+1, m, n)
        V = np.stack([s[1] for s in steps])  # (2Q+1, k, m, n)
        del steps  # peak memory: a few (2Q+1, m, n) arrays
        Gk, Sk = _advance(Gk, Sk, h, rule.w, rule.K, Jd, V)
        Gg, Sg = _advance(Gg, Sg, h, rule.w_gauss, rule.K_gauss, Jd[g], V[g])
    return (Gk, Sk), (Gg, Sg)


def _ray_family(rates, base: np.ndarray, nodes: np.ndarray, quad_tol: float, grad0):
    """Integrals along the rays x(t) = base + t d, d = node - base, to every
    node at once:

        G(t) = grad0 + int_0^t J(x(s)) d ds,   S_k = int_0^1 G(t) . v_k(t) dt,

    where rates(points, d) returns J d and the stacked v_k.  Each ray
    parameter costs one rates call over all unfinished nodes.  A node is
    done when the Kronrod and the Gauss sums agree to quad_tol (relative
    once the result exceeds 1), and keeps the Kronrod result; the rest are
    split into twice as many panels.  Also returns the largest panel count
    reached and the number of rates calls made."""
    d = nodes - base
    grad0 = np.broadcast_to(grad0, d.shape)
    G, S = np.empty(d.shape), None
    todo = np.arange(d.shape[0])
    panels, calls = 1, 0
    while True:
        (Gk, Sk), (Gg, Sg) = _panel_sums(rates, base, d[todo], grad0[todo], panels)
        calls += panels * _ray_rule(_RAY_Q).t.size
        kronrod = np.hstack([Gk, Sk])
        err = np.abs(kronrod - np.hstack([Gg, Sg])).max(axis=1)
        ok = err <= quad_tol * (1.0 + np.abs(kronrod).max(axis=1))
        if S is None:
            S = np.empty((d.shape[0], Sk.shape[1]))
        G[todo[ok]], S[todo[ok]] = Gk[ok], Sk[ok]
        todo, err = todo[~ok], err[~ok]
        if todo.size == 0:
            return G, S, (panels, calls)
        if panels >= _RAY_MAX_PANELS:
            worst = int(np.argmax(err))
            raise QuadratureFailureError(
                f"ray from {base.tolist()} to {nodes[todo[worst]].tolist()} did not "
                f"converge in {panels} panels (error {err[worst]:.3e} > {quad_tol:.1e})"
            )
        panels *= 2


def _ray_families(rates, base: np.ndarray, axes: list, quad_tol: float, grad0=0.0):
    """Family A of rays from the base point and family B from the grid corner
    farthest from it.  B starts from A's carried vector at that corner and
    its scalars are shifted by A's values there, so the two agree exactly at
    the corner and elsewhere up to path dependence and quadrature error.
    The work done goes into a grid's meta: the largest panel count either
    family reached and the rates calls of both."""
    nodes = PotentialGrid(axes, {}, ()).nodes()
    G, S, (panels, calls) = _ray_family(rates, base, nodes, quad_tol, grad0)
    far = tuple(0 if abs(a[0] - b) >= abs(a[-1] - b) else len(a) - 1 for a, b in zip(axes, base))
    c = int(np.ravel_multi_index(far, [len(a) for a in axes]))
    G_b, S_b, (panels_b, calls_b) = _ray_family(rates, nodes[c], nodes, quad_tol, G[c])
    work = {"ray_panels": max(panels, panels_b), "field_evaluations": calls + calls_b}
    return G, S, G_b, S_b + S[c], work


def _jacobian_rates(field: MatrixField):
    """d/dt of f along a ray is M d; there is no scalar."""

    def rates(pts, d):
        return np.einsum("mab,mb->ma", field.values(pts), d), np.empty((0,) + d.shape)

    return rates


def _potential_rates(fields: Callable):
    """grad eta changes by H d along a ray; eta integrates grad eta . d and,
    with a flux Jacobian A, q integrates grad eta . A d.  fields(points)
    returns (H,) or (H, A)."""

    def rates(pts, d):
        H, *flux = fields(pts)
        Hd = np.einsum("mab,mb->ma", H, d)
        if not flux:
            return Hd, d[None]
        return Hd, np.stack([d, np.einsum("mab,mb->ma", flux[0], d)])

    return rates


def _closedness_probes(spec: FrameSpec, base: np.ndarray) -> np.ndarray:
    return np.vstack([spec.sample_points(20), base[None, :]])


def _require_closed(V: np.ndarray, G: np.ndarray, curl_tol: float) -> float:
    """The curl residual of a field's values V and derivatives G, which must
    not exceed curl_tol."""
    res = _curl(V, G)
    if res > curl_tol:
        raise CurlViolationError(res, curl_tol)
    return res


def reconstruct_flux(
    spec: FrameSpec,
    cand: LambdaCandidate,
    base: Sequence[float],
    counts: Sequence[int],
    quad_tol: float = DEFAULT_QUAD_TOL,
    curl_tol: float = DEFAULT_CURL_TOL,
    box: Optional[tuple] = None,
) -> PotentialGrid:
    """Flux map f with Df = R diag[l] L and f(base) = 0 on a grid."""
    lo, hi = box if box is not None else (spec.domain_lo, spec.domain_hi)
    base = np.asarray(base, dtype=float)
    axes = _grid_axes(lo, hi, counts, base)
    shape = tuple(counts) + (spec.n,)
    field = flux_jacobian_field(spec, cand)
    res = _require_closed(*field.value_grad(_closedness_probes(spec, base)), curl_tol)
    F, _, F_b, _, work = _ray_families(_jacobian_rates(field), base, axes, quad_tol)
    return PotentialGrid(
        axes=axes,
        values={"f": F.reshape(shape)},
        base_point=tuple(base),
        meta={
            "curl_residual": res,
            "path_independence_residual": float(np.abs(F - F_b).max()),
            "quad_tol": quad_tol,
            **work,
            "kind": "flux",
        },
    )


def reconstruct_eta(
    spec: FrameSpec,
    cand: BetaCandidate,
    base: Sequence[float],
    counts: Sequence[int],
    quad_tol: float = DEFAULT_QUAD_TOL,
    curl_tol: float = DEFAULT_CURL_TOL,
    box: Optional[tuple] = None,
) -> PotentialGrid:
    """Scalar potential with Hessian L^T diag[b] L, gauge-fixed so that the
    value and gradient vanish at the base point.

    psi is the gradient carried along the second ray family; its agreement
    with grad_eta, and that of the two families' potentials, are recorded
    as consistency residuals.
    """
    lo, hi = box if box is not None else (spec.domain_lo, spec.domain_hi)
    base = np.asarray(base, dtype=float)
    axes = _grid_axes(lo, hi, counts, base)
    shape = tuple(counts)
    field = length_hessian_field(spec, cand)
    V, G = field.value_grad(_closedness_probes(spec, base))
    res = _require_closed(V, G, curl_tol)
    sym = float(np.abs(V - V.transpose(0, 2, 1)).max() / (1.0 + np.abs(V).max()))
    rates = _potential_rates(lambda pts: (field.values(pts),))
    grad, S, psi, S_b, work = _ray_families(rates, base, axes, quad_tol)
    grad_res = float(np.abs(grad - psi).max())
    return PotentialGrid(
        axes=axes,
        values={
            "eta": S[:, 0].reshape(shape),
            "grad_eta": grad.reshape(shape + (spec.n,)),
            "psi": psi.reshape(shape + (spec.n,)),
        },
        base_point=tuple(base),
        meta={
            "curl_residual": res,
            "symmetry_residual": sym,
            "path_independence_residual": max(float(np.abs(S - S_b).max()), grad_res),
            "grad_consistency_residual": grad_res,
            "quad_tol": quad_tol,
            **work,
            "kind": "eta",
        },
    )


def entropy_flux(
    spec: FrameSpec,
    lambda_cand: LambdaCandidate,
    beta_cand: BetaCandidate,
    base: Sequence[float],
    counts: Sequence[int],
    quad_tol: float = DEFAULT_QUAD_TOL,
    curl_tol: float = DEFAULT_CURL_TOL,
    box: Optional[tuple] = None,
) -> PotentialGrid:
    """Scalar q whose gradient is grad(eta) . (R diag[l] L), gauge q(base)=0.

    grad(eta) is carried along each ray by the Hessian field of the length
    candidate, starting from zero or, when a closed-form potential is
    attached to the candidate, from that potential's gradient at the base.
    """
    lo, hi = box if box is not None else (spec.domain_lo, spec.domain_hi)
    base = np.asarray(base, dtype=float)
    axes = _grid_axes(lo, hi, counts, base)
    shape = tuple(counts)
    # M = L^T diag[b] L and A = R diag[l] L from one frame evaluation
    frame = _FrameEval(spec, beta_cand, lambda_cand)
    R, L, dR, (b, lam), (bg, lg) = frame.grads(_closedness_probes(spec, base))
    _require_closed(*_hessian_value_grad(L, dR, b, bg), curl_tol)
    _require_closed(*_flux_value_grad(R, L, dR, lam, lg), curl_tol)
    # with a closed-form potential attached, q corresponds to that potential
    # (its base gradient seeds the rays); otherwise to the gauge-fixed one
    grad0 = 0.0
    if beta_cand.eta_expr is not None:
        grad0 = ex.eval_jet2_many(beta_cand.eta_tape, base[None, :], order=1).grad[0, 0]

    def fields(pts):
        R, L, (b, lam) = frame.values(pts)
        return _hessian_values(L, b), _flux_values(R, L, lam)

    grad, S, _, S_b, work = _ray_families(_potential_rates(fields), base, axes, quad_tol, grad0)
    # curl of w = grad(eta) . A at grid probes, using d(grad eta) = M
    nodes = PotentialGrid(axes, {}, tuple(base)).nodes()
    take = nodes[:: max(1, nodes.shape[0] // 40)]
    gflat = grad[:: max(1, nodes.shape[0] // 40)]
    R, L, dR, (b, lam), (bg, lg) = frame.grads(take)
    MV = _hessian_values(L, b)
    AV, AG = _flux_value_grad(R, L, dR, lam, lg)
    # d_e w_d = sum_k M[e,k] A[k,d] + grad_k dA[k,d]/dx_e
    P = np.einsum("mek,mkd->mde", MV, AV)
    Q = np.einsum("mk,mkde->mde", gflat, AG)
    total = P + Q
    curl_w = total - total.transpose(0, 2, 1)
    wres = float(np.abs(curl_w).max() / (1.0 + np.abs(MV).max() + np.abs(AV).max()))
    if wres > 100 * curl_tol:
        raise CurlViolationError(wres, 100 * curl_tol)
    return PotentialGrid(
        axes=axes,
        values={
            "q": S[:, 1].reshape(shape),
            "eta": S[:, 0].reshape(shape),
            "grad_eta": grad.reshape(shape + (spec.n,)),
        },
        base_point=tuple(base),
        meta={
            "q_curl_residual": wres,
            "path_independence_residual": float(np.abs(S[:, 1] - S_b[:, 1]).max()),
            **work,
            "kind": "entropy-flux",
        },
    )


def affine_gauge_compare(
    points: np.ndarray, values: np.ndarray, reference: np.ndarray
) -> float:
    """Max residual of values - reference after removing the best-fit affine
    field a . u + b (the gauge freedom of scalar potentials)."""
    points = np.atleast_2d(points)
    diff = np.asarray(values, dtype=float).ravel() - np.asarray(reference, dtype=float).ravel()
    design = np.hstack([points, np.ones((points.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
    return float(np.abs(diff - design @ coef).max())


# ---------------------------------------------------------------------------
# Chart-space boundary-value solver (rich, rank 0)
# ---------------------------------------------------------------------------


def cumulative_simpson(A: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """4th-order cumulative integral along an axis (composite Simpson with a
    cubic-interpolation first step); node-only stencils."""
    A = np.moveaxis(A, axis, 0)
    npts = A.shape[0]
    if npts < 4:
        raise ValueError("cumulative_simpson needs at least 4 nodes per axis")
    out = np.zeros_like(A)
    out[1] = dx * (9 * A[0] + 19 * A[1] - 5 * A[2] + A[3]) / 24.0
    for k in range(2, npts):
        out[k] = out[k - 2] + dx * (A[k - 2] + 4 * A[k - 1] + A[k]) / 3.0
    return np.moveaxis(out, 0, axis)


def solve_rich_beta(
    spec: FrameSpec,
    chart: RiemannChart,
    boundary_fns: Sequence[Callable],
    base_w: Sequence[float],
    counts: Sequence[int],
    h: float,
    rank0_tol: float = 1e-7,
    max_sweeps: int = 400,
) -> PotentialGrid:
    """Solve the chart-space system d_i g^j = Z[j,i,j] g^j - Z[j,j,i] g^i
    (i != j) on a grid with data g^j = phi_j on the j-th axis through the
    base point.

    Requires a rich frame whose chart-space cross components vanish (rank-0
    condition).  The unique solution is computed by Picard iteration of the
    axis-ordered integral form; quadrature is 4th-order cumulative Simpson,
    so the grid error is O(h^4).
    """
    n = spec.n
    base_w = np.asarray(base_w, dtype=float)
    axes = [base_w[d] + h * np.arange(counts[d]) for d in range(n)]
    require_rich(eval_connection(spec, spec.sample_points(30)), 1e-7)
    mesh = np.meshgrid(*axes, indexing="ij")
    w_pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pb = pullback_connection(spec, chart, w_pts)
    shape = tuple(counts)
    Z = pb.Z.reshape(shape + (n, n, n))
    zscale = 1.0 + np.abs(Z).max()
    cross = float(np.abs(np.where(distinct_triple_mask(n)[None], pb.Z, 0.0)).max() / zscale)
    if cross > rank0_tol:
        raise NotRankZeroError(
            f"chart-space cross components do not vanish (max scaled {cross:.3e})"
        )
    boundary = [
        np.broadcast_to(
            boundary_fns[j](axes[j]).reshape(
                tuple(len(axes[j]) if d == j else 1 for d in range(n))
            ),
            shape,
        )
        for j in range(n)
    ]
    gamma = [b.copy() for b in boundary]
    prev_delta = np.inf
    for sweep in range(max_sweeps):
        new = []
        for j in range(n):
            acc = boundary[j].copy()
            for i in range(n):
                if i == j:
                    continue
                integrand = Z[..., j, i, j] * gamma[j] - Z[..., j, j, i] * gamma[i]
                slicer = tuple(
                    slice(None) if (d <= i or d == j) else slice(0, 1) for d in range(n)
                )
                cum = cumulative_simpson(integrand[slicer], h, axis=i)
                acc = acc + cum
            new.append(acc)
        delta = max(float(np.abs(new[j] - gamma[j]).max()) for j in range(n))
        gamma = new
        scale = 1.0 + max(float(np.abs(gmm).max()) for gmm in gamma)
        if delta < 1e-14 * scale:
            break
        if sweep > 60 and delta > prev_delta and delta > 1e-10 * scale:
            raise StepFailureError(
                f"Picard sweeps stopped contracting (delta {delta:.3e}) "
                f"after {sweep + 1} sweeps"
            )
        prev_delta = min(prev_delta, delta)
    else:
        raise StepFailureError(f"no convergence within {max_sweeps} sweeps")
    # a-posteriori residual of the PDE by central differences
    residual = 0.0
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            dnum = np.gradient(gamma[j], h, axis=i, edge_order=2)
            rhs = Z[..., j, i, j] * gamma[j] - Z[..., j, j, i] * gamma[i]
            residual = max(residual, float(np.abs(dnum - rhs).max()))
    return PotentialGrid(
        axes=axes,
        values={f"gamma{j + 1}": gamma[j] for j in range(n)},
        base_point=tuple(base_w),
        meta={
            "fd_residual": residual,
            "sweeps": sweep + 1,
            "h": h,
            "kind": "chart-space solution",
        },
    )
