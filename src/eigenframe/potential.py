"""Curl tests and reconstruction of potentials by ray integration.

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
matrix at the Gauss nodes.  All nodes are integrated together, one
values-only field evaluation over the grid per ray parameter: one tape run
over the frame and the candidates, and one inversion of the frame, which
the Hessian and flux fields of q share.  A Gauss-
Legendre pair of Q and 2Q nodes estimates the error of every ray; rays over
the tolerance are split into panels.  Curl tests gate every integration;
path independence is checked by a second family of rays from another grid
node.  Single line integrals (integrate_jacobian) run along axis-ordered
staircase paths with an adaptive Gauss-Legendre 7/15 pair.

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
from typing import Callable, Mapping, Optional, Sequence

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
)
from .systems import BetaCandidate, LambdaCandidate, require_rich

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_CURL_TOL = 1e-7
_RAY_Q = 16  # nodes of the coarse Gauss-Legendre rule per ray panel; the fine rule has 2Q
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


def hessian_field_from_expr(eta_expr, n: int, params: Mapping[str, float]) -> MatrixField:
    """Hessian field of a closed-form scalar, via exact symbolic derivatives
    (third derivatives are needed for the curl test)."""
    first = [ex.differentiate(eta_expr, i) for i in range(n)]
    second = tuple(ex.differentiate(first[i], j) for i in range(n) for j in range(n))
    tape = ex.compile_tape((second, params))

    def values(pts):
        return ex.eval_scalar_many(tape, pts).reshape(pts.shape[0], n, n)

    def value_grad(pts):
        jet = ex.eval_jet2_many(tape, pts, order=1)
        m = pts.shape[0]
        return jet.value.reshape(m, n, n), jet.grad.reshape(m, n, n, n)

    return MatrixField(n, values, value_grad)


def _curl(V: np.ndarray, G: np.ndarray) -> float:
    curl = G - G.transpose(0, 1, 3, 2)  # [p,k,j,i] - [p,k,i,j]
    scale = 1.0 + np.abs(V).max() + np.abs(G).max()
    return float(np.abs(curl).max() / scale)


def curl_residual(field: MatrixField, points: np.ndarray) -> float:
    """Max over rows k and pairs i<j of |d_i M[k,j] - d_j M[k,i]|,
    normalized by the field magnitude."""
    return _curl(*field.value_grad(points))


# ---------------------------------------------------------------------------
# Adaptive Gauss-Legendre quadrature (7/15 pair)
# ---------------------------------------------------------------------------

_G7 = np.polynomial.legendre.leggauss(7)
_G15 = np.polynomial.legendre.leggauss(15)


def _fixed_gauss(fvec, a: float, b: float, rule) -> np.ndarray:
    nodes, weights = rule
    x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    vals = fvec(x)
    return 0.5 * (b - a) * np.einsum("q,q...->...", weights, vals)

def adaptive_gauss_segment(
    fvec: Callable, a: float, b: float, tol: float = DEFAULT_QUAD_TOL, depth: int = 0
) -> np.ndarray:
    """Adaptive integral of a (vector-valued) function over [a, b]; the
    error estimate is the difference of 7- and 15-point Gauss rules."""
    coarse = _fixed_gauss(fvec, a, b, _G7)
    fine = _fixed_gauss(fvec, a, b, _G15)
    err = float(np.abs(fine - coarse).max())
    if err < tol or (b - a) < 1e-14:
        return fine
    if depth > 48:
        raise QuadratureFailureError(
            f"segment [{a}, {b}] did not converge (error {err:.3e} > {tol:.1e})"
        )
    mid = 0.5 * (a + b)
    return adaptive_gauss_segment(fvec, a, mid, tol / 2, depth + 1) + adaptive_gauss_segment(
        fvec, mid, b, tol / 2, depth + 1
    )


# ---------------------------------------------------------------------------
# Staircase integration
# ---------------------------------------------------------------------------


def _staircase_legs(base: np.ndarray, target: np.ndarray, order: Sequence[int]):
    """Axis-ordered legs from base to target: list of (axis, start_point,
    t0, t1) with the path holding earlier axes at target values."""
    legs = []
    current = np.array(base, dtype=float)
    for axis in order:
        start = current.copy()
        t0, t1 = current[axis], target[axis]
        if t0 != t1:
            legs.append((axis, start, t0, t1))
        current[axis] = t1
    return legs


def integrate_jacobian(
    field: MatrixField,
    base: Sequence[float],
    target: Sequence[float],
    quad_tol: float = DEFAULT_QUAD_TOL,
    curl_tol: float = DEFAULT_CURL_TOL,
    order: Optional[Sequence[int]] = None,
    check_curl: bool = True,
) -> np.ndarray:
    """The map F with DF = M and F(base) = 0, evaluated at target by line
    integrals along the axis-ordered staircase."""
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    order = list(order) if order is not None else list(range(field.n))
    legs = _staircase_legs(base, target, order)
    if check_curl:
        probes = [0.5 * (base + target), base, target] + [
            leg[1] for leg in legs
        ]
        res = curl_residual(field, np.array(probes))
        if res > curl_tol:
            raise CurlViolationError(res, curl_tol)
    F = np.zeros(field.n)
    for axis, start, t0, t1 in legs:
        def column(ts, axis=axis, start=start):
            pts = np.tile(start, (len(ts), 1))
            pts[:, axis] = ts
            return field.values(pts)[:, :, axis]

        F = F + adaptive_gauss_segment(column, t0, t1, quad_tol)
    return F


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


@lru_cache(maxsize=None)
def _ray_rule(q: int):
    """Gauss-Legendre nodes t and weights w on [0, 1], and the cumulative-
    integration matrix K: (K f)_i is the integral from 0 to t_i of the
    degree q-1 interpolant of the values f at the nodes, built in the
    Legendre basis (a monomial basis is unstable at these orders)."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(q)
    # Legendre coefficients of the interpolant, exact by Gauss orthogonality
    to_coef = (np.arange(q) + 0.5)[:, None] * (leg.legvander(x, q - 1) * w[:, None]).T
    # antiderivative of every P_k from -1, at the nodes
    anti = leg.legval(x, leg.legint(np.eye(q), lbnd=-1)).T
    return 0.5 * (x + 1.0), 0.5 * w, 0.5 * anti @ to_coef


def _panel_sums(rates, base, d, grad0, panels: int, q: int):
    """One Gauss rule of q nodes on each of `panels` equal panels of [0, 1]:
    the carried vector G(1) and the scalar integrals S(1) of every ray."""
    t, w, K = _ray_rule(q)
    h = 1.0 / panels
    G = np.array(grad0, dtype=float)
    S = 0.0
    for p in range(panels):
        steps = [rates(base + (p + tj) * h * d, d) for tj in t]
        Jd = np.stack([s[0] for s in steps])  # (q, m, n)
        V = np.stack([s[1] for s in steps])  # (q, k, m, n)
        del steps  # peak memory: a few (q, m, n) arrays
        Jd_flat = Jd.reshape(q, -1)
        G_nodes = (h * K @ Jd_flat).reshape(Jd.shape)
        G_nodes += G
        S = S + h * np.einsum("j,jmn,jkmn->mk", w, G_nodes, V)
        G = G + h * (w @ Jd_flat).reshape(G.shape)
    return G, S


def _ray_family(rates, base: np.ndarray, nodes: np.ndarray, quad_tol: float, grad0):
    """Integrals along the rays x(t) = base + t d, d = node - base, to every
    node at once:

        G(t) = grad0 + int_0^t J(x(s)) d ds,   S_k = int_0^1 G(t) . v_k(t) dt,

    where rates(points, d) returns J d and the stacked v_k.  Each ray
    parameter costs one rates call over all unfinished nodes.  A node is
    done when the Q- and 2Q-node rules agree to quad_tol (relative once the
    result exceeds 1); the rest are split into twice as many panels."""
    d = nodes - base
    grad0 = np.broadcast_to(grad0, d.shape)
    G, S = np.empty(d.shape), None
    todo = np.arange(d.shape[0])
    panels = 1
    while True:
        Gc, Sc = _panel_sums(rates, base, d[todo], grad0[todo], panels, _RAY_Q)
        Gf, Sf = _panel_sums(rates, base, d[todo], grad0[todo], panels, 2 * _RAY_Q)
        fine = np.hstack([Gf, Sf])
        err = np.abs(fine - np.hstack([Gc, Sc])).max(axis=1)
        ok = err <= quad_tol * (1.0 + np.abs(fine).max(axis=1))
        if S is None:
            S = np.empty((d.shape[0], Sf.shape[1]))
        G[todo[ok]], S[todo[ok]] = Gf[ok], Sf[ok]
        todo, err = todo[~ok], err[~ok]
        if todo.size == 0:
            return G, S
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
    the corner and elsewhere up to path dependence and quadrature error."""
    nodes = PotentialGrid(axes, {}, ()).nodes()
    G, S = _ray_family(rates, base, nodes, quad_tol, grad0)
    far = tuple(0 if abs(a[0] - b) >= abs(a[-1] - b) else len(a) - 1 for a, b in zip(axes, base))
    c = int(np.ravel_multi_index(far, [len(a) for a in axes]))
    G_b, S_b = _ray_family(rates, nodes[c], nodes, quad_tol, G[c])
    return G, S, G_b, S_b + S[c]


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
    F, _, F_b, _ = _ray_families(_jacobian_rates(field), base, axes, quad_tol)
    return PotentialGrid(
        axes=axes,
        values={"f": F.reshape(shape)},
        base_point=tuple(base),
        meta={
            "curl_residual": res,
            "path_independence_residual": float(np.abs(F - F_b).max()),
            "quad_tol": quad_tol,
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
    grad, S, psi, S_b = _ray_families(rates, base, axes, quad_tol)
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

    grad, S, _, S_b = _ray_families(_potential_rates(fields), base, axes, quad_tol, grad0)
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
    from .geometry import pullback_connection

    pb = pullback_connection(spec, chart, w_pts)
    shape = tuple(counts)
    Z = pb.Z.reshape(shape + (n, n, n))
    zscale = 1.0 + np.abs(Z).max()
    cross = float(np.abs(np.where(distinct_triple_mask(n)[None], pb.Z, 0.0)).max() / zscale)
    if cross > rank0_tol:
        raise NotRankZeroError(
            f"chart-space cross components do not vanish (max scaled {cross:.3e})"
        )
    gamma = [
        np.broadcast_to(
            boundary_fns[j](axes[j]).reshape(
                tuple(len(axes[j]) if d == j else 1 for d in range(n))
            ),
            shape,
        ).copy()
        for j in range(n)
    ]
    prev_delta = np.inf
    for sweep in range(max_sweeps):
        new = []
        for j in range(n):
            acc = np.broadcast_to(
                boundary_fns[j](axes[j]).reshape(
                    tuple(len(axes[j]) if d == j else 1 for d in range(n))
                ),
                shape,
            ).copy()
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
