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
matrix at the quadrature nodes.  Every field is evaluated through one class,
MatrixField: one tape run over the frame and the candidates and one
inversion of the frame per point set serve every field of its formula, so
the Hessian and flux fields of q share one MatrixField.  All nodes are
integrated together: one values-only field evaluation covers a block of ray
parameters over the grid (at most _RAY_BATCH_POINTS points, never less than
one parameter), and a grid's meta counts the ray parameters evaluated as
field_evaluations.  The three reconstructions share one grid setup (box,
base point, axes and curl probes) and one builder of ray rates.  A nested
Gauss-Kronrod pair of Q and 2Q+1 nodes estimates the error of every ray
from one set of field values (the Q Gauss nodes are among the 2Q+1); rays
over the tolerance are split into panels, and a ray that does not converge,
or whose integral is not finite, raises QuadratureFailureError.  Curl tests
gate every integration; path independence is checked by a second family of
rays from another grid node.  Each field is written once, as a formula of a
direction d over R, L and the candidate values that returns M d: the rays
apply H = L^T diag[b] L as L^T (b * (L d)) and A = R diag[l] L as
R (l * (L d)), and never form H or A.  The matrices and their exact first
derivatives, which the curl tests read, come from the same formula run on
order-1 Taylor fields at the n unit directions.

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
    EigenframeError,
    NotRankZeroError,
    QuadratureFailureError,
    StepFailureError,
)
from .exprlang import Taylor
from .geometry import (
    FrameSpec,
    RiemannChart,
    _invert_frame,
    distinct_triple_mask,
    eval_connection,
    frame_block,
    frame_tape,
    inverse_series,
    pullback_connection,
)
from .systems import BetaCandidate, LambdaCandidate, require_rich

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_CURL_TOL = 1e-7
_RAY_Q = 16  # Gauss nodes per ray panel; the Kronrod rule nested in it has 2Q+1
_RAY_MAX_PANELS = 64  # a ray still over the tolerance at this many panels fails
# points per rates call: the Kronrod nodes of a panel are evaluated in blocks
# of up to this many points, never less than one node.  Small calls pay the
# per-call overhead and large ones a working set past the L2 cache: the
# reconstruct-grids op set (eta and flux at 6^3 and 11^3, q at 6^3) took a
# median pass_ref_s of 0.264 s at 2048 points, 0.244 s at 4096 and 0.252 s
# at 8192 (perfbench/run.py --seconds 10, five interleaved runs each), on a
# 2-core Xeon with 4 MiB of L2 a core
_RAY_BATCH_POINTS = 4096


# ---------------------------------------------------------------------------
# Matrix fields with exact first derivatives
# ---------------------------------------------------------------------------


class MatrixField:
    """The n x n matrix fields M of the frame R, its inverse L and the values
    s of some candidates, applied to a direction: formula(R, L, *s, d)
    returns [M d, ...], all from one tape.  One tape run and one frame
    inversion per point set serve every field the formula returns, so the
    Hessian and flux fields of q share one MatrixField.  The formula acts on
    arrays and on Taylor fields alike: run on order-1 series at the n unit
    directions it gives the matrices and their exact first derivatives.

    values(points, d) -> [(m, N), ...], M d at each point with its own
    direction; value_grad(points) -> [(V, G), ...] with V the matrices and
    G[p, a, b, d] = dM[a,b]/dx_d.
    """

    def __init__(self, spec: FrameSpec, cands: tuple, formula: Callable):
        self.n = spec.n
        self.tape = frame_tape(spec, *cands)
        self._formula = formula

    def _split(self, block: np.ndarray) -> tuple:
        """R and each candidate's block (m, k, ...) of the tape outputs."""
        rest = block[:, self.n * self.n :]
        cands = [rest[:, c : c + self.n] for c in range(0, rest.shape[1], self.n)]
        return frame_block(block, self.n), cands

    def values(self, points: np.ndarray, d: np.ndarray) -> list:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        R, cands = self._split(ex.eval_scalar_many(self.tape, pts))
        L, _ = _invert_frame(pts, R)
        return self._formula(R, L, *cands, d)

    def value_grad(self, points: np.ndarray) -> list:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        R, cands = self._split(ex.eval_series(self.tape, pts, 1))
        R = Taylor(R, self.n, 1)
        L = inverse_series(R, _invert_frame(pts, R.value)[0])
        cands = [Taylor(c, self.n, 1) for c in cands]
        fields = _matrices(self._formula, pts.shape[0], self.n, R, L, *cands)
        return [(M.value, M.coef[..., 1:]) for M in fields]


def _matrices(formula, m: int, n: int, *fields) -> list:
    """The matrices M of the direction formula [M d, ...] = formula(*fields,
    d) at m points, from one run with every point repeated n times at the n
    unit directions: row p n + j is M e_j at point p.  The fields are arrays
    or Taylor fields, indexed along their first axis."""
    rows, E = np.arange(m).repeat(n), np.tile(np.eye(n), (m, 1))
    p, a, j = np.ix_(np.arange(m), np.arange(n), np.arange(n))
    return [Md[p * n + j, a] for Md in formula(*(f[rows] for f in fields), E)]


def _matvec(A, x):
    """A x for stacks (m, a, b) of matrices and (m, b) of vectors, of arrays
    or of Taylor fields (einsum is about twice as fast as a stacked @)."""
    if isinstance(A, Taylor):
        return (A @ x[:, :, None])[:, :, 0]
    return np.einsum("mab,mb->ma", A, x)


def _hessian_times(L, b, Ld):
    """L^T diag[b] L d from L d."""
    return _matvec(L.transpose(0, 2, 1), b * Ld)


def _flux_times(R, lam, Ld):
    """R diag[l] L d from L d."""
    return _matvec(R, lam * Ld)


def _hessian_formula(R, L, b, d) -> list:
    """[L^T diag[b] L d]."""
    return [_hessian_times(L, b, _matvec(L, d))]


def _flux_formula(R, L, lam, d) -> list:
    """[R diag[l] L d]."""
    return [_flux_times(R, lam, _matvec(L, d))]


def _entropy_formula(R, L, b, lam, d) -> list:
    """The Hessian and the flux Jacobian applied to d, from one L d."""
    Ld = _matvec(L, d)
    return [_hessian_times(L, b, Ld), _flux_times(R, lam, Ld)]


def length_hessian_field(spec: FrameSpec, cand: BetaCandidate) -> MatrixField:
    """M = L^T diag[b] L, the Hessian field of the scalar potential."""
    return MatrixField(spec, (cand,), _hessian_formula)


def flux_jacobian_field(spec: FrameSpec, cand: LambdaCandidate) -> MatrixField:
    """M = R diag[l] L, the Jacobian field of the flux map."""
    return MatrixField(spec, (cand,), _flux_formula)


def _curl(V: np.ndarray, G: np.ndarray) -> float:
    curl = G - G.transpose(0, 1, 3, 2)  # [p,k,j,i] - [p,k,i,j]
    scale = 1.0 + np.abs(V).max() + np.abs(G).max()
    return float(np.abs(curl).max() / scale)


def curl_residual(field: MatrixField, points: np.ndarray) -> float:
    """Max over the fields M, rows k and pairs i<j of |d_i M[k,j] - d_j M[k,i]|,
    each normalized by its field's magnitude."""
    return max(_curl(V, G) for V, G in field.value_grad(points))


# ---------------------------------------------------------------------------
# Potential grids
# ---------------------------------------------------------------------------


# rows per % in PotentialGrid.to_csv: one % over a whole 11^3 table holds
# every cell's string at once and raised the benchmark's peak RSS
_CSV_CHUNK = 256


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
        """The header, then one row per node: its coordinates and every
        value, each cell "%.17g" % float as np.savetxt writes it, one %
        per chunk of _CSV_CHUNK rows."""
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
        row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        for start in range(0, table.shape[0], _CSV_CHUNK):
            chunk = table[start : start + _CSV_CHUNK]
            out.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))
        return out.getvalue()


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


def _node_block(rates, base, d, ts):
    """J d and the stacked v_k at the points base + t d of every ray, for
    each t in ts: shapes (b, m, n) and (b, k, m, n), from one rates call over
    the points stacked node-major.  When that call raises, the nodes are run
    again one by one, so the error is the one the first failing node raises,
    as with one call per node: a tape runs each check over all the points
    of a call before the next check, so in a block an earlier check can
    fail at a later node."""
    m, n = d.shape
    pts = (base + ts[:, None, None] * d).reshape(-1, n)
    try:
        Jd, V = rates(pts, np.broadcast_to(d, (ts.size, m, n)).reshape(-1, n))
    except EigenframeError:
        for t in ts:
            rates(base + t * d, d)
        raise
    return Jd.reshape(ts.size, m, n), V.reshape(V.shape[0], ts.size, m, n).swapaxes(0, 1)


def _panel_sums(rates, base, d, grad0, panels: int):
    """The Kronrod and the embedded Gauss rule of _ray_rule(_RAY_Q) on each
    of `panels` equal panels of [0, 1]: the carried vector G(1) and the
    scalar integrals S(1) of every ray, as (Kronrod, Gauss) pairs.  One
    rates call covers a block of consecutive Kronrod nodes: at most
    _RAY_BATCH_POINTS points, and never less than one node."""
    rule = _ray_rule(_RAY_Q)
    g = rule.gauss
    h = 1.0 / panels
    block = max(1, _RAY_BATCH_POINTS // d.shape[0])
    G = np.array(grad0, dtype=float)
    (Gk, Sk), (Gg, Sg) = (G, 0.0), (G, 0.0)
    for p in range(panels):
        steps = [
            _node_block(rates, base, d, (p + rule.t[j : j + block]) * h)
            for j in range(0, rule.t.size, block)
        ]
        Jd = np.concatenate([s[0] for s in steps])  # (2Q+1, m, n)
        V = np.concatenate([s[1] for s in steps])  # (2Q+1, k, m, n)
        del steps  # peak memory: a few (2Q+1, m, n) arrays
        Gk, Sk = _advance(Gk, Sk, h, rule.w, rule.K, Jd, V)
        Gg, Sg = _advance(Gg, Sg, h, rule.w_gauss, rule.K_gauss, Jd[g], V[g])
    return (Gk, Sk), (Gg, Sg)


def _ray_family(rates, base: np.ndarray, nodes: np.ndarray, quad_tol: float, grad0):
    """Integrals along the rays x(t) = base + t d, d = node - base, to every
    node at once:

        G(t) = grad0 + int_0^t J(x(s)) d ds,   S_k = int_0^1 G(t) . v_k(t) dt,

    where rates(points, d) returns J d and the stacked v_k.  Each ray
    parameter is evaluated over all unfinished nodes, a block of parameters
    per rates call (_panel_sums).  A node is done when the Kronrod and the
    Gauss sums agree to quad_tol (relative once the result exceeds 1), and
    keeps the Kronrod result; the rest are split into twice as many panels;
    a sum that is not finite raises QuadratureFailureError at once.  Also
    returns the largest panel count reached and the number of ray
    parameters evaluated (Kronrod nodes times panels, summed over the
    passes)."""
    d = nodes - base
    grad0 = np.broadcast_to(grad0, d.shape)
    G, S = np.empty(d.shape), None
    todo = np.arange(d.shape[0])
    panels, evaluations = 1, 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            (Gk, Sk), (Gg, Sg) = _panel_sums(rates, base, d[todo], grad0[todo], panels)
        evaluations += panels * _ray_rule(_RAY_Q).t.size
        kronrod, gauss = np.hstack([Gk, Sk]), np.hstack([Gg, Sg])
        finite = np.isfinite(kronrod).all(axis=1) & np.isfinite(gauss).all(axis=1)
        if not finite.all():
            raise QuadratureFailureError(
                f"ray from {base.tolist()} to {nodes[todo[np.argmin(finite)]].tolist()}: "
                "the integral is not finite"
            )
        err = np.abs(kronrod - gauss).max(axis=1)
        ok = err <= quad_tol * (1.0 + np.abs(kronrod).max(axis=1))
        if S is None:
            S = np.empty((d.shape[0], Sk.shape[1]))
        G[todo[ok]], S[todo[ok]] = Gk[ok], Sk[ok]
        todo, err = todo[~ok], err[~ok]
        if todo.size == 0:
            return G, S, (panels, evaluations)
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
    family reached and the ray parameters both evaluated."""
    nodes = PotentialGrid(axes, {}, ()).nodes()
    G, S, (panels, evals) = _ray_family(rates, base, nodes, quad_tol, grad0)
    far = tuple(0 if abs(a[0] - b) >= abs(a[-1] - b) else len(a) - 1 for a, b in zip(axes, base))
    c = int(np.ravel_multi_index(far, [len(a) for a in axes]))
    G_b, S_b, (panels_b, evals_b) = _ray_family(rates, nodes[c], nodes, quad_tol, G[c])
    work = {"ray_panels": max(panels, panels_b), "field_evaluations": evals + evals_b}
    return G, S, G_b, S_b + S[c], work


def _rates(field: MatrixField, scalars: bool):
    """Along a ray with direction d the carried vector changes by J d, J the
    first field: the flux Jacobian for f, the Hessian for grad eta.  With
    scalars, grad eta is also integrated against d (eta) and against A d
    for every further field A (q, with A the flux Jacobian)."""

    def rates(pts, d):
        Jd, *rest = field.values(pts, d)
        if not scalars:
            return Jd, np.empty((0,) + d.shape)
        return Jd, np.stack([d] + rest)

    return rates


def _require_closed(res: float, tol: float) -> float:
    """A curl residual, which must not exceed tol."""
    if res > tol:
        raise CurlViolationError(res, tol)
    return res


def _grid_setup(spec: FrameSpec, field: MatrixField, base, counts, box, curl_tol: float):
    """The base point, the grid axes over the box (the frame's domain by
    default), and each field's values and curl residual at 20 sample points
    and the base, where the curl must not exceed curl_tol.  A node within
    rounding of the base point is moved onto it, so the gauge holds exactly
    at that node."""
    lo, hi = box if box is not None else (spec.domain_lo, spec.domain_hi)
    base = np.asarray(base, dtype=float)
    axes = [np.linspace(lo[d], hi[d], counts[d]) for d in range(len(counts))]
    for axis, b in zip(axes, base):
        axis[np.abs(axis - b) <= 1e-12 * max(1.0, abs(b))] = b
    probes = np.vstack([spec.sample_points(20), base[None, :]])
    gates = [(V, _require_closed(_curl(V, G), curl_tol)) for V, G in field.value_grad(probes)]
    return base, axes, gates


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
    field = flux_jacobian_field(spec, cand)
    base, axes, [(_, res)] = _grid_setup(spec, field, base, counts, box, curl_tol)
    F, _, F_b, _, work = _ray_families(_rates(field, False), base, axes, quad_tol)
    return PotentialGrid(
        axes=axes,
        values={"f": F.reshape(tuple(counts) + (spec.n,))},
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
    field = length_hessian_field(spec, cand)
    base, axes, [(V, res)] = _grid_setup(spec, field, base, counts, box, curl_tol)
    shape = tuple(counts)
    sym = float(np.abs(V - V.transpose(0, 2, 1)).max() / (1.0 + np.abs(V).max()))
    grad, S, psi, S_b, work = _ray_families(_rates(field, True), base, axes, quad_tol)
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
    # M = L^T diag[b] L and A = R diag[l] L from one frame evaluation
    field = MatrixField(spec, (beta_cand, lambda_cand), _entropy_formula)
    base, axes, _ = _grid_setup(spec, field, base, counts, box, curl_tol)
    shape = tuple(counts)
    # with a closed-form potential attached, q corresponds to that potential
    # (its base gradient seeds the rays); otherwise to the gauge-fixed one
    grad0 = 0.0
    if beta_cand.eta_expr is not None:
        grad0 = ex.eval_series(beta_cand.eta_tape, base, 1)[0, 1:]
    grad, S, _, S_b, work = _ray_families(_rates(field, True), base, axes, quad_tol, grad0)
    # curl of w = grad(eta) . A at grid probes: d_e w_d = M[a,e] A[a,d] +
    # grad(eta)_a d_e A[a,d]
    step = max(1, grad.shape[0] // 40)
    (M, _), (A, dA) = field.value_grad(PotentialGrid(axes, {}, ()).nodes()[::step])
    dw = np.einsum("mae,mad->mde", M, A) + np.einsum("ma,made->mde", grad[::step], dA)
    scale = 1.0 + np.abs(M).max() + np.abs(A).max()
    wres = _require_closed(float(np.abs(dw - dw.transpose(0, 2, 1)).max() / scale), 100 * curl_tol)
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
