"""Frames on a coordinate box: connection components, structure
coefficients, symmetry/flatness residuals, richness, scalings, and
verification/pullback of supplied coordinate charts.

All evaluations are batched over sample points with numpy.  The connection
components relative to a frame with columns R_j are

    Gamma[i, j, k] = L^k (DR_j) R_i          (L = R^{-1}, rows L^k)

with first index the direction and second the differentiated field, and the
structure coefficients are c[i, j, k] = Gamma[i, j, k] - Gamma[j, i, k].
First derivatives of Gamma are assembled exactly from second-order jets of
the frame entries, so the symmetry and flatness identities of the flat
coordinate connection hold to machine precision and serve as end-to-end
pipeline checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from . import exprlang as ex
from .errors import (
    ChartDomainError,
    DomainError,
    SingularFrameError,
    ZeroScalingError,
)

DET_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Halton samples
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    result = np.zeros(indices.shape, dtype=float)
    f = 1.0 / base
    i = indices.copy()
    while np.any(i > 0):
        result += f * (i % base)
        i //= base
        f /= base
    return result


def halton_points(lo: np.ndarray, hi: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in the box [lo, hi], deterministic in seed."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    start = 20 + 1009 * seed
    idx = np.arange(start, start + count)
    cols = [_radical_inverse(idx, _PRIMES[d]) for d in range(n)]
    unit = np.stack(cols, axis=1)
    # keep strictly interior so jets of boundary-singular entries stay finite
    unit = 0.02 + 0.96 * unit
    return lo + unit * (hi - lo)


# ---------------------------------------------------------------------------
# Frame specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiemannChart:
    """A coordinate chart u -> w with explicit inverse, both as expression
    trees.  w_exprs are in the frame's u-variables; u_exprs in w_vars."""

    w_exprs: tuple
    u_exprs: tuple
    w_vars: tuple


@dataclass(frozen=True)
class FrameSpec:
    n: int
    vars: tuple
    params: Mapping[str, float]
    columns: tuple  # columns[j][a] = Expr for component a of field j
    domain_lo: tuple
    domain_hi: tuple
    base_point: tuple
    chart: Optional[RiemannChart] = None

    def sample_points(self, count: int = 50, seed: int = 0) -> np.ndarray:
        return halton_points(
            np.array(self.domain_lo), np.array(self.domain_hi), count, seed
        )


def frame_from_sources(
    columns: Sequence[Sequence[str]],
    vars: Sequence[str],
    params: Optional[Mapping[str, float]] = None,
    domain: Optional[tuple] = None,
    base_point: Optional[Sequence[float]] = None,
    chart: Optional[RiemannChart] = None,
) -> FrameSpec:
    """Build a FrameSpec from source strings; columns[j] lists the n
    components of the j-th frame field."""
    params = dict(params or {})
    n = len(vars)
    if len(columns) != n or any(len(col) != n for col in columns):
        raise ValueError("frame must consist of n fields with n components each")
    parsed = tuple(
        tuple(ex.parse_expression(src, vars, params) for src in col) for col in columns
    )
    if domain is None:
        lo, hi = (1.0,) * n, (2.0,) * n
    else:
        lo, hi = tuple(domain[0]), tuple(domain[1])
    if base_point is None:
        base_point = tuple((a + b) / 2 for a, b in zip(lo, hi))
    return FrameSpec(
        n=n,
        vars=tuple(vars),
        params=params,
        columns=parsed,
        domain_lo=lo,
        domain_hi=hi,
        base_point=tuple(base_point),
        chart=chart,
    )


def chart_from_sources(
    w_sources: Sequence[str],
    u_sources: Sequence[str],
    u_vars: Sequence[str],
    w_vars: Optional[Sequence[str]] = None,
    params: Optional[Mapping[str, float]] = None,
) -> RiemannChart:
    params = dict(params or {})
    if w_vars is None:
        w_vars = tuple(f"w{i + 1}" for i in range(len(u_vars)))
    w_exprs = tuple(ex.parse_expression(s, u_vars, params) for s in w_sources)
    u_exprs = tuple(ex.parse_expression(s, w_vars, params) for s in u_sources)
    return RiemannChart(w_exprs=w_exprs, u_exprs=u_exprs, w_vars=tuple(w_vars))


# ---------------------------------------------------------------------------
# Connection evaluation
# ---------------------------------------------------------------------------


@dataclass
class ConnectionEval:
    """A frame evaluated on one sample set: the frame, its inverse and
    first derivatives, the connection components with their first
    derivatives, and the structure coefficients.

    Built only by eval_connection; every check, residual and classifier
    branch on the same sample set reads this one object instead of
    evaluating the frame again.  The directional derivatives of Gamma
    (dGamma) are computed on first use and kept.
    """

    spec: FrameSpec
    points: np.ndarray  # (m, n)
    R: np.ndarray  # (m, a, j)
    L: np.ndarray  # (m, k, a); L @ R = I
    det: np.ndarray  # (m,)
    Rgrad: np.ndarray  # (m, a, j, b) = d_b R^a_j
    Gamma: np.ndarray  # (m, i, j, k)
    GammaGrad: np.ndarray  # (m, i, j, k, d) = d_d Gamma[i,j,k]
    c: np.ndarray  # (m, i, j, k) antisymmetrized Gamma

    @property
    def n(self) -> int:
        return self.R.shape[-1]

    def gamma_scale(self) -> np.ndarray:
        """Per-point magnitude used to make vanishing tests dimensionless."""
        m = self.Gamma.shape[0]
        return 1.0 + np.abs(self.Gamma.reshape(m, -1)).max(axis=1)

    @cached_property
    def dGamma(self) -> np.ndarray:
        """r_d(Gamma[i,j,k]), shape (m, d, i, j, k); see directional_gamma."""
        return directional_gamma(self)


def eval_frame_jets(spec: FrameSpec, points: np.ndarray):
    """Values, Jacobians and Hessians of all frame entries at points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = points.shape[0], spec.n
    R = np.empty((m, n, n))
    Rgrad = np.empty((m, n, n, n))
    Rhess = np.empty((m, n, n, n, n))
    for j, col in enumerate(spec.columns):
        for a, entry in enumerate(col):
            jet = ex.eval_jet2_many(entry, points, spec.params)
            R[:, a, j] = jet.value
            Rgrad[:, a, j, :] = jet.grad
            Rhess[:, a, j, :, :] = jet.hess
    return points, R, Rgrad, Rhess


def eval_frame_values(spec: FrameSpec, points: np.ndarray):
    """Values of all frame entries at points, without derivatives."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = points.shape[0], spec.n
    R = np.empty((m, n, n))
    for j, col in enumerate(spec.columns):
        for a, entry in enumerate(col):
            R[:, a, j] = ex.eval_scalar_many(entry, points, spec.params)
    return points, R


def _invert_frame(points: np.ndarray, R: np.ndarray) -> tuple:
    det = np.linalg.det(R)
    norm = np.sqrt((R**2).sum(axis=(1, 2)))
    n = R.shape[-1]
    threshold = DET_RTOL * np.maximum(norm, 1e-30) ** n
    bad = np.abs(det) < threshold
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularFrameError(points[i], float(det[i]), float(threshold[i]))
    return np.linalg.inv(R), det


def eval_connection(spec: FrameSpec, points: np.ndarray) -> ConnectionEval:
    """Christoffel symbols, their first derivatives, and structure
    coefficients of the flat coordinate connection relative to the frame."""
    points, R, Rgrad, Rhess = eval_frame_jets(spec, points)
    L, det = _invert_frame(points, R)
    Gamma = np.einsum("mka,majb,mbi->mijk", L, Rgrad, R, optimize=True)
    # dL/du_d = -L (dR/du_d) L
    dL = -np.einsum("mkp,mpqd,mqa->mkad", L, Rgrad, L, optimize=True)
    GammaGrad = (
        np.einsum("mkad,majb,mbi->mijkd", dL, Rgrad, R, optimize=True)
        + np.einsum("mka,majbd,mbi->mijkd", L, Rhess, R, optimize=True)
        + np.einsum("mka,majb,mbid->mijkd", L, Rgrad, Rgrad, optimize=True)
    )
    c = Gamma - Gamma.transpose(0, 2, 1, 3)
    return ConnectionEval(
        spec=spec, points=points, R=R, L=L, det=det, Rgrad=Rgrad,
        Gamma=Gamma, GammaGrad=GammaGrad, c=c,
    )


def structure_coefficients_bracket(conn: ConnectionEval) -> np.ndarray:
    """c via direct expansion of [r_i, r_j] = (DR_j)R_i - (DR_i)R_j in the
    frame basis; independent cross-check of the antisymmetrized-Gamma path."""
    bracket = np.einsum("majb,mbi->maij", conn.Rgrad, conn.R, optimize=True)
    bracket = bracket - bracket.transpose(0, 1, 3, 2)
    return np.einsum("mka,maij->mijk", conn.L, bracket, optimize=True)


def directional_gamma(conn: ConnectionEval) -> np.ndarray:
    """r_d(Gamma[i,j,k]) for every frame direction d: shape (m, d, i, j, k)."""
    return np.einsum("mijke,med->mdijk", conn.GammaGrad, conn.R, optimize=True)


def check_symmetry_flatness(conn: ConnectionEval) -> tuple:
    """Max scaled violation of the torsion and curvature identities.

    Both vanish identically for the flat coordinate connection, so nonzero
    values only measure numerical error of the whole Gamma pipeline.
    """
    c_br = structure_coefficients_bracket(conn)
    scale = conn.gamma_scale()
    torsion = np.abs(conn.c - c_br).reshape(len(scale), -1).max(axis=1) / scale
    curvature = flatness_residual(conn.Gamma, conn.c, conn.dGamma) / scale**2
    return float(torsion.max()), float(curvature.max())


def flatness_residual(Gamma: np.ndarray, c: np.ndarray, dGamma: np.ndarray) -> np.ndarray:
    """Per-point max-abs residual of the curvature identity: for all
    index tuples (i, j, k, d),

        r_d(Gamma[k,i,j]) - r_k(Gamma[d,i,j])
            = sum_s ( Gamma[k,s,j] Gamma[d,i,s] - Gamma[d,s,j] Gamma[k,i,s]
                      - c[k,d,s] Gamma[s,i,j] ).

    dGamma[p, d, a, b, c] = r_d(Gamma[a,b,c]) at sample p.
    """
    lhs = np.transpose(dGamma, (0, 3, 4, 2, 1)) - np.transpose(dGamma, (0, 3, 4, 1, 2))
    rhs = (
        np.einsum("pksj,pdis->pijkd", Gamma, Gamma, optimize=True)
        - np.einsum("pdsj,pkis->pijkd", Gamma, Gamma, optimize=True)
        - np.einsum("pkds,psij->pijkd", c, Gamma, optimize=True)
    )
    res = lhs - rhs
    return np.abs(res).reshape(res.shape[0], -1).max(axis=1)


# ---------------------------------------------------------------------------
# Richness and scalings
# ---------------------------------------------------------------------------

def distinct_triple_mask(n: int) -> np.ndarray:
    """Boolean (n,n,n) mask of index triples with pairwise-distinct entries."""
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    return (i != j) & (j != k) & (i != k)


def is_rich(conn: ConnectionEval, tol: float = 1e-8) -> tuple:
    """A frame is rich when c[i,j,k] vanishes for pairwise-distinct (i,j,k).

    Returns (verdict, witness) where witness records the worst scaled
    violation and where it occurred.
    """
    mask = distinct_triple_mask(conn.n)
    scaled = np.abs(conn.c) / conn.gamma_scale()[:, None, None, None]
    scaled = np.where(mask[None, :, :, :], scaled, 0.0)
    worst = float(scaled.max())
    idx = np.unravel_index(int(np.argmax(scaled)), scaled.shape)
    witness = {
        "value": worst,
        "point": conn.points[idx[0]].tolist(),
        "indices": tuple(int(x) for x in idx[1:]),
    }
    return worst < tol, witness


def scale_frame(spec: FrameSpec, alpha_exprs: Sequence, check_points: Optional[np.ndarray] = None) -> FrameSpec:
    """Frame with columns multiplied by scalar fields alpha_j (Expr or str).

    Raises ZeroScalingError when a scaling function vanishes (or nearly so)
    at a sample point.
    """
    alphas = [
        ex.parse_expression(a, spec.vars, spec.params) if isinstance(a, str) else a
        for a in alpha_exprs
    ]
    if check_points is None:
        check_points = spec.sample_points(50)
    for j, a in enumerate(alphas):
        vals = ex.eval_scalar_many(a, check_points, spec.params)
        floor = 1e-8 * max(1.0, float(np.abs(vals).max()))
        changes_sign = vals.min() < 0.0 < vals.max()
        if changes_sign or np.any(np.abs(vals) < floor):
            bad = int(np.argmin(np.abs(vals)))
            raise ZeroScalingError(check_points[bad], j)
    new_cols = tuple(
        tuple(ex.Mul(alphas[j], entry) for entry in col)
        for j, col in enumerate(spec.columns)
    )
    return replace(spec, columns=new_cols)


# ---------------------------------------------------------------------------
# Riemann charts
# ---------------------------------------------------------------------------

def chart_forward(chart: RiemannChart, u_points: np.ndarray, params: Mapping[str, float] = {}) -> np.ndarray:
    u_points = np.atleast_2d(np.asarray(u_points, dtype=float))
    try:
        cols = [ex.eval_scalar_many(e, u_points, params) for e in chart.w_exprs]
    except DomainError as err:
        raise ChartDomainError(str(err)) from err
    return np.stack(cols, axis=1)


def chart_inverse(chart: RiemannChart, w_points: np.ndarray, params: Mapping[str, float] = {}) -> np.ndarray:
    w_points = np.atleast_2d(np.asarray(w_points, dtype=float))
    try:
        cols = [ex.eval_scalar_many(e, w_points, params) for e in chart.u_exprs]
    except DomainError as err:
        raise ChartDomainError(str(err)) from err
    return np.stack(cols, axis=1)


def verify_riemann_chart(conn: ConnectionEval, chart: RiemannChart, tol: float = 1e-9) -> dict:
    """Check the chart normalization r_j(w^i) = delta_ij at the connection's
    u-samples and the round trip u -> w -> u.  Returns the residual report."""
    pts, params = conn.points, conn.spec.params
    grads = []
    for e in chart.w_exprs:
        try:
            grads.append(ex.eval_jet2_many(e, pts, params).grad)
        except DomainError as err:
            raise ChartDomainError(str(err)) from err
    dW = np.stack(grads, axis=1)  # (m, i, a) = d w^i / d u^a
    norm = np.einsum("mia,maj->mij", dW, conn.R, optimize=True)
    normalization_residual = float(np.abs(norm - np.eye(conn.n)[None]).max())
    w = chart_forward(chart, pts, params)
    back = chart_inverse(chart, w, params)
    roundtrip_residual = float(np.abs(back - pts).max())
    return {
        "normalization_residual": normalization_residual,
        "roundtrip_residual": roundtrip_residual,
        "passed": normalization_residual < tol and roundtrip_residual < tol,
        "tol": tol,
    }


@dataclass
class PullbackEval:
    """Connection components in chart coordinates at a batch of w-points."""

    w_points: np.ndarray
    conn: ConnectionEval  # the frame's connection at u(w)
    ZGrad: np.ndarray  # (m, i, j, k, d) = d Z[i,j,k] / d w^d

    @property
    def Z(self) -> np.ndarray:
        """(m, i, j, k) = Gamma[i,j,k] at u(w)."""
        return self.conn.Gamma

    def symmetry_residual(self) -> float:
        scale = 1.0 + np.abs(self.Z).max()
        return float(np.abs(self.Z - self.Z.transpose(0, 2, 1, 3)).max() / scale)

    def flatness_residual(self) -> float:
        """Residual of the pulled-back curvature identity: for all (i,j,k,d):
        d_d Z[i,k,j] - d_k Z[i,d,j] = sum_t Z[t,k,j] Z[i,d,t] - Z[t,d,j] Z[i,k,t]."""
        A, Z = self.ZGrad, self.Z
        t1 = np.transpose(A, (0, 1, 3, 2, 4))  # d_d Z[i,k,j] as [p,i,j,k,d]
        t2 = np.transpose(A, (0, 1, 3, 4, 2))  # d_k Z[i,d,j] as [p,i,j,k,d]
        term = (
            np.einsum("ptkj,pidt->pijkd", Z, Z, optimize=True)
            - np.einsum("ptdj,pikt->pijkd", Z, Z, optimize=True)
        )
        res = t1 - t2 - term
        scale = (1.0 + np.abs(Z).max()) ** 2 + np.abs(A).max()
        return float(np.abs(res).max() / scale)


def pullback_connection(spec: FrameSpec, chart: RiemannChart, w_points: np.ndarray) -> PullbackEval:
    """Z[i,j,k](w) = Gamma[i,j,k](u(w)) and its exact w-derivatives."""
    w_points = np.atleast_2d(np.asarray(w_points, dtype=float))
    u_points = chart_inverse(chart, w_points, spec.params)
    try:
        du = np.stack(
            [ex.eval_jet2_many(e, w_points, spec.params).grad for e in chart.u_exprs],
            axis=1,
        )  # (m, e_comp, d) = d u^e / d w^d
    except DomainError as err:
        raise ChartDomainError(str(err)) from err
    conn = eval_connection(spec, u_points)
    ZGrad = np.einsum("mijke,med->mijkd", conn.GammaGrad, du, optimize=True)
    return PullbackEval(w_points=w_points, conn=conn, ZGrad=ZGrad)
