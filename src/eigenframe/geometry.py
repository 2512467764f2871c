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

For n = 3 the inverse frame L comes from the adjugate and determinant by
cofactor expansion (LAPACK otherwise); a frame with |det R| below
DET_RTOL |R|_F^n raises SingularFrameError before anything is divided.
eval_connection and directional_gamma (read by every residual and
classifier branch through ConnectionEval.dGamma) contract by batched matrix
products over reshaped views; the checks keep plain einsum.  With
Gamma_j = L (DR_j R) and d_d L = -L (d_d R) L,

    d_d Gamma_j = L ( d_d(DR_j R) - (d_d R) Gamma_j ),

so Gamma is reused and d L is never formed.  Higher derivatives of Gamma
come as Taylor fields (exprlang.Taylor, through ConnectionEval.taylor),
composed from the truncated Taylor series of the frame's own tape
(exprlang.eval_series); no derivative is taken by finite differences or by
symbolic differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from . import exprlang as ex
from .exprlang import Taylor, _derivative_table, _frame_derivative_table, _size
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
    trees.  w_exprs are in the frame's u-variables; u_exprs in w_vars;
    params bind the parameters of both."""

    w_exprs: tuple
    u_exprs: tuple
    w_vars: tuple
    params: Mapping[str, float] = field(default_factory=dict)

    @cached_property
    def w_tape(self) -> ex.Tape:
        return ex.compile_tape((self.w_exprs, self.params))

    @cached_property
    def u_tape(self) -> ex.Tape:
        return ex.compile_tape((self.u_exprs, self.params))


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

    @cached_property
    def tape(self) -> ex.Tape:
        """Every frame entry in one tape, row by row: output a*n + j is
        R^a_j, the a-th component of field j."""
        return frame_tape(self)


def frame_tape(spec: FrameSpec, *cands) -> ex.Tape:
    """One tape over the frame entries (the first n*n outputs, row by row)
    and then the components of each candidate, in order."""
    n = spec.n
    entries = tuple(spec.columns[j][a] for a in range(n) for j in range(n))
    return ex.compile_tape((entries, spec.params), *((c.exprs, c.params) for c in cands))


def frame_block(block: np.ndarray, n: int) -> np.ndarray:
    """The frame outputs of a tape, block[:, :n*n, ...], as the array
    (m, a, j, ...) of R^a_j (a view)."""
    return block[:, : n * n].reshape((block.shape[0], n, n) + block.shape[2:])


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
    return RiemannChart(w_exprs=w_exprs, u_exprs=u_exprs, w_vars=tuple(w_vars), params=params)


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
    (dGamma) and the Taylor fields of taylor and r are computed on first
    use and kept.
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
    _series: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.R.shape[-1]

    def symmetry_residual(self) -> float:
        """max |Gamma[i,j,k] - Gamma[j,i,k]| = max |c| over 1 + max |Gamma|."""
        return float(np.abs(self.c).max() / (1.0 + np.abs(self.Gamma).max()))

    def gamma_scale(self) -> np.ndarray:
        """Per-point magnitude used to make vanishing tests dimensionless."""
        m = self.Gamma.shape[0]
        return 1.0 + np.abs(self.Gamma.reshape(m, -1)).max(axis=1)

    @cached_property
    def dGamma(self) -> np.ndarray:
        """r_d(Gamma[i,j,k]), shape (m, d, i, j, k); see directional_gamma."""
        return directional_gamma(self)

    def taylor(self, order: int) -> Taylor:
        """Gamma as a Taylor field of the given order, shape (m, i, j, k).
        Order 1 is read from Gamma and GammaGrad.  Higher orders compose the
        series of R: with R = R0 + H, L = sum_k (-L0 H)^k L0 and
        Gamma_j = L (DR_j R) as in eval_connection."""
        key = ("gamma", order)
        if key not in self._series:
            n = self.n
            if order <= 1:
                coef = np.concatenate([self.Gamma[..., None], self.GammaGrad], axis=-1)
                gamma = Taylor(coef[..., : _size(n, order)], n, order)
            else:
                R = self._frame_series(order + 1)
                m, size, D = R.coef.shape[0], _size(n, order), _derivative_table(n, order + 1)
                DR = R.coef.reshape(m * n * n, -1) @ D.reshape(n * size, -1).T  # (m, a, j, b, l)
                R = Taylor(R.coef[..., :size], n, order)
                L, X = self.L, -(self.L @ (R - R.value))
                for _ in range(order):
                    L = self.L + X @ L
                LDR = L @ Taylor(DR.reshape(m, n, n * n, size), n, order)
                G = Taylor(LDR.coef.reshape(m, n * n, n, size), n, order) @ R
                gamma = Taylor(G.coef.reshape(m, n, n, n, size).transpose(0, 3, 2, 1, 4), n, order)
            self._series[key] = gamma
        return self._series[key]

    def r(self, d: int, f: Taylor) -> Taylor:
        """r_d(f) = R^a_d d_a f along frame field d, a Taylor field one order
        lower than f: one batched product with the field's per-point
        operator, which is built once per order."""
        key = ("operator", f.order)
        if key not in self._series:
            R = self._frame_series(f.order - 1).coef.transpose(0, 2, 1, 3)  # (m, d, a, i)
            T = _frame_derivative_table(self.n, f.order)
            M = R.reshape(R.shape[:2] + (-1,)) @ T.reshape(-1, T.shape[2] * T.shape[3])
            self._series[key] = M.reshape(R.shape[:2] + T.shape[2:]).transpose(0, 1, 3, 2)
        m, size = f.coef.shape[0], f.coef.shape[-1]
        out = f.coef.reshape(m, -1, size) @ self._series[key][:, d]
        return Taylor(out.reshape(f.coef.shape[:-1] + (-1,)), self.n, f.order - 1)

    def _frame_series(self, order: int) -> Taylor:
        """R as a Taylor field of the given order, shape (m, a, j): a leading
        slice of the highest-order series of the frame's tape evaluated on
        this sample set so far."""
        R = self._series.get("frame")
        if R is None or R.order < order:
            coef = ex.eval_series(self.spec.tape, self.points, order)
            R = self._series["frame"] = Taylor(coef.reshape(coef.shape[:1] + (self.n, self.n, -1)), self.n, order)
        return Taylor(R.coef[..., : _size(self.n, order)], self.n, order)


def eval_frame_jets(spec: FrameSpec, points: np.ndarray):
    """Values, Jacobians and Hessians of all frame entries at points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jet = ex.eval_jet2_many(spec.tape, points)
    n = spec.n
    return points, frame_block(jet.value, n), frame_block(jet.grad, n), frame_block(jet.hess, n)


def _adjugate_det3(R: np.ndarray) -> tuple:
    """Adjugate and determinant of a batch of 3x3 matrices by cofactor
    expansion; nine array products cost less than a LAPACK call per
    matrix."""
    adj = np.empty_like(R)
    # cyclic cofactors: C[i, j] = R[i+1, j+1] R[i+2, j+2] - R[i+1, j+2] R[i+2, j+1]
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[:, j, i] = R[:, i1, j1] * R[:, i2, j2] - R[:, i1, j2] * R[:, i2, j1]
    det = (R[:, 0, :] * adj[:, :, 0]).sum(axis=1)
    return adj, det


def _invert_frame(points: np.ndarray, R: np.ndarray) -> tuple:
    """L = R^{-1} and det R for a batch of frames (m, n, n).  A frame whose
    |det| falls below DET_RTOL * |R|_F^n raises SingularFrameError before
    anything is divided by it."""
    n = R.shape[-1]
    closed_form = n == 3
    if closed_form:
        adj, det = _adjugate_det3(R)
    else:
        det = np.linalg.det(R)
    norm = np.sqrt((R**2).sum(axis=(1, 2)))
    threshold = DET_RTOL * np.maximum(norm, 1e-30) ** n
    bad = np.abs(det) < threshold
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularFrameError(points[i], float(det[i]), float(threshold[i]))
    if closed_form:
        return adj / det[:, None, None], det
    return np.linalg.inv(R), det


def eval_connection(spec: FrameSpec, points: np.ndarray) -> ConnectionEval:
    """Christoffel symbols, their first derivatives, and structure
    coefficients of the flat coordinate connection relative to the frame."""
    points, R, Rgrad, Rhess = eval_frame_jets(spec, points)
    m, n = R.shape[0], spec.n
    L, det = _invert_frame(points, R)
    # (DR_j R_i)^a as (m, a, j*i); Gamma is L applied to it, laid out [k, j, i]
    DRR = (Rgrad.reshape(m, n * n, n) @ R).reshape(m, n, n * n)
    G_kji = L @ DRR
    Gamma = np.ascontiguousarray(G_kji.reshape(m, n, n, n).transpose(0, 3, 2, 1))
    # d_d Gamma_j = L d_d(DR_j R) + (d_d L) DR_j R, with d_d L = -L (d_d R) L,
    # so the second term is -L (d_d R) Gamma_j; everything inside L is
    # assembled as (m, a, d, j, i)
    d_DRR = (Rhess.transpose(0, 1, 4, 2, 3).reshape(m, n**3, n) @ R).reshape(m, n, n, n, n)
    d_DRR += (Rgrad.reshape(m, n * n, n) @ Rgrad.reshape(m, n, n * n)).reshape(
        m, n, n, n, n
    ).transpose(0, 1, 4, 2, 3)
    dR_Gamma = (Rgrad.transpose(0, 1, 3, 2).reshape(m, n * n, n) @ G_kji).reshape(m, n, n, n, n)
    GammaGrad = (L @ (d_DRR - dR_Gamma).reshape(m, n, n**3)).reshape(m, n, n, n, n)
    GammaGrad = np.ascontiguousarray(GammaGrad.transpose(0, 4, 3, 1, 2))
    c = Gamma - Gamma.transpose(0, 2, 1, 3)
    return ConnectionEval(
        spec=spec, points=points, R=R, L=L, det=det, Rgrad=Rgrad,
        Gamma=Gamma, GammaGrad=GammaGrad, c=c,
    )


def structure_coefficients_bracket(conn: ConnectionEval) -> np.ndarray:
    """c via direct expansion of [r_i, r_j] = (DR_j)R_i - (DR_i)R_j in the
    frame basis; independent cross-check of the antisymmetrized-Gamma path."""
    bracket = np.einsum("majb,mbi->maij", conn.Rgrad, conn.R)
    bracket = bracket - bracket.transpose(0, 1, 3, 2)
    return np.einsum("mka,maij->mijk", conn.L, bracket)


def directional_gamma(conn: ConnectionEval) -> np.ndarray:
    """r_d(Gamma[i,j,k]) for every frame direction d: shape (m, d, i, j, k)."""
    m, n = conn.R.shape[0], conn.n
    dG = conn.GammaGrad.reshape(m, n**3, n) @ conn.R  # (m, ijk, d)
    return np.ascontiguousarray(dG.transpose(0, 2, 1)).reshape(m, n, n, n, n)


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
        np.einsum("pksj,pdis->pijkd", Gamma, Gamma)
        - np.einsum("pdsj,pkis->pijkd", Gamma, Gamma)
        - np.einsum("pkds,psij->pijkd", c, Gamma)
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

def _chart_eval(evaluate, tape: ex.Tape, points: np.ndarray, **kwargs):
    """A chart map evaluated at points; leaving its domain is a ChartDomainError."""
    try:
        return evaluate(tape, np.atleast_2d(np.asarray(points, dtype=float)), **kwargs)
    except DomainError as err:
        raise ChartDomainError(str(err)) from err


def chart_forward(chart: RiemannChart, u_points: np.ndarray) -> np.ndarray:
    return _chart_eval(ex.eval_scalar_many, chart.w_tape, u_points)


def chart_inverse(chart: RiemannChart, w_points: np.ndarray) -> np.ndarray:
    return _chart_eval(ex.eval_scalar_many, chart.u_tape, w_points)


def verify_riemann_chart(conn: ConnectionEval, chart: RiemannChart, tol: float = 1e-9) -> dict:
    """Check the chart normalization r_j(w^i) = delta_ij at the connection's
    u-samples and the round trip u -> w -> u.  Returns the residual report."""
    pts = conn.points
    # (m, i, a) = d w^i / d u^a
    dW = _chart_eval(ex.eval_jet2_many, chart.w_tape, pts, order=1).grad
    norm = np.einsum("mia,maj->mij", dW, conn.R)
    normalization_residual = float(np.abs(norm - np.eye(conn.n)[None]).max())
    w = chart_forward(chart, pts)
    back = chart_inverse(chart, w)
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
        return self.conn.symmetry_residual()

    def flatness_residual(self) -> float:
        """Residual of the pulled-back curvature identity: for all (i,j,k,d):
        d_d Z[i,k,j] - d_k Z[i,d,j] = sum_t Z[t,k,j] Z[i,d,t] - Z[t,d,j] Z[i,k,t]."""
        A, Z = self.ZGrad, self.Z
        t1 = np.transpose(A, (0, 1, 3, 2, 4))  # d_d Z[i,k,j] as [p,i,j,k,d]
        t2 = np.transpose(A, (0, 1, 3, 4, 2))  # d_k Z[i,d,j] as [p,i,j,k,d]
        term = (
            np.einsum("ptkj,pidt->pijkd", Z, Z)
            - np.einsum("ptdj,pikt->pijkd", Z, Z)
        )
        res = t1 - t2 - term
        scale = (1.0 + np.abs(Z).max()) ** 2 + np.abs(A).max()
        return float(np.abs(res).max() / scale)


def pullback_connection(spec: FrameSpec, chart: RiemannChart, w_points: np.ndarray) -> PullbackEval:
    """Z[i,j,k](w) = Gamma[i,j,k](u(w)) and its exact w-derivatives."""
    w_points = np.atleast_2d(np.asarray(w_points, dtype=float))
    u_points = chart_inverse(chart, w_points)
    # (m, e_comp, d) = d u^e / d w^d
    du = _chart_eval(ex.eval_jet2_many, chart.u_tape, w_points, order=1).grad
    conn = eval_connection(spec, u_points)
    ZGrad = np.einsum("mijke,med->mijkd", conn.GammaGrad, du)
    return PullbackEval(w_points=w_points, conn=conn, ZGrad=ZGrad)
