"""Frames on a coordinate box: connection components, structure
coefficients, symmetry/flatness residuals, richness, scalings, and
verification of supplied coordinate charts.

All evaluations are batched over sample points with numpy.  The connection
components relative to a frame with columns R_j are

    Gamma[i, j, k] = L^k (DR_j) R_i          (L = R^{-1}, rows L^k)

with first index the direction and second the differentiated field, and the
structure coefficients are c[i, j, k] = Gamma[i, j, k] - Gamma[j, i, k].

For n = 3 the inverse frame L comes from the adjugate and determinant by
cofactor expansion over rows (m,) of frame entries (_cofactor_rows; LAPACK
otherwise); a frame with |det R| below DET_RTOL |R|_F^n raises
SingularFrameError before anything is divided (_require_invertible).  The
same row cofactors and gate let potential's rays apply L for n = 3 without
forming it.
Gamma is written once, as the formula Gamma_j = L (DR_j R) over Taylor
fields (exprlang.Taylor): R is the truncated Taylor series of the frame's
own tape (exprlang.eval_series), L = sum_k (-L0 H)^k L0 for R = R0 + H
(inverse_series), and DR is read from R's coefficients.  eval_connection
runs the tape once at order 2 and takes Gamma with its exact first
derivatives from the order-1 series; ConnectionEval.taylor runs the same
formula at higher orders.  No derivative is taken by finite differences, by
symbolic differentiation or by a hand-written product rule, so the symmetry
and flatness identities of the flat coordinate connection hold to machine
precision and serve as end-to-end pipeline checks.
"""

from __future__ import annotations

import os
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
# largest scaled |c[i,j,k]| over pairwise-distinct (i,j,k) of a rich frame
RICH_TOL = 1e-7
# Peak memory per sample point and Gamma entry: the n = 3 classifier,
# whose order-3 connection series has n^3 entries, peaks at about 64 kB a
# sample (ex6.9 at 1000 and 4000 samples).
_SAMPLE_BYTES_PER_ENTRY = 2400


# ---------------------------------------------------------------------------
# Halton samples
# ---------------------------------------------------------------------------

def _primes(count: int) -> list:
    """The first count primes, by trial division."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Each index's base-b digits reflected about the radix point.  The
    digits come from one floor-divide and mod over the powers of b up to the
    largest index, and the terms d_k / b^(k+1) are summed lowest digit first
    with scales formed by repeated division, so every point has the bits of
    a loop that peels off one digit at a time."""
    top = int(indices.max(initial=0))
    powers = [1]
    while powers[-1] * base <= top:
        powers.append(powers[-1] * base)
    digits = indices // np.array(powers)[:, None] % base  # (k, m)
    scales = np.divide.accumulate(np.array([1.0 / base] + [base] * (len(powers) - 1)))
    return np.add.accumulate(scales[:, None] * digits)[-1]


def halton_points(lo: np.ndarray, hi: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in the box [lo, hi], deterministic in seed.
    A negative seed, or one whose Halton indices pass the int64 range,
    raises ValueError."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    start = 20 + 1009 * seed
    if seed < 0 or start + count > np.iinfo(np.int64).max:
        raise ValueError(f"seed must be a non-negative integer below 2^63/1009, got {seed}")
    idx = np.arange(start, start + count)
    unit = np.stack([_radical_inverse(idx, b) for b in _primes(n)], axis=1)
    # keep strictly interior so jets of boundary-singular entries stay finite
    unit = 0.02 + 0.96 * unit
    return lo + unit * (hi - lo)


def _require_sample_memory(count: int, n: int) -> None:
    """Raise MemoryError, before anything is allocated, when count samples
    of an n-variable frame are estimated to need more than the physical
    memory."""
    need = count * _SAMPLE_BYTES_PER_ENTRY * n**3
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise MemoryError(
            f"{count} samples of an n = {n} frame need about {need / 1e9:.3g} GB, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )


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
        _require_sample_memory(count, self.n)
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


def split_frame_tape(block: np.ndarray, n: int) -> tuple:
    """The outputs block (m, outputs, ...) of a frame_tape, as views: R, the
    array (m, a, j, ...) of R^a_j, and the list of each candidate's block
    (m, n, ...)."""
    R = block[:, : n * n].reshape((block.shape[0], n, n) + block.shape[2:])
    return R, [block[:, c : c + n] for c in range(n * n, block.shape[1], n)]


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
    evaluating the frame again.  The Taylor fields of taylor and r are
    computed on first use and kept.
    """

    spec: FrameSpec
    points: np.ndarray  # (m, n)
    R: np.ndarray  # (m, a, j)
    L: np.ndarray  # (m, k, a); L @ R = I
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

    def taylor(self, order: int) -> Taylor:
        """Gamma as a Taylor field of the given order, shape (m, i, j, k): a
        leading slice of the lowest-order series computed so far that
        reaches it (order 1 by eval_connection), else computed and kept."""
        kept = [key[1] for key in self._series if key[0] == "gamma" and key[1] >= order]
        if not kept:
            kept = [order]
            self._series[("gamma", order)] = _gamma_series(
                self._frame_series(order + 1), self.L, order)
        G = self._series[("gamma", min(kept))]
        return G if G.order == order else Taylor(G.coef[..., : _size(self.n, order)], self.n, order)

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
        this sample set so far (order 2 by eval_connection)."""
        R = self._series["frame"]
        if R.order < order:
            R = self._series["frame"] = _frame_taylor(self.spec, self.points, order)
        return Taylor(R.coef[..., : _size(self.n, order)], self.n, order)


def _frame_taylor(spec: FrameSpec, points: np.ndarray, order: int) -> Taylor:
    """R as a Taylor field of the given order at points, shape (m, a, j)."""
    R, _ = split_frame_tape(ex.eval_series(spec.tape, points, order), spec.n)
    return Taylor(R, spec.n, order)


# cyclic cofactors: adj[j, i] = R[i+1, j+1] R[i+2, j+2] - R[i+1, j+2] R[i+2, j+1]
# (indices mod 3), as four index arrays a, b, c, d into the flattened frame
# (entry 3a + j is R[a, j]), each with one entry per flattened adj position
# 3j + i
_COFACTORS = tuple(
    np.array([3 * ((i + r) % 3) + (j + c) % 3 for j in range(3) for i in range(3)])
    for r, c in ((1, 1), (2, 2), (1, 2), (2, 1))
)


def _cofactor_rows(rows) -> tuple:
    """The cofactors and determinant of a batch of 3x3 frames held as the
    nine rows (m,) of their entries (row 3a + j is R[a, j]): the list C of
    rows with C[3k + a] = adj[k, a], and det.  No gather, stack or
    transposing copy is made."""
    with np.errstate(over="ignore", invalid="ignore"):
        C = [rows[a] * rows[b] - rows[c] * rows[d] for a, b, c, d in zip(*_COFACTORS)]
        # summed from +0.0 in this order, as numpy's sum over a row of R
        # would: the same bits, signed zeros included
        det = 0.0 + rows[0] * C[0] + rows[1] * C[3] + rows[2] * C[6]
    return C, det


def _require_invertible(points: np.ndarray, R: np.ndarray, det: np.ndarray) -> None:
    """The gate of every frame inversion, for a batch of frames (m, n, n)
    and their determinants: a frame whose norm or determinant overflows
    raises DomainError, and one whose |det| falls below DET_RTOL * |R|_F^n
    raises SingularFrameError, each at the first such point."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.einsum("mij,mij->m", R, R))
        threshold = DET_RTOL * np.maximum(norm, 1e-30) ** R.shape[-1]
    finite = np.isfinite(det) & np.isfinite(threshold)
    if not finite.all():
        raise DomainError("frame determinant", points[int(np.argmin(finite))], "non-finite value")
    bad = np.abs(det) < threshold
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularFrameError(points[i], float(det[i]), float(threshold[i]))


def _invert_frame(points: np.ndarray, R: np.ndarray) -> tuple:
    """L = R^{-1} and det R for a batch of frames (m, n, n), past
    _require_invertible's gate before anything is divided by det (so L is
    finite).  For n = 3, L = adj(R) / det from the row cofactors, which cost
    less than a LAPACK call per matrix."""
    if R.shape[-1] != 3:
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(R)
        _require_invertible(points, R, det)
        return np.linalg.inv(R), det
    C, det = _cofactor_rows(np.ascontiguousarray(R.reshape(-1, 9).T))
    _require_invertible(points, R, det)
    return np.stack(C, axis=1).reshape(-1, 3, 3) / det[:, None, None], det


def inverse_series(R: Taylor, L0: np.ndarray) -> Taylor:
    """L = R^{-1} as a Taylor field from L0 = R^{-1} at the points: with
    R = R0 + H, L = sum_k (-L0 H)^k L0, truncated at R's order."""
    X = L0 @ (R.value - R)
    L = L0
    for _ in range(R.order):
        L = L0 + X @ L
    return L


def _gamma_series(R: Taylor, L0: np.ndarray, order: int) -> Taylor:
    """Gamma_j = L (DR_j R) as a Taylor field of the given order, shape
    (m, i, j, k), from the frame series R of order + 1 and L0 = R^{-1}."""
    n, m, size = R.n, R.coef.shape[0], _size(R.n, order)
    D = _derivative_table(n, order + 1)
    DR = R.coef.reshape(m * n * n, -1) @ D.reshape(n * size, -1).T  # (m, a, j, b, l)
    R = Taylor(R.coef[..., :size], n, order)
    LDR = inverse_series(R, L0) @ Taylor(DR.reshape(m, n, n * n, size), n, order)
    G = Taylor(LDR.coef.reshape(m, n * n, n, size), n, order) @ R
    return Taylor(G.coef.reshape(m, n, n, n, size), n, order).transpose(0, 3, 2, 1)


def eval_connection(spec: FrameSpec, points: np.ndarray) -> ConnectionEval:
    """Christoffel symbols, their first derivatives, and structure
    coefficients of the flat coordinate connection relative to the frame,
    from one run of the frame's tape at order 2."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    R, n = _frame_taylor(spec, points, 2), spec.n
    L, _ = _invert_frame(points, R.value)
    gamma = _gamma_series(R, L, 1)
    Gamma = gamma.value
    conn = ConnectionEval(
        spec=spec, points=points, R=R.value, L=L, Rgrad=R.coef[..., 1 : 1 + n],
        Gamma=Gamma, GammaGrad=gamma.coef[..., 1:], c=Gamma - Gamma.transpose(0, 2, 1, 3),
    )
    conn._series.update({"frame": R, ("gamma", 1): gamma})
    return conn


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
    return _symmetry_flatness(conn, structure_coefficients_bracket(conn))


def _symmetry_flatness(conn: ConnectionEval, c_br: np.ndarray) -> tuple:
    """check_symmetry_flatness with the bracket c_br already computed."""
    scale = conn.gamma_scale()
    torsion = np.abs(conn.c - c_br).reshape(len(scale), -1).max(axis=1) / scale
    curvature = flatness_residual(conn.Gamma, conn.c, directional_gamma(conn)) / scale**2
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


def is_rich(conn: ConnectionEval) -> tuple:
    """A frame is rich when its scaled |c[i,j,k]| < RICH_TOL for pairwise-distinct i, j, k.

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
    return worst < RICH_TOL, witness


def scale_frame(spec: FrameSpec, alpha_exprs: Sequence) -> FrameSpec:
    """Frame with columns multiplied by scalar fields alpha_j (Expr or str).

    Raises ZeroScalingError when a scaling function vanishes (or nearly so)
    at one of the frame's 50 default sample points.
    """
    alphas = [
        ex.parse_expression(a, spec.vars, spec.params) if isinstance(a, str) else a
        for a in alpha_exprs
    ]
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

def _chart_eval(evaluate, tape: ex.Tape, points: np.ndarray, *args):
    """A chart map evaluated at points; leaving its domain is a ChartDomainError."""
    try:
        return evaluate(tape, np.atleast_2d(np.asarray(points, dtype=float)), *args)
    except DomainError as err:
        raise ChartDomainError(str(err)) from err


def chart_forward(chart: RiemannChart, u_points: np.ndarray) -> np.ndarray:
    return _chart_eval(ex.eval_scalar_many, chart.w_tape, u_points)


def chart_inverse(chart: RiemannChart, w_points: np.ndarray) -> np.ndarray:
    return _chart_eval(ex.eval_scalar_many, chart.u_tape, w_points)


def verify_riemann_chart(conn: ConnectionEval, chart: RiemannChart) -> dict:
    """Check the chart normalization r_j(w^i) = delta_ij at the connection's
    u-samples and the round trip u -> w -> u.  Returns the residual report."""
    pts = conn.points
    # w^i with its derivatives (m, i, a) = d w^i / d u^a; the series' value
    # slot has the bits of chart_forward
    series = _chart_eval(ex.eval_series, chart.w_tape, pts, 1)
    norm = np.einsum("mia,maj->mij", series[..., 1:], conn.R)
    back = chart_inverse(chart, series[..., 0])
    return {
        "normalization_residual": float(np.abs(norm - np.eye(conn.n)[None]).max()),
        "roundtrip_residual": float(np.abs(back - pts).max()),
    }
