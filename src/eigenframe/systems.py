"""Assembly of the two algebraic-differential systems attached to a frame.

For scalar fields s = (s^1, ..., s^n) the two first-order systems are

  length system ("beta"):
      r_i(b^j) = b^j (Gamma[i,j,j] + c[i,j,j]) - b^i Gamma[j,j,i]   (i != j)
      b^k c[i,j,k] + b^j Gamma[i,k,j] - b^i Gamma[j,k,i] = 0        (i<j, k distinct)

  speed system ("lambda"):
      r_i(l^j) = Gamma[j,i,j] (l^i - l^j)                            (i != j)
      Gamma[j,i,k] l^i - Gamma[i,j,k] l^j + c[i,j,k] l^k = 0         (i<j, k distinct)

This module evaluates candidates against both systems, estimates generic
algebraic ranks, and checks the cross-system identities (rank duality for
n=3, the eigenvalue-gap identity, convexity classification of verified
length candidates, and the compatibility coefficients of the chart-space
system used by the rich rank-0 theory).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from . import exprlang as ex
from .errors import CoincidentEigenvaluesError, NotRichError
from .geometry import (
    ConnectionEval,
    FrameSpec,
    RiemannChart,
    distinct_triple_mask,
    is_rich,
    pullback_connection,
)


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def _parse_all(sources, vars, params):
    out = []
    for s in sources:
        out.append(ex.parse_expression(s, vars, params) if isinstance(s, str) else s)
    return tuple(out)


@dataclass(frozen=True)
class BetaCandidate:
    exprs: tuple
    params: Mapping[str, float]
    eta_expr: Optional[object] = None  # closed-form scalar potential, if known

    @cached_property
    def tape(self) -> ex.Tape:
        return ex.compile_tape((self.exprs, self.params))

    @cached_property
    def eta_tape(self) -> ex.Tape:
        return ex.compile_tape(((self.eta_expr,), self.params))

    @staticmethod
    def from_sources(sources, vars, params=None, eta_source=None):
        params = dict(params or {})
        eta = (
            ex.parse_expression(eta_source, vars, params)
            if isinstance(eta_source, str)
            else eta_source
        )
        return BetaCandidate(_parse_all(sources, vars, params), params, eta)


@dataclass(frozen=True)
class LambdaCandidate:
    exprs: tuple
    params: Mapping[str, float]
    f_exprs: Optional[tuple] = None  # closed-form flux components, if known

    @cached_property
    def tape(self) -> ex.Tape:
        return ex.compile_tape((self.exprs, self.params))

    @cached_property
    def f_tape(self) -> ex.Tape:
        return ex.compile_tape((self.f_exprs, self.params))

    @staticmethod
    def from_sources(sources, vars, params=None, f_sources=None):
        params = dict(params or {})
        f = _parse_all(f_sources, vars, params) if f_sources else None
        return LambdaCandidate(_parse_all(sources, vars, params), params, f)


def eval_candidate(tape: ex.Tape, points: np.ndarray):
    """Values (m, n_fields) and u-gradients (m, n_fields, n) of a candidate's
    fields from its tape."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jet = ex.eval_jet2_many(tape, points, order=1)
    return jet.value, jet.grad


# ---------------------------------------------------------------------------
# Algebraic parts
# ---------------------------------------------------------------------------


def algebraic_triples(n: int) -> list:
    """(i, j, k) with i<j and k distinct from both, ordered by (k, i, j) so
    that for n=3 the rows match the canonical 3x3 layouts."""
    triples = []
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                if k != i and k != j:
                    triples.append((i, j, k))
    return triples


@dataclass
class AlgebraicSystem:
    kind: str  # 'beta' | 'lambda'
    triples: list
    matrix: np.ndarray  # (m, n_rows, n)


def beta_algebraic(conn: ConnectionEval) -> AlgebraicSystem:
    n = conn.n
    triples = algebraic_triples(n)
    m = conn.Gamma.shape[0]
    rows = np.zeros((m, len(triples), n))
    for r, (i, j, k) in enumerate(triples):
        rows[:, r, k] += conn.c[:, i, j, k]
        rows[:, r, j] += conn.Gamma[:, i, k, j]
        rows[:, r, i] -= conn.Gamma[:, j, k, i]
    return AlgebraicSystem("beta", triples, rows)


def lambda_algebraic(conn: ConnectionEval) -> AlgebraicSystem:
    n = conn.n
    triples = algebraic_triples(n)
    m = conn.Gamma.shape[0]
    rows = np.zeros((m, len(triples), n))
    for r, (i, j, k) in enumerate(triples):
        rows[:, r, i] += conn.Gamma[:, j, i, k]
        rows[:, r, j] -= conn.Gamma[:, i, j, k]
        rows[:, r, k] += conn.c[:, i, j, k]
    return AlgebraicSystem("lambda", triples, rows)


def generic_rank(
    matrices: np.ndarray, rel_tol: float = 1e-8, abs_floor: float = 1e-10
) -> int:
    """Max numerical rank over a batch of matrices (m, rows, cols).

    A singular value counts when sigma > rel_tol * sigma_max; a matrix whose
    largest singular value is below abs_floor (relative to its own entries'
    natural scale of 1) has rank 0.
    """
    if matrices.shape[1] == 0:
        return 0
    svals = np.linalg.svd(matrices, compute_uv=False)
    smax = svals[:, 0]
    counts = (svals > rel_tol * np.maximum(smax, 1e-300)[:, None]).sum(axis=1)
    counts = np.where(smax < abs_floor, 0, counts)
    return int(counts.max())


def check_rank_duality_n3(conn: ConnectionEval) -> float:
    """Entrywise residual of A_lambda = D A_beta^T D with D = diag(1,-1,1)."""
    if conn.n != 3:
        raise ValueError("rank duality identity is specific to n=3")
    a_lam = lambda_algebraic(conn).matrix
    a_bet = beta_algebraic(conn).matrix
    D = np.diag([1.0, -1.0, 1.0])
    transformed = np.einsum("ab,mcb,cd->mad", D, a_bet, D)
    # note: (D A^T D)[a, d] = D[a,a] A[d, a] D[d,d]; einsum above implements it
    return float(np.abs(a_lam - transformed).max())


# ---------------------------------------------------------------------------
# Residual records
# ---------------------------------------------------------------------------


@dataclass
class ResidualRecord:
    kind: str
    pde_labels: list
    alg_labels: list
    pde_raw: np.ndarray  # (m, n(n-1))
    alg_raw: np.ndarray  # (m, n_alg)
    pde_scaled: np.ndarray
    alg_scaled: np.ndarray

    @property
    def max_scaled(self) -> float:
        parts = [self.pde_scaled.max() if self.pde_scaled.size else 0.0]
        if self.alg_scaled.size:
            parts.append(self.alg_scaled.max())
        return float(max(parts))

    def worst(self) -> dict:
        """Location and value of the worst scaled residual, for reports."""
        best = {"label": None, "value": -1.0, "sample": -1}
        for labels, arr in ((self.pde_labels, self.pde_scaled), (self.alg_labels, self.alg_scaled)):
            if arr.size == 0:
                continue
            idx = np.unravel_index(int(np.argmax(arr)), arr.shape)
            if arr[idx] > best["value"]:
                best = {"label": labels[idx[1]], "value": float(arr[idx]), "sample": int(idx[0])}
        return best


def _ordered_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def beta_residual(conn: ConnectionEval, cand: BetaCandidate) -> ResidualRecord:
    vals, grads = eval_candidate(cand.tape, conn.points)
    n = conn.n
    pairs = _ordered_pairs(n)
    pde_raw = np.zeros((conn.points.shape[0], len(pairs)))
    pde_scale = np.ones_like(pde_raw)
    for col, (i, j) in enumerate(pairs):
        deriv = np.einsum("ma,ma->m", grads[:, j, :], conn.R[:, :, i])
        t1 = vals[:, j] * (conn.Gamma[:, i, j, j] + conn.c[:, i, j, j])
        t2 = vals[:, i] * conn.Gamma[:, j, j, i]
        pde_raw[:, col] = deriv - (t1 - t2)
        pde_scale[:, col] = 1.0 + np.abs(deriv) + np.abs(t1) + np.abs(t2)
    sys = beta_algebraic(conn)
    alg_raw = np.einsum("mrk,mk->mr", sys.matrix, vals)
    alg_scale = 1.0 + np.abs(sys.matrix * vals[:, None, :]).sum(axis=2)
    return ResidualRecord(
        kind="beta",
        pde_labels=[f"beta-pde r{i+1}(b{j+1})" for i, j in pairs],
        alg_labels=[f"beta-alg ({i+1},{j+1},{k+1})" for i, j, k in sys.triples],
        pde_raw=pde_raw,
        alg_raw=alg_raw,
        pde_scaled=np.abs(pde_raw) / pde_scale,
        alg_scaled=np.abs(alg_raw) / alg_scale,
    )


def lambda_residual(conn: ConnectionEval, cand: LambdaCandidate) -> ResidualRecord:
    vals, grads = eval_candidate(cand.tape, conn.points)
    n = conn.n
    pairs = _ordered_pairs(n)
    pde_raw = np.zeros((conn.points.shape[0], len(pairs)))
    pde_scale = np.ones_like(pde_raw)
    for col, (i, j) in enumerate(pairs):
        deriv = np.einsum("ma,ma->m", grads[:, j, :], conn.R[:, :, i])
        rhs = conn.Gamma[:, j, i, j] * (vals[:, i] - vals[:, j])
        pde_raw[:, col] = deriv - rhs
        pde_scale[:, col] = 1.0 + np.abs(deriv) + np.abs(rhs)
    sys = lambda_algebraic(conn)
    alg_raw = np.einsum("mrk,mk->mr", sys.matrix, vals)
    alg_scale = 1.0 + np.abs(sys.matrix * vals[:, None, :]).sum(axis=2)
    return ResidualRecord(
        kind="lambda",
        pde_labels=[f"lambda-pde r{i+1}(l{j+1})" for i, j in pairs],
        alg_labels=[f"lambda-alg ({i+1},{j+1},{k+1})" for i, j, k in sys.triples],
        pde_raw=pde_raw,
        alg_raw=alg_raw,
        pde_scaled=np.abs(pde_raw) / pde_scale,
        alg_scaled=np.abs(alg_raw) / alg_scale,
    )


# ---------------------------------------------------------------------------
# Cross-system identity and convexity
# ---------------------------------------------------------------------------


def sevennec_identity(
    conn: ConnectionEval,
    beta_cand: BetaCandidate,
    lambda_cand: LambdaCandidate,
    gap_rtol: float = 1e-8,
) -> float:
    """Scaled residual of the cyclic identity

        c[j,k,i] b^i / (l^j - l^k) + c[k,i,j] b^j / (l^k - l^i)
            + c[i,j,k] b^k / (l^i - l^j) = 0     for i < j < k,

    which couples verified candidates of the two systems under strict
    hyperbolicity.  Near-coincident eigenvalues are rejected."""
    bvals = ex.eval_scalar_many(beta_cand.tape, conn.points)
    lvals = ex.eval_scalar_many(lambda_cand.tape, conn.points)
    n = conn.n
    scale = np.abs(lvals).max()
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                gaps = np.stack(
                    [lvals[:, j] - lvals[:, k], lvals[:, k] - lvals[:, i], lvals[:, i] - lvals[:, j]]
                )
                min_gap = float(np.abs(gaps).min())
                if min_gap < gap_rtol * max(scale, 1.0):
                    p = int(np.argmin(np.abs(gaps).min(axis=0)))
                    raise CoincidentEigenvaluesError(conn.points[p], min_gap)
                t1 = conn.c[:, j, k, i] * bvals[:, i] / gaps[0]
                t2 = conn.c[:, k, i, j] * bvals[:, j] / gaps[1]
                t3 = conn.c[:, i, j, k] * bvals[:, k] / gaps[2]
                res = np.abs(t1 + t2 + t3) / (1.0 + np.abs(t1) + np.abs(t2) + np.abs(t3))
                worst = max(worst, float(res.max()))
    return worst


def convexity_classify(cand: BetaCandidate, points: np.ndarray, tol: float = 1e-9) -> dict:
    """Sign classification of a verified length candidate.

    strict_entropy: every component positive at every sample;
    entropy: components nonnegative up to tol (degenerate directions allowed);
    extension_only: definite sign pattern with a negative component;
    indefinite: some component changes sign across the sample set.
    """
    vals = ex.eval_scalar_many(cand.tape, np.atleast_2d(points))
    scale = max(1.0, float(np.abs(vals).max()))
    lo = vals.min(axis=0)
    hi = vals.max(axis=0)
    cut = tol * scale
    if np.all(lo > cut):
        verdict = "strict_entropy"
    elif np.all(lo > -cut):
        verdict = "entropy"
    elif np.all((lo > -cut) | (hi < cut)):
        verdict = "extension_only"
    else:
        verdict = "indefinite"
    return {
        "verdict": verdict,
        "component_min": lo.tolist(),
        "component_max": hi.tolist(),
        "tol": cut,
    }


# ---------------------------------------------------------------------------
# Chart-space compatibility coefficients (rich rank-0 theory)
# ---------------------------------------------------------------------------


def darboux_compatibility(
    spec: FrameSpec,
    chart: RiemannChart,
    w_points: np.ndarray,
    rich_tol: float = 1e-8,
) -> float:
    """Max-abs of the coefficient families whose identical vanishing makes
    the chart-space system solvable from axis data.  For all triples
    (j, k, m) of pairwise-distinct indices:

        dZ[k,j,j]/dw^m - dZ[m,j,j]/dw^k
        dZ[j,j,k]/dw^m + Z[j,j,k] Z[m,k,k] + Z[j,j,m] Z[m,m,k] - Z[m,j,j] Z[j,j,k]
        dZ[j,j,m]/dw^k + Z[j,j,m] Z[k,m,m] + Z[j,j,k] Z[k,k,m] - Z[k,j,j] Z[j,j,m]

    The cross components Z[i,j,k] (pairwise-distinct indices) must vanish
    for the identities to apply; their magnitude is folded into the returned
    residual, so a corrupted or rank-1 chart-space connection reports a
    large value rather than silently passing."""
    pb = pullback_connection(spec, chart, w_points)
    require_rich(pb.conn, rich_tol)
    return compat_coefficient_residual(pb.Z, pb.ZGrad)


def compat_coefficient_residual(Z: np.ndarray, dZ: np.ndarray) -> float:
    """Scaled max-abs of the three compatibility coefficient families over
    all pairwise-distinct triples (j, k, m), plus the cross-component
    magnitudes the identities presuppose to vanish."""
    n = Z.shape[1]
    zscale = 1.0 + np.abs(Z).max()
    mask = distinct_triple_mask(n)
    worst = float(np.abs(np.where(mask[None], Z, 0.0)).max() / zscale)
    scale = zscale**2 + np.abs(dZ).max()
    for j in range(n):
        for k in range(n):
            for m in range(n):
                if len({j, k, m}) != 3:
                    continue
                cj = dZ[:, k, j, j, m] - dZ[:, m, j, j, k]
                ck = (
                    dZ[:, j, j, k, m]
                    + Z[:, j, j, k] * Z[:, m, k, k]
                    + Z[:, j, j, m] * Z[:, m, m, k]
                    - Z[:, m, j, j] * Z[:, j, j, k]
                )
                cm = (
                    dZ[:, j, j, m, k]
                    + Z[:, j, j, m] * Z[:, k, m, m]
                    + Z[:, j, j, k] * Z[:, k, k, m]
                    - Z[:, k, j, j] * Z[:, j, j, m]
                )
                worst = max(worst, float(np.abs(np.stack([cj, ck, cm])).max() / scale))
    return worst


def require_rich(conn: ConnectionEval, tol: float = 1e-8) -> None:
    ok, witness = is_rich(conn, tol)
    if not ok:
        raise NotRichError(f"frame is not rich: worst witness {witness}")
