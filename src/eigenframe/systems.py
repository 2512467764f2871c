"""Assembly of the two algebraic-differential systems attached to a frame.

For scalar fields s = (s^1, ..., s^n) the two first-order systems are

  length system ("beta"):
      r_i(b^j) = b^j (Gamma[i,j,j] + c[i,j,j]) - b^i Gamma[j,j,i]   (i != j)
      b^k c[i,j,k] + b^j Gamma[i,k,j] - b^i Gamma[j,k,i] = 0        (i<j, k distinct)

  speed system ("lambda"):
      r_i(l^j) = Gamma[j,i,j] (l^i - l^j)                            (i != j)
      Gamma[j,i,k] l^i - Gamma[i,j,k] l^j + c[i,j,k] l^k = 0         (i<j, k distinct)

This module evaluates candidates against both systems, estimates generic
algebraic ranks, counts the length system's solution jets at one point
(beta_jet_count, with the residuals' PDE coefficients and algebraic
assembly run on Taylor fields), and checks the cross-system identities
(rank duality for n=3, the eigenvalue-gap identity, and convexity
classification of verified length candidates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Optional

import numpy as np

from . import exprlang as ex
from .errors import CoincidentEigenvaluesError, InconclusiveVanishingError
from .exprlang import _quotient, _size
from .geometry import ConnectionEval, _frame_operator, _frame_taylor, _gamma_series


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


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
        return BetaCandidate(ex.parse_all(sources, vars, params), params, eta)


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
        f = ex.parse_all(f_sources, vars, params) if f_sources else None
        return LambdaCandidate(ex.parse_all(sources, vars, params), params, f)


def eval_candidate(tape: ex.Tape, points: np.ndarray):
    """Values (m, n_fields) and u-gradients (m, n_fields, n) of a candidate's
    fields from its tape, contiguous: einsum over a strided operand can sum
    in another order."""
    coef = ex.eval_series(tape, np.atleast_2d(np.asarray(points, dtype=float)), 1)
    return np.ascontiguousarray(coef[..., 0]), np.ascontiguousarray(coef[..., 1:])


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


@lru_cache(maxsize=None)
def _index_arrays(n: int) -> tuple:
    """Index arrays (row, i, j, k) of algebraic_triples(n), and (i, j) of
    _ordered_pairs(n), so that each system is assembled in one expression
    per term rather than one per pair or triple."""
    triples = np.array(algebraic_triples(n), dtype=np.intp).reshape(-1, 3)
    pairs = np.array(_ordered_pairs(n), dtype=np.intp).reshape(-1, 2)
    return (np.arange(len(triples)),) + tuple(triples.T), tuple(pairs.T)


def beta_algebraic(conn: ConnectionEval) -> np.ndarray:
    """The length system's algebraic part (m, rows, n), rows by algebraic_triples."""
    return _beta_matrix(conn.Gamma, conn.c)


def _beta_matrix(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The length system's algebraic part (m, rows, n, ...) from Gamma and c
    (m, i, j, k, ...); trailing axes, such as Taylor coefficients, are
    carried along."""
    n = G.shape[1]
    (r, i, j, k), _ = _index_arrays(n)
    # i, j and k differ, so every term lands on a 0.0 of its own, as in a
    # loop over the triples
    rows = np.zeros((G.shape[0], len(r), n) + G.shape[4:])
    rows[:, r, k] += c[:, i, j, k]
    rows[:, r, j] += G[:, i, k, j]
    rows[:, r, i] -= G[:, j, k, i]
    return rows


def lambda_algebraic(conn: ConnectionEval) -> np.ndarray:
    """The speed system's algebraic part (m, rows, n), rows by algebraic_triples."""
    n, G, c = conn.n, conn.Gamma, conn.c
    (r, i, j, k), _ = _index_arrays(n)
    rows = np.zeros((G.shape[0], len(r), n))
    rows[:, r, i] += G[:, j, i, k]
    rows[:, r, j] -= G[:, i, j, k]
    rows[:, r, k] += c[:, i, j, k]
    return rows


def generic_rank(matrices: np.ndarray) -> int:
    """Max numerical rank over a batch of matrices (m, rows, cols).

    A singular value counts when sigma > 1e-8 * sigma_max; a matrix whose
    largest singular value is below 1e-10 (relative to its own entries'
    natural scale of 1) has rank 0.
    """
    if matrices.shape[1] == 0:
        return 0
    svals = np.linalg.svd(matrices, compute_uv=False)
    smax = svals[:, 0]
    counts = (svals > 1e-8 * np.maximum(smax, 1e-300)[:, None]).sum(axis=1)
    counts = np.where(smax < 1e-10, 0, counts)
    return int(counts.max())


# ---------------------------------------------------------------------------
# Solution jets of the length system
# ---------------------------------------------------------------------------


@dataclass
class JetCount:
    """The jets of order 3 at one point that solve the length system:
    dims[k] is the dimension of their projection onto the coefficients of
    degree <= k, for k < 3; support is the number of components not forced
    to vanish; kept and dropped are the smallest relative pivot or singular
    value counted in a rank and the largest one not counted."""

    dims: tuple
    support: int
    kept: float
    dropped: float


# rank tolerance of the solution-jet count, about halfway in decades across
# its gap: at 15000 points (tools/count_points.py, the 15 n = 3 corpus files
# at 200 points of seeds 0-4, every rank) the kept relative pivots and
# singular values stay at or above 4.8e-6 and the dropped ones below 1.9e-13
JET_RANK_TOL = 1e-9


def beta_jet_count(conn: ConnectionEval) -> JetCount:
    """Count the jets of order 3 that solve the length system at the first
    sample point: the Hilbert function of the prolonged system
    (W. M. Seiler, Involution, Springer 2010), a witness of the size of the
    solution set, not a proof of involution.

    The unknowns are the Taylor coefficients b^a[l] of b^1..b^n.  Their
    rows are r_i(b^j) - b^j X + b^i Y through order 2
    (_beta_pde_coefficients) and the algebraic part times b through order
    3 (_beta_matrix), for the frame with unit columns at the point: a
    constant column scaling maps b^j to alpha_j^2 b^j and changes no count.
    The series are built at the first point alone, with conn's L there:
    the frame of order 4, the operator of r of order 4 and Gamma of order 3.
    Coefficient l enters as the unit series e_l: r_d(e_l) is row l of the
    operator, and a product f e_l is column l of f's multiplication matrix,
    gathered through _quotient.

    The algebraic part A is solved, not carried.  Complete pivoting on its
    value A_0 (_complete_pivots) gives its rank r at the point, and
    b^piv = -A[rows, piv]^-1 A[rows, rest] b^rest, as series, is the map T
    from the n - r free components to b (one solve on the multiplication
    matrices, which are block lower triangular).  Every algebraic row times
    T must vanish, to tol times max(max |A|, 1); a row left, as where A_0
    vanishes but its derivatives do not, raises
    InconclusiveVanishingError.  One SVD of the column-equilibrated PDE
    rows times T (60 x 40 at n = 3 and r = 1) gives the solution jets.
    Their null basis is mapped back through T to b and read in the
    coordinates of the column-equilibrated PDE and algebraic rows together
    (a column of zeros at weight 1), where it is orthonormalized; in the
    reduced coordinates, or in b's own, the ranks below misread.  The
    ranks of its degree <= k projections (dims) and of each component's
    coefficients below the top degree (support) come from one batched SVD.

    A pivot over 1 + max |A_0|, a singular value of the PDE rows relative
    to the largest, and one of the orthonormal null basis's projections
    (relative to 1) counts above 10 tol and not below tol,
    tol = JET_RANK_TOL; one in between raises
    InconclusiveVanishingError."""
    tol = JET_RANK_TOL
    order = 3  # dims d_0..d_2: degrees below the highest, which no PDE row closes
    n, size, low = conn.n, _size(conn.n, order), _size(conn.n, order - 1)
    R = _frame_taylor(conn.spec, conn.points[:1], order + 1)
    D = _frame_operator(R, order + 1)
    # the frame with columns r_j / rho_j, rho_j = |R_j| at the point:
    # Gamma[i,j,k] scales by rho_k / (rho_i rho_j) and r_d by 1 / rho_d
    w = 1.0 / np.linalg.norm(conn.R[0], axis=0)
    G = _gamma_series(R, conn.L[:1], D) * (w[:, None, None] * w[:, None] / w)
    c = G - G.transpose(0, 2, 1, 3)
    Q = _quotient(n, order)

    def product(f: np.ndarray) -> np.ndarray:
        """(..., k, l): coefficient k of the series f (..., size) times e_l."""
        return np.concatenate([f, np.zeros(f.shape[:-1] + (1,))], axis=-1)[..., Q]

    A = product(_beta_matrix(G.coef, c.coef)[0])  # (row, component, k, l)
    _, (i, j) = _index_arrays(n)
    X, Y = (product(f.coef[0])[:, :low] for f in _beta_pde_coefficients(G, c, i, j))
    dr = w[:, None, None] * D[0, :, :size, :low]  # r_d(e_l)[k], (d, l, k)
    pairs = np.arange(len(i))
    pde = np.zeros((len(i), low, n, size))
    pde[pairs, :, j] = dr[i].transpose(0, 2, 1) - X
    pde[pairs, :, i] = Y
    # rows (row, coefficient k) by columns (component, coefficient l)
    pde, alg = (m.reshape(-1, n * size) for m in (pde, A.transpose(0, 2, 1, 3)))
    rows, piv, pivots = _complete_pivots(A[..., 0, 0], tol)
    rest = [a for a in range(n) if a not in piv]
    # T maps the coefficients of b^rest to those of b: the identity on rest,
    # and b^piv = -A[rows, piv]^-1 A[rows, rest] b^rest as series on piv
    T = np.zeros((n, size, len(rest), size))
    T[rest, :, range(len(rest))] = np.eye(size)
    if piv:
        width = len(piv) * size
        P = A[rows][:, piv + rest].transpose(0, 2, 1, 3).reshape(width, n * size)
        T[piv] = -np.linalg.solve(P[:, :width], P[:, width:]).reshape(
            len(piv), size, len(rest), size)
    T = T.reshape(n * size, -1)
    left = float(np.abs(alg @ T).max(initial=0.0))
    if left > tol * max(float(np.abs(alg).max(initial=0.0)), 1.0):
        raise InconclusiveVanishingError(
            f"beta algebraic rows left after elimination: {left:.3e} at rank {len(piv)}")
    reduced = pde @ T
    norms = np.linalg.norm(reduced, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    _, s, vt = np.linalg.svd(reduced / norms, full_matrices=False)
    s = s / s[:1]
    # the null basis mapped back through T to b, in the coordinates of the
    # column-equilibrated [PDE; algebraic] rows, and orthonormalized by the
    # left vectors of an SVD, not by np.linalg.qr: qr's LAPACK routine would
    # be paged in for this one call and raise the peak resident set
    weights = np.hypot(np.linalg.norm(pde, axis=0), np.linalg.norm(alg, axis=0))
    weights = np.where(weights > 0, weights, 1.0)[:, None]
    null = (T @ (vt[int((s > 10 * tol).sum()):] / norms).T) * weights
    null = np.linalg.svd(null, full_matrices=False)[0].T.reshape(-1, n, size)
    # the degree <= k projections and each component's coefficients below
    # the top degree, zero-padded into one batch whose ranks are read at once
    blocks = np.zeros((order + n, len(null), n * low))
    for k in range(order):
        cols = n * _size(n, k)
        blocks[k, :, :cols] = null[..., : _size(n, k)].reshape(len(null), cols)
    blocks[order:, :, :low] = null[..., :low].transpose(1, 0, 2)
    sv = np.linalg.svd(blocks, compute_uv=False)
    ranks = (sv > 10 * tol).sum(axis=-1)
    s = np.concatenate([pivots, s, sv.ravel()])
    dead = s[(s >= tol) & (s <= 10 * tol)]
    if dead.size:
        raise InconclusiveVanishingError("beta jet singular value", float(dead[0]), tol)
    return JetCount(tuple(int(d) for d in ranks[:order]), int((ranks[order:] > 0).sum()),
                    float(s[s > 10 * tol].min()), float(s[s < tol].max(initial=0.0)))


def _complete_pivots(A0: np.ndarray, tol: float) -> tuple:
    """The pivot rows, pivot columns and pivot sizes of Gaussian elimination
    with complete pivoting on A0 (rows, n): each pivot over 1 + max |A0|
    counts above 10 tol and ends the elimination below tol (the first such
    pivot is returned with the rest); one in between raises
    InconclusiveVanishingError."""
    work, scale = A0.copy(), 1.0 + float(np.abs(A0).max(initial=0.0))
    rows, cols, sizes = [], [], []
    for _ in range(min(A0.shape)):
        i, j = np.unravel_index(int(np.argmax(np.abs(work))), work.shape)
        sizes.append(abs(float(work[i, j])) / scale)
        if sizes[-1] < tol:
            break
        if sizes[-1] <= 10 * tol:
            raise InconclusiveVanishingError("beta algebraic pivot", sizes[-1], tol)
        rows.append(int(i))
        cols.append(int(j))
        work -= np.outer(work[:, j] / work[i, j], work[i])
        work[i], work[:, j] = 0.0, 0.0
    return rows, cols, np.array(sizes)


def check_rank_duality_n3(conn: ConnectionEval) -> float:
    """Entrywise residual of A_lambda = D A_beta^T D with D = diag(1,-1,1)."""
    if conn.n != 3:
        raise ValueError("rank duality identity is specific to n=3")
    a_lam = lambda_algebraic(conn)
    a_bet = beta_algebraic(conn)
    D = np.diag([1.0, -1.0, 1.0])
    transformed = np.einsum("ab,mcb,cd->mad", D, a_bet, D)
    return float(np.abs(a_lam - transformed).max())


# ---------------------------------------------------------------------------
# Residual records
# ---------------------------------------------------------------------------


@dataclass
class ResidualRecord:
    kind: str
    values: np.ndarray  # (m, n) the candidate's fields at conn.points
    pde_labels: list
    alg_labels: list
    pde_raw: np.ndarray  # (m, n(n-1))
    alg_raw: np.ndarray  # (m, n_alg)
    pde_scaled: np.ndarray
    alg_scaled: np.ndarray

    @property
    def families(self) -> dict:
        """The largest scaled residual of each family; 0.0 for an empty one."""
        return {
            f"{self.kind}-{name}": float(arr.max()) if arr.size else 0.0
            for name, arr in (("pde", self.pde_scaled), ("alg", self.alg_scaled))
        }

    @property
    def max_scaled(self) -> float:
        return max(self.families.values())

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


def _beta_pde_coefficients(G, c, i, j) -> tuple:
    """X = Gamma[i,j,j] + c[i,j,j] and Y = Gamma[j,j,i] over the ordered
    pairs (i, j): r_i(s^j) = s^j X - s^i Y in the length system.  G and c
    (m, i, j, k) are arrays or Taylor fields."""
    return G[:, i, j, j] + c[:, i, j, j], G[:, j, j, i]


def _residual_record(conn: ConnectionEval, kind: str, vals: np.ndarray,
                     grads: np.ndarray) -> ResidualRecord:
    """The residual record of a candidate of either system from one run of
    its tape at conn.points (eval_candidate's values and gradients); the
    systems differ only in the PDE right-hand side of r_i(s^j) and in the
    algebraic part.  Private, so that a tracer of the public functions
    counts its time in beta_residual and lambda_residual."""
    G, c = conn.Gamma, conn.c
    _, (i, j) = _index_arrays(conn.n)
    deriv = np.einsum("mja,mai->mji", grads, conn.R)[:, j, i]  # r_i(s^j)
    if kind == "beta":
        X, Y = _beta_pde_coefficients(G, c, i, j)
        t1, t2 = vals[:, j] * X, vals[:, i] * Y
        rhs, pde_scale = t1 - t2, 1.0 + np.abs(deriv) + np.abs(t1) + np.abs(t2)
        alg = beta_algebraic(conn)
    else:
        rhs = G[:, j, i, j] * (vals[:, i] - vals[:, j])
        pde_scale = 1.0 + np.abs(deriv) + np.abs(rhs)
        alg = lambda_algebraic(conn)
    pde_raw = deriv - rhs
    alg_raw = np.einsum("mrk,mk->mr", alg, vals)
    alg_scale = 1.0 + np.abs(alg * vals[:, None, :]).sum(axis=2)
    return ResidualRecord(
        kind=kind,
        values=vals,
        pde_labels=[f"{kind}-pde r{a+1}({kind[0]}{b+1})" for a, b in _ordered_pairs(conn.n)],
        alg_labels=[f"{kind}-alg ({a+1},{b+1},{d+1})" for a, b, d in algebraic_triples(conn.n)],
        pde_raw=pde_raw,
        alg_raw=alg_raw,
        pde_scaled=np.abs(pde_raw) / pde_scale,
        alg_scaled=np.abs(alg_raw) / alg_scale,
    )


def beta_residual(conn: ConnectionEval, cand: BetaCandidate) -> ResidualRecord:
    return _residual_record(conn, "beta", *eval_candidate(cand.tape, conn.points))


def lambda_residual(conn: ConnectionEval, cand: LambdaCandidate) -> ResidualRecord:
    return _residual_record(conn, "lambda", *eval_candidate(cand.tape, conn.points))


def candidate_residual(conn: ConnectionEval, kind: str, cand) -> ResidualRecord:
    """The residual record of a 'beta' or 'lambda' candidate.  The table is
    built per call, so a wrapper installed on beta_residual or
    lambda_residual after import still sees the call."""
    return {"beta": beta_residual, "lambda": lambda_residual}[kind](conn, cand)


# ---------------------------------------------------------------------------
# Cross-system identity and convexity
# ---------------------------------------------------------------------------


def _speed_gaps(lvals: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """(l^j - l^k, l^k - l^i, l^i - l^j), each (m,), from speeds (m, n)."""
    return np.stack([lvals[:, j] - lvals[:, k], lvals[:, k] - lvals[:, i], lvals[:, i] - lvals[:, j]])


def coincident_speeds(lvals: np.ndarray) -> Optional[tuple]:
    """Where a speed candidate's values (m, n) fail strict hyperbolicity:
    for the first triple i < j < k whose speeds come within
    1e-8 max(1, max |l|) of each other at some sample, (sample, gap) with
    gap the triple's smallest |l^a - l^b| and sample where it is; None when
    every triple's speeds are apart at every sample (always for n < 3,
    where the eigenvalue-gap identity has no term)."""
    floor = 1e-8 * max(float(np.abs(lvals).max()), 1.0)
    for i, j, k in itertools.combinations(range(lvals.shape[1]), 3):
        gaps = np.abs(_speed_gaps(lvals, i, j, k))
        min_gap = float(gaps.min())
        if min_gap < floor:
            return int(np.argmin(gaps.min(axis=0))), min_gap
    return None


def sevennec_identity(conn: ConnectionEval, bvals: np.ndarray, lvals: np.ndarray) -> float:
    """Scaled residual of the cyclic identity

        c[j,k,i] b^i / (l^j - l^k) + c[k,i,j] b^j / (l^k - l^i)
            + c[i,j,k] b^k / (l^i - l^j) = 0     for i < j < k,

    which couples verified candidates of the two systems under strict
    hyperbolicity, from their values (m, n) at conn.points.  Speeds that
    coincide (coincident_speeds) raise CoincidentEigenvaluesError."""
    hit = coincident_speeds(lvals)
    if hit is not None:
        raise CoincidentEigenvaluesError(conn.points[hit[0]], hit[1])
    worst = 0.0
    for i, j, k in itertools.combinations(range(conn.n), 3):
        gaps = _speed_gaps(lvals, i, j, k)
        t1 = conn.c[:, j, k, i] * bvals[:, i] / gaps[0]
        t2 = conn.c[:, k, i, j] * bvals[:, j] / gaps[1]
        t3 = conn.c[:, i, j, k] * bvals[:, k] / gaps[2]
        res = np.abs(t1 + t2 + t3) / (1.0 + np.abs(t1) + np.abs(t2) + np.abs(t3))
        worst = max(worst, float(res.max()))
    return worst


def convexity_classify(vals: np.ndarray) -> dict:
    """Sign classification of a verified length candidate from its values
    (m, n) at the samples, at tol = 1e-9 max(1, |b|).

    strict_entropy: every component positive at every sample;
    entropy: components nonnegative up to tol (degenerate directions allowed);
    extension_only: definite sign pattern with a negative component;
    indefinite: some component changes sign across the sample set.
    """
    scale = max(1.0, float(np.abs(vals).max()))
    lo = vals.min(axis=0)
    hi = vals.max(axis=0)
    cut = 1e-9 * scale
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
