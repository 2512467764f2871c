"""Executable decision trees for the n=3 solution-set taxonomy.

The classifier determines, from numerically tested coefficient-vanishing
conditions, how large the solution set of the length ("beta") system is,
and labels the speed ("lambda") system by the rank and sparsity pattern of
its algebraic part.  Case labels:

  lambda_case: I (rank 0), IIa / IIb (rank 1, three resp. two unknowns in
  the constraint), III (rank 2), not_n3.

  beta_case for rich frames with a rank-1 algebraic part: rich-1 (trivial
  only), rich-2 (one free function), rich-3 (two free functions).

  beta_case for non-rich frames with a rank-1 algebraic part: nr-1 ...
  nr-4c, keyed by how many components enter the unique algebraic
  constraint and by the rank of the associated compatibility system.

Vanishing verdicts use a two-threshold scheme: a scaled magnitude below
tol counts as zero, above 10*tol as nonzero, and anything in between
raises InconclusiveVanishingError rather than silently guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartDomainError,
    InconclusiveVanishingError,
    NormalizationFailedError,
)
from .geometry import (
    ConnectionEval,
    chart_forward,
    eval_connection,
    is_rich,
)
from .systems import beta_algebraic, generic_rank, lambda_algebraic

FREEDOM = {
    "unconstrained": "3 arbitrary functions of 1 variable",
    "rich-1": "only the trivial solution",
    "rich-2": "1 arbitrary function of 1 variable",
    "rich-3": "2 arbitrary functions of 1 variable",
    "nr-1": "only the trivial solution",
    "nr-2": "1 arbitrary function of 1 variable",
    "nr-3a": "2 arbitrary functions of 1 variable",
    "nr-3b": "1 arbitrary constant",
    "nr-4a": "1 arbitrary function of 1 variable and 1 arbitrary constant",
    "nr-4b": "2 arbitrary constants",
    "nr-4c": "1 arbitrary constant",
    "rank2-unclassified": "not covered by the rank-1 taxonomy",
    "not_n3": "",
}

CLASSIFY_TOL = 1e-6  # vanishing tolerance for classifier coefficients
_FD_STEP = 1e-4


@dataclass
class ClassificationReport:
    n: int
    richness: bool
    rank_beta: int
    rank_lambda: int
    lambda_case: str
    beta_case: str
    freedom: str
    trace: list = field(default_factory=list)
    permutation: tuple = (0, 1, 2)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "richness": self.richness,
            "rank_beta": self.rank_beta,
            "rank_lambda": self.rank_lambda,
            "lambda_case": self.lambda_case,
            "beta_case": self.beta_case,
            "freedom": self.freedom,
            "permutation": list(self.permutation),
            "trace": [
                {"condition": c, "value": float(v), "verdict": s} for c, v, s in self.trace
            ],
        }


class _Trace(list):
    def note(self, condition: str, value: float, verdict: str):
        self.append((condition, float(value), verdict))


def _vanishes(name: str, value: float, tol: float, trace: _Trace) -> bool:
    """Two-threshold vanishing verdict on a scaled magnitude."""
    if value < tol:
        trace.note(name, value, "zero")
        return True
    if value > 10 * tol:
        trace.note(name, value, "nonzero")
        return False
    raise InconclusiveVanishingError(name, value, tol)


# ---------------------------------------------------------------------------
# lambda classification
# ---------------------------------------------------------------------------


def _row_activity(matrices: np.ndarray, tol: float, trace: _Trace, tag: str) -> list:
    """Which unknowns carry nonzero coefficients in the (rank-1) row space.

    Activity is judged per sample (the constraint direction may rotate with
    the base point) and aggregated by the maximum over samples."""
    m = matrices.shape[0]
    activity = np.zeros(matrices.shape[2])
    for p in range(m):
        mat = matrices[p]
        norms = np.linalg.norm(mat, axis=1)
        if norms.max() <= 0:
            continue
        _, svals, vt = np.linalg.svd(mat)
        v = np.abs(vt[0])
        activity = np.maximum(activity, v / v.max())
    active = []
    for i, a in enumerate(activity):
        active.append(not _vanishes(f"{tag} coefficient of unknown {i + 1}", float(a), tol, trace))
    return active


def classify_lambda_n3(conn: ConnectionEval, tol: float = CLASSIFY_TOL) -> tuple:
    """Case label for the speed system: rank 0 -> I; rank 1 -> IIa when all
    three unknowns enter the constraint, IIb when exactly two; rank 2 -> III."""
    trace = _Trace()
    sys = lambda_algebraic(conn)
    scale = 1.0 + np.abs(sys.matrix).max()
    rank = generic_rank(sys.matrix / scale)
    trace.note("lambda algebraic rank", rank, "info")
    if rank == 0:
        return "I", rank, trace
    if rank == 2:
        return "III", rank, trace
    active = _row_activity(sys.matrix, tol, trace, "lambda constraint")
    count = sum(active)
    if count == 3:
        return "IIa", rank, trace
    if count == 2:
        return "IIb", rank, trace
    trace.note("lambda constraint active count", count, "degenerate sampling")
    return "IIb", rank, trace


# ---------------------------------------------------------------------------
# permuted views of a connection
# ---------------------------------------------------------------------------


class _PermView:
    """Connection components relabeled by a permutation, with 1-based index
    accessors so the classifier code reads like the underlying formulas.

    Derivatives of the Christoffel symbols (and hence of the constraint
    coefficients alpha) are exact; only derivatives of already
    alpha-derivative-bearing coefficients need finite differencing.
    """

    def __init__(self, conn: ConnectionEval, perm: tuple):
        self.conn = conn
        self.perm = perm

    def G(self, i: int, j: int, k: int) -> np.ndarray:
        p = self.perm
        return self.conn.Gamma[:, p[i - 1], p[j - 1], p[k - 1]]

    def C(self, i: int, j: int, k: int) -> np.ndarray:
        p = self.perm
        return self.conn.c[:, p[i - 1], p[j - 1], p[k - 1]]

    def dG(self, d: int, i: int, j: int, k: int) -> np.ndarray:
        """r_d(Gamma[i,j,k]) in permuted labels (exact)."""
        p = self.perm
        return self.conn.dGamma[:, p[d - 1], p[i - 1], p[j - 1], p[k - 1]]

    def dC(self, d: int, i: int, j: int, k: int) -> np.ndarray:
        return self.dG(d, i, j, k) - self.dG(d, j, i, k)

    # constraint coefficients beta^1 = alpha2 beta^2 + alpha3 beta^3
    def alpha2(self) -> np.ndarray:
        return -self.G(3, 1, 2) / self.C(3, 2, 1)

    def alpha3(self) -> np.ndarray:
        return self.G(2, 1, 3) / self.C(3, 2, 1)

    def dalpha2(self, d: int) -> np.ndarray:
        c = self.C(3, 2, 1)
        return -(self.dG(d, 3, 1, 2) * c - self.G(3, 1, 2) * self.dC(d, 3, 2, 1)) / c**2

    def dalpha3(self, d: int) -> np.ndarray:
        c = self.C(3, 2, 1)
        return (self.dG(d, 2, 1, 3) * c - self.G(2, 1, 3) * self.dC(d, 3, 2, 1)) / c**2


def _displaced_views(conn: ConnectionEval, perm: tuple, h: float):
    """Views at points displaced along each (unit) frame direction, plus the
    field norms, for central finite differences r_d(f)."""
    spec = conn.spec
    out = []
    for d in range(3):
        col = conn.R[:, :, perm[d]]
        norm = np.linalg.norm(col, axis=1)
        unit = col / norm[:, None]
        plus = _PermView(eval_connection(spec, conn.points + h * unit), perm)
        minus = _PermView(eval_connection(spec, conn.points - h * unit), perm)
        out.append((plus, minus, norm))
    return out


def _fd(build, views, d: int, h: float) -> np.ndarray:
    plus, minus, norm = views[d - 1]
    diff = (build(plus) - build(minus)) / (2 * h)
    return diff * norm.reshape((-1,) + (1,) * (diff.ndim - 1))


# ---------------------------------------------------------------------------
# index normalization
# ---------------------------------------------------------------------------


def normalize_indices(conn: ConnectionEval, tol: float = CLASSIFY_TOL) -> list:
    """Permutations (new -> old) under which c[3,2,1] is bounded away from
    zero at every sample.  Permutations that additionally keep Gamma[3,2,1]
    nonvanishing (the preferred normalization) are ranked first; within each
    group the order is lexicographic.  c[3,2,1] != 0 is the only condition
    the downstream formulas divide by."""
    scale = conn.gamma_scale()
    preferred, fallback = [], []
    for perm in itertools.permutations(range(3)):
        view = _PermView(conn, perm)
        cmin = float((np.abs(view.C(3, 2, 1)) / scale).min())
        gmin = float((np.abs(view.G(3, 2, 1)) / scale).min())
        if cmin > 10 * tol:
            (preferred if gmin > 10 * tol else fallback).append(perm)
    found = preferred + fallback
    if not found:
        raise NormalizationFailedError(
            "no index permutation makes c[3,2,1] nonvanishing at the sample set"
        )
    return found


# ---------------------------------------------------------------------------
# rich frames, rank-1 algebraic part
# ---------------------------------------------------------------------------


def _classify_rich_rank1_from_Z(Z: np.ndarray, tol: float, trace: _Trace) -> tuple:
    """Decision tree on chart-space connection samples Z (m,3,3,3).

    Precondition: rank-1 pattern, i.e. exactly one of the cross families
    Z[1,2,*3], Z[0,2,*2], Z[0,1,*3] is nonvanishing.  Returns (case,
    permutation) with the permutation arranging Z[2,3,1] != 0.
    """
    scale = 1.0 + np.abs(Z).max()
    cross = {}
    for perm in itertools.permutations(range(3)):
        cross[perm] = float(np.abs(Z[:, perm[1], perm[2], perm[0]]).max() / scale)
    chosen = None
    for perm in itertools.permutations(range(3)):
        others = [
            q
            for q in itertools.permutations(range(3))
            if q[0] != perm[0]
        ]
        if cross[perm] > 10 * tol and all(cross[q] < tol for q in others):
            chosen = perm
            break
    if chosen is None:
        raise InconclusiveVanishingError(
            "rank-1 cross pattern of the chart-space connection", max(cross.values()), tol
        )
    p = chosen
    trace.note(f"chart cross component Z[{p[1]+1},{p[2]+1},{p[0]+1}]", cross[p], "nonzero")

    def zmag(a, b, c):
        return float(np.abs(Z[:, p[a - 1], p[b - 1], p[c - 1]]).max() / scale)

    z112 = _vanishes("Z[1,1,2]", zmag(1, 1, 2), tol, trace)
    z113 = _vanishes("Z[1,1,3]", zmag(1, 1, 3), tol, trace)
    if not z112 and not z113:
        return "rich-1", p
    if not z112 and z113:
        if _vanishes("Z[2,2,3]", zmag(2, 2, 3), tol, trace):
            return "rich-2", p
        return "rich-1", p
    if z112 and not z113:
        if _vanishes("Z[3,3,2]", zmag(3, 3, 2), tol, trace):
            return "rich-2", p
        return "rich-1", p
    return "rich-3", p


def classify_beta_rich_rank1(conn: ConnectionEval, tol: float = CLASSIFY_TOL) -> tuple:
    """Rich frame with rank-1 algebraic part: classify via the chart-space
    connection Z[i,j,k](w) = Gamma[i,j,k](u(w)) at the images w of the
    u-samples under the frame's chart, which is conn.Gamma itself.  The
    samples must lie in the chart's domain.  Richness is the caller's
    verdict (classify)."""
    chart = conn.spec.chart
    if chart is None:
        raise ChartDomainError("rich rank-1 classification requires a chart")
    chart_forward(chart, conn.points)  # ChartDomainError off its domain
    trace = _Trace()
    trace.note("chart symmetry residual", conn.symmetry_residual(), "info")
    case, perm = _classify_rich_rank1_from_Z(conn.Gamma, tol, trace)
    return case, perm, trace


# ---------------------------------------------------------------------------
# non-rich frames, rank-1 algebraic part: coefficient machinery
# ---------------------------------------------------------------------------


def _phi_psi(view: _PermView) -> tuple:
    """Coefficient arrays phi[i,s], psi[i,s] of r_i(b^s) = phi b^2 + psi b^3
    for the all-three-appear case; i in 1..3, s in {2,3}.  Shapes (m, 3, 2)."""
    a2, a3 = view.alpha2(), view.alpha3()
    da2 = {d: view.dalpha2(d) for d in (2, 3)}
    da3 = {d: view.dalpha3(d) for d in (2, 3)}
    G, C = view.G, view.C
    m = a2.shape[0]
    phi = np.zeros((m, 3, 2))
    psi = np.zeros((m, 3, 2))
    # s = 2 column 0; s = 3 column 1
    phi[:, 0, 0] = G(1, 2, 2) + C(1, 2, 2) - a2 * G(2, 2, 1)
    psi[:, 0, 0] = -a3 * G(2, 2, 1)
    phi[:, 1, 0] = (a2 * (G(2, 1, 1) + C(2, 1, 1)) - da2[2] + a3 * G(3, 3, 2) - G(1, 1, 2)) / a2
    psi[:, 1, 0] = (a3 * (G(2, 1, 1) + C(2, 1, 1) - G(2, 3, 3) - C(2, 3, 3)) - da3[2]) / a2
    phi[:, 2, 0] = G(3, 2, 2) + C(3, 2, 2)
    psi[:, 2, 0] = -G(2, 2, 3)
    phi[:, 0, 1] = -a2 * G(3, 3, 1)
    psi[:, 0, 1] = G(1, 3, 3) + C(1, 3, 3) - a3 * G(3, 3, 1)
    phi[:, 1, 1] = -G(3, 3, 2)
    psi[:, 1, 1] = G(2, 3, 3) + C(2, 3, 3)
    phi[:, 2, 1] = (a2 * (G(3, 1, 1) + C(3, 1, 1) - G(3, 2, 2) - C(3, 2, 2)) - da2[3]) / a3
    psi[:, 2, 1] = (a3 * (G(3, 1, 1) + C(3, 1, 1)) - da3[3] + a2 * G(2, 2, 3) - G(1, 1, 3)) / a3
    return phi, psi


def _case_all_three_rows(conn, perm):
    """Six integrability rows A b^2 + B b^3 = 0 of the fully-prescribed
    system, via commutators evaluated with exact first-level coefficients
    and single-level finite differences of those coefficients."""
    view = _PermView(conn, perm)
    phi, psi = _phi_psi(view)
    views = _displaced_views(conn, perm, _FD_STEP)

    def phi_of(v):
        return _phi_psi(v)[0]

    def psi_of(v):
        return _phi_psi(v)[1]

    dphi = {d: _fd(phi_of, views, d, _FD_STEP) for d in (1, 2, 3)}
    dpsi = {d: _fd(psi_of, views, d, _FD_STEP) for d in (1, 2, 3)}
    m = phi.shape[0]
    rows = []
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        csum_phi = np.zeros((m, 2))
        csum_psi = np.zeros((m, 2))
        for k in (1, 2, 3):
            cc = view.C(i, j, k)[:, None]
            csum_phi += cc * phi[:, k - 1, :]
            csum_psi += cc * psi[:, k - 1, :]
        for s_col in (0, 1):
            a_row = (
                dphi[i][:, j - 1, s_col]
                - dphi[j][:, i - 1, s_col]
                + phi[:, j - 1, s_col] * phi[:, i - 1, 0]
                + psi[:, j - 1, s_col] * phi[:, i - 1, 1]
                - phi[:, i - 1, s_col] * phi[:, j - 1, 0]
                - psi[:, i - 1, s_col] * phi[:, j - 1, 1]
                - csum_phi[:, s_col]
            )
            b_row = (
                dpsi[i][:, j - 1, s_col]
                - dpsi[j][:, i - 1, s_col]
                + phi[:, j - 1, s_col] * psi[:, i - 1, 0]
                + psi[:, j - 1, s_col] * psi[:, i - 1, 1]
                - phi[:, i - 1, s_col] * psi[:, j - 1, 0]
                - psi[:, i - 1, s_col] * psi[:, j - 1, 1]
                - csum_psi[:, s_col]
            )
            rows.append((a_row, b_row, f"pair ({i},{j}) unknown b{s_col + 2}"))
    return view, phi, psi, rows


def _stack_rows(rows) -> np.ndarray:
    A = np.stack([r[0] for r in rows], axis=1)
    B = np.stack([r[1] for r in rows], axis=1)
    return np.stack([A, B], axis=2)  # (m, nrows, 2)


def _row_rank_and_nulls(rows, tol, trace, tag):
    """Generic rank (0/1/2) of the per-sample 2-column row stacks, plus the
    per-sample unit null directions when the rank is 1 (the null direction
    may rotate with the base point)."""
    stack = _stack_rows(rows)
    scale = 1.0 + np.abs(stack).max()
    stack = stack / scale
    svals = np.linalg.svd(stack, compute_uv=False)  # (m, 2)
    s1 = float(svals[:, 0].max())
    s2 = float(svals[:, 1].max())
    trace.note(f"{tag} leading singular value", s1, "info")
    trace.note(f"{tag} second singular value", s2, "info")
    if _vanishes(f"{tag} rank>=1 indicator", s1, tol, trace):
        return 0, None
    if _vanishes(f"{tag} rank=2 indicator", s2, tol, trace):
        _, _, vt = np.linalg.svd(stack)
        nulls = vt[:, -1, :]
        nulls = nulls / np.linalg.norm(nulls, axis=1)[:, None]
        return 1, nulls
    return 2, None


_RATIO_STEP = 1e-3
_RATIO_TOL = 3e-4


def _null_branch(nulls: np.ndarray, tol: float, trace: _Trace) -> str:
    """Which component of the rank-1 null direction vanishes: 'first'
    (b^2 = 0 family), 'second' (b^3 = 0 family), or 'mixed'."""
    p_rel = float(np.abs(nulls[:, 0]).max())
    q_rel = float(np.abs(nulls[:, 1]).max())
    trace.note("null direction |b2-component|", p_rel, "info")
    trace.note("null direction |b3-component|", q_rel, "info")
    if p_rel < 100 * tol:
        return "first"
    if q_rel < 100 * tol:
        return "second"
    return "mixed"


# ---------------------------------------------------------------------------
# case (i): all three components appear in the constraint
# ---------------------------------------------------------------------------


def _phi_ratio_field(spec, perm):
    """Callable giving the per-point solution-direction ratio Phi = b^2/b^3
    from the null space of the integrability rows."""

    def ratio(points: np.ndarray) -> np.ndarray:
        _, _, _, rows = _case_all_three_rows(eval_connection(spec, points), perm)
        stack = _stack_rows(rows)
        stack = stack / (1.0 + np.abs(stack).max())
        _, _, vt = np.linalg.svd(stack)
        nulls = vt[:, -1, :]
        return nulls[:, 0] / nulls[:, 1]

    return ratio


def _directional_fd_of_field(field, conn: ConnectionEval, perm, h: float):
    """r_d(field) for d = 1..3 by central differences along unit frame
    directions; field maps point batches to per-point arrays."""
    out = {}
    for d in (1, 2, 3):
        col = conn.R[:, :, perm[d - 1]]
        norm = np.linalg.norm(col, axis=1)
        unit = col / norm[:, None]
        fp = field(conn.points + h * unit)
        fm = field(conn.points - h * unit)
        out[d] = (fp - fm) / (2 * h) * norm
    return out


def _case_all_three(conn, perm, tol, trace):
    view, phi, psi, rows = _case_all_three_rows(conn, perm)
    rank, nulls = _row_rank_and_nulls(rows, tol, trace, "integrability rows")
    if rank == 0:
        return "nr-4b"
    if rank == 2:
        return "nr-1"
    branch = _null_branch(nulls, tol, trace)
    coef_scale = 1.0 + np.abs(phi).max() + np.abs(psi).max()
    if branch == "first":
        # b^2 == 0 family: its source coefficients psi[i,2] must vanish
        ok = True
        for i in (1, 2, 3):
            mag = float(np.abs(psi[:, i - 1, 0]).max()) / coef_scale
            ok = _vanishes(f"psi[{i},2]", mag, tol, trace) and ok
        return "nr-3b" if ok else "nr-1"
    if branch == "second":
        ok = True
        for i in (1, 2, 3):
            mag = float(np.abs(phi[:, i - 1, 1]).max()) / coef_scale
            ok = _vanishes(f"phi[{i},3]", mag, tol, trace) and ok
        return "nr-3b" if ok else "nr-1"
    # mixed: b^2 = Phi b^3 with Phi the per-point null ratio
    ratio = _phi_ratio_field(conn.spec, perm)
    Phi = nulls[:, 0] / nulls[:, 1]
    dPhi = _directional_fd_of_field(ratio, conn, perm, _RATIO_STEP)
    worst = 0.0
    for i in (1, 2, 3):
        implied = (
            phi[:, i - 1, 0] * Phi
            + psi[:, i - 1, 0]
            - Phi * (phi[:, i - 1, 1] * Phi + psi[:, i - 1, 1])
        )
        theta = dPhi[i] - implied
        s = 1.0 + np.abs(dPhi[i]) + np.abs(implied)
        worst = max(worst, float((np.abs(theta) / s).max()))
    compatible = _vanishes("Phi-branch consistency", worst, _RATIO_TOL, trace)
    if not compatible:
        return "nr-1"
    a2, a3 = view.alpha2(), view.alpha3()
    deg = float(
        (np.abs(a2 * Phi + a3) / (1.0 + np.abs(a2 * Phi) + np.abs(a3))).max()
    )
    if _vanishes("b1 = (alpha2 Phi + alpha3) b3 degeneracy", deg, _RATIO_TOL, trace):
        return "nr-3b"
    return "nr-4c"


# ---------------------------------------------------------------------------
# case (ii): exactly two components appear (alpha2 == 0, alpha3 != 0)
# ---------------------------------------------------------------------------


def _coef_bundle_case2(view: _PermView) -> np.ndarray:
    """Stacked coefficient fields (m, 10): a1, a3, b1, b3, q1, q2, q3, p2,
    A0, B0 of the reduced system

        r_1(b2) = a1 b2 + b1 b3        r_1(b3) = q1 b3
        r_3(b2) = a3 b2 + b3 b3?                      (b3 coefficient field)
        r_2(b3) = p2 b2 + q2 b3        r_3(b3) = q3 b3
        0 = A0 b2 + B0 b3
    """
    G, C = view.G, view.C
    a3v = view.alpha3()
    da3 = {d: view.dalpha3(d) for d in (2, 3)}
    a1 = G(1, 2, 2) + C(1, 2, 2)
    a3 = G(3, 2, 2) + C(3, 2, 2)
    b1 = -a3v * G(2, 2, 1)
    b3 = -G(2, 2, 3)
    q1 = G(1, 3, 3) + C(1, 3, 3) - a3v * G(3, 3, 1)
    q2 = G(2, 3, 3) + C(2, 3, 3)
    q3 = (a3v * (G(3, 1, 1) + C(3, 1, 1)) - da3[3] - G(1, 1, 3)) / a3v
    p2 = -G(3, 3, 2)
    A0 = a3v * G(3, 3, 2) - G(1, 1, 2)
    B0 = a3v * (G(2, 1, 1) + C(2, 1, 1) - G(2, 3, 3) - C(2, 3, 3)) - da3[2]
    return np.stack([a1, a3, b1, b3, q1, q2, q3, p2, A0, B0], axis=1)


_C2 = {name: idx for idx, name in enumerate(
    ["a1", "a3", "b1", "b3", "q1", "q2", "q3", "p2", "A0", "B0"]
)}


def _case_two_rows(conn, perm, trace):
    view = _PermView(conn, perm)
    coef = _coef_bundle_case2(view)
    views = _displaced_views(conn, perm, _FD_STEP)
    dcoef = {d: _fd(_coef_bundle_case2, views, d, _FD_STEP) for d in (1, 2, 3)}

    def v(name):
        return coef[:, _C2[name]]

    def dv(d, name):
        return dcoef[d][:, _C2[name]]

    C = view.C
    c132 = float(np.abs(C(1, 3, 2)).max() / (1.0 + np.abs(conn.Gamma).max()))
    trace.note("c[1,3,2] (should vanish in this case)", c132, "info")
    rows = [(v("A0"), v("B0"), "constraint row")]
    rows.append((
        dv(1, "A0") + v("A0") * v("a1"),
        dv(1, "B0") + v("A0") * v("b1") + v("B0") * v("q1"),
        "r1 of constraint",
    ))
    rows.append((
        dv(3, "A0") + v("A0") * v("a3"),
        dv(3, "B0") + v("A0") * v("b3") + v("B0") * v("q3"),
        "r3 of constraint",
    ))
    rows.append((
        dv(1, "a3") - dv(3, "a1") - C(1, 3, 1) * v("a1") - C(1, 3, 3) * v("a3"),
        dv(1, "b3") + v("a3") * v("b1") + v("b3") * v("q1")
        - dv(3, "b1") - v("a1") * v("b3") - v("b1") * v("q3")
        - C(1, 3, 1) * v("b1") - C(1, 3, 3) * v("b3"),
        "[r1,r3] on b2",
    ))
    rows.append((
        dv(1, "p2") + v("p2") * v("a1") - v("q1") * v("p2") - C(1, 2, 2) * v("p2"),
        dv(1, "q2") - dv(2, "q1") + v("p2") * v("b1")
        - C(1, 2, 1) * v("q1") - C(1, 2, 2) * v("q2") - C(1, 2, 3) * v("q3"),
        "[r1,r2] on b3",
    ))
    rows.append((
        -C(1, 3, 2) * v("p2"),
        dv(1, "q3") - dv(3, "q1")
        - C(1, 3, 1) * v("q1") - C(1, 3, 2) * v("q2") - C(1, 3, 3) * v("q3"),
        "[r1,r3] on b3",
    ))
    rows.append((
        v("q3") * v("p2") - dv(3, "p2") - v("p2") * v("a3") - C(2, 3, 2) * v("p2"),
        dv(2, "q3") - dv(3, "q2") - v("p2") * v("b3")
        - C(2, 3, 1) * v("q1") - C(2, 3, 2) * v("q2") - C(2, 3, 3) * v("q3"),
        "[r2,r3] on b3",
    ))
    return coef, views, rows


def _constraint_ratio(coef: np.ndarray) -> np.ndarray:
    """A = b^3/b^2 from the constraint row A0 b^2 + B0 b^3 = 0."""
    return -coef[:, _C2["A0"]] / coef[:, _C2["B0"]]


def _acal_ratio_field(spec, perm):
    """Callable giving the per-point ratio A = b^3/b^2 from the null of the
    full compatibility rows (used when the constraint row vanishes)."""

    def from_rows(points):
        _, _, rows = _case_two_rows(eval_connection(spec, points), perm, _Trace())
        stack = _stack_rows(rows)
        stack = stack / (1.0 + np.abs(stack).max())
        _, _, vt = np.linalg.svd(stack)
        nulls = vt[:, -1, :]
        return nulls[:, 1] / nulls[:, 0]

    return from_rows


def _case_two(conn, perm, tol, trace):
    coef, views, rows = _case_two_rows(conn, perm, trace)
    rank, nulls = _row_rank_and_nulls(rows, tol, trace, "L system")
    if rank == 0:
        return "nr-4a"
    if rank == 2:
        return "nr-1"
    branch = _null_branch(nulls, tol, trace)

    def v(name):
        return coef[:, _C2[name]]

    cscale = 1.0 + float(np.abs(coef).max())
    if branch == "first":
        # b^2 == 0 family: source coefficients b1, b3 must vanish
        ok = True
        for name, cond in (("b1", "Gamma[2,2,1]"), ("b3", "Gamma[2,2,3]")):
            mag = float(np.abs(v(name)).max()) / cscale
            ok = _vanishes(f"{cond} source coefficient", mag, tol, trace) and ok
        return "nr-3b" if ok else "nr-1"
    if branch == "second":
        # b^3 == 0 family: source coefficient p2 = -Gamma[3,3,2] must vanish
        mag = float(np.abs(v("p2")).max()) / cscale
        return "nr-2" if _vanishes("Gamma[3,3,2] source coefficient", mag, tol, trace) else "nr-1"
    # mixed: b^3 = A b^2
    con_mag = float(
        np.abs(np.stack([v("A0"), v("B0")], axis=1)).max()
    ) / cscale
    exact = con_mag > 10 * tol
    trace.note("constraint row magnitude", con_mag, "exact ratio" if exact else "null ratio")
    if exact:
        # differentiated on the displaced views the rows already used
        def acal_of(view):
            return _constraint_ratio(_coef_bundle_case2(view))

        Acal = _constraint_ratio(coef)
        dA = {d: _fd(acal_of, views, d, _FD_STEP) for d in (1, 3)}
    else:
        Acal = nulls[:, 1] / nulls[:, 0]
        dA = _directional_fd_of_field(_acal_ratio_field(conn.spec, perm), conn, perm, _RATIO_STEP)
    worst = 0.0
    for i, (a_name, b_name, q_name) in (
        (1, ("a1", "b1", "q1")),
        (3, ("a3", "b3", "q3")),
    ):
        implied = v(q_name) * Acal - Acal * (v(a_name) + v(b_name) * Acal)
        theta = dA[i] - implied
        s = 1.0 + np.abs(dA[i]) + np.abs(implied)
        worst = max(worst, float((np.abs(theta) / s).max()))
    tol_branch = tol if exact else _RATIO_TOL
    if not _vanishes("A-branch consistency", worst, tol_branch, trace):
        return "nr-1"
    return "nr-4c"


# ---------------------------------------------------------------------------
# case (iii): exactly one component appears (b^1 == 0)
# ---------------------------------------------------------------------------


def _case_one(conn, perm, tol, trace):
    view = _PermView(conn, perm)
    G, C, dG, dC = view.G, view.C, view.dG, view.dC
    scale = conn.gamma_scale()
    g112 = float((np.abs(G(1, 1, 2)) / scale).max())
    g113 = float((np.abs(G(1, 1, 3)) / scale).max())
    z112 = _vanishes("Gamma[1,1,2]", g112, tol, trace)
    z113 = _vanishes("Gamma[1,1,3]", g113, tol, trace)
    if not z112 and not z113:
        return "nr-1"
    if z112 and not z113:
        # b^3 == 0 forced; b^2 survives iff Gamma[3,3,2] == 0
        mag = float((np.abs(G(3, 3, 2)) / scale).max())
        return "nr-2" if _vanishes("Gamma[3,3,2]", mag, tol, trace) else "nr-1"
    if z113 and not z112:
        mag = float((np.abs(G(2, 2, 3)) / scale).max())
        return "nr-2" if _vanishes("Gamma[2,2,3]", mag, tol, trace) else "nr-1"
    # both vanish: two free functions; record the four compatibility
    # residuals (identities given flatness/symmetry and the case assumptions)
    r88 = (
        dG(3, 1, 2, 2) + dC(3, 1, 2, 2) - dG(1, 3, 2, 2) - dC(1, 3, 2, 2)
        + C(1, 3, 1) * (G(1, 2, 2) + C(1, 2, 2))
        + C(1, 3, 3) * (G(3, 2, 2) + C(3, 2, 2))
    )
    r89 = dG(1, 2, 2, 3) - G(2, 2, 3) * (G(1, 2, 2) + C(1, 2, 2) - G(1, 3, 3))
    r90 = (
        dG(2, 1, 3, 3) + dC(2, 1, 3, 3) - dG(1, 2, 3, 3) - dC(1, 2, 3, 3)
        + C(1, 2, 1) * (G(1, 3, 3) + C(1, 3, 3))
        + C(1, 2, 2) * (G(2, 3, 3) + C(2, 3, 3))
    )
    r91 = dG(1, 3, 3, 2) - G(3, 3, 2) * (G(1, 3, 3) + C(1, 3, 3) - G(1, 2, 2))
    s2 = 1.0 + float((scale**2).max())
    for name, val in (("compat-88", r88), ("compat-89", r89), ("compat-90", r90), ("compat-91", r91)):
        trace.note(name, float(np.abs(val).max()) / s2, "identity check")
    return "nr-3a"


# ---------------------------------------------------------------------------
# non-rich dispatcher
# ---------------------------------------------------------------------------


def classify_beta_nonrich_rank1(conn: ConnectionEval, tol: float = CLASSIFY_TOL) -> tuple:
    """Non-rich frame with rank-1 algebraic part.  Returns (case, permutation,
    trace)."""
    perms = normalize_indices(conn, tol)
    scale = conn.gamma_scale()
    last_error = None
    for perm in perms:
        view = _PermView(conn, perm)
        num2 = float((np.abs(view.G(3, 1, 2)) / scale).max())
        num3 = float((np.abs(view.G(2, 1, 3)) / scale).max())
        trace = _Trace()
        trace.note(f"permutation {perm}", 0.0, "normalization accepted")
        try:
            a2_zero = _vanishes("alpha2 numerator Gamma[3,1,2]", num2, tol, trace)
            a3_zero = _vanishes("alpha3 numerator Gamma[2,1,3]", num3, tol, trace)
            if not a2_zero and not a3_zero:
                case = _case_all_three(conn, perm, tol, trace)
            elif a2_zero and not a3_zero:
                case = _case_two(conn, perm, tol, trace)
            elif a2_zero and a3_zero:
                case = _case_one(conn, perm, tol, trace)
            else:
                # orientation (alpha2 != 0, alpha3 == 0): the swapped
                # permutation realizes the canonical orientation
                continue
            return case, perm, trace
        except InconclusiveVanishingError as err:
            last_error = err
            continue
    if last_error is not None:
        raise last_error
    raise NormalizationFailedError(
        "no normalized permutation matches a canonical constraint orientation"
    )


# ---------------------------------------------------------------------------
# top-level dispatcher
# ---------------------------------------------------------------------------


def classify(conn: ConnectionEval, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Full classification over the connection's sample set."""
    spec = conn.spec
    bsys = beta_algebraic(conn)
    lsys = lambda_algebraic(conn)
    # for n=2 there are no distinct index triples, so both matrices are empty
    bscale = 1.0 + np.abs(bsys.matrix).max(initial=0.0)
    lscale = 1.0 + np.abs(lsys.matrix).max(initial=0.0)
    rank_beta = generic_rank(bsys.matrix / bscale)
    rank_lambda = generic_rank(lsys.matrix / lscale)
    rich, witness = is_rich(conn, 1e-7)
    trace = _Trace()
    trace.note("richness worst witness", witness["value"], "rich" if rich else "not rich")
    if spec.n != 3:
        return ClassificationReport(
            n=spec.n, richness=rich, rank_beta=rank_beta, rank_lambda=rank_lambda,
            lambda_case="not_n3", beta_case="not_n3", freedom=FREEDOM["not_n3"],
            trace=list(trace), permutation=tuple(range(spec.n)),
        )
    lambda_case, lrank, ltrace = classify_lambda_n3(conn, tol)
    trace.extend(ltrace)
    perm = (0, 1, 2)
    if rank_beta == 0:
        beta_case = "unconstrained"
    elif rank_beta >= 2:
        beta_case = "rank2-unclassified"
    elif rich:
        beta_case, perm, btrace = classify_beta_rich_rank1(conn, tol)
        trace.extend(btrace)
    else:
        beta_case, perm, btrace = classify_beta_nonrich_rank1(conn, tol)
        trace.extend(btrace)
    return ClassificationReport(
        n=3, richness=rich, rank_beta=rank_beta, rank_lambda=rank_lambda,
        lambda_case=lambda_case, beta_case=beta_case, freedom=FREEDOM[beta_case],
        trace=list(trace), permutation=tuple(perm),
    )
