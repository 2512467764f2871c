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

Vanishing verdicts use a two-threshold scheme at the one module tolerance
CLASSIFY_TOL: a scaled magnitude below it counts as zero, above 10 times it
as nonzero, and anything in between raises InconclusiveVanishingError
rather than silently guessing.  The non-rich branches read the connection
as Taylor fields (ConnectionEval.taylor), so every coefficient, frame
derivative and integrability row they test is exact, on the one sample set.
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
    Taylor,
    chart_forward,
    is_rich,
)
from .systems import AlgebraicSystem, beta_algebraic, generic_rank, lambda_algebraic

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


def _vanishes(name: str, value: float, trace: _Trace) -> bool:
    """Two-threshold vanishing verdict on a scaled magnitude."""
    if value < CLASSIFY_TOL:
        trace.note(name, value, "zero")
        return True
    if value > 10 * CLASSIFY_TOL:
        trace.note(name, value, "nonzero")
        return False
    raise InconclusiveVanishingError(name, value, CLASSIFY_TOL)


# ---------------------------------------------------------------------------
# lambda classification
# ---------------------------------------------------------------------------


def _row_activity(matrices: np.ndarray, trace: _Trace, tag: str) -> list:
    """Which unknowns carry nonzero coefficients in the (rank-1) row space.

    Activity is judged per sample (the constraint direction may rotate with
    the base point) and aggregated by the maximum over samples."""
    activity = np.zeros(matrices.shape[2])
    # an all-zero matrix has no row space; its singular vectors are arbitrary
    zero = np.linalg.norm(matrices, axis=2).max(axis=1) <= 0
    if not zero.all():
        _, _, vt = np.linalg.svd(matrices[~zero])
        v = np.abs(vt[:, 0])
        activity = (v / v.max(axis=1, keepdims=True)).max(axis=0)
    active = []
    for i, a in enumerate(activity):
        active.append(not _vanishes(f"{tag} coefficient of unknown {i + 1}", float(a), trace))
    return active


def classify_lambda_n3(lsys: AlgebraicSystem, rank: int) -> tuple:
    """Case label for the speed system from its algebraic part lsys and that
    part's generic rank: rank 0 -> I; rank 1 -> IIa when all three unknowns
    enter the constraint, IIb when exactly two; rank 2 -> III."""
    trace = _Trace()
    trace.note("lambda algebraic rank", rank, "info")
    if rank == 0:
        return "I", trace
    if rank == 2:
        return "III", trace
    active = _row_activity(lsys.matrix, trace, "lambda constraint")
    count = sum(active)
    if count == 3:
        return "IIa", trace
    if count == 2:
        return "IIb", trace
    trace.note("lambda constraint active count", count, "degenerate sampling")
    return "IIb", trace


# ---------------------------------------------------------------------------
# permuted views of a connection
# ---------------------------------------------------------------------------


class _PermView:
    """Connection components relabeled by a permutation, with 1-based index
    accessors so the classifier code reads like the underlying formulas.

    G and C are Taylor fields of the view's order, and r(d, f) is the exact
    derivative of a field along frame direction d, one order lower; so every
    coefficient and each of its frame derivatives is exact.
    """

    def __init__(self, conn: ConnectionEval, perm: tuple, order: int = 2):
        self.conn = conn
        self.perm = perm
        self.gamma = conn.taylor(order)

    def G(self, i: int, j: int, k: int) -> Taylor:
        p = self.perm
        return self.gamma[:, p[i - 1], p[j - 1], p[k - 1]]

    def C(self, i: int, j: int, k: int) -> Taylor:
        return self.G(i, j, k) - self.G(j, i, k)

    def r(self, d: int, f: Taylor) -> Taylor:
        """r_d(f) in permuted labels."""
        return self.conn.r(self.perm[d - 1], f)

    # constraint coefficients beta^1 = alpha2 beta^2 + alpha3 beta^3
    def alpha2(self) -> Taylor:
        return -self.G(3, 1, 2) / self.C(3, 2, 1)

    def alpha3(self) -> Taylor:
        return self.G(2, 1, 3) / self.C(3, 2, 1)


# ---------------------------------------------------------------------------
# index normalization
# ---------------------------------------------------------------------------


def normalize_indices(conn: ConnectionEval) -> list:
    """Permutations (new -> old) under which c[3,2,1] is bounded away from
    zero at every sample.  Permutations that additionally keep Gamma[3,2,1]
    nonvanishing (the preferred normalization) are ranked first; within each
    group the order is lexicographic.  c[3,2,1] != 0 is the only condition
    the downstream formulas divide by."""
    scale = conn.gamma_scale()
    preferred, fallback = [], []
    for perm in itertools.permutations(range(3)):
        view = _PermView(conn, perm, 0)
        cmin = float((np.abs(view.C(3, 2, 1).value) / scale).min())
        gmin = float((np.abs(view.G(3, 2, 1).value) / scale).min())
        if cmin > 10 * CLASSIFY_TOL:
            (preferred if gmin > 10 * CLASSIFY_TOL else fallback).append(perm)
    found = preferred + fallback
    if not found:
        raise NormalizationFailedError(
            "no index permutation makes c[3,2,1] nonvanishing at the sample set"
        )
    return found


# ---------------------------------------------------------------------------
# rich frames, rank-1 algebraic part
# ---------------------------------------------------------------------------


def _diagonal_case(prefix: str, mag, labels: tuple, trace: _Trace) -> str:
    """The diagonal decision shared by the rich (Z) and non-rich (Gamma)
    trees, on magnitudes mag(a, b, c) of prefix[a,b,c]: [1,1,2] and [1,1,3]
    both nonzero give labels[0] and both zero labels[2]; when only one
    vanishes, labels[1] if [3,3,2] (for [1,1,2]) or [2,2,3] (for [1,1,3])
    vanishes too, else labels[0]."""
    z112 = _vanishes(f"{prefix}[1,1,2]", mag(1, 1, 2), trace)
    z113 = _vanishes(f"{prefix}[1,1,3]", mag(1, 1, 3), trace)
    if z112 == z113:
        return labels[2] if z112 else labels[0]
    a, b, c = (3, 3, 2) if z112 else (2, 2, 3)
    return labels[1] if _vanishes(f"{prefix}[{a},{b},{c}]", mag(a, b, c), trace) else labels[0]


def _classify_rich_rank1_from_Z(Z: np.ndarray, trace: _Trace) -> tuple:
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
        if cross[perm] > 10 * CLASSIFY_TOL and all(cross[q] < CLASSIFY_TOL for q in others):
            chosen = perm
            break
    if chosen is None:
        # each family by its larger ordering, named with i < j
        family = {
            f"Z[{q[1] + 1},{q[2] + 1},{q[0] + 1}]": max(cross[q], cross[(q[0], q[2], q[1])])
            for q in cross
            if q[1] < q[2]
        }
        nonzero = [v for v in family.values() if v > 10 * CLASSIFY_TOL]
        dead = [k for k, v in family.items() if CLASSIFY_TOL <= v <= 10 * CLASSIFY_TOL]
        if dead and len(nonzero) < 2:
            raise InconclusiveVanishingError(
                f"chart cross family {dead[0]}", family[dead[0]], CLASSIFY_TOL
            )
        listed = ", ".join(f"{k} = {v:.3e}" for k, v in family.items())
        raise NormalizationFailedError(
            f"no rank-1 cross pattern of the chart-space connection: cross families "
            f"{listed} (one must exceed {10 * CLASSIFY_TOL:.1e}, the others stay "
            f"below {CLASSIFY_TOL:.1e})"
        )
    p = chosen
    trace.note(f"chart cross component Z[{p[1]+1},{p[2]+1},{p[0]+1}]", cross[p], "nonzero")

    def zmag(a, b, c):
        return float(np.abs(Z[:, p[a - 1], p[b - 1], p[c - 1]]).max() / scale)

    return _diagonal_case("Z", zmag, ("rich-1", "rich-2", "rich-3"), trace), p


def classify_beta_rich_rank1(conn: ConnectionEval) -> tuple:
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
    case, perm = _classify_rich_rank1_from_Z(conn.Gamma, trace)
    return case, perm, trace


# ---------------------------------------------------------------------------
# non-rich frames, rank-1 algebraic part: coefficient machinery
# ---------------------------------------------------------------------------


def _system_all_three(view: _PermView) -> Taylor:
    """The fully-prescribed system r_i(b) = M_i b, b = (b^2, b^3), of the
    all-three-appear case: M (m, i, s, t) with M[i, s] = (phi[i,s],
    psi[i,s]) the coefficients of r_i(b^s) = phi b^2 + psi b^3."""
    a2, a3 = view.alpha2(), view.alpha3()
    G, C, r = view.G, view.C, view.r
    return Taylor.stack([
        [[G(1, 2, 2) + C(1, 2, 2) - a2 * G(2, 2, 1), -a3 * G(2, 2, 1)],
         [-a2 * G(3, 3, 1), G(1, 3, 3) + C(1, 3, 3) - a3 * G(3, 3, 1)]],
        [[(a2 * (G(2, 1, 1) + C(2, 1, 1)) - r(2, a2) + a3 * G(3, 3, 2) - G(1, 1, 2)) / a2,
          (a3 * (G(2, 1, 1) + C(2, 1, 1) - G(2, 3, 3) - C(2, 3, 3)) - r(2, a3)) / a2],
         [-G(3, 3, 2), G(2, 3, 3) + C(2, 3, 3)]],
        [[G(3, 2, 2) + C(3, 2, 2), -G(2, 2, 3)],
         [(a2 * (G(3, 1, 1) + C(3, 1, 1) - G(3, 2, 2) - C(3, 2, 2)) - r(3, a2)) / a3,
          (a3 * (G(3, 1, 1) + C(3, 1, 1)) - r(3, a3) + a2 * G(2, 2, 3) - G(1, 1, 3)) / a3]],
    ])


def _case_all_three_rows(view: _PermView) -> tuple:
    """M and the six integrability rows [A, B] of A b^2 + B b^3 = 0, shape
    (m, 6, 2): the commutator identities
    r_i(M_j) - r_j(M_i) + M_j M_i - M_i M_j - sum_k c[i,j,k] M_k = 0
    for each pair i < j, row s of each."""
    M = _system_all_three(view)
    rows = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        Mi, Mj = M[:, i - 1], M[:, j - 1]
        row = view.r(i, Mj) - view.r(j, Mi) + Mj @ Mi - Mi @ Mj - sum(
            view.C(i, j, k)[:, None, None] * M[:, k - 1] for k in (1, 2, 3))
        rows += [row[:, 0], row[:, 1]]
    return M, Taylor.stack(rows)


def _row_rank_and_nulls(stack, trace, tag):
    """Generic rank (0/1/2) of the per-sample 2-column row stacks (m, rows,
    2), plus the per-sample unit null directions when the rank is 1 (the
    null direction may rotate with the base point)."""
    scale = 1.0 + np.abs(stack).max()
    stack = stack / scale
    _, svals, vt = np.linalg.svd(stack)  # svals (m, 2)
    s1 = float(svals[:, 0].max())
    s2 = float(svals[:, 1].max())
    trace.note(f"{tag} leading singular value", s1, "info")
    trace.note(f"{tag} second singular value", s2, "info")
    if _vanishes(f"{tag} rank>=1 indicator", s1, trace):
        return 0, None
    if _vanishes(f"{tag} rank=2 indicator", s2, trace):
        nulls = vt[:, -1, :]
        nulls = nulls / np.linalg.norm(nulls, axis=1)[:, None]
        return 1, nulls
    return 2, None


def _null_branch(nulls: np.ndarray, trace: _Trace) -> str:
    """Which component of the rank-1 null direction vanishes: 'first'
    (b^2 = 0 family), 'second' (b^3 = 0 family), or 'mixed'."""
    p_rel = float(np.abs(nulls[:, 0]).max())
    q_rel = float(np.abs(nulls[:, 1]).max())
    trace.note("null direction |b2-component|", p_rel, "info")
    trace.note("null direction |b3-component|", q_rel, "info")
    if p_rel < 100 * CLASSIFY_TOL:
        return "first"
    if q_rel < 100 * CLASSIFY_TOL:
        return "second"
    return "mixed"


# ---------------------------------------------------------------------------
# case (i): all three components appear in the constraint
# ---------------------------------------------------------------------------


def _case_all_three(conn, perm, trace):
    M, rows = _case_all_three_rows(_PermView(conn, perm))
    rank, nulls = _row_rank_and_nulls(rows.value, trace, "integrability rows")
    if rank == 0:
        return "nr-4b"
    if rank == 2:
        return "nr-1"
    branch = _null_branch(nulls, trace)
    phi, psi = M.value[..., 0], M.value[..., 1]  # (m, i, s)
    coef_scale = 1.0 + np.abs(phi).max() + np.abs(psi).max()
    if branch == "first":
        # b^2 == 0 family: its source coefficients psi[i,2] must vanish
        ok = True
        for i in (1, 2, 3):
            mag = float(np.abs(psi[:, i - 1, 0]).max()) / coef_scale
            ok = _vanishes(f"psi[{i},2]", mag, trace) and ok
        return "nr-3b" if ok else "nr-1"
    if branch == "second":
        ok = True
        for i in (1, 2, 3):
            mag = float(np.abs(phi[:, i - 1, 1]).max()) / coef_scale
            ok = _vanishes(f"phi[{i},3]", mag, trace) and ok
        return "nr-3b" if ok else "nr-1"
    # mixed: b^2 = Phi b^3, Phi the least-squares ratio of the rows
    # A Phi + B = 0, which order-3 rows differentiate once
    view = _PermView(conn, perm, 3)
    _, rows = _case_all_three_rows(view)
    A, B = rows[:, :, 0], rows[:, :, 1]
    Phi = -(A * B).sum(1) / (A * A).sum(1)
    P = Phi.value
    worst = 0.0
    for i in (1, 2, 3):
        dPhi = view.r(i, Phi).value
        implied = (phi[:, i - 1, 0] * P + psi[:, i - 1, 0]
                   - P * (phi[:, i - 1, 1] * P + psi[:, i - 1, 1]))
        s = 1.0 + np.abs(dPhi) + np.abs(implied)
        worst = max(worst, float((np.abs(dPhi - implied) / s).max()))
    if not _vanishes("Phi-branch consistency", worst, trace):
        return "nr-1"
    a2, a3 = view.alpha2().value, view.alpha3().value
    deg = float((np.abs(a2 * P + a3) / (1.0 + np.abs(a2 * P) + np.abs(a3))).max())
    if _vanishes("b1 = (alpha2 Phi + alpha3) b3 degeneracy", deg, trace):
        return "nr-3b"
    return "nr-4c"


# ---------------------------------------------------------------------------
# case (ii): exactly two components appear (alpha2 == 0, alpha3 != 0)
# ---------------------------------------------------------------------------


def _coef_bundle_case2(view: _PermView) -> Taylor:
    """Stacked coefficient fields (m, 10): a1, a3, b1, b3, q1, q2, q3, p2,
    A0, B0 of the reduced system

        r_1(b2) = a1 b2 + b1 b3        r_1(b3) = q1 b3
        r_3(b2) = a3 b2 + b3 b3?                      (b3 coefficient field)
        r_2(b3) = p2 b2 + q2 b3        r_3(b3) = q3 b3
        0 = A0 b2 + B0 b3
    """
    G, C = view.G, view.C
    a3v = view.alpha3()
    a1 = G(1, 2, 2) + C(1, 2, 2)
    a3 = G(3, 2, 2) + C(3, 2, 2)
    b1 = -a3v * G(2, 2, 1)
    b3 = -G(2, 2, 3)
    q1 = G(1, 3, 3) + C(1, 3, 3) - a3v * G(3, 3, 1)
    q2 = G(2, 3, 3) + C(2, 3, 3)
    q3 = (a3v * (G(3, 1, 1) + C(3, 1, 1)) - view.r(3, a3v) - G(1, 1, 3)) / a3v
    p2 = -G(3, 3, 2)
    A0 = a3v * G(3, 3, 2) - G(1, 1, 2)
    B0 = a3v * (G(2, 1, 1) + C(2, 1, 1) - G(2, 3, 3) - C(2, 3, 3)) - view.r(2, a3v)
    return Taylor.stack([a1, a3, b1, b3, q1, q2, q3, p2, A0, B0])


_C2 = {name: idx for idx, name in enumerate(
    ["a1", "a3", "b1", "b3", "q1", "q2", "q3", "p2", "A0", "B0"]
)}


def _case_two_rows(view: _PermView) -> tuple:
    """The coefficient bundle and the compatibility rows [A, B] of
    A b2 + B b3 = 0, shape (m, 7, 2)."""
    coef = _coef_bundle_case2(view)
    dcoef = {d: view.r(d, coef) for d in (1, 2, 3)}

    def v(name):
        return coef[:, _C2[name]]

    def dv(d, name):
        return dcoef[d][:, _C2[name]]

    C = view.C
    rows = [
        [v("A0"), v("B0")],  # constraint row
        [dv(1, "A0") + v("A0") * v("a1"),  # r1 of constraint
         dv(1, "B0") + v("A0") * v("b1") + v("B0") * v("q1")],
        [dv(3, "A0") + v("A0") * v("a3"),  # r3 of constraint
         dv(3, "B0") + v("A0") * v("b3") + v("B0") * v("q3")],
        [dv(1, "a3") - dv(3, "a1") - C(1, 3, 1) * v("a1") - C(1, 3, 3) * v("a3"),  # [r1,r3] on b2
         dv(1, "b3") + v("a3") * v("b1") + v("b3") * v("q1")
         - dv(3, "b1") - v("a1") * v("b3") - v("b1") * v("q3")
         - C(1, 3, 1) * v("b1") - C(1, 3, 3) * v("b3")],
        [dv(1, "p2") + v("p2") * v("a1") - v("q1") * v("p2") - C(1, 2, 2) * v("p2"),  # [r1,r2] on b3
         dv(1, "q2") - dv(2, "q1") + v("p2") * v("b1")
         - C(1, 2, 1) * v("q1") - C(1, 2, 2) * v("q2") - C(1, 2, 3) * v("q3")],
        [-C(1, 3, 2) * v("p2"),  # [r1,r3] on b3
         dv(1, "q3") - dv(3, "q1")
         - C(1, 3, 1) * v("q1") - C(1, 3, 2) * v("q2") - C(1, 3, 3) * v("q3")],
        [v("q3") * v("p2") - dv(3, "p2") - v("p2") * v("a3") - C(2, 3, 2) * v("p2"),  # [r2,r3] on b3
         dv(2, "q3") - dv(3, "q2") - v("p2") * v("b3")
         - C(2, 3, 1) * v("q1") - C(2, 3, 2) * v("q2") - C(2, 3, 3) * v("q3")],
    ]
    return coef, Taylor.stack(rows)


def _case_two(conn, perm, trace):
    view = _PermView(conn, perm)
    c132 = float(np.abs(view.C(1, 3, 2).value).max() / (1.0 + np.abs(conn.Gamma).max()))
    trace.note("c[1,3,2] (should vanish in this case)", c132, "info")
    coef, rows = _case_two_rows(view)
    rank, nulls = _row_rank_and_nulls(rows.value, trace, "L system")
    if rank == 0:
        return "nr-4a"
    if rank == 2:
        return "nr-1"
    branch = _null_branch(nulls, trace)

    def v(name):
        return coef.value[:, _C2[name]]

    cscale = 1.0 + float(np.abs(coef.value).max())
    if branch == "first":
        # b^2 == 0 family: source coefficients b1, b3 must vanish
        ok = True
        for name, cond in (("b1", "Gamma[2,2,1]"), ("b3", "Gamma[2,2,3]")):
            mag = float(np.abs(v(name)).max()) / cscale
            ok = _vanishes(f"{cond} source coefficient", mag, trace) and ok
        return "nr-3b" if ok else "nr-1"
    if branch == "second":
        # b^3 == 0 family: source coefficient p2 = -Gamma[3,3,2] must vanish
        mag = float(np.abs(v("p2")).max()) / cscale
        return "nr-2" if _vanishes("Gamma[3,3,2] source coefficient", mag, trace) else "nr-1"
    # mixed: b^3 = A b^2, with A from the constraint row A0 b2 + B0 b3 = 0
    # when it is nonzero, else the least-squares ratio of the order-3 rows
    con_mag = float(np.abs(np.stack([v("A0"), v("B0")], axis=1)).max()) / cscale
    exact = con_mag > 10 * CLASSIFY_TOL
    trace.note("constraint row magnitude", con_mag, "exact ratio" if exact else "null ratio")
    if exact:
        Acal = -coef[:, _C2["A0"]] / coef[:, _C2["B0"]]
    else:
        view = _PermView(conn, perm, 3)
        _, rows = _case_two_rows(view)
        A, B = rows[:, :, 0], rows[:, :, 1]
        Acal = -(A * B).sum(1) / (B * B).sum(1)
    a = Acal.value
    worst = 0.0
    for i, (p_name, b_name, q_name) in ((1, ("a1", "b1", "q1")), (3, ("a3", "b3", "q3"))):
        dA = view.r(i, Acal).value
        implied = v(q_name) * a - a * (v(p_name) + v(b_name) * a)
        s = 1.0 + np.abs(dA) + np.abs(implied)
        worst = max(worst, float((np.abs(dA - implied) / s).max()))
    return "nr-4c" if _vanishes("A-branch consistency", worst, trace) else "nr-1"


# ---------------------------------------------------------------------------
# case (iii): exactly one component appears (b^1 == 0)
# ---------------------------------------------------------------------------


def _case_one(conn, perm, trace):
    view = _PermView(conn, perm, 1)
    G, C, r = view.G, view.C, view.r
    scale = conn.gamma_scale()

    def mag(a, b, c):
        return float((np.abs(G(a, b, c).value) / scale).max())

    # Gamma[1,1,2] == 0 alone forces b^3 == 0, and b^2 survives iff
    # Gamma[3,3,2] == 0; symmetrically for Gamma[1,1,3]
    case = _diagonal_case("Gamma", mag, ("nr-1", "nr-2", "nr-3a"), trace)
    if case != "nr-3a":
        return case
    # both vanish: two free functions; record the four compatibility
    # residuals (identities given flatness/symmetry and the case assumptions)
    a1, a3 = G(1, 2, 2) + C(1, 2, 2), G(3, 2, 2) + C(3, 2, 2)
    q1, q2 = G(1, 3, 3) + C(1, 3, 3), G(2, 3, 3) + C(2, 3, 3)
    r88 = r(3, a1) - r(1, a3) + C(1, 3, 1) * a1 + C(1, 3, 3) * a3
    r89 = r(1, G(2, 2, 3)) - G(2, 2, 3) * (a1 - G(1, 3, 3))
    r90 = r(2, q1) - r(1, q2) + C(1, 2, 1) * q1 + C(1, 2, 2) * q2
    r91 = r(1, G(3, 3, 2)) - G(3, 3, 2) * (q1 - G(1, 2, 2))
    s2 = 1.0 + float((scale**2).max())
    for name, val in (("compat-88", r88), ("compat-89", r89), ("compat-90", r90), ("compat-91", r91)):
        trace.note(name, float(np.abs(val.value).max()) / s2, "identity check")
    return "nr-3a"


# ---------------------------------------------------------------------------
# non-rich dispatcher
# ---------------------------------------------------------------------------


def classify_beta_nonrich_rank1(conn: ConnectionEval) -> tuple:
    """Non-rich frame with rank-1 algebraic part.  Returns (case, permutation,
    trace)."""
    perms = normalize_indices(conn)
    scale = conn.gamma_scale()
    last_error = None
    for perm in perms:
        view = _PermView(conn, perm, 0)
        num2 = float((np.abs(view.G(3, 1, 2).value) / scale).max())
        num3 = float((np.abs(view.G(2, 1, 3).value) / scale).max())
        trace = _Trace()
        trace.note(f"permutation {perm}", 0.0, "normalization accepted")
        try:
            a2_zero = _vanishes("alpha2 numerator Gamma[3,1,2]", num2, trace)
            a3_zero = _vanishes("alpha3 numerator Gamma[2,1,3]", num3, trace)
            if not a2_zero and not a3_zero:
                case = _case_all_three(conn, perm, trace)
            elif a2_zero and not a3_zero:
                case = _case_two(conn, perm, trace)
            elif a2_zero and a3_zero:
                case = _case_one(conn, perm, trace)
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


def classify(conn: ConnectionEval) -> ClassificationReport:
    """Full classification over the connection's sample set: richness at
    RICH_TOL, every vanishing verdict at the one module tolerance CLASSIFY_TOL."""
    spec = conn.spec
    bsys = beta_algebraic(conn)
    lsys = lambda_algebraic(conn)
    # for n=2 there are no distinct index triples, so both matrices are empty
    bscale = 1.0 + np.abs(bsys.matrix).max(initial=0.0)
    lscale = 1.0 + np.abs(lsys.matrix).max(initial=0.0)
    rank_beta = generic_rank(bsys.matrix / bscale)
    rank_lambda = generic_rank(lsys.matrix / lscale)
    rich, witness = is_rich(conn)
    trace = _Trace()
    trace.note("richness worst witness", witness["value"], "rich" if rich else "not rich")
    if spec.n != 3:
        return ClassificationReport(
            n=spec.n, richness=rich, rank_beta=rank_beta, rank_lambda=rank_lambda,
            lambda_case="not_n3", beta_case="not_n3", freedom=FREEDOM["not_n3"],
            trace=list(trace), permutation=tuple(range(spec.n)),
        )
    lambda_case, ltrace = classify_lambda_n3(lsys, rank_lambda)
    trace.extend(ltrace)
    perm = (0, 1, 2)
    if rank_beta == 0:
        beta_case = "unconstrained"
    elif rank_beta >= 2:
        beta_case = "rank2-unclassified"
    elif rich:
        beta_case, perm, btrace = classify_beta_rich_rank1(conn)
        trace.extend(btrace)
    else:
        beta_case, perm, btrace = classify_beta_nonrich_rank1(conn)
        trace.extend(btrace)
    return ClassificationReport(
        n=3, richness=rich, rank_beta=rank_beta, rank_lambda=rank_lambda,
        lambda_case=lambda_case, beta_case=beta_case, freedom=FREEDOM[beta_case],
        trace=list(trace), permutation=tuple(perm),
    )
