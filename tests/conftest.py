from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from eigenframe import corpus as corpus_mod
from eigenframe import exprlang as ex
from eigenframe.geometry import (
    DET_RTOL,
    chart_from_sources,
    eval_connection,
    frame_from_sources,
    split_frame_tape,
)

V3 = ["u1", "u2", "u3"]


@pytest.fixture(scope="session")
def corpus_cases():
    """All bundled examples keyed by id (extended variants included)."""
    cases = {}
    for entry in corpus_mod.list_examples():
        case = corpus_mod.load_example(entry["path"])
        cases[case.id] = case
    extended = Path(corpus_mod.corpus_dir()) / "extended"
    for path in sorted(extended.glob("*.json")):
        case = corpus_mod.load_example(path)
        cases[case.id] = case
    return cases


def jets(e, points, order=2, params={}):
    """Value, gradient and, at order 2, Hessian of a Tape or Expr at points
    (..., n), read from its series (exprlang.eval_series): grad[..., i] =
    c_i, hess[..., i, i] = 2 c_ii and hess[..., i, j] = c_ij."""
    coef = ex.eval_series(e, points, order, params)
    n = np.shape(points)[-1]
    if order == 1:
        return coef[..., 0], coef[..., 1:]
    index, factor = ex._hessian_index(n)
    return coef[..., 0], coef[..., 1 : 1 + n], coef[..., index] * factor


def frame_jets(spec, points):
    """R^a_j, d_b R^a_j and d_b d_c R^a_j at points (m, n): shapes (m, a, j),
    (m, a, j, b) and (m, a, j, b, c)."""
    return tuple(split_frame_tape(block, spec.n)[0] for block in jets(spec.tape, points))


def connect(spec, count=50, seed=0):
    """The frame's connection on count Halton samples."""
    return eval_connection(spec, spec.sample_points(count, seed))


def spherical_frame_and_chart():
    """The radial/polar/azimuthal coordinate frame and its chart, whose
    chart-space connection is fully coupled but has no cross components."""
    r = "sqrt(u1^2+u2^2+u3^2)"
    rho = "sqrt(u1^2+u2^2)"
    cols = [
        [f"u1/{r}", f"u2/{r}", f"u3/{r}"],
        [f"u1*u3/{rho}", f"u2*u3/{rho}", f"-{rho}"],
        ["-u2", "u1", "0"],
    ]
    spec = frame_from_sources(cols, V3, domain=((0.3, 0.3, 0.3), (1.5, 1.5, 1.5)))
    chart = chart_from_sources(
        [r, f"arctan({rho}/u3)", "arctan(u2/u1)"],
        ["w1*sin(w2)*cos(w3)", "w1*sin(w2)*sin(w3)", "w1*cos(w2)"],
        V3,
        ["w1", "w2", "w3"],
    )
    return spec, chart


def random_polynomial_frame(rng, scale=0.15):
    """Near-identity frame with degree-<=2 entries, nonsingular on [0,1]^3."""
    while True:
        cols = []
        for j in range(3):
            col = []
            for a in range(3):
                c1, c2, c3 = rng.uniform(-scale, scale, size=3)
                lead = "1" if a == j else "0"
                col.append(
                    f"{lead}+{c1:.6f}*u1+{c2:.6f}*u2*u3+{c3:.6f}*u{a + 1}^2"
                )
            cols.append(col)
        spec = frame_from_sources(cols, V3, domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        R, _, _ = frame_jets(spec, spec.sample_points(30))
        if np.abs(np.linalg.det(R)).min() > 0.3:
            return spec


def _mat_mul_sources(A, B):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            terms = [f"({A[i][k]})*({B[k][j]})" for k in range(3)]
            row.append("+".join(terms))
        out.append(row)
    return out


def random_orthonormal_frame(rng):
    """Product of three elementary rotations with smooth random angles; the
    columns are orthonormal at every point."""
    angles = []
    for _ in range(3):
        a, b, c = rng.uniform(-0.4, 0.4, size=3)
        angles.append(f"({a:.6f}*sin(u1)+{b:.6f}*u2+{c:.6f}*u3*u1)")
    t1, t2, t3 = angles
    g12 = [[f"cos({t1})", f"-sin({t1})", "0"], [f"sin({t1})", f"cos({t1})", "0"], ["0", "0", "1"]]
    g13 = [[f"cos({t2})", "0", f"-sin({t2})"], ["0", "1", "0"], [f"sin({t2})", "0", f"cos({t2})"]]
    g23 = [["1", "0", "0"], ["0", f"cos({t3})", f"-sin({t3})"], ["0", f"sin({t3})", f"cos({t3})"]]
    rows = _mat_mul_sources(_mat_mul_sources(g12, g13), g23)
    # rows[i][j] is entry (i, j); columns of the matrix are the frame fields
    cols = [[rows[a][j] for a in range(3)] for j in range(3)]
    return frame_from_sources(cols, V3, domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))


def frames_with_special_rows(rng, m):
    """m random 3x3 frames; about a third of their rows are replaced by rows
    drawn from 0, +-inf, nan, +-1e200 and 1."""
    R = rng.normal(size=(m, 3, 3))
    pool = np.array([0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1.0])
    rows = rng.random((m, 3)) < 0.35
    R[rows] = rng.choice(pool, size=(int(rows.sum()), 3))
    return R


def frames_with_condition(rng, n, m, cond):
    """m random n x n frames U diag(1, .., 1, 1/cond) V^T, U and V orthogonal."""
    U = np.linalg.qr(rng.normal(size=(m, n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(m, n, n)))[0]
    return (U * np.r_[np.ones(n - 1), 1.0 / cond]) @ V.transpose(0, 2, 1)


def singular_batch(n, kind):
    """Three n x n frames; the middle one is singular or nearly so."""
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.normal(size=(3, n, n)))[0]
    if kind == "zero":
        Q[1] = 0.0
    elif kind == "equal columns":
        Q[1, :, 1] = Q[1, :, 0]
    else:
        # |det| = s, |R|_F^2 = n - 1 + s^2, against DET_RTOL |R|_F^n
        s = (0.9 if kind == "below" else 1.1) * DET_RTOL * (n - 1) ** (n / 2)
        Q[1] = Q[1] * np.r_[np.ones(n - 1), s]
    return Q
