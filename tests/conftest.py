from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from eigenframe import corpus as corpus_mod
from eigenframe.geometry import eval_connection, frame_from_sources

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


def connect(spec, count=50, seed=0):
    """The frame's connection on count Halton samples."""
    return eval_connection(spec, spec.sample_points(count, seed))


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
        from eigenframe.geometry import eval_frame_jets

        _, R, _, _ = eval_frame_jets(spec, spec.sample_points(30))
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
