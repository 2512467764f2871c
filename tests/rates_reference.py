"""Ray rates by forming the matrices: an independent reference for
potential._rates, which applies each field's formula to the ray direction.
Each ray parameter's frame is evaluated and inverted, the Hessian
L^T diag[b] L and the flux Jacobian R diag[l] L are formed as whole
matrices, and only then multiplied by the direction d."""

from __future__ import annotations

import numpy as np

from eigenframe import exprlang as ex
from eigenframe import potential as pot
from eigenframe.geometry import _invert_frame


def hessian_matrix(L, b):
    """L^T diag[b] L."""
    return (L.transpose(0, 2, 1) * b[:, None, :]) @ L


def flux_matrix(R, L, lam):
    """R diag[l] L."""
    return (R * lam[:, None, :]) @ L


# the matrices of each direction formula of potential
MATRICES = {
    pot._hessian_formula: lambda R, L, b: [hessian_matrix(L, b)],
    pot._flux_formula: lambda R, L, lam: [flux_matrix(R, L, lam)],
    pot._entropy_formula: lambda R, L, b, lam: [hessian_matrix(L, b), flux_matrix(R, L, lam)],
}


def rates(field: pot.MatrixField, scalars: bool):
    """potential._rates with the matrices formed before they meet d."""
    matrices = MATRICES[field._formula]

    def rates(pts, d):
        R, cands = field._split(ex.eval_scalar_many(field.tape, pts))
        L, _ = _invert_frame(pts, R)
        J, *rest = matrices(R, L, *cands)
        Jd = np.einsum("mab,mb->ma", J, d)
        if not scalars:
            return Jd, np.empty((0,) + d.shape)
        return Jd, np.stack([d] + [np.einsum("mab,mb->ma", A, d) for A in rest])

    return rates
