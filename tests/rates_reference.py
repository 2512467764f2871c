"""Ray rates by forming the matrices: an independent reference for
potential._rates, which applies each candidate's field to the ray
direction.  Each ray parameter's frame is evaluated and inverted, one field
per candidate is formed as a whole matrix, the Hessian L^T diag[b] L for a
length candidate and the flux Jacobian R diag[l] L for a speed candidate,
and only then multiplied by the direction d.  The contract is _rates': J d,
and the stacked A d of the fields after a Hessian J (None when J is a flux
Jacobian)."""

from __future__ import annotations

import numpy as np

from eigenframe import exprlang as ex
from eigenframe import potential as pot
from eigenframe.geometry import _invert_frame, split_frame_tape


def hessian_matrix(L, b):
    """L^T diag[b] L."""
    return (L.transpose(0, 2, 1) * b[:, None, :]) @ L


def flux_matrix(R, L, lam):
    """R diag[l] L."""
    return (R * lam[:, None, :]) @ L


def rates(field: pot.MatrixField):
    """potential._rates with the matrices formed before they meet d."""

    def rates(pts, d):
        R, cands = split_frame_tape(ex.eval_scalar_many(field.tape, pts), field.n)
        L, _ = _invert_frame(pts, R)
        J, *rest = [
            hessian_matrix(L, s) if h else flux_matrix(R, L, s)
            for h, s in zip(field.hessian, cands)
        ]
        Jd = np.einsum("mab,mb->ma", J, d)
        if not field.hessian[0]:
            return Jd, None
        return Jd, np.array([np.einsum("mab,mb->ma", A, d) for A in rest]).reshape((-1,) + d.shape)

    return rates
