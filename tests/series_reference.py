"""Gamma and L as Taylor fields by the inverse series: an independent
reference for geometry._gamma_series and geometry._graded_solve, which
solve R X = Y degree by degree without forming L's series.  Here
L = sum_k (-L0 H)^k L0 for R = R0 + H is formed as a whole series, DR is
read from R's coefficients through the derivative table, and
Gamma_j = L (DR_j R) is two products of Taylor fields."""

from __future__ import annotations

from eigenframe.exprlang import Taylor, _derivative_table, _size


def inverse_series(R: Taylor, L0):
    """L = R^{-1} as a Taylor field of R's order from L0 = R^{-1} at the
    points."""
    X = L0 @ (R.value - R)
    L = L0
    for _ in range(R.order):
        L = L0 + X @ L
    return L


def gamma_series(R: Taylor, L0, order: int) -> Taylor:
    """Gamma_j = L (DR_j R) as a Taylor field of the given order, shape
    (m, i, j, k), from the frame series R of order + 1 and L0 = R^{-1}."""
    n, m, size = R.n, R.coef.shape[0], _size(R.n, order)
    D = _derivative_table(n, order + 1)
    DR = R.coef.reshape(m * n * n, -1) @ D.reshape(n * size, -1).T  # (m, a, j, b, l)
    R = Taylor(R.coef[..., :size], n, order)
    LDR = inverse_series(R, L0) @ Taylor(DR.reshape(m, n, n * n, size), n, order)
    G = Taylor(LDR.coef.reshape(m, n * n, n, size), n, order) @ R
    return Taylor(G.coef.reshape(m, n, n, n, size), n, order).transpose(0, 3, 2, 1)
