"""Gamma and L as Taylor fields by the inverse series: an independent
reference for geometry._gamma_series and geometry._graded_solve, which
solve R X = Y degree by degree without forming L's series.  Here
L = sum_k (-L0 H)^k L0 for R = R0 + H is formed as a whole series, DR is
read from R's coefficients through the derivative table, and
Gamma_j = L (DR_j R) is two matrix products of Taylor fields, each summed
from elementwise products.

Also the index tables of the graded solve and of the frame operator, built
without the product terms: solve_gather divides multi-indices one variable
at a time, and frame_derivative_table sums the product's summation matrix
into the derivative table."""

from __future__ import annotations

import numpy as np

from eigenframe.exprlang import Taylor, _derivative_table, _monomials, _product_table, _size


def _matmul(A: Taylor, B) -> Taylor:
    """A @ B over the last two field axes of two Taylor fields (m, a, b) and
    (m, b, c), from their elementwise product, or of A and an array."""
    if not isinstance(B, Taylor):
        return A @ B
    prod = A[:, :, :, None] * B[:, None, :, :]
    return Taylor(prod.coef.sum(axis=2), prod.n, prod.order)


def inverse_series(R: Taylor, L0):
    """L = R^{-1} as a Taylor field of R's order from L0 = R^{-1} at the
    points."""
    X = L0 @ (R.value - R)
    L = L0
    for _ in range(R.order):
        L = L0 + _matmul(X, L)
    return L


def gamma_series(R: Taylor, L0, order: int) -> Taylor:
    """Gamma_j = L (DR_j R) as a Taylor field of the given order, shape
    (m, i, j, k), from the frame series R of order + 1 and L0 = R^{-1}."""
    n, m, size = R.n, R.coef.shape[0], _size(R.n, order)
    D = _derivative_table(n, order + 1)
    DR = R.coef.reshape(m * n * n, -1) @ D.reshape(n * size, -1).T  # (m, a, j, b, l)
    R = Taylor(R.coef[..., :size], n, order)
    LDR = _matmul(inverse_series(R, L0), Taylor(DR.reshape(m, n, n * n, size), n, order))
    G = _matmul(Taylor(LDR.coef.reshape(m, n * n, n, size), n, order), R)
    return Taylor(G.coef.reshape(m, n, n, n, size), n, order).transpose(0, 3, 2, 1)


def solve_gather(n: int, order: int) -> tuple:
    """geometry._solve_gather: for each degree d = 1..order, the flat
    indices into R's coefficients held as (n, n, s + 1), with slot s zero,
    of B_d[(a, g), (k, b)] = R^a_k[g - b] over g of degree d and b of lower
    degree; g - b is the zero slot when b does not divide g."""
    mono = _monomials(n, order)
    index = {t: i for i, t in enumerate(mono)}

    def quotient(g, b):
        rest = list(g)
        for v in b:
            if v not in rest:
                return len(mono)
            rest.remove(v)
        return index[tuple(rest)]

    entry = (np.arange(n)[:, None] * n + np.arange(n))[:, None, :, None] * (len(mono) + 1)
    tables = []
    for d in range(1, order + 1):
        rows, cols = mono[_size(n, d - 1) : _size(n, d)], mono[: _size(n, d - 1)]
        A = np.array([[quotient(g, b) for b in cols] for g in rows])
        tables.append((entry + A[:, None, :]).reshape(n * len(rows), n * len(cols)))
    return tuple(tables)


def frame_derivative_table(n: int, order: int) -> np.ndarray:
    """exprlang._frame_derivative_table: T[b, i, k, l] with (g d_b f)[k] =
    sum_{i,l} g[i] T[b, i, k, l] f[l], f of the given order, g of order - 1."""
    I, J, _, S = _product_table(n, order - 1)
    T = np.zeros((n, S.shape[1], S.shape[1], _size(n, order)))
    np.add.at(T, (slice(None), I), np.einsum("pk,bpl->bpkl", S, _derivative_table(n, order)[:, J]))
    return T
