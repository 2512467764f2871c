"""Halton points by the digit loop: an independent reference for
geometry.halton_points, which the tests compare against bit for bit.  Each
pass of the loop peels one base-b digit off every index and adds its term
at the next scale 1/b, 1/b^2, ..."""

from __future__ import annotations

import numpy as np

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    result = np.zeros(indices.shape, dtype=float)
    f = 1.0 / base
    i = indices.copy()
    while np.any(i > 0):
        result += f * (i % base)
        i //= base
        f /= base
    return result


def halton_points(lo: np.ndarray, hi: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    idx = np.arange(20 + 1009 * seed, 20 + 1009 * seed + count)
    unit = np.stack([radical_inverse(idx, PRIMES[d]) for d in range(lo.shape[0])], axis=1)
    unit = 0.02 + 0.96 * unit
    return lo + unit * (hi - lo)
