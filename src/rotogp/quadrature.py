"""Gauss-Legendre rules, built once per order and shared read-only."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The arrays are cached and shared between callers, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
