"""Gauss-Legendre rules, built once per order and shared read-only."""

from functools import lru_cache

from scipy.special import roots_legendre


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    scipy's asymptotic/Newton construction, not numpy's dense companion-matrix
    eigensolve, which costs seconds at n in the thousands.  The arrays are
    cached and shared between callers, so they are read-only.
    """
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
