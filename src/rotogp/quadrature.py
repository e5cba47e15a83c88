"""Gauss-Legendre rules and the Galerkin assembler in Dirichlet Bessel bases."""

from functools import lru_cache

import numpy as np
from scipy import special
from scipy.special import roots_legendre


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    scipy's roots_legendre: Golub-Welsch eigenvalues of the banded Jacobi
    matrix, one Newton step per node.  It still costs 0.2-0.3 s at n = 2400,
    so each rule is built once per interpreter, cached and shared between
    callers, and therefore read-only.
    """
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def bessel_zeros(ell, count):
    """First `count` positive zeros of the spherical Bessel function j_ell."""
    # j_ell > 0 on (0, first zero), and the count-th zero lies below
    # (count + ell/2) pi: one scan brackets every zero, the secant through
    # each bracket starts Newton steps with j_ell' = (ell/x) j_ell - j_{ell+1}
    x = np.arange(max(1.0, ell), (count + 0.5 * ell + 1.0) * np.pi, 0.1)
    fx = special.spherical_jn(ell, x)
    idx = np.nonzero((fx[:-1] == 0.0) | (fx[:-1] * fx[1:] < 0.0))[0][:count]
    z = x[idx] - 0.1 * fx[idx] / (fx[idx + 1] - fx[idx])
    for _ in range(4):
        j, j_next = special.spherical_jn([[ell], [ell + 1]], z)
        z = z + j / (j_next - ell * j / z)
    return z


# Gauss nodes per block of the assembler: its transient is K x _BLOCK mode values
_BLOCK = 256
# channel 0 builds sin(k theta) by angle addition over k = a _STRIDE + b
_STRIDE = 32


class BesselChannel:
    """The first K Dirichlet modes of angular channel ell on the ball of radius L.

    Mode k is j_ell(p_k r) / norm_k, p_k L the k-th zero of j_ell, orthonormal
    in r^2 dr.  The radial kinetic form -u'' + ell(ell + 1) u / r^2 of
    u = r j_ell(p r) is p^2 u: diagonal.  For ell = 0, p_k = k pi / L and
    r times mode k is sqrt(2/L) sin(p_k r), the sine basis of [0, L]
    (Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)).
    """

    def __init__(self, ell, K, L):
        self.ell, self.L = ell, L
        if ell == 0:
            self.p = np.pi * np.arange(1, K + 1) / L
        else:
            alph = bessel_zeros(ell, K)
            self.p = alph / L
            self.norms = np.sqrt(L**3 / 2.0) * np.abs(special.spherical_jn(ell + 1, alph))

    def __call__(self, r):
        """Mode values at radii r, shape (K, r.size)."""
        r = np.asarray(r, dtype=float)
        if self.ell > 0:
            jn = special.spherical_jn(self.ell, np.multiply.outer(self.p, r))
            return jn / self.norms[:, None]
        # sin(k theta) = sin(a m theta) cos(b theta) + cos(a m theta) sin(b theta):
        # 2 (K/m + m) sines and cosines per radius, and a mode's values do not
        # depend on K, so a smaller basis is a leading block
        K, theta = self.p.size, (np.pi / self.L) * r
        a = np.multiply.outer(_STRIDE * np.arange(K // _STRIDE + 1), theta)
        b = np.multiply.outer(np.arange(_STRIDE), theta)
        sines = np.sin(a)[:, None] * np.cos(b) + np.cos(a)[:, None] * np.sin(b)
        with np.errstate(invalid="ignore"):
            modes = sines.reshape(-1, r.size)[1:K + 1] / r
        modes[:, r == 0] = self.p[:, None]  # the limit of sin(p_k r) / r
        return np.sqrt(2.0 / self.L) * modes

    def _nodes(self, pieces):
        # pieces: (r_lo, r_hi, n_quad, func) Gauss-Legendre segments, each
        # walked in blocks of _BLOCK nodes
        for r_lo, r_hi, n_quad, func in pieces:
            x, w = gauss_legendre(n_quad)
            r = 0.5 * (r_hi - r_lo) * x + 0.5 * (r_hi + r_lo)
            wq = 0.5 * (r_hi - r_lo) * w * func(r) * r * r
            for i in range(0, n_quad, _BLOCK):
                yield self(r[i:i + _BLOCK]), wq[i:i + _BLOCK]

    def matrix(self, kin_mult, pieces):
        """diag(kin_mult(p)) plus int mode_i func mode_j r^2 dr over the pieces.

        Entry (i, j) depends on modes i and j only, so the matrix of the
        first K' < K modes is exactly its leading K' x K' block.
        """
        H = np.diag(kin_mult(self.p))
        for B, wq in self._nodes(pieces):
            H += (B * wq) @ B.T
        return 0.5 * (H + H.T)

    def project(self, pieces):
        """int mode_k func r^2 dr over the pieces, for every k."""
        return sum(B @ wq for B, wq in self._nodes(pieces))
