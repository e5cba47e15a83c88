"""Gauss-Legendre rules and the Galerkin assembler in Dirichlet Bessel bases."""

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import roots_legendre


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    scipy's roots_legendre: Golub-Welsch eigenvalues of the banded Jacobi
    matrix, one Newton step per node.  Its cost grows faster than n (15 ms
    at n = 716, dyson-check's largest rule, 0.17 s at n = 2400, on 2 cores),
    so each rule is built once per interpreter, cached and shared between
    callers, and therefore read-only.
    """
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_pieces(breaks, func, K, L):
    """Gauss-Legendre pieces (lo, hi, n, func) of func between successive
    breaks, for the first K modes of a basis on [0, L]: n = int(2K(hi - lo)/L)
    + 16 nodes, two per half-wave of mode K plus 16.  The breaks must hold
    every kink and jump of func.
    """
    return [(lo, hi, int(2 * K * (hi - lo) / L) + 16, func)
            for lo, hi in zip(breaks, breaks[1:])]


def weighted_nodes(lo, hi, n, func):
    """Nodes r of the n-point Gauss-Legendre rule on [lo, hi] and the weights
    w func(r) r^2, so that sum(weights) is int_lo^hi func r^2 dr."""
    x, w = gauss_legendre(n)
    r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    return r, 0.5 * (hi - lo) * w * func(r) * r * r


# Gauss nodes per block of the assembler or of an integrand call, which bounds their transients
_BLOCK = 256
# QUADPACK's qk15 (Piessens et al., 1983): Kronrod nodes x >= 0 and weights,
# and the 7-point Gauss weights on the odd-indexed nodes
_XK, _WK, _WG = np.array([
    [0.99145537112081264, 0.94910791234275852, 0.86486442335976907, 0.74153118559939444,
     0.58608723546769113, 0.40584515137739717, 0.20778495500789847, 0.0],
    [0.022935322010529225, 0.063092092629978553, 0.10479001032225018, 0.14065325971552592,
     0.16900472663926790, 0.19035057806478541, 0.20443294007529889, 0.20948214108472783],
    [0.0, 0.12948496616886969, 0.0, 0.27970539148927667,
     0.0, 0.38183005050511894, 0.0, 0.41795918367346939]])
_NODES, _KRONROD, _CHECK = (np.r_[s * v[:-1], v[::-1]]
                            for s, v in ((-1, _XK), (1, _WK), (1, _WK - _WG)))


def integrate(f, breaks, *args):
    """Adaptive Gauss-Kronrod integrals of f over the panels between breaks,
    (k,) for one integral or (m, k) for m, each row ascending.  Each of args
    holds a value per row, passed to f beside the row's nodes y, (panels, 15).
    A panel is kept when its 15- and 7-point values differ by at most its
    width's share of 1e-8 times the integral, or by 1e-14 of its value, else
    it is bisected, at most 48 times; one whose 15- or 7-point value is not
    finite raises ArithmeticError.  Each round evaluates all live panels,
    about _BLOCK nodes per call.  Returns rows value and error: the kept
    15-point values and their differences, summed per integral.
    """
    b = np.atleast_2d(np.asarray(breaks, dtype=float))
    m, args = len(b), [np.asarray(a, dtype=float)[:, None] for a in args]
    row, col = np.nonzero(b[:, 1:] > b[:, :-1])  # the panels of positive width
    lo, hi, share = b[row, col], b[row, col + 1], 1e-8 / (b[:, -1] - b[:, 0])
    acc, step = np.zeros((2, m)), _BLOCK // 15  # kept values and errors per row
    for i in range(48):
        if not lo.size:
            break
        half = 0.5 * (hi - lo)
        y = (lo + half)[:, None] + half[:, None] * _NODES
        fy = np.concatenate([f(y[j:j + step], *(a[row[j:j + step]] for a in args))
                             for j in range(0, lo.size, step)])
        kron, err = half * (fy @ _KRONROD), np.abs(half * (fy @ _CHECK))
        if not (finite := np.isfinite(kron) & np.isfinite(err)).all():  # bisection cannot settle it
            j = np.argmin(finite)
            raise ArithmeticError(f"integrand not finite on panel [{lo[j]}, {hi[j]}]")
        tol = share[row] * np.abs(acc[0] + np.bincount(row, kron, m))[row] * (hi - lo)
        keep = (err <= np.maximum(tol, 1e-14 * np.abs(kron))) | (i == 47)
        acc += [np.bincount(row[keep], v[keep], m) for v in (kron, err)]
        mid, split = 0.5 * (lo + hi), ~keep
        lo, hi, row = (np.r_[u[split], v[split]] for u, v in ((lo, mid), (mid, hi), (row, row)))
    return acc if np.ndim(breaks) == 2 else acc[:, 0]


def sin_cos(x):
    """(sin x, cos x) = (t c, c - 1), c = 2 / (1 + t^2), from one t = tan(x/2):
    numpy vectorises tan but not sin or cos.  In place, as fresh blocks
    page-fault."""
    t = np.multiply(x, 0.5)
    c = np.multiply(np.tan(t, out=t), t)
    c += 1.0
    np.divide(2.0, c, out=c)
    return np.multiply(t, c, out=t), np.subtract(c, 1.0, out=c)


def _recur(ns, f, g, x, scratch):
    """Steps (f, g) -> ((2n + 1) f / x - g, f) of the spherical-Bessel
    recurrence for n in ns, in place: the new value overwrites g."""
    for n in ns:
        np.multiply(f, 2 * n + 1, out=scratch)
        np.divide(scratch, x, out=scratch)
        f, g = np.subtract(scratch, g, out=g), f
    return f, g


def _upward(ell, x):
    """(j_ell(x), j_{ell+1}(x)) upward from j_0 = sin x / x and
    j_1 = (j_0 - cos x) / x; accurate where x >= max(ell, 1)."""
    s, c = sin_cos(x)
    j0 = np.divide(s, x, out=s)
    j1 = np.divide(np.subtract(j0, c, out=c), x, out=c)
    j1, j0 = _recur(range(1, ell + 1), j1, j0, x, np.empty_like(x))
    return j0, j1


@lru_cache(maxsize=128)
def _series_coefficients(m):
    """Coefficients of j_m(x) / x^m in powers of x^2, to x^18; read-only, as
    every call of an order shares them."""
    c = np.cumprod([1.0 / math.prod(range(1, 2 * m + 2, 2))]
                   + [-0.5 / (k * (2 * m + 2 * k + 1)) for k in range(1, 10)])
    c.flags.writeable = False
    return c


def _series(ell, x):
    # Horner's rule in place, numpy's polyval on x^2 operation for operation
    x2 = x * x
    for m in (ell, ell + 1):
        c = _series_coefficients(m)
        s = np.full_like(x, c[-1])
        for ck in c[-2::-1]:
            s *= x2
            s += ck
        s *= x**m
        yield s


def _miller(ell, x):
    scratch = np.empty_like(x)
    f, f_next = _recur(range(ell + 10 + int(6 * ell ** (1 / 3)), ell, -1),
                       np.ones_like(x), np.zeros_like(x), x, scratch)
    top = np.array([f, f_next])  # a copy, as the two buffers are reused
    f, f_next = _recur(range(ell, 0, -1), f, f_next, x, scratch)
    norm = np.hypot(f, f_next)
    j0, j1 = _upward(0, x)
    return top * (((f / norm) * j0 + (f_next / norm) * j1) / norm)


def _spherical_jn_pair(ell, x):
    """(j_ell(x), j_{ell+1}(x)) on an array x >= 0, ell <= 110, within about 1e-15:
    upward recurrence where x >= max(ell, 1); the power series where x < 1;
    Miller's downward recurrence between, from order ell + 10 + 6 ell^(1/3)
    past the Airy layer, fitted to (j_0, j_1) as j_0 alone has zeros.  The
    upward recurrence runs on all of x, its overflow and 0 / 0 below
    max(ell, 1) silenced and then overwritten.
    """
    upward, small = x >= max(ell, 1), x < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pair = _upward(ell, x)
    for mask, part in ((small, _series), (~(upward | small), _miller)):
        if mask.any():
            pair[0][mask], pair[1][mask] = part(ell, x[mask])
    return pair


# fine frequencies per row of the channel-0 cosine sums
_FINE = 32


def _cosine_sums(r, g, L, rows):
    """F(m) = sum_n g_n cos(m pi r_n / L) for m < rows * _FINE, by angle
    addition: cos((_FINE a + b) x) = cos(_FINE a x) cos(b x) - sin(_FINE a x)
    sin(b x), from a rows x nodes table of the coarse angles and a _FINE x
    nodes table of the fine ones.  Each coarse row is one vector-matrix
    product of fixed shape, so F(m) does not depend on rows to the last bit;
    one rows x _FINE matrix product would, as BLAS picks its kernel by shape
    (a single row goes through gemv).
    """
    x = (np.pi / L) * r
    s, c = sin_cos(np.multiply.outer(np.arange(_FINE), x))
    fine = np.concatenate([c, -s], axis=1).T
    s, c = sin_cos(np.multiply.outer(_FINE * np.arange(rows), x))
    coarse = np.concatenate([c, s], axis=1) * np.r_[g, g]
    return np.concatenate([row @ fine for row in coarse])


def bessel_zeros(ell, count):
    """First `count` positive zeros of j_ell; for ell = 0, k pi in closed form."""
    if ell == 0:
        return np.pi * np.arange(1, count + 1)
    # j_ell > 0 on (0, first zero), and the count-th zero lies below
    # (count + ell/2) pi: one scan brackets every zero, the secant through
    # each bracket starts Newton steps with j_ell' = (ell/x) j_ell - j_{ell+1}.
    # The zeros exceed ell + 1/2: every x and z lies where the upward
    # recurrence holds, x >= max(1, ell)
    x = np.arange(max(1.0, ell), (count + 0.5 * ell + 1.0) * np.pi, 0.1)
    fx = _upward(ell, x)[0]
    idx = np.nonzero((fx[:-1] == 0.0) | (fx[:-1] * fx[1:] < 0.0))[0][:count]
    z = x[idx] - 0.1 * fx[idx] / (fx[idx + 1] - fx[idx])
    for _ in range(4):
        j, j_next = _upward(ell, z)
        z = z + j / (j_next - ell * j / z)
    return z


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
        alph = bessel_zeros(ell, K)
        self.p = alph / L
        self.norms = np.sqrt(L**3 / 2.0) * np.abs(_upward(ell, alph)[1])

    def __call__(self, r):
        """Mode values at radii r, shape (K, r.size).  A mode's values do not
        depend on K, so a smaller basis is a leading block."""
        x = np.multiply.outer(self.p, np.asarray(r, dtype=float))
        j = _spherical_jn_pair(self.ell, x)[0]
        j /= self.norms[:, None]
        return j

    def _nodes(self, pieces):
        # pieces: (r_lo, r_hi, n_quad, func) Gauss-Legendre segments, each
        # walked in blocks of _BLOCK nodes
        for r, wq in (weighted_nodes(*piece) for piece in pieces):
            for i in range(0, r.size, _BLOCK):
                yield self(r[i:i + _BLOCK]), wq[i:i + _BLOCK]

    def matrix(self, kin_mult, pieces):
        """diag(kin_mult(p)) plus int mode_i func mode_j r^2 dr over the pieces.

        Channel 0 assembles by product to sum: r mode_k is sqrt(2/L)
        sin(k pi r / L), so entry (i, j), counted from 0, is (F(i - j) -
        F(i + j + 2)) / L, a Toeplitz less a Hankel matrix of the cosine sums
        F(m) = sum over the nodes of func cos(m pi r / L) times the Gauss
        weight (_cosine_sums), for m <= 2K: no K x nodes mode table.  Other
        channels sum (B wq) B^T over blocks of mode tables B.  Entry (i, j)
        depends on modes i and j only, so the matrix of the first K' < K
        modes is exactly its leading K' x K' block.
        """
        if self.ell == 0:
            K, rows = self.p.size, 2 * self.p.size // _FINE + 1
            F = sum((_cosine_sums(r, wq / (r * r), self.L, rows)
                     for r, wq in (weighted_nodes(*piece) for piece in pieces)),
                    np.zeros(rows * _FINE))[:2 * K + 1]
            toeplitz = sliding_window_view(np.r_[F[K - 1:0:-1], F[:K]], K)[::-1]
            H = (toeplitz - sliding_window_view(F[2:], K)) / self.L
            H[np.diag_indices(K)] += kin_mult(self.p)
            return H
        H = np.diag(kin_mult(self.p))
        for B, wq in self._nodes(pieces):
            H += (B * wq) @ B.T
        return 0.5 * (H + H.T)

    def project(self, pieces):
        """int mode_k func r^2 dr over the pieces, for every k."""
        return sum(B @ wq for B, wq in self._nodes(pieces))
