"""Zero-energy s-wave scattering length of a radial pair potential.

u'' = COUPLING w u, (u, u') = (0, 1) at the hard core (or r = 0), is solved
by exact 2x2 transfer matrices, one per piece of the knot data; past the range
R u is affine, so a = R - u(R)/u'(R).  COUPLING = 2 makes `a` the scattering
length of 4w in the convention u'' = w u / 2 of the GP term 4 pi a |phi|^4 and
the Dyson operator's v/2 (0.3718, not 0.1389, on `square 1 1`); the switch is
COUPLING = 0.5 and new benchmark references.  a is monotone in w >= 0 (Lieb,
Seiringer, Solovej & Yngvason 2005, App. C): piecewise-constant bounds bracket it.
"""

from dataclasses import dataclass

import numpy as np

COUPLING = 2.0  # u'' = COUPLING w u
CELLS = 64      # cells per linear piece of the bracket's minorant and majorant


@dataclass(frozen=True)
class RadialPotential:
    """w(r): `values` at `radii`, linear between, values[0] before, 0 past; inf in the core."""

    radii: tuple
    values: tuple
    core: float = 0.0

    def __post_init__(self):
        r, w = np.asarray(self.radii, dtype=float), np.asarray(self.values, dtype=float)
        if not (r.ndim == 1 and r.shape == w.shape and r.size and np.all(np.isfinite(w))
                and np.all(np.isfinite(r)) and 0 <= r[0] and np.all(np.diff(r) > 0)
                and 0 <= self.core <= r[-1] and r[-1] > 0):
            raise ValueError("knots must be finite, 0 <= r_0 < ... < R, and 0 <= core <= R")

    rrange = property(lambda self: self.radii[-1])
    knots = property(lambda self: self.radii if len(self.radii) > 1 else ())  # none in a barrier

    def __call__(self, r):
        return np.interp(r, self.radii, self.values, right=0.0)

    def scaled(self, n: float) -> "RadialPotential":
        """The short-range rescaling w_n(r) = n^2 w(n r)."""
        if not 0 < n < np.inf:
            raise ValueError("scale must be positive and finite")
        return RadialPotential(tuple(r / n for r in self.radii),
                               tuple(w * n**2 for w in self.values), self.core / n)


def hard_sphere(radius: float) -> RadialPotential:
    return RadialPotential((radius,), (0.0,), core=radius)


def square_barrier(radius: float, height: float) -> RadialPotential:
    if not 0 <= height < np.inf:
        raise ValueError("barrier height must be nonnegative and finite")
    return RadialPotential((radius,), (height,))


def from_samples(r, w) -> RadialPotential:
    """Piecewise-linear potential through (r, w) sample points, w >= 0."""
    if np.size(r) < 2 or np.any(np.asarray(w, dtype=float) < 0):
        raise ValueError("need two or more samples, and nonnegative potential values")
    return RadialPotential(*(tuple(np.asarray(x, dtype=float).tolist()) for x in (r, w)))


def _piece_matrices(h, q0, q1):
    """Transfer matrices (2, 2, n) of u'' = q u over pieces of widths h, q linear
    from q0 to q1: F(z1) F(z0)^-1, F = [[Ai, Bi], [al Ai', al Bi']] of z = q/al^2,
    al^3 the slope (det F = al/pi; Ai e^zeta, Bi e^-zeta past z = 0, zeta(z1) -
    zeta(z0) from q); where |al h| < 1e-3 or |z| > 1e6 (scipy's range), the mean's
    cosh/sinh, cos/sin or [[1, h], [0, 1]] plus the slope's first order."""
    q, dq = (q0 + q1) / 2, q1 - q0
    with np.errstate(all="ignore"):
        al = np.cbrt(dq / h)
        z0, z1 = q0 / al**2, q1 / al**2
        flat = ~((np.abs(al * h) >= 1e-3) & (np.maximum(np.abs(z0), np.abs(z1)) <= 1e6))
        kh = np.sqrt(np.abs(q)) * h
        c = np.where(q > 0, np.cosh(kh), np.cos(kh))
        s = np.where(kh == 0, h, h * np.where(q > 0, np.sinh(kh), np.sin(kh)) / kh)
        # first order in the slope: int (x - h/2) M(h - x) [[0, 0], [1, 0]] M(x) dx
        d = dq / h * np.where(q == 0, -h**3 / 12, (s - h * c) / (4 * q))
        M = np.array([[c + d, s], [q * s, c - d]])
        if flat.all():
            return M
        from scipy.special import airy, airye  # not at import: the GP path runs without scipy
        h, q0, q1, al = h[~flat], q0[~flat], q1[~flat], al[~flat]
        (ai0, aip0, bi0, bip0), (ai1, aip1, bi1, bip1) = (
            np.where(z > 0, airye(z), airy(np.minimum(z, 0.0))) for z in (z0[~flat], z1[~flat]))
        p0, p1 = np.maximum(q0, 0.0), np.maximum(q1, 0.0)
        dzeta = np.nan_to_num((2 / 3) * h * (p1 - p0) / np.abs(q1 - q0)
                              * (p1 + np.sqrt(p0 * p1) + p0) / (np.sqrt(p1) + np.sqrt(p0)))
        up, dn = np.exp(dzeta), np.exp(-dzeta)
        M[..., ~flat] = np.pi * np.array([
            [ai1 * bip0 * dn - bi1 * aip0 * up, (bi1 * ai0 * up - ai1 * bi0 * dn) / al],
            [al * (aip1 * bip0 * dn - bip1 * aip0 * up), bip1 * ai0 * up - aip1 * bi0 * dn]])
    return M


def _end_state(h, w0, w1):
    """(u, u') from (0, 1) across pieces of widths h (none: a hard sphere), w
    linear from w0 to w1: the matrices' product, reduced pairwise, later piece
    left, padded with the identity; inf or nan on overflow, which callers check."""
    M = _piece_matrices(h, COUPLING * w0, COUPLING * w1) if h.size else np.eye(2)[..., None]
    with np.errstate(all="ignore"):
        while M.shape[2] > 1:
            if M.shape[2] % 2:
                M = np.concatenate([M, np.eye(2)[..., None]], axis=2)
            M = M[:, :1, 1::2] * M[:1, :, 0::2] + M[:, 1:, 1::2] * M[1:, :, 0::2]
    return M[0, 1, 0], M[1, 1, 0]


def _pieces(pot):
    """(widths, w at the starts, w at the ends) of the pieces from the core to R."""
    r = np.array([pot.core, *(x for x in pot.radii if x > pot.core)])
    return np.diff(r), pot(r[:-1]), pot(r[1:])


def _length(R, u, du):
    """a = R - u(R)/u'(R): exact, since u is affine past R."""
    if not (np.isfinite(u) and np.isfinite(du) and du != 0.0):
        raise ArithmeticError("u(R) overflows or u'(R) = 0: the barrier is too tall for "
                              "double precision ('hardcore R0' is its limit), or resonant")
    return float(R - u / du)


def radial_solution(pot: RadialPotential):
    """(u(R), u'(R)) at R = rrange, from (u, u') = (0, 1) at the core."""
    return _end_state(*_pieces(pot))


def scattering_length(pot: RadialPotential) -> float:
    return _length(pot.rrange, *radial_solution(pot))


def scattering_bracket(pot: RadialPotential):
    """(a_lower, a_upper) of w's piecewise-constant minorant and majorant on CELLS
    cells per linear piece (one per constant piece): for w >= 0 they bracket a."""
    h, w0, w1 = _pieces(pot)
    n = np.where(w0 == w1, 1, CELLS)
    piece = np.repeat(np.arange(h.size), n)
    j = np.arange(piece.size) - (np.cumsum(n) - n)[piece]  # cell within its piece
    ends = w0[piece] + (w1 - w0)[piece] * (j + np.array([[0], [1]])) / n[piece]
    return tuple(_length(pot.rrange, *_end_state(h[piece] / n[piece], v, v))
                 for v in (ends.min(0), ends.max(0)))


def square_barrier_length(radius: float, height: float) -> float:
    """Closed form a = R - tanh(kappa R)/kappa, kappa = sqrt(COUPLING height)."""
    kappa = np.sqrt(COUPLING * height)
    return float(radius - np.tanh(kappa * radius) / kappa) if height else 0.0
