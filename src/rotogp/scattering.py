"""Zero-energy s-wave scattering length of a radial pair potential.

The reduced radial problem is integrated outward,

    u''(r) = 2 w(r) u(r),     u ~ const * (r - a)  beyond the range,

and since w vanishes past the range R, u is affine there: a = R - u(R)/u'(R)
exactly.  The 2 is the pair problem's in units where hbar = 2m = 1: the
reduced-mass kinetic term carries an extra 2.

A hard core of radius r_c is handled exactly by starting the integration
at r_c with u(r_c) = 0.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class RadialPotential:
    """Nonnegative-range radial pair potential w(r), zero beyond `rrange`."""

    rrange: float                      # w(r) = 0 for r > rrange
    func: Callable[[np.ndarray], np.ndarray]
    core: float = 0.0                  # hard-core radius (w = +inf below)
    knots: tuple = ()                  # radii where func has a kink or jump

    def __post_init__(self):
        if not (0 < self.rrange < np.inf and 0 <= self.core <= self.rrange):
            raise ValueError("need 0 <= core <= rrange, rrange > 0 and finite")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.rrange, self.func(r), 0.0)

    def scaled(self, n: float) -> "RadialPotential":
        """The short-range rescaling w_n(r) = n^2 w(n r)."""
        if not 0 < n < np.inf:
            raise ValueError("scale must be positive and finite")
        f = self.func
        return RadialPotential(
            rrange=self.rrange / n,
            func=lambda r, _f=f, _n=n: _n**2 * _f(_n * r),
            core=self.core / n,
            knots=tuple(k / n for k in self.knots),
        )


def hard_sphere(radius: float) -> RadialPotential:
    return RadialPotential(rrange=radius, func=lambda r: np.zeros_like(r), core=radius)


def square_barrier(radius: float, height: float) -> RadialPotential:
    if not 0 <= height < np.inf:
        raise ValueError("barrier height must be nonnegative and finite")
    return RadialPotential(
        rrange=radius, func=lambda r: np.full_like(np.asarray(r, float), height)
    )


def from_samples(r, w) -> RadialPotential:
    """Piecewise-linear potential through (r, w) sample points, w >= 0."""
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if r.ndim != 1 or r.shape != w.shape or r.size < 2:
        raise ValueError("need matching 1D sample arrays")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w))):
        raise ValueError("potential samples must be finite")
    if np.any(w < 0):
        raise ValueError("potential samples must be nonnegative")
    if np.any(np.diff(r) <= 0):
        raise ValueError("sample radii must be strictly increasing")
    return RadialPotential(
        rrange=float(r[-1]), func=lambda x: np.interp(x, r, w, left=w[0], right=0.0),
        knots=tuple(r.tolist()),
    )


def _rk4_step(u, v, h, w0, wh, w1):
    """Increments (du, dv) of one RK4 step of u'' = w u, v = u', w at r, r + h/2, r + h."""
    k1u = v
    k1v = w0 * u
    k2u = v + 0.5 * h * k1v
    k2v = wh * (u + 0.5 * h * k1u)
    k3u = v + 0.5 * h * k2v
    k3v = wh * (u + 0.5 * h * k2u)
    k4u = v + h * k3v
    k4v = w1 * (u + h * k3u)
    return (h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0,
            h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def _compose(E, hi, lo, cols):
    """Columns cols of E[hi] <- those of (I + E[hi])(I + E[lo]) - I.

    Entry by entry, (E_hi + E_lo) + E_hi E_lo: the O(h) steps are never
    rounded against the 1 on the diagonal.
    """
    H, L = E[..., hi], E[..., lo]
    new = []
    for c in cols:
        prod = H[:, 0] * L[0, c]
        prod += H[:, 1] * L[1, c]
        col = H[:, c] + L[:, c]
        col += prod
        new.append(col)
    for c, col in zip(cols, new):
        H[:, c] = col


def _rk4_outward(h, wvals):
    """RK4 for u'' = 2 w u from (u, u') = (0, 1); w on half-step nodes.

    Returns the u samples and the final derivative u'.  The equation is
    linear, so step k maps (u, u') by a 2x2 matrix I + E_k and the samples
    are the second columns of the prefix products, kept as offsets from the
    identity.  A work-efficient scan (Blelloch, CMU-CS-90-190, 1990; the
    Brent-Kung order) builds them in about 2 n products instead of n log2 n:
    the up-sweep leaves at index i = 2^m j - 1 the product of the 2^m steps
    ending there, so every i = 2^m - 1 holds a whole prefix; the down-sweep
    then completes, stride by stride, each index halfway between two whole
    prefixes from the one below it, and only the second column is read.
    """
    fw = 2.0 * wvals
    w0, wh, w1 = fw[:-1:2], fw[1::2], fw[2::2]
    n, s = wh.size, 1
    E = np.empty((2, 2, n))  # step index last
    E[0, 0], E[1, 0] = _rk4_step(1.0, 0.0, h, w0, wh, w1)
    E[0, 1], E[1, 1] = _rk4_step(0.0, 1.0, h, w0, wh, w1)
    while 2 * s <= n:
        _compose(E, slice(2 * s - 1, n, 2 * s), slice(s - 1, n - s, 2 * s), (0, 1))
        s *= 2
    while s > 1:
        s //= 2
        _compose(E, slice(3 * s - 1, n, 2 * s), slice(2 * s - 1, n - s, 2 * s), (1,))
    return np.concatenate([[0.0], E[0, 1]]), 1.0 + E[1, 1, -1]


def radial_solution(pot: RadialPotential, n_steps: int = 20000):
    """(r, u) for the zero-energy radial solution out to 2 * rrange.

    Integration stops at rrange, where w may be discontinuous; past it the
    equation is u'' = 0 and the solution is continued affinely, which is
    exact.
    """
    r0 = pot.core
    rr = pot.rrange
    if rr > r0:
        h = (rr - r0) / n_steps
        half_nodes = r0 + 0.5 * h * np.arange(2 * n_steps + 1)
        us, v_end = _rk4_outward(h, pot.func(half_nodes))
        r_in = r0 + h * np.arange(n_steps + 1)
    else:  # pure hard sphere: nothing to integrate
        us, v_end = np.array([0.0]), 1.0
        r_in = np.array([r0])
    r_out = np.linspace(rr, 2.0 * rr, n_steps + 1)[1:]
    u_out = us[-1] + v_end * (r_out - rr)
    return np.concatenate([r_in, r_out]), np.concatenate([us, u_out])


def scattering_length(pot: RadialPotential, n_steps: int = 20000) -> float:
    """a = R - u(R)/u'(R), R = rrange: exact, since u is affine past R."""
    r, u = radial_solution(pot, n_steps=n_steps)
    # the last n_steps samples are the affine continuation on (R, 2R]
    R, u_R = pot.rrange, u[-n_steps - 1]
    slope = (u[-1] - u_R) / (r[-1] - R)
    if slope == 0.0:
        raise ArithmeticError("outer solution is flat; scattering length undefined")
    return float(R - u_R / slope)


def square_barrier_length(radius: float, height: float) -> float:
    """Closed form a = R - tanh(kappa R)/kappa, kappa = sqrt(2 height)."""
    if height == 0.0:
        return 0.0
    kappa = np.sqrt(2.0 * height)
    return float(radius - np.tanh(kappa * radius) / kappa)
