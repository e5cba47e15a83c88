"""Zero-energy s-wave scattering length of a radial pair potential.

The reduced radial problem is integrated outward,

    u''(r) = 2 w(r) u(r),     u ~ const * (r - a)  beyond the range,

and since w vanishes past the range R, u is affine there: a = R - u(R)/u'(R)
exactly.  The 2 makes `a` the scattering length of 4w in the convention
u'' = w u / 2 of the GP term 4 pi a |phi|^4 and the Dyson operator's v/2:
on `square 1 1` it gives 0.3718 where that convention gives 0.1389.  The
switch to u'' = w u / 2 waits for ROADMAP item 6, with a revision of the
references.

A hard core of radius r_c is handled exactly by starting the integration
at r_c with u(r_c) = 0.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

N_STEPS = 20000  # RK4 steps over the potential's range, both integrators' default


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


def _rk4_outward(h, wvals):
    """End state (u, u') of RK4 for u'' = 2 w u from (u, u') = (0, 1); w on half-step nodes.

    The equation is linear, so step k maps (u, u') by a 2x2 matrix I + E_k and
    the end state is the second column of the product of all steps.  The
    product is reduced pairwise, later step on the left, each pair kept as an
    offset from the identity: (I + E_hi)(I + E_lo) - I = (E_hi + E_lo) +
    E_hi E_lo, so the O(h) steps are never rounded against the 1 on the
    diagonal.  An odd count is padded with E = 0, the identity.  A barrier
    too tall for double precision overflows to inf or nan, quietly: the
    caller checks the end state.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fw = 2.0 * wvals
        w0, wh, w1 = fw[:-1:2], fw[1::2], fw[2::2]
        E = np.empty((2, 2, wh.size))  # step index last
        E[0, 0], E[1, 0] = _rk4_step(1.0, 0.0, h, w0, wh, w1)
        E[0, 1], E[1, 1] = _rk4_step(0.0, 1.0, h, w0, wh, w1)
        while E.shape[2] > 1:
            if E.shape[2] % 2:
                E = np.concatenate([E, np.zeros((2, 2, 1))], axis=2)
            H, L = E[..., 1::2], E[..., 0::2]
            E = (H + L) + (H[:, :1] * L[:1] + H[:, 1:] * L[1:])
    return E[0, 1, 0], 1.0 + E[1, 1, 0]


def radial_solution(pot: RadialPotential, n_steps: int = N_STEPS):
    """(u(R), u'(R)) at R = rrange, where w may jump, from (u, u') = (0, 1) at the core."""
    r0 = pot.core
    if pot.rrange == r0:  # pure hard sphere: nothing to integrate
        return 0.0, 1.0
    h = (pot.rrange - r0) / n_steps
    return _rk4_outward(h, pot.func(r0 + 0.5 * h * np.arange(2 * n_steps + 1)))


def scattering_length(pot: RadialPotential, n_steps: int = N_STEPS) -> float:
    """a = R - u(R)/u'(R), R = rrange: exact, since u is affine past R."""
    u, du = radial_solution(pot, n_steps=n_steps)
    if not (np.isfinite(u) and np.isfinite(du)):
        raise ArithmeticError("u(R) overflows: the barrier is too tall for double "
                              "precision; 'hardcore R0' is its limit")
    if du == 0.0:
        raise ArithmeticError("outer solution is flat; scattering length undefined")
    return float(pot.rrange - u / du)


def square_barrier_length(radius: float, height: float) -> float:
    """Closed form a = R - tanh(kappa R)/kappa, kappa = sqrt(2 height)."""
    if height == 0.0:
        return 0.0
    kappa = np.sqrt(2.0 * height)
    return float(radius - np.tanh(kappa * radius) / kappa)
