"""Soft-potential machinery behind the hard-to-soft interaction replacement.

A smooth radial Fourier cutoff chi removes low momenta; the price of the
replacement is controlled by h, the inverse Fourier transform of (1 - chi)
(convention h(x) = (2 pi)^{-3} int (1-chi)(p) e^{ip.x} dp), through

    f_R(x) = sup_{|y| <= R} |h(x - y) - h(x)|,
    w_R(x) = (2/pi^2) f_R(x) int f_R,

and the replacement target is the hat potential

    U_R(x) = 6 R^{-3} on 2^{-1/3} R <= |x| <= R,   int U_R = 4 pi.

Everything is radial, so f_R reduces exactly to a 1D extremum:
sup over the window rho in [| |x| - R |, |x| + R] of |h(rho) - h(|x|)|
(every such rho is attained by some |y| <= R, and no others are).

f_R, w_R and U_R do not depend on eps; it enters only the operator inequality

    -grad chi(p)^2 grad + v/2 >= (1-eps) a U_R - (a/eps) w_R,

checked per angular-momentum channel by Galerkin compression in the
Dirichlet spherical-Bessel basis on a large ball, where the momentum
multiplier is diagonal.  A compression of a nonnegative operator is
nonnegative, so the test is meaningful at any basis size; stability of
the minimal eigenvalue under refinement is reported alongside.  A
potential whose range reaches the ball's wall is refused.

The modified one-body operator K0 and the constant kappa(eta) that keeps
it nonnegative are lowest eigenvalues on the GP grid (fields.lowest_modes).
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .fields import lowest_modes
from .gp import GpProblem
from .quadrature import BesselChannel, gauss_pieces, sin_cos, weighted_nodes
from .scattering import RadialPotential


# ---------------------------------------------------------------------------
# smooth cutoff
# ---------------------------------------------------------------------------

def _bump_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, via e^{-1/x} weights."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f0 = np.where(x > 0.0, np.exp(-1.0 / np.clip(x, 1e-300, None)), 0.0)
        f1 = np.where(x < 1.0, np.exp(-1.0 / np.clip(1.0 - x, 1e-300, None)), 0.0)
    return f0 / (f0 + f1)


@dataclass(frozen=True)
class CutoffFunction:
    """chi(p) = ell(s p) with ell a smooth 0 -> 1 ramp on radii [1, 2]."""

    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"cutoff scale s must be positive, got {self.s}")

    @staticmethod
    def ell(p):
        return _bump_step(np.abs(p) - 1.0)

    def __call__(self, p):
        return self.ell(self.s * np.asarray(p, dtype=float))

    @property
    def p_hi(self):
        return 2.0 / self.s


# ---------------------------------------------------------------------------
# soft potentials
# ---------------------------------------------------------------------------

def _h_radial(chi: CutoffFunction, r_max, n):
    """h(r) = (2 pi^2)^{-1} int_0^{2/s} q^2 (1-chi)(q) sin(q r)/(q r) dq.

    On r = linspace(0, r_max, n), the sine sum is taken by angle addition
    over r = r_a + r_b, with r_a on every m-th node and 0 <= r_b < m steps,
    m ~ sqrt(n): sin q(r_a + r_b) = sin q r_a cos q r_b + cos q r_a sin q r_b,
    two (n/m x 400)(400 x m) products instead of an n x 400 sine table.
    """
    q, amp = weighted_nodes(0.0, chi.p_hi, 400, lambda q: 1.0 - chi(q))
    c = amp / q
    r = np.linspace(0.0, r_max, n)
    m = int(np.ceil(np.sqrt(n)))
    sin_a, cos_a = sin_cos(np.multiply.outer(m * r[1] * np.arange(-(-n // m)), q))
    sin_b, cos_b = sin_cos(np.multiply.outer(r[1] * np.arange(m), q))
    sines = ((sin_a * c) @ cos_b.T + (cos_a * c) @ sin_b.T).ravel()
    # Gauss nodes q > 0; the r = 0 kernel is 1
    h = np.concatenate([[amp.sum()], sines[1:n] / r[1:]])
    return h / (2.0 * np.pi**2)


@dataclass
class SoftPotentials:
    """f_R on a radial grid, and w_R and U_R from it: fixed by chi and R alone."""

    chi: CutoffFunction
    R: float
    r: np.ndarray          # radial grid
    fR: np.ndarray         # f_R samples on r
    int_fR: float          # int f_R over R^3
    UR_height: float = dc_field(init=False)

    def __post_init__(self):
        self.UR_height = 6.0 / self.R**3

    def wR(self, r):
        """w_R interpolated to r from the stored grid, zero beyond it."""
        w = (2.0 / np.pi**2) * self.fR * self.int_fR
        return np.interp(np.asarray(r, dtype=float), self.r, w, right=0.0)

    def UR(self, r):
        r = np.asarray(r, dtype=float)
        inner = 2.0 ** (-1.0 / 3.0) * self.R
        return np.where((r >= inner) & (r <= self.R), self.UR_height, 0.0)

    @property
    def int_wR(self):
        return (2.0 / np.pi**2) * self.int_fR**2


def _windowed_extremes(h, r, R):
    """For each r_i, min and max of h over the window [|r_i - R|, r_i + R].

    Interior grid samples are combined with interpolated values at the two
    window endpoints, where the extremum frequently sits.
    """
    lo_r = np.abs(r - R)
    hi_r = r + R
    lo = np.searchsorted(r, lo_r, side="left")
    hi = np.searchsorted(r, hi_r, side="right")
    h_lo = np.interp(lo_r, r, h)
    h_hi = np.interp(hi_r, r, h, right=h[-1])
    hmax = np.maximum(h_lo, h_hi)
    hmin = np.minimum(h_lo, h_hi)
    # reduceat over the (lo, hi) pairs: even slots reduce h[lo:hi], odd
    # slots are discarded; the pad keeps the index hi = n in range
    pairs = np.stack([lo, hi], axis=1).ravel()
    hp, live = np.append(h, h[-1]), hi > lo
    hmin[live] = np.minimum(hmin, np.minimum.reduceat(hp, pairs)[::2])[live]
    hmax[live] = np.maximum(hmax, np.maximum.reduceat(hp, pairs)[::2])[live]
    return hmin, hmax


def build_soft_potentials(chi: CutoffFunction, R) -> SoftPotentials:
    """Sample h and f_R on 6000 radii out to 25 s and package the soft potentials."""
    if not 0 < R <= chi.s:
        raise ValueError("validity window requires 0 < R <= cutoff scale s")
    r_max = 25.0 * chi.s
    r = np.linspace(0.0, r_max + R, 6000)
    h = _h_radial(chi, r_max + R, 6000)
    n_keep = np.searchsorted(r, r_max)
    hmin, hmax = _windowed_extremes(h, r, R)
    fR = np.maximum(hmax - h, h - hmin)[:n_keep]
    r = r[:n_keep]
    int_fR = 4.0 * np.pi * np.trapezoid(fR * r * r, r)
    return SoftPotentials(chi=chi, R=R, r=r, fR=fR, int_fR=int_fR)


def verify_wr_scaling(s):
    """Log-log slope of int w_R over the five radii R = geomspace(0.03 s, 0.3 s)
    at fixed s, a decade inside the validity window R <= s."""
    chi = CutoffFunction(s)
    R_values = np.geomspace(0.03 * s, 0.3 * s, 5)
    integrals = [build_soft_potentials(chi, R).int_wR for R in R_values]
    return {"slope": float(np.polyfit(np.log(R_values), np.log(integrals), 1)[0])}


# ---------------------------------------------------------------------------
# operator inequality in spherical-Bessel Galerkin bases
# ---------------------------------------------------------------------------

def _lowest_eig(H):
    """Lowest eigenvalue of the symmetric H (its lower triangle), from all of
    them by numpy's eigvalsh.  A matrix with a NaN yields NaN eigenvalues
    rather than an error, so they are checked to be finite."""
    w = np.linalg.eigvalsh(H)
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("eigenvalues of a matrix that is not finite")
    return float(w[0])


# inverse-iteration steps before a block goes to _lowest_eig; the dyson-check
# defaults take 4 to 8, a lowest pair with lam_1 / lam_2 near 1 hundreds
_INVERSE_STEPS = 50


def _settled_minimum(factor, k, start=None):
    """Lowest eigenvalue of the block whose Cholesky factor is factor[:k, :k],
    and the unit vector it settled on, by inverse iteration from start (a
    shorter unit vector, padded with zeros) or else from a flat one: one
    dpotrs solve y = H_k^{-1} x per step, until the Rayleigh quotient
    y.x / y.y (= y.H_k y / y.y) is within 4 ulp of its value one or two
    steps back; the latter ends a rounding-level cycle between two values.
    (None, None) if it has not settled in _INVERSE_STEPS.
    """
    block = np.asfortranarray(factor[:k, :k])
    x = np.full(k, k ** -0.5) if start is None else np.pad(start, (0, k - start.size))
    rho, last = np.inf, np.inf
    for _ in range(_INVERSE_STEPS):
        y = dpotrs(block, x, lower=1)[0]
        yy = y @ y
        rho, last, before = (y @ x) / yy, rho, last
        x = y / np.sqrt(yy)
        if min(abs(rho - last), abs(rho - before)) <= 4.0 * np.spacing(rho):
            return float(rho), x
    return None, None


def _nested_minima(H, sizes):
    """Lowest eigenvalue of each leading block H[:k, :k] of the symmetric H.

    The Cholesky factor of a leading block is the leading block of H's
    factor, so one dpotrf serves every size (_settled_minimum).  Each
    block's iteration starts from the vector the block before it settled
    on, padded with zeros, unless that block was larger or did not settle.
    Both this and eigvalsh are accurate to about eps ||H||.  Should dpotrf
    refuse H (not positive definite), or a block's iteration not settle,
    that block goes to _lowest_eig.
    """
    factor, info = dpotrf(H, lower=1)
    minima, vec = [], None
    for k in sizes:
        if vec is not None and vec.size > k:
            vec = None
        m, vec = (None, None) if info else _settled_minimum(factor, k, vec)
        minima.append(_lowest_eig(H[:k, :k]) if m is None else m)
    return minima


def check_dyson_inequality(
    v: RadialPotential,
    sp: SoftPotentials,
    a_scatt: float,
    epsilon: float,
    ell_list=(0, 1, 2),
    basis_sizes=(150, 250, 350),
):
    """Minimal eigenvalue of (kinetic + v/2) - ((1-eps) a U_R - (a/eps) w_R),
    eps = epsilon in (0, 1).

    The Bessel channels live on the ball of radius L = max(4 s, 10 R), and
    each piece of the potential is integrated on Gauss panels sized for the
    largest basis (quadrature.gauss_pieces).  A potential whose range
    reaches L is refused (ValueError): the modes' Dirichlet wall, not the
    inequality, would decide the verdict.  Each channel's matrix is built
    once at the largest size; a smaller basis is its leading block, whose
    lowest eigenvalue alone is computed from one Cholesky factor of the
    largest (_nested_minima), or, where the channel is not positive
    definite or the iteration does not settle, by numpy's eigvalsh
    (_lowest_eig).  Returns a dict with the per-channel minima at each basis
    size, the overall minimum at the finest size, the largest change of a
    channel's minimum between the two finest sizes (the refinement drift),
    int U_R on the nodes of the U_R piece, and a pass flag at slack
    1e-6 * a * ||U_R||_inf.
    """
    if v.core > 0:
        raise ValueError("approximate a hard core by a tall finite barrier")
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    chi = sp.chi
    L = float(max(4.0 * chi.s, 10.0 * sp.R))
    if v.rrange >= L:
        raise ValueError(f"the potential's range {v.rrange:g} reaches the ball's "
                         f"radius L = {L:g}, where the Bessel modes end")
    K = max(basis_sizes)

    def kin(p):
        return p * p * chi(p) ** 2

    # multiplicative part: v/2 - (1-eps) a U_R + (a/eps) w_R.  A panel edge
    # sits on every kink and jump: v's knots and its range, and the two
    # edges of the hat.  w_R, piecewise linear on its 6000-point grid, stays
    # one panel: at the dyson-check defaults it is below 3e-6, and its kinks
    # move the minima by about 1e-13
    hat = gauss_pieces((2.0 ** (-1.0 / 3.0) * sp.R, sp.R), sp.UR, K, L)[0]
    pieces = [
        *gauss_pieces([0.0, *(k for k in v.knots if 0.0 < k < v.rrange), v.rrange],
                      lambda r: 0.5 * v(r), K, L),
        (*hat[:3], lambda r: -(1.0 - epsilon) * a_scatt * sp.UR(r)),
        *gauss_pieces((0.0, L), lambda r: (a_scatt / epsilon) * sp.wR(r), K, L),
    ]

    table = {}
    for ell in ell_list:  # one matrix per channel; each size is a leading block
        H = BesselChannel(ell, K, L).matrix(kin, pieces)
        table[ell] = _nested_minima(H, basis_sizes)
    min_eig = min(table[ell][-1] for ell in ell_list)
    slack = 1e-6 * a_scatt * sp.UR_height if a_scatt > 0 else 1e-10
    drift = max(
        abs(table[ell][-1] - table[ell][-2]) for ell in ell_list
    ) if len(basis_sizes) > 1 else 0.0
    return {
        "channels": table,
        "min_eig": min_eig,
        "int_UR": 4.0 * np.pi * float(weighted_nodes(*hat)[1].sum()),
        "slack": slack,
        "refinement_drift": drift,
        "passed": bool(min_eig >= -slack),
    }


# ---------------------------------------------------------------------------
# modified one-body operator
# ---------------------------------------------------------------------------

@dataclass
class ModifiedOneBody:
    kappa: float
    e: np.ndarray           # lowest J eigenvalues of K0


def kappa_eta(p: GpProblem, eta: float) -> float:
    """inf spec(-eta Lap + 2 p.A + eta |x|^4) on the problem's grid."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return float(lowest_modes(p.gauge, eta * p.grid.ksq(), eta * p.grid.radius_sq() ** 2, 1)[0][0])


def build_K0(p: GpProblem, chi: CutoffFunction, eta: float, J: int) -> ModifiedOneBody:
    """Lowest J eigenvalues of
    -grad (1 - chi^2) grad - 2 eta Lap + 2 p.A + A^2 + V + eta |x|^4 - kappa(eta).
    """
    if J < 1:  # eta is refused by kappa_eta
        raise ValueError(f"need J >= 1 eigenvalues, got {J}")
    grid = p.grid
    kappa = kappa_eta(p, eta)
    mult = grid.ksq() * (1.0 - chi(np.sqrt(grid.ksq())) ** 2) + 2.0 * eta * grid.ksq()
    scalar = p.gauge.magnitude_sq() + p.potential + eta * grid.radius_sq() ** 2 - kappa
    return ModifiedOneBody(kappa=kappa, e=lowest_modes(p.gauge, mult, scalar, J)[0])
