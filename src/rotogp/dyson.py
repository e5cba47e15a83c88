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

The operator inequality

    -grad chi(p)^2 grad + v/2 >= (1-eps) a U_R - (a/eps) w_R

is checked per angular-momentum channel by Galerkin compression in the
Dirichlet spherical-Bessel basis on a large ball, where the momentum
multiplier is diagonal.  A compression of a nonnegative operator is
nonnegative, so the test is meaningful at any basis size; stability of
the minimal eigenvalue under refinement is reported alongside.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, eigsh

from .fields import ComplexField, apply_gauge_kinetic
from .gp import GpProblem
from .quadrature import BesselChannel, gauss_legendre
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
        if self.s <= 0:
            raise ValueError("cutoff scale must be positive")

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
    q, wq = gauss_legendre(400)
    q = 0.5 * chi.p_hi * (q + 1.0)
    wq = 0.5 * chi.p_hi * wq
    amp = wq * q * q * (1.0 - chi(q))
    c = amp / q
    r = np.linspace(0.0, r_max, n)
    m = int(np.ceil(np.sqrt(n)))
    qa = np.multiply.outer(m * r[1] * np.arange(-(-n // m)), q)
    qb = np.multiply.outer(r[1] * np.arange(m), q)
    sines = ((np.sin(qa) * c) @ np.cos(qb).T + (np.cos(qa) * c) @ np.sin(qb).T).ravel()
    # Gauss nodes q > 0; the r = 0 kernel is 1
    h = np.concatenate([[amp.sum()], sines[1:n] / r[1:]])
    return h / (2.0 * np.pi**2)


@dataclass
class SoftPotentials:
    chi: CutoffFunction
    R: float
    epsilon: float
    r: np.ndarray          # radial grid
    h: np.ndarray          # h samples on r
    fR: np.ndarray         # f_R samples on r
    int_fR: float          # int f_R over R^3
    UR_height: float = dc_field(init=False)

    def __post_init__(self):
        self.UR_height = 6.0 / self.R**3

    def wR(self, r=None):
        """w_R on the stored grid (or interpolated to r)."""
        w = (2.0 / np.pi**2) * self.fR * self.int_fR
        if r is None:
            return w
        return np.interp(np.asarray(r, dtype=float), self.r, w, right=0.0)

    def UR(self, r):
        r = np.asarray(r, dtype=float)
        inner = 2.0 ** (-1.0 / 3.0) * self.R
        return np.where((r >= inner) & (r <= self.R), self.UR_height, 0.0)

    @property
    def int_UR(self):
        return 4.0 * np.pi  # 6 R^{-3} * (4 pi / 3)(R^3 - R^3/2), exactly

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


def build_soft_potentials(chi: CutoffFunction, R, epsilon) -> SoftPotentials:
    """Sample h and f_R on 6000 radii out to 25 s and package the soft potentials."""
    if R <= 0 or not (0 < epsilon < 1):
        raise ValueError("need R > 0 and 0 < epsilon < 1")
    if R > chi.s:
        raise ValueError("validity window requires R <= cutoff scale s")
    r_max = 25.0 * chi.s
    r = np.linspace(0.0, r_max + R, 6000)
    h = _h_radial(chi, r_max + R, 6000)
    n_keep = np.searchsorted(r, r_max)
    hmin, hmax = _windowed_extremes(h, r, R)
    fR = np.maximum(hmax - h, h - hmin)[:n_keep]
    r = r[:n_keep]
    int_fR = 4.0 * np.pi * np.trapezoid(fR * r * r, r)
    return SoftPotentials(
        chi=chi, R=R, epsilon=epsilon, r=r, h=h[:n_keep], fR=fR, int_fR=int_fR
    )


def verify_wr_scaling(s, R_values, epsilon=0.5):
    """Table of int w_R over an R sweep at fixed s, plus the log-log slope."""
    R_values = np.asarray(R_values, dtype=float)
    if R_values.size < 3 or R_values.max() / R_values.min() < 8.0:
        raise ValueError("R sweep should span about a decade")
    chi = CutoffFunction(s)
    integrals = np.array(
        [build_soft_potentials(chi, R, epsilon).int_wR for R in R_values]
    )
    slope = np.polyfit(np.log(R_values), np.log(integrals), 1)[0]
    ratios = integrals / (R_values**2 / s**2)
    return {"R": R_values, "int_wR": integrals, "slope": float(slope),
            "ratio": ratios}


# ---------------------------------------------------------------------------
# operator inequality in spherical-Bessel Galerkin bases
# ---------------------------------------------------------------------------

def check_dyson_inequality(
    v: RadialPotential,
    sp: SoftPotentials,
    a_scatt: float,
    ell_list=(0, 1, 2),
    basis_sizes=(150, 250, 350),
):
    """Minimal eigenvalue of (kinetic + v/2) - ((1-eps) a U_R - (a/eps) w_R).

    The Bessel channels live on the ball of radius max(4 s, 10 R).  Returns
    a dict with the per-channel minima at each basis size, the overall
    minimum at the finest size, and a pass flag at slack
    1e-6 * a * ||U_R||_inf.
    """
    chi = sp.chi
    eps = sp.epsilon
    L = float(max(4.0 * chi.s, 10.0 * sp.R))

    def kin(p):
        return p * p * chi(p) ** 2

    # multiplicative part: v/2 - (1-eps) a U_R + (a/eps) w_R, split into
    # quadrature segments tuned to each piece's support
    inner_shell = 2.0 ** (-1.0 / 3.0) * sp.R
    pieces = [
        (0.0, v.rrange, 600, lambda r: 0.5 * v(r)),
        (inner_shell, sp.R, 200,
         lambda r: -(1.0 - eps) * a_scatt * sp.UR(r)),
        (0.0, L, 2400, lambda r: (a_scatt / eps) * sp.wR(r)),
    ]
    if v.core > 0:
        raise ValueError("approximate a hard core by a tall finite barrier")

    table = {}
    for ell in ell_list:  # one matrix per channel; each size is a leading block
        H = BesselChannel(ell, max(basis_sizes), L).matrix(kin, pieces)
        table[ell] = [float(np.linalg.eigvalsh(H[:K, :K])[0]) for K in basis_sizes]
    min_eig = min(table[ell][-1] for ell in ell_list)
    slack = 1e-6 * a_scatt * sp.UR_height if a_scatt > 0 else 1e-10
    drift = max(
        abs(table[ell][-1] - table[ell][-2]) for ell in ell_list
    ) if len(basis_sizes) > 1 else 0.0
    return {
        "channels": table,
        "min_eig": min_eig,
        "slack": slack,
        "refinement_drift": drift,
        "passed": bool(min_eig >= -slack),
    }


# ---------------------------------------------------------------------------
# modified one-body operator
# ---------------------------------------------------------------------------

@dataclass
class ModifiedOneBody:
    eta: float
    kappa: float
    e: np.ndarray           # lowest J eigenvalues of K0


def _lowest_eigs(p: GpProblem, multiplier, scalar, J):
    """Lowest J eigenvalues, ascending, of multiplier(k) + 2 p.A + |A|^2 + scalar(x).

    p^2 + 2 p.A + |A|^2 is fields.apply_gauge_kinetic, the rest of the
    multiplier one n-D transform pair; at Omega = 0, A = 0 and the pair is
    all.  The multiplier is then real and even in k, so the operator is real
    symmetric: ARPACK runs its real driver and the pair is a real one on
    the half spectrum.  ARPACK starts from a seeded vector: repeated solves
    agree bitwise.

    No eigenvector is returned, so ARPACK stops at a relative Ritz residual
    ||r|| <= sqrt(eps) |theta|.  For a hermitian operator a Ritz value theta
    with residual r lies within ||r||^2 / gap of an eigenvalue, gap being
    its distance to the rest of the spectrum (Parlett, The Symmetric
    Eigenvalue Problem, Thm 11.7.1): eps theta^2 / gap, the eigenvalues at
    machine precision.
    """
    grid, gauge = p.grid, p.gauge
    rotating = bool(np.any(gauge.omega))

    if rotating:
        rest = multiplier - grid.ksq()

        def apply(x):
            v = x.reshape(grid.shape)
            out = np.fft.ifftn(rest * np.fft.fftn(v)) + scalar * v
            out += apply_gauge_kinetic(ComplexField(grid, v), gauge).values
            return out.reshape(-1)
    else:
        # the last axis's first n//2 + 1 frequencies are rfftn's, up to the
        # sign of the Nyquist one, which an even multiplier does not see
        half = np.ascontiguousarray(multiplier[..., : grid.shape[-1] // 2 + 1])

        def apply(x):
            v = x.reshape(grid.shape)
            out = sfft.irfftn(half * sfft.rfftn(v), s=grid.shape) + scalar * v
            return out.reshape(-1)

    n = int(np.prod(grid.shape))
    op = LinearOperator((n, n), matvec=apply, dtype=complex if rotating else float)
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = eigsh(op, k=J, which="SA", v0=v0, tol=np.sqrt(np.finfo(float).eps),
                 return_eigenvectors=False)
    return np.sort(vals)


def kappa_eta(p: GpProblem, eta: float) -> float:
    """inf spec(-eta Lap + 2 p.A + eta |x|^4) on the problem's grid."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    scalar = eta * p.grid.radius_sq() ** 2 - p.gauge.magnitude_sq()
    return float(_lowest_eigs(p, eta * p.grid.ksq(), scalar, 1)[0])


def build_K0(p: GpProblem, chi: CutoffFunction, eta: float, J: int) -> ModifiedOneBody:
    """Lowest J eigenvalues of
    -grad (1 - chi^2) grad - 2 eta Lap + 2 p.A + A^2 + V + eta |x|^4 - kappa(eta).
    """
    if eta <= 0 or J < 1:
        raise ValueError("need eta > 0 and J >= 1")
    grid = p.grid
    kappa = kappa_eta(p, eta)
    kmag = np.sqrt(grid.ksq())
    mult = grid.ksq() * (1.0 - chi(kmag) ** 2) + 2.0 * eta * grid.ksq()
    quartic = grid.radius_sq() ** 2
    scalar = p.potential + eta * quartic - kappa
    return ModifiedOneBody(eta=eta, kappa=kappa, e=_lowest_eigs(p, mult, scalar, J))
