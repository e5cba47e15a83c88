"""Heat-kernel diagonal bounds for confining potentials, with brute oracles.

The smoothing profile

    h_alpha(x) = (2/alpha) int_0^{alpha/4} (1 - 4t/alpha)^{-1/2} j_t(x) dt,
    j_t(x) = (4 pi t)^{-d/2} e^{-|x|^2 / 4t},

integrates to one in any dimension.  t = (alpha/4) sin^2(theta) makes it
int_0^{pi/2} sin(theta) j_t(x) dtheta, and u = cot(theta), 4t = alpha/(1 + u^2),

    h_alpha(x) = (pi alpha)^{-d/2} e^{-x^2/alpha}
                 int_0^inf (1 + u^2)^{(d-3)/2} e^{-u^2 x^2/alpha} du,

that is (1/2) sqrt(pi/alpha) erfc(|x|/sqrt(alpha)) in d = 1 and
e^{-x^2/alpha} / (2 pi alpha |x|) in d = 3, infinite but integrable at 0.
The diagonal bound reads

    e^{alpha(Delta - V)}(x, x) <= (4 pi alpha)^{-d/2} (e^{-alpha V} * h_alpha)(x),

checked against Galerkin eigenbases with an exact kinetic term: the sine
basis (d = 1) or spherical-Bessel channels (d = 3, radial V), on a box
reaching 12 sqrt(alpha) past the farthest point.  For V >= 0 the box's
Dirichlet kernel at (x, x) trails the whole-space one by at most
(4 pi alpha)^{-d/2} times the chance that a Brownian bridge of duration alpha
leaves B(x, 12 sqrt(alpha)), at most 2d e^{-144/d} < 1e-20 for d <= 3.
The bound is adaptive Gauss-Kronrod quadrature split at the cusps, not FFT:
V is unbounded and periodic wraparound would corrupt the tails.  In d = 3 the
shell average of h_alpha is a difference of erfc, and the weighted trace
reads every domain doubling off one profile on the largest domain, each
point summing only the radii where neither factor is an exact zero.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .quadrature import BesselChannel, gauss_legendre, gauss_pieces, integrate, weighted_nodes


# A confining potential V is a plain callable, nonnegative, evaluated on
# float arrays of positions (radii in d = 3); every function below takes one.

def harmonic_potential():
    return lambda x: x**2


def log_potential(C1: float):
    """C1 log(1 + |x|) >= C1 ln|x|: the log class V >= C1 ln|x| - C2 with C2 = 0."""
    if not 0 < C1 < np.inf:
        raise ValueError("need a finite log growth constant C1 > 0")
    return lambda x: C1 * np.log1p(np.abs(x))


def zero_potential():
    return lambda x: np.zeros_like(x)


def _check_inputs(alpha, d) -> None:
    """Opens every public function that takes alpha or d; a NaN alpha fails it."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if d not in (1, 3):
        raise ValueError(f"d must be 1 or 3, got {d}")


def _check_nonneg(V, span: float, d) -> None:
    probe = np.linspace(-span, span, 127) if d == 1 else np.linspace(0.0, span, 64)
    if not np.all(V(probe) >= -1e-12):  # NaN fails too
        raise ValueError("confining potential must be nonnegative")


# ---------------------------------------------------------------------------
# smoothing profile
# ---------------------------------------------------------------------------

def h_alpha(x, alpha, d=1):
    """h_alpha at radii x, any shape, one element at a time: (1/2) sqrt(pi/alpha)
    erfc(|x|/sqrt(alpha)) in d = 1, e^{-x^2/alpha} / (2 pi alpha |x|) in d = 3,
    infinite at x = 0."""
    _check_inputs(alpha, d)
    x = np.abs(np.asarray(x, dtype=float))
    if d == 1:
        return 0.5 * np.sqrt(np.pi / alpha) * special.erfc(x / np.sqrt(alpha))
    with np.errstate(divide="ignore"):
        return np.exp(-np.square(x) / alpha) / (2.0 * np.pi * alpha * x)


def h_alpha_integral(alpha, d=1):
    """Integral of h_alpha over |x| <= 12 sqrt(alpha) in R^d, radially reduced."""
    _check_inputs(alpha, d)
    f = lambda r: r ** (d - 1) * h_alpha(r, alpha, d)
    val = integrate(f, np.r_[0.0, 12.0 * np.sqrt(alpha)])[0]
    return (2.0 if d == 1 else 4.0 * np.pi) * val


def _shell_average(r, rho, alpha):
    """Average of h_alpha(|x - y|) over the sphere |y| = rho, |x| = r, d = 3.

    (1 / (2 r rho)) int_{|r-rho|}^{r+rho} sigma h(sigma) dsigma is the integral
    of e^{-sigma^2/alpha} / (4 pi alpha r rho): (sqrt(pi alpha)/2) (erfc(a) - erfc(b))
    with a, b the ends over sqrt(alpha).  As erfcx decreases, erfc(b) <= erfc(a)/e
    where b^2 - a^2 = 4 r rho/alpha >= 1; closer ends would cancel, and their
    window, 2 min(r, rho) < sqrt(alpha) wide, takes a 10-node Gauss rule: over
    r rho the average is the rule's sum over 4 pi alpha max(r, rho), which at
    r rho = 0 is h_alpha(max(r, rho)).  r and rho broadcast.
    """
    r, rho = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(rho, dtype=float))
    shape, r, rho = r.shape, r.ravel(), rho.ravel()
    lo, root, out = np.abs(r - rho), np.sqrt(alpha), np.empty(r.size)
    near = 4.0 * r * rho < alpha
    far = ~near
    out[far] = (special.erfc(lo[far] / root) - special.erfc((r[far] + rho[far]) / root)) / (
        8.0 * np.sqrt(np.pi * alpha) * r[far] * rho[far])
    u, w = gauss_legendre(10)
    sigma = lo[near, None] + np.minimum(r[near], rho[near])[:, None] * (1.0 + u)
    with np.errstate(divide="ignore"):  # r = rho = 0
        out[near] = np.sum(np.exp(-np.square(sigma) / alpha) * w, axis=1) / (
            4.0 * np.pi * alpha * np.maximum(r[near], rho[near]))
    return out.reshape(shape)


def diag_bound(V, alpha, xs, d=1):
    """(4 pi alpha)^{-d/2} (e^{-alpha V} * h_alpha)(x), all points in one
    `quadrature.integrate`, panels split at the |x - y| cusp of h_alpha and
    at y = 0 (log1p|y|'s cusp), up to the (certified-negligible)
    tail beyond y_max = max|x| + 12 sqrt(alpha) + 8.  No periodization, so
    unbounded V is handled exactly.  Returns rows bound and error estimate.
    """
    _check_inputs(alpha, d)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    y_max = np.abs(xs).max() + 12.0 * np.sqrt(alpha) + 8.0
    _check_nonneg(V, y_max, d)
    if d == 1:
        x, lo = xs, -y_max
        f = lambda y, x: np.exp(-alpha * V(y)) * h_alpha(x - y, alpha, d=1)
    else:
        x, lo = np.abs(xs), 0.0
        f = lambda y, r: 4.0 * np.pi * y * y * np.exp(-alpha * V(y)) * _shell_average(r, y, alpha)
    breaks = np.column_stack([np.full((x.size, 3), [lo, 0.0, y_max]), x])
    return (4.0 * np.pi * alpha) ** (-d / 2.0) * integrate(f, np.sort(breaks, axis=1), x)


# the trace profile's grid spacing; bytes of the window rows that one block
# of the d = 1 profile copies out for its matrix-vector product, whatever
# the kernel's width (32 rows at alpha = 1, 101 at alpha = 0.1); rows per
# block of the d = 3 profile, whose trace moves with the block size.  BLAS's
# gemv sums some row counts' last rows in another order (31 rows at
# alpha = 1 move the trace's last bit), so a new size is checked bit for bit
_DY = 0.01
_TRACE_BYTES = 620_000
_TRACE_ROWS = 32


def _diag_bound_grid(V, alpha, xs, d, y_max):
    """Fixed-spacing convolution on an equispaced grid, for trace scans.

    The spacing is independent of the domain size so that doubling the
    domain cannot change how well the (possibly sharply peaked) factor
    e^{-alpha V} is resolved.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    pref = (4.0 * np.pi * alpha) ** (-d / 2.0)
    dy = _DY
    if d == 1:
        y = np.arange(-y_max, y_max + dy / 2, dy)
        ev = np.exp(-alpha * V(y))
        half = int(np.ceil(12.0 * np.sqrt(alpha) / dy))
        # the kernel reversed, at offsets half dy down to -half dy
        rev = h_alpha(np.arange(half, -half - 1, -1) * dy, alpha, d=1)
        # np.interp reads conv only at j and j + 1 for y[j] <= x < y[j + 1],
        # clipped to the grid; outside ev's nonzero run e^{-alpha V}
        # underflows to exactly 0, and conv is 0 past one kernel half-width
        # from its ends.  Each read sample there is one window of the run,
        # zero-padded by a kernel width, times the reversed kernel
        live = np.flatnonzero(ev)
        conv = np.zeros(y.size)
        if live.size:
            lo, hi = live[0], live[-1] + 1
            j = np.searchsorted(y, xs, side="right") - 1
            reads = np.unique(np.clip(np.r_[j, j + 1], 0, y.size - 1))
            reads = reads[(reads >= lo - half) & (reads < hi + half)]
            windows = sliding_window_view(np.pad(ev[lo:hi], 2 * half), rev.size)
            block = max(1, _TRACE_BYTES // rev.nbytes)
            for b in range(0, reads.size, block):
                i = reads[b:b + block]
                conv[i] = windows[i - lo + half] @ rev * dy
        return pref * np.interp(xs, y, conv)
    # d = 3: angular average via the cumulative kernel G(s) = int_0^s u h(u) du:
    # (e^{-aV} * h)(r) = (2 pi / r) int rho e^{-aV(rho)} [G(r+rho) - G(|r-rho|)] drho
    rho = np.arange(dy, y_max, dy)
    ev = np.exp(-alpha * V(rho)) * rho * dy
    s_tab = np.linspace(0.0, y_max + np.abs(xs).max() + dy, 20000)
    # s h(s) = e^{-s^2/alpha} / (2 pi alpha), left 0 where it underflows and
    # at s = 0: G is 1.07e-3 low at alpha = 1 (of 0.141), an offset that
    # G(r + rho) - G(|r - rho|) cancels.  Reading G linearly between the
    # nodes is what puts the s = 2 trace 4.8e-5 high at alpha = 1; the exact
    # G moves it -5.2e-5, past perfbench/references.json's 1e-6
    n_h = np.searchsorted(s_tab, np.sqrt(746.0 * alpha))
    g_int = np.zeros(s_tab.size)
    g_int[1:n_h] = np.exp(-np.square(s_tab[1:n_h]) / alpha) / (2.0 * np.pi * alpha)
    G = np.concatenate([[0.0], np.cumsum(0.5 * (g_int[1:] + g_int[:-1]) * np.diff(s_tab))])
    # G is constant from sat on and ev is 0 from rho[n_live] on, both exactly:
    # row r sums only the rho within sat of r and below rho[n_live]; a row
    # with no such rho stays exactly 0, and a block of rows at or past sat
    # reads G(r + rho) as G[-1]
    sat = s_tab[min(np.flatnonzero(np.diff(G))[-1] + 2, s_tab.size - 1)]
    n_live = ev.size - np.argmax(ev[::-1] != 0.0)
    r = np.abs(xs)
    lo, hi = np.searchsorted(rho[:n_live], [r - sat, r + sat])
    rows = np.flatnonzero(hi > lo)
    out = np.zeros(xs.size)
    # _TRACE_ROWS rows at a time, each window padded to the block's widest
    # with weight 0, which bounds the transients
    for b in range(0, rows.size, _TRACE_ROWS):
        i = rows[b:b + _TRACE_ROWS]
        idx = lo[i, None] + np.arange((hi[i] - lo[i]).max())
        pad = idx >= hi[i, None]
        idx[pad] = lo[i[0]]
        y, rb = rho[idx], r[i, None]
        outer = G[-1] if r[i].min() >= sat else np.interp(rb + y, s_tab, G)
        inner = outer - np.interp(np.abs(rb - y), s_tab, G)
        w = ev[idx]
        w[pad] = 0.0
        out[i] = 2.0 * np.pi / np.maximum(r[i], dy) * np.sum(w * inner, axis=1)
    return pref * out


# ---------------------------------------------------------------------------
# brute-force diagonals
# ---------------------------------------------------------------------------

# dense K x K solves on 2 cores: one channel in two parity blocks in d = 1
# (0.1 s at K = 985, alpha = 0.00065), up to 61 channels in d = 3 (2.2 s at
# K = 301, alpha = 0.002; 3.7 s at K = 389, alpha = 0.0011).  For the
# harmonic heat-bound points the caps bind near alpha = 0.00063 and 0.00103.
MAX_ORACLE_MODES = {1: 1000, 3: 400}


def _modes(H, alpha):
    """Eigenpairs with lam <= lam_0 + 80/alpha; the rest weigh below e^{-80} of mode 0."""
    lam, c = np.linalg.eigh(H)
    keep = lam <= lam[0] + 80.0 / alpha
    return lam[keep], c[:, keep]


def _heat_sum(H, B, alpha, step):
    """sum_k e^{-alpha lam_k} (c_k^T B)^2 over the modes (lam_k, c_k) of H,
    taken in step blocks H[q::step, q::step] against B[q::step] (step 2:
    H couples only modes of equal parity), and H's lowest eigenvalue."""
    total, low = 0.0, np.inf
    for q in range(step):
        lam, c = _modes(H[q::step, q::step], alpha)
        total = total + np.exp(-alpha * lam) @ (c.T @ B[q::step]) ** 2
        low = min(low, lam[0])
    return total, low


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
    lam0 = np.linalg.eigvalsh(
        BesselChannel(0, 32, L).matrix(np.square, gauss_pieces(cuts, pot, 32, L)))[0]
    K = int(np.ceil(4.0 / 3.0 * L / np.pi * np.sqrt(lam0 + 80.0 * max(1.0 / alpha, lam0 / d))))
    if K > MAX_ORACLE_MODES[d]:
        raise ValueError(f"alpha = {alpha:g} needs {K} oracle modes in d = {d}, "
                         f"more than {MAX_ORACLE_MODES[d]}")
    return K, gauss_pieces(cuts, pot, K, L)


def brute_diag(V, alpha, xs, d=1):
    """Heat-kernel diagonal e^{alpha(Delta - V)}(x, x) from a Galerkin eigenbasis.

    d = 1: the sine basis of [-box, box].  d = 3 (radial V): partial-wave
    sum over spherical-Bessel channels ell <= 60 on the ball of radius box,
    truncated once a channel's lowest eigenvalue no longer contributes.
    The box reaches 12 sqrt(alpha) beyond the farthest point: by domain
    monotonicity (Feynman-Kac) its Dirichlet walls lower the diagonal by at
    most (4 pi alpha)^{-d/2} 2d e^{-144/d}, the bridge-exit bound, so a
    wider box adds modes (K grows with it) but no accuracy.  Both bases
    make the kinetic term diagonal, and the modes are evaluated at xs.
    Returns (diagonal, K, drift): the basis size, and the change at each
    point when every matrix is cut to its leading 3K/4 block.

    The d = 1 sines of odd index k are even about x = 0, those of even k
    odd.  Where V(-y) == V(y) exactly at the quadrature's offsets y, H
    couples only modes of equal parity, up to rounding, and each parity
    block is diagonalized alone: two half-size eigh for one full one.
    """
    _check_inputs(alpha, d)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    box = np.abs(xs).max() + 12.0 * np.sqrt(alpha)
    _check_nonneg(V, box, d)
    # d = 1 is channel 0 on [0, 2 box], whose modes times r are the sines
    L, r = (2.0 * box, xs + box) if d == 1 else (box, np.abs(xs))
    K, pieces = _oracle_basis(V, alpha, L, d)
    offsets = np.concatenate([weighted_nodes(*piece)[0] for piece in pieces]) - L / 2
    step = 2 if d == 1 and np.array_equal(V(offsets), V(-offsets)) else 1
    sub, out, coarse = 3 * K // 4, np.zeros(xs.size), np.zeros(xs.size)
    for ell in range(61 if d == 3 else 1):
        ch = BesselChannel(ell, K, L)
        H, B = ch.matrix(np.square, pieces), ch(r)
        full, low = _heat_sum(H, B, alpha, step)
        if ell > 0 and np.exp(-alpha * low) < 1e-14 * max(out.max(), 1e-300):
            break
        weight = (2.0 * ell + 1.0) / (4.0 * np.pi) if d == 3 else r * r
        out += weight * full
        coarse += weight * _heat_sum(H[:sub, :sub], B[:sub], alpha, step)[0]
    return out, K, np.abs(out - coarse)


def mehler_diag(alpha, xs):
    """Closed-form diagonal of e^{alpha(Delta - x^2)} in one dimension."""
    _check_inputs(alpha, 1)
    xs = np.asarray(xs, dtype=float)
    return (2.0 * np.pi * np.sinh(2.0 * alpha)) ** -0.5 * np.exp(
        -(xs**2) * np.tanh(alpha)
    )


# ---------------------------------------------------------------------------
# weighted trace with doubling certificate
# ---------------------------------------------------------------------------

# domain doublings of the trace certificate, and profile points per unit length
_DOUBLINGS, _PER_UNIT = 4, 8


def weighted_trace(V, alpha, s, d=1):
    """int |x|^s * diag_bound(x) dx with a domain-doubling certificate.

    Returns {'value', 'converged', 'partials'}; divergence — successive
    domain doublings growing by more than 1% — is reported in the
    certificate, never raised.  One profile on the largest domain serves all
    doublings, partial k being the trapezoid rule over |x| <= 8 2^k: each x
    sees only y within 12 sqrt(alpha), inside every domain's y range.
    """
    _check_inputs(alpha, d)
    if not s >= 0:
        raise ValueError(f"weight exponent s must be nonnegative, got {s}")
    L = 8.0 * 2**_DOUBLINGS
    n = max(int(L * _PER_UNIT) | 1, 129)
    x = np.linspace(-L, L, n) if d == 1 else np.linspace(0.0, L, n)[1:]
    f = np.abs(x) ** (s + d - 1) * _diag_bound_grid(
        V, alpha, x, d, L + 12.0 * np.sqrt(alpha))
    scale = 4.0 * np.pi if d == 3 else 1.0
    prefixes = (np.abs(x) <= 8.0 * 2**k * (1 + 1e-12) for k in range(_DOUBLINGS + 1))
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
    _check_inputs(alpha, 1)
    if not (B >= 0 and D > 0):
        raise ValueError(f"need B >= 0 and D > 0, got B = {B}, D = {D}")
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


def perturbed_bound_check(V, alpha, B, D, box=14.0, n=1400):
    """Max of |e^{alpha(Delta - V - K)}(x, y)| minus its bound over a 1D grid.

    K is the rank-one integral operator with kernel Phi(x)Phi(y),
    Phi = sqrt(B) e^{-D|x|}; the bound is

        e^{alpha(Delta - V)}(x, y) + (e^{alpha ||Phi||^2} - 1) xi(x) xi(y).

    Both kernels come from the sine basis of [-box, box] that brute_diag
    uses; in it K is the outer product of Phi's projections.  They are
    evaluated on n equispaced points, the ends included.  A negative return
    value means the bound dominates everywhere tested.
    """
    _check_inputs(alpha, 1)
    _check_nonneg(V, box, 1)
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
