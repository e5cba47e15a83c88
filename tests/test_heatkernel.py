import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rotogp import heatkernel as hk
from rotogp.quadrature import gauss_legendre


def _j_t(x, t, d=1):
    """The free heat kernel (4 pi t)^{-d/2} e^{-|x|^2 / 4t}."""
    x = np.asarray(x, dtype=float)
    return (4.0 * np.pi * t) ** (-d / 2.0) * np.exp(-(x**2) / (4.0 * t))


def _xi_alpha_quadrature(xs, alpha, B, D, n_t=80, n_y=4001):
    """xi_alpha with each convolution by the trapezoid rule on n_y nodes."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    y_max = np.abs(xs).max() + 12.0 * np.sqrt(alpha) + 12.0 / D
    y = np.linspace(-y_max, y_max, n_y)
    wy = np.full(n_y, y[1] - y[0])
    wy[[0, -1]] *= 0.5
    phi = np.sqrt(B) * np.exp(-D * np.abs(y))
    out = np.sqrt(B) * np.exp(-D * np.abs(xs))
    for t in np.geomspace(1e-4 * alpha, alpha, n_t):
        conv = _j_t(xs[:, None] - y[None, :], t, d=1) @ (wy * phi)
        out = np.maximum(out, conv)
    return out / np.sqrt(B / D)


def _modes_full(H, alpha):
    """Every eigenpair of the Galerkin matrix, without the weight window."""
    return np.linalg.eigh(H)


def _diag_bound_grid_full(V, alpha, xs, d, y_max, dy=0.01):
    """The grid profile with every rho summed for every x (no window)."""
    pref = (4.0 * np.pi * alpha) ** (-d / 2.0)
    span = 12.0 * np.sqrt(alpha)
    if d == 1:
        y = np.arange(-y_max, y_max + dy / 2, dy)
        off = np.arange(-int(np.ceil(span / dy)), int(np.ceil(span / dy)) + 1)
        hv = hk.h_alpha(np.abs(off) * dy, alpha, d=1)
        conv = np.convolve(np.exp(-alpha * V(y)), hv, mode="same") * dy
        return pref * np.interp(xs, y, conv)
    rho = np.arange(dy, y_max, dy)
    ev = np.exp(-alpha * V(rho)) * rho * dy
    s_tab = np.linspace(0.0, y_max + np.abs(xs).max() + dy, 20000)
    g_int = s_tab * hk.h_alpha(s_tab, alpha, d=3)
    g_int[0] = 0.0
    G = np.concatenate([[0.0], np.cumsum(0.5 * (g_int[1:] + g_int[:-1]) * np.diff(s_tab))])
    out = np.empty(xs.size)
    for i, r in enumerate(np.abs(xs)):
        inner = np.interp(r + rho, s_tab, G) - np.interp(np.abs(r - rho), s_tab, G)
        out[i] = 2.0 * np.pi / max(r, dy) * np.sum(ev * inner)
    return pref * out


def _diag_bound_per_call(V, alpha, xs, d):
    """diag_bound with the theta rule and (4 pi t)^{-d/2} rebuilt in every integrand call."""
    def theta_rule():
        u, wu = gauss_legendre(200)
        theta = 0.25 * np.pi * (u + 1.0)
        return (alpha / 4.0) * np.sin(theta) ** 2, np.sin(theta) * (0.25 * np.pi * wu)

    def h(x):
        t, w = theta_rule()
        return _j_t(np.atleast_1d(x)[:, None], t[None, :], d=1) @ w

    def shell(r, rho):
        t, w = theta_rule()
        ends = np.exp(-((r - rho) ** 2) / (4.0 * t)) * -np.expm1(-r * rho / t)
        return float(np.sum(w * 2.0 * t * (4.0 * np.pi * t) ** -1.5 * ends)) / (2.0 * r * rho)

    y_max = np.abs(xs).max() + 12.0 * np.sqrt(alpha) + 8.0
    out = []
    for x in xs:
        if d == 1:
            f = lambda y: np.exp(-alpha * V(y)) * h(abs(x - y))[0]
            out.append(quad(f, -y_max, y_max, points=[x], limit=400)[0])
        else:
            f = lambda rho: rho * rho * np.exp(-alpha * V(rho)) * shell(abs(x), rho)
            out.append(4.0 * np.pi * quad(f, 0.0, y_max, points=[abs(x)], limit=400)[0])
    return (4.0 * np.pi * alpha) ** (-d / 2.0) * np.array(out)


def _weighted_trace_per_domain(V, alpha, s, d, L0=8.0, doublings=4, n_per_unit=8):
    """Trace partials with a separate profile and G table for every domain."""
    partials = []
    for k in range(doublings + 1):
        L = L0 * 2**k
        n = max(int(L * n_per_unit) | 1, 129)
        y_max = L + 12.0 * np.sqrt(alpha)
        if d == 1:
            x = np.linspace(-L, L, n)
            vals = _diag_bound_grid_full(V, alpha, x, 1, y_max)
            partials.append(float(np.trapezoid(np.abs(x) ** s * vals, x)))
        else:
            x = np.linspace(0.0, L, n)[1:]
            vals = _diag_bound_grid_full(V, alpha, x, 3, y_max)
            partials.append(float(4.0 * np.pi * np.trapezoid(x ** (s + 2) * vals, x)))
    return np.array(partials)


def _shell_average_gauss(r, rho, alpha, panels=1):
    """(1 / (2 r rho)) int_{|r-rho|}^{r+rho} sigma h(sigma) dsigma, 48-node Gauss.

    panels = 1 is one rule over the whole interval.  More panels halve toward
    |r - rho|: when r is close to rho the narrowest theta nodes of h_alpha sit
    there, and one 48-node panel misses up to 9e-4 of the integral.
    """
    lo, width = abs(r - rho), 2.0 * min(r, rho)
    offs = width * np.concatenate([[0.0], 0.5 ** np.arange(panels - 1, -1, -1)])
    u, w = gauss_legendre(48)
    total = 0.0
    for a, b in zip(offs[:-1], offs[1:]):
        sig = lo + 0.5 * (a + b) + 0.5 * (b - a) * u
        total += np.sum(0.5 * (b - a) * w * sig * hk.h_alpha(sig, alpha, d=3))
    return float(total) / (2.0 * r * rho)


class TestProfile:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("d", [1, 3])
    def test_unit_mass(self, alpha, d):
        assert abs(hk.h_alpha_integral(alpha, d=d) - 1.0) < 1e-6

    def test_nonnegative(self):
        r = np.linspace(0.01, 15.0, 200)
        assert np.all(hk.h_alpha(r, 1.0, d=1) >= 0)
        assert np.all(hk.h_alpha(r, 1.0, d=3) >= 0)

    def test_gaussian_tail(self):
        # log h / (-x^2/alpha) -> 1 within 20% once x^2 >> alpha
        alpha = 1.0
        x = np.array([6.0, 8.0, 10.0])
        ratio = np.log(hk.h_alpha(x, alpha, d=1)) / (-(x**2) / alpha)
        assert np.all(np.abs(ratio - 1.0) < 0.2)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            hk.h_alpha(1.0, -1.0)


class TestDiagBound:
    def test_free_kernel_equality_1d(self):
        vals = hk.diag_bound(hk.zero_potential(), 1.0, [0.0, 1.0, 3.0], d=1)
        assert np.max(np.abs(vals - (4 * np.pi) ** -0.5)) < 1e-8

    def test_free_kernel_equality_3d(self):
        vals = hk.diag_bound(hk.zero_potential(), 1.0, [0.5, 2.0], d=3)
        assert np.max(np.abs(vals - (4 * np.pi) ** -1.5)) < 1e-8

    def test_brute_matches_closed_form_oscillator(self):
        xs = np.linspace(0.0, 3.0, 7)
        brute = hk.brute_diag(hk.harmonic_potential(), 1.0, xs, d=1)[0]
        exact = hk.mehler_diag(1.0, xs)
        # measured 3.2e-13; a finite-difference Laplacian is O(h^2) off
        assert np.max(np.abs(brute / exact - 1.0)) < 1e-11

    def test_brute_matches_closed_form_oscillator_3d(self):
        # e^{alpha(Delta - |x|^2)} factorizes: Mehler along x times Mehler(0)^2
        xs = np.linspace(0.2, 3.0, 8)
        brute = hk.brute_diag(hk.harmonic_potential(), 1.0, xs, d=3)[0]
        exact = hk.mehler_diag(1.0, xs) * hk.mehler_diag(1.0, 0.0) ** 2
        assert np.max(np.abs(brute / exact - 1.0)) < 1e-11

    def test_log_cusp_oracle_resolution(self):
        # the heat-bound --V log 2.0 --alpha 0.1 points: the bound holds at all nine
        V, xs = hk.log_potential(2.0), np.linspace(0.0, 3.0, 9)
        brute, K, drift = hk.brute_diag(V, 0.1, xs, d=1)
        assert np.all(brute - hk.diag_bound(V, 0.1, xs, d=1) < 0)
        # same box, so the same K: K and its leading 3K/4 block agree at x = 3;
        # over all nine points the drift is largest at the cusp x = 0
        at_3, K_3, drift_3 = hk.brute_diag(V, 0.1, [3.0], d=1)
        assert K_3 == K and at_3[0] == pytest.approx(brute[-1], rel=1e-12, abs=0.0)
        assert drift_3[0] <= 1e-9 < drift.max() == drift[0]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_bound_dominates_brute_1d(self, alpha):
        xs = np.linspace(0.0, 3.0, 7)
        bound = hk.diag_bound(hk.harmonic_potential(), alpha, xs, d=1)
        brute = hk.brute_diag(hk.harmonic_potential(), alpha, xs, d=1)[0]
        assert np.all(bound >= brute * (1.0 - 0.02))
        # here the bound actually dominates outright
        assert np.all(bound >= brute)

    def test_bound_dominates_brute_3d(self):
        xs = np.linspace(0.2, 2.0, 6)
        bound = hk.diag_bound(hk.harmonic_potential(), 1.0, xs, d=3)
        brute = hk.brute_diag(hk.harmonic_potential(), 1.0, xs, d=3)[0]
        assert np.all(bound >= brute)

    def test_bound_dominates_log_potential(self):
        V = hk.log_potential(4.0)
        xs = np.linspace(0.0, 4.0, 9)
        bound = hk.diag_bound(V, 1.0, xs, d=1)
        brute = hk.brute_diag(V, 1.0, xs, d=1)[0]
        assert np.all(bound >= brute * (1.0 - 0.02))

    @pytest.mark.parametrize("V, alpha, d", [
        (hk.harmonic_potential(), 1.0, 1),
        (hk.log_potential(2.0), 0.1, 1),
        (hk.harmonic_potential(), 1.0, 3),
        (hk.log_potential(2.0), 2.0, 3),
    ], ids=["harmonic-d1", "log-d1", "harmonic-d3", "log-d3"])
    def test_windowed_modes_match_full_solve(self, monkeypatch, V, alpha, d):
        xs = np.linspace(0.2, 3.0, 8) if d == 3 else np.linspace(0.0, 3.0, 9)
        windowed = hk.brute_diag(V, alpha, xs, d=d)[0]
        monkeypatch.setattr(hk, "_modes", _modes_full)
        full = hk.brute_diag(V, alpha, xs, d=d)[0]
        assert np.max(np.abs(windowed / full - 1.0)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(1e-8, 20.0), rho=st.floats(1e-8, 20.0),
           alpha=st.floats(0.05, 20.0))
    def test_closed_form_shell_average_is_the_gauss_limit(self, r, rho, alpha):
        exact = hk._shell_average(r, rho, alpha)
        ref = _shell_average_gauss(r, rho, alpha, panels=40)
        # 1e-30 absolute where both sit at or below underflow
        assert abs(exact - ref) <= 1e-10 * abs(ref) + 1e-30

    def test_closed_form_diag_bound_matches_gauss_rule_3d(self, monkeypatch):
        xs = np.linspace(0.2, 3.0, 8)  # the heat-bound --dim 3 points
        closed = hk.diag_bound(hk.harmonic_potential(), 1.0, xs, d=3)
        monkeypatch.setattr(hk, "_shell_average", _shell_average_gauss)
        gauss = hk.diag_bound(hk.harmonic_potential(), 1.0, xs, d=3)
        assert np.max(np.abs(closed / gauss - 1.0)) < 1e-7

    @pytest.mark.parametrize("V, alpha, d", [
        (hk.harmonic_potential(), 1.0, 1),
        (hk.harmonic_potential(), 1.0, 3),
        (hk.log_potential(2.0), 0.1, 1),
    ], ids=["harmonic-d1", "harmonic-d3", "log-d1"])
    def test_shared_kernel_matches_per_call_integrand(self, V, alpha, d):
        # the heat-bound points of each CLI config
        xs = np.linspace(0.2, 3.0, 8) if d == 3 else np.linspace(0.0, 3.0, 9)
        shared = hk.diag_bound(V, alpha, xs, d=d)
        ref = _diag_bound_per_call(V, alpha, xs, d)
        assert np.max(np.abs(shared / ref - 1.0)) <= 1e-13

    def test_negative_potential_rejected(self):
        V = hk.ConfiningPotential(lambda x: x**2 - 1.0)
        with pytest.raises(ValueError):
            hk.diag_bound(V, 1.0, [0.0], d=1)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            hk.diag_bound(hk.zero_potential(), 1.0, [0.0], d=2)


class TestWeightedTrace:
    def test_harmonic_converges(self):
        rep = hk.weighted_trace(hk.harmonic_potential(), 1.0, 2, d=1)
        assert rep["converged"]
        assert rep["value"] > 0

    def test_log_potential_small_alpha_diverges(self):
        rep = hk.weighted_trace(hk.log_potential(2.0), 0.1, 4, d=1)
        assert not rep["converged"]
        # polynomial tail: each doubling multiplies the integral substantially
        assert rep["partials"][-1] > 10.0 * rep["partials"][-2]

    def test_log_potential_large_alpha_converges(self):
        rep = hk.weighted_trace(hk.log_potential(2.0), 50.0, 4, d=1)
        assert rep["converged"]

    def test_monotone_threshold_in_alpha(self):
        # growth factor of the last doubling decreases as alpha increases
        V = hk.log_potential(2.0)
        growths = []
        for alpha in (0.1, 1.0, 10.0):
            p = hk.weighted_trace(V, alpha, 4, d=1)["partials"]
            growths.append(p[-1] / p[-2])
        assert growths[0] > growths[1] > growths[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            hk.weighted_trace(hk.harmonic_potential(), 1.0, -1.0)
        with pytest.raises(ValueError):
            hk.weighted_trace(hk.harmonic_potential(), 1.0, 2.0, doublings=0)
        with pytest.raises(ValueError):
            hk.weighted_trace(hk.harmonic_potential(), 1.0, 2.0, d=2)

    @pytest.mark.parametrize("V, alpha, s, d, doublings", [
        (hk.harmonic_potential(), 1.0, 2.0, 1, 4),
        (hk.harmonic_potential(), 1.0, 2.0, 3, 3),
        (hk.log_potential(2.0), 0.1, 4.0, 1, 4),
        (hk.log_potential(2.0), 1.0, 4.0, 1, 4),
        (hk.log_potential(2.0), 50.0, 4.0, 1, 4),
    ], ids=["harmonic-d1", "harmonic-d3", "log-0.1", "log-1", "log-50"])
    def test_one_profile_matches_profile_per_domain(self, V, alpha, s, d, doublings):
        # 16 points per unit length nest every domain's grid in the largest
        # one's; at 8 the 129-point floor makes domain 0's grid twice as fine
        kw = dict(d=d, doublings=doublings, n_per_unit=16)
        rep = hk.weighted_trace(V, alpha, s, **kw)
        ref = _weighted_trace_per_domain(V, alpha, s, **kw)
        assert abs(rep["value"] / ref[-1] - 1.0) <= 1e-12
        assert rep["converged"] == (abs(ref[-1] / ref[-2] - 1.0) <= 0.01)
        # d = 3: each domain's own G table differs by up to 1.4e-5
        assert np.max(np.abs(rep["partials"] / ref - 1.0)) <= 1e-4

    def test_default_trace_matches_profile_per_domain(self):
        V = hk.harmonic_potential()
        rep = hk.weighted_trace(V, 1.0, 2.0, d=1)
        ref = _weighted_trace_per_domain(V, 1.0, 2.0, 1)
        assert abs(rep["value"] / ref[-1] - 1.0) <= 1e-12

    @pytest.mark.parametrize("V, alpha, L", [
        (hk.harmonic_potential(), 1.0, 32.0),
        (hk.harmonic_potential(), 0.3, 64.0),
        (hk.log_potential(2.0), 1.0, 32.0),
    ], ids=["harmonic-1", "harmonic-0.3", "log"])
    def test_trimmed_rows_match_full_sum_3d(self, V, alpha, L):
        # harmonic: e^{-alpha V} underflows to 0 inside the domain, and the
        # sums stop there; log: it never does, and only G's saturation trims
        x = np.linspace(0.0, L, int(8 * L) + 1)[1:]
        y_max = L + 12.0 * np.sqrt(alpha)
        if V.label == "harmonic":
            assert np.exp(-alpha * V(y_max)) == 0.0
        trimmed = hk._diag_bound_grid(V, alpha, x, 3, y_max)
        full = _diag_bound_grid_full(V, alpha, x, 3, y_max)
        assert np.all(np.abs(trimmed - full) <= 1e-13 * np.abs(full) + 1e-300)

    @pytest.mark.parametrize("V, alpha, L", [
        (hk.harmonic_potential(), 1.0, 128.0),
        (hk.harmonic_potential(), 0.3, 64.0),
        (hk.log_potential(2.0), 0.1, 128.0),
        (hk.ConfiningPotential(lambda x: (x - 30.0) ** 2), 1.0, 32.0),
        (hk.ConfiningPotential(lambda x: (x + 31.9) ** 2), 1.0, 32.0),
    ], ids=["harmonic-1", "harmonic-0.3", "log", "right-edge", "left-edge"])
    def test_live_run_matches_full_convolution_1d(self, V, alpha, L):
        # e^{-alpha V} is exactly 0 outside a run of samples (none for log);
        # the run's convolution also reaches past the grid's ends (the edge
        # cases), where the full "same" convolution cuts it
        x = np.linspace(-L, L, int(8 * L) + 1)
        y_max = L + 12.0 * np.sqrt(alpha)
        live = hk._diag_bound_grid(V, alpha, x, 1, y_max)
        full = _diag_bound_grid_full(V, alpha, x, 1, y_max)
        assert np.all(np.abs(live - full) <= 1e-14 * np.abs(full))

    def test_partials_nondecreasing_3d(self):
        # the integrand is nonnegative; separate G tables per domain made the
        # partials dip (0.3125002, 0.3124985, ...)
        rep = hk.weighted_trace(hk.harmonic_potential(), 1.0, 2.0, d=3)
        assert np.all(np.diff(rep["partials"]) >= 0.0)


class TestPerturbedBound:
    def test_xi_properties(self):
        xs = np.linspace(0.0, 8.0, 40)
        xi = hk.xi_alpha(xs, 1.0, 1.0, 1.0)
        assert np.all(xi >= 0)
        assert np.all(np.diff(xi) <= 1e-12)          # radially nonincreasing
        assert xi[-1] < 1e-2 * xi[0]                 # exponential decay

    def test_rank_one_bound_dominates(self):
        v = hk.perturbed_bound_check(hk.harmonic_potential(), 1.0, 1.0, 1.0,
                                     box=12.0, n=1000)
        assert v <= 1e-8

    def test_zero_perturbation_reduces_to_kernel(self):
        v = hk.perturbed_bound_check(hk.harmonic_potential(), 1.0, 0.0, 1.0,
                                     box=12.0, n=1000)
        assert abs(v) < 1e-10

    @pytest.mark.parametrize("alpha,B,D", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0),
                                           (2.0, 0.3, 0.5)])
    def test_xi_closed_form_is_the_quadrature_limit(self, alpha, B, D):
        xs = np.linspace(-12.0, 12.0, 61)
        exact = hk.xi_alpha(xs, alpha, B, D)
        err = [np.max(np.abs(_xi_alpha_quadrature(xs, alpha, B, D, n_y=n) / exact - 1))
               for n in (4001, 8001)]
        # the gap is the trapezoid rule's O(h^2) error at the cusp of
        # e^{-D|y|}: below 1.2e-4 at 4001 nodes, and 4x smaller at 8001
        assert err[0] < 1.2e-4
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)

    def test_xi_validation(self):
        with pytest.raises(ValueError):
            hk.xi_alpha([0.0], 1.0, -1.0, 1.0)
