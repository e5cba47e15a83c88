import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from rotogp import heatkernel as hk


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
        conv = hk.j_t(xs[:, None] - y[None, :], t, d=1) @ (wy * phi)
        out = np.maximum(out, conv)
    return out / np.sqrt(B / D)


def _fd_modes_full(potential_on_grid, spacing, alpha):
    """Every finite-difference eigenpair, from the full tridiagonal solve."""
    n = potential_on_grid.size
    lam, vecs = eigh_tridiagonal(2.0 / spacing**2 + potential_on_grid,
                                 np.full(n - 1, -1.0 / spacing**2))
    return lam, vecs / np.sqrt(spacing)


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
        brute = hk.brute_diag(hk.harmonic_potential(), 1.0, xs, d=1)
        exact = hk.mehler_diag(1.0, xs)
        assert np.max(np.abs(brute / exact - 1.0)) < 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_bound_dominates_brute_1d(self, alpha):
        xs = np.linspace(0.0, 3.0, 7)
        bound = hk.diag_bound(hk.harmonic_potential(), alpha, xs, d=1)
        brute = hk.brute_diag(hk.harmonic_potential(), alpha, xs, d=1)
        assert np.all(bound >= brute * (1.0 - 0.02))
        # here the bound actually dominates outright
        assert np.all(bound >= brute)

    def test_bound_dominates_brute_3d(self):
        xs = np.linspace(0.2, 2.0, 6)
        bound = hk.diag_bound(hk.harmonic_potential(), 1.0, xs, d=3)
        brute = hk.brute_diag(hk.harmonic_potential(), 1.0, xs, d=3)
        assert np.all(bound >= brute)

    def test_bound_dominates_log_potential(self):
        V = hk.log_potential(4.0)
        xs = np.linspace(0.0, 4.0, 9)
        bound = hk.diag_bound(V, 1.0, xs, d=1)
        brute = hk.brute_diag(V, 1.0, xs, d=1)
        assert np.all(bound >= brute * (1.0 - 0.02))

    @pytest.mark.parametrize("V, alpha, d, n", [
        (hk.harmonic_potential(), 1.0, 1, 2400),
        (hk.log_potential(2.0), 0.1, 1, 2400),
        # full d = 3 solves cost seconds per channel at n = 2400
        (hk.harmonic_potential(), 1.0, 3, 800),
        (hk.log_potential(2.0), 2.0, 3, 800),
    ], ids=["harmonic-d1", "log-d1", "harmonic-d3", "log-d3"])
    def test_windowed_modes_match_full_solve(self, monkeypatch, V, alpha, d, n):
        xs = np.linspace(0.2, 3.0, 8) if d == 3 else np.linspace(0.0, 3.0, 9)
        windowed = hk.brute_diag(V, alpha, xs, d=d, n=n)
        monkeypatch.setattr(hk, "_fd_modes", _fd_modes_full)
        full = hk.brute_diag(V, alpha, xs, d=d, n=n)
        # the full solve is itself no closer: LAPACK's stevd and stemr full
        # solves of these matrices differ by up to 4e-12 in this density
        assert np.max(np.abs(windowed / full - 1.0)) < 1e-11

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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_tabulated_potential_roundtrip():
    r = np.linspace(0.0, 30.0, 400)
    V = hk.tabulated_potential(r, r**2)
    xs = np.linspace(0.0, 2.0, 5)
    bound = hk.diag_bound(V, 1.0, xs, d=1, y_max=28.0)
    ref = hk.diag_bound(hk.harmonic_potential(), 1.0, xs, d=1, y_max=28.0)
    assert np.max(np.abs(bound / ref - 1.0)) < 1e-3
