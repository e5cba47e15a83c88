import numpy as np
import pytest
from scipy import optimize, special

from rotogp.dyson import (
    CutoffFunction,
    build_K0,
    build_soft_potentials,
    check_dyson_inequality,
    kappa_eta,
    sampled_direction_fR,
    verify_wr_scaling,
    _bessel_zeros,
)
from rotogp.gp import harmonic_problem
from rotogp.scattering import RadialPotential, scattering_length, square_barrier


@pytest.fixture(scope="module")
def soft():
    return build_soft_potentials(CutoffFunction(3.5), 0.35, 0.5)


def test_cutoff_plateaus_and_monotone():
    chi = CutoffFunction(3.5)
    p = np.linspace(0.0, 1.5, 2001)
    vals = chi(p)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(vals[p <= 1.0 / 3.5] == 0.0)
    assert np.all(vals[p >= 2.0 / 3.5] == 1.0)
    mid = vals[(p > 1.0 / 3.5) & (p < 2.0 / 3.5)]
    assert np.all(np.diff(mid) >= -1e-15)
    with pytest.raises(ValueError):
        CutoffFunction(-1.0)


def test_hat_potential_integral_exact(soft):
    # 6 R^{-3} * (4 pi / 3)(R^3 - R^3/2) = 4 pi
    assert soft.int_UR == 4.0 * np.pi
    assert soft.UR_height == 6.0 / 0.35**3
    r = np.linspace(0, 1, 2001)
    vals = soft.UR(r)
    inner = 2.0 ** (-1.0 / 3.0) * 0.35
    assert np.all(vals[(r < inner) | (r > 0.35)] == 0.0)
    # quadrature agrees with the closed form
    num = 4.0 * np.pi * np.trapezoid(vals * r * r, r)
    assert num == pytest.approx(4.0 * np.pi, rel=1e-2)


def test_wr_proportional_to_fr(soft):
    w = soft.wR()
    assert np.all(soft.fR >= 0.0)
    assert np.all(w >= 0.0)
    c = (2.0 / np.pi**2) * soft.int_fR
    assert np.allclose(w, c * soft.fR, rtol=0, atol=1e-15)
    assert soft.int_wR == pytest.approx((2.0 / np.pi**2) * soft.int_fR**2)


def test_fr_tail_decays(soft):
    s = soft.chi.s
    peak = soft.fR.max()
    assert soft.fR_at(20.0 * s) < 1e-3 * peak
    assert soft.fR_at(24.0 * s) < 2e-4 * peak


def test_direction_sampled_fr_is_tight_lower_bound(soft):
    rs = np.linspace(0.05, 3.0, 40)
    approx = sampled_direction_fR(soft, rs)
    exact = soft.fR_at(rs)
    assert np.all(approx <= exact + 1e-12)
    assert np.max(exact - approx) <= 0.02 * soft.fR.max()


def test_wr_integral_scaling():
    out = verify_wr_scaling(3.5, np.geomspace(0.035, 0.35, 6))
    assert out["slope"] >= 1.9
    assert out["ratio"].max() / out["ratio"].min() < 3.0
    # halving R shrinks the integral by about 4x
    chi = CutoffFunction(3.5)
    i1 = build_soft_potentials(chi, 0.3, 0.5).int_wR
    i2 = build_soft_potentials(chi, 0.15, 0.5).int_wR
    assert i1 / i2 == pytest.approx(4.0, rel=0.1)
    # fixed R, doubling s also shrinks it by about 4x
    i3 = build_soft_potentials(CutoffFunction(7.0), 0.3, 0.5).int_wR
    assert i1 / i3 == pytest.approx(4.0, rel=0.15)


def test_soft_potentials_validation():
    chi = CutoffFunction(1.0)
    with pytest.raises(ValueError):
        build_soft_potentials(chi, 2.0, 0.5)  # R > s
    with pytest.raises(ValueError):
        build_soft_potentials(chi, 0.5, 1.5)
    with pytest.raises(ValueError):
        verify_wr_scaling(3.5, [0.1, 0.2])


def test_inequality_trivial_positive(soft):
    v0 = RadialPotential(rrange=0.125, func=lambda r: np.zeros_like(r))
    out = check_dyson_inequality(v0, soft, 0.0, basis_sizes=(60, 90))
    assert out["min_eig"] >= -1e-10


def test_inequality_tall_barrier_passes(soft):
    # hard core approximated by a tall barrier; its actual scattering
    # length feeds the right-hand side
    n_part = 8
    w = square_barrier(1.0, 4.0e4)
    v_n = w.scaled(n_part)
    a_n = scattering_length(v_n)
    assert a_n == pytest.approx(scattering_length(w) / n_part, rel=1e-9)
    # R = 0.35 sits inside the validity window N^{-2/3} << R << N^{-1/3}
    out = check_dyson_inequality(v_n, soft, a_n)
    assert out["passed"]
    assert out["min_eig"] >= -out["slack"]
    # margin stable under basis refinement
    assert out["refinement_drift"] < 1e-3


def test_inequality_margin_grows_with_eps():
    chi = CutoffFunction(3.5)
    v_n = square_barrier(1.0, 4.0e4).scaled(8)
    a_n = scattering_length(v_n)
    margins_l0 = []
    for eps in (0.3, 0.5, 0.7):
        sp = build_soft_potentials(chi, 0.35, eps)
        out = check_dyson_inequality(
            v_n, sp, a_n, ell_list=(0, 1), basis_sizes=(120,)
        )
        assert out["min_eig"] >= -out["slack"]
        margins_l0.append(out["channels"][0][0])
    # the channel whose extremal mode lives on the U_R shell gains margin
    # as eps grows (the U_R coefficient (1 - eps) shrinks); the overall
    # minimum sits in a near-null low-momentum mode dominated by the w_R
    # term and is not monotone
    assert margins_l0[0] < margins_l0[1] < margins_l0[2]


def test_hard_core_rejected(soft):
    from rotogp.scattering import hard_sphere

    with pytest.raises(ValueError):
        check_dyson_inequality(hard_sphere(0.125), soft, 0.125)


def test_kappa_linear_in_eta():
    p = harmonic_problem(dim=2, n=48, length=12.0)
    etas = np.array([0.5, 1.0, 2.0])
    kappas = np.array([kappa_eta(p, e) for e in etas])
    lam0 = kappas / etas
    assert np.max(np.abs(lam0 - lam0[0])) < 1e-8 * lam0[0]
    # ground energy of -Lap + |x|^4 in 2D, frozen grid-eigensolver value
    assert lam0[0] == pytest.approx(2.3448290727, abs=1e-6)


def test_k0_positive_and_ordered():
    p = harmonic_problem(dim=2, n=48, length=12.0)
    mob = build_K0(p, CutoffFunction(2.0), eta=1.0, J=6)
    assert mob.e[0] >= -1e-8
    assert np.all(np.diff(mob.e) >= -1e-10)
    assert mob.e[-1] > mob.e[0]
    assert mob.kappa == pytest.approx(2.3448290727, abs=1e-6)


def test_k0_positive_with_rotation():
    p = harmonic_problem(dim=2, n=48, length=12.0, omega=0.4)
    mob = build_K0(p, CutoffFunction(2.0), eta=1.0, J=2)
    assert mob.e[0] >= -1e-8


def test_build_k0_validation():
    p = harmonic_problem(dim=2, n=16, length=10.0)
    with pytest.raises(ValueError):
        build_K0(p, CutoffFunction(2.0), eta=-1.0, J=2)
    with pytest.raises(ValueError):
        kappa_eta(p, 0.0)


def test_bessel_zeros_channel0_are_n_pi():
    z = _bessel_zeros(0, 5)
    assert np.allclose(z, np.pi * np.arange(1, 6), atol=1e-10)


@pytest.mark.parametrize("ell", [1, 2])
def test_bessel_zeros_match_brentq(ell):
    z = _bessel_zeros(ell, 350)
    assert z.size == 350 and np.all(np.diff(z) > 0)
    # independent reference: a finer scan, each bracket refined by brentq
    x = np.arange(max(1.0, ell), 1200.0, 0.01)
    fx = special.spherical_jn(ell, x)
    idx = np.nonzero(fx[:-1] * fx[1:] < 0.0)[0][:350]
    f = lambda t: special.spherical_jn(ell, t)
    ref = np.array([optimize.brentq(f, x[i], x[i + 1], xtol=1e-14) for i in idx])
    assert np.max(np.abs(z / ref - 1.0)) < 1e-12
