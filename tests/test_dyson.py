import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, special
from scipy.sparse.linalg import LinearOperator, eigsh

from rotogp import dyson
from rotogp.dyson import (
    CutoffFunction,
    build_K0,
    build_soft_potentials,
    check_dyson_inequality,
    kappa_eta,
    verify_wr_scaling,
    _h_radial,
    _windowed_extremes,
)
from rotogp.gp import harmonic_problem
from rotogp.quadrature import bessel_zeros, gauss_legendre
from rotogp.scattering import RadialPotential, scattering_length, square_barrier


@pytest.fixture(scope="module")
def soft():
    return build_soft_potentials(CutoffFunction(3.5), 0.35, 0.5)


def _sampled_direction_fR(sp, r_values, n_radii=8):
    """f_R by brute sampling of y over 26 directions and n_radii radii.

    Sampling can only miss the extremes of the exact radial reduction in
    build_soft_potentials, so it bounds f_R from below.
    """
    dirs = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                     for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)], dtype=float)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    out = np.zeros(len(r_values))
    hr = np.interp(r_values, sp.r, sp.h)
    for rho in sp.R * np.arange(1, n_radii + 1) / n_radii:
        for d in dirs:
            # x along the z-axis wlog, h being radial
            dist = np.sqrt(r_values**2 - 2.0 * r_values * (rho * d[2]) + rho**2)
            out = np.maximum(out, np.abs(np.interp(dist, sp.r, sp.h) - hr))
    return out


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
    assert np.interp(20.0 * s, soft.r, soft.fR, right=0.0) < 1e-3 * peak
    assert np.interp(24.0 * s, soft.r, soft.fR, right=0.0) < 2e-4 * peak


def test_direction_sampled_fr_is_tight_lower_bound(soft):
    rs = np.linspace(0.05, 3.0, 40)
    approx = _sampled_direction_fR(soft, rs)
    exact = np.interp(rs, soft.r, soft.fR, right=0.0)
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
    z = bessel_zeros(0, 5)
    assert np.allclose(z, np.pi * np.arange(1, 6), atol=1e-10)


@pytest.mark.parametrize("ell", [1, 2, 17])
def test_bessel_zeros_match_brentq(ell):
    z = bessel_zeros(ell, 350)
    assert z.size == 350 and np.all(np.diff(z) > 0)
    # independent reference: a finer scan, each bracket refined by brentq
    x = np.arange(max(1.0, ell), 1200.0, 0.01)
    fx = special.spherical_jn(ell, x)
    idx = np.nonzero(fx[:-1] * fx[1:] < 0.0)[0][:350]
    f = lambda t: special.spherical_jn(ell, t)
    ref = np.array([optimize.brentq(f, x[i], x[i + 1], xtol=1e-14) for i in idx])
    assert np.max(np.abs(z / ref - 1.0)) < 1e-12


# -- references: the per-point and per-axis forms the vectorised code replaced

def _windowed_extremes_loop(h, r, R):
    """Window extremes by one slice per grid point."""
    lo_r, hi_r = np.abs(r - R), r + R
    lo = np.searchsorted(r, lo_r, side="left")
    hi = np.searchsorted(r, hi_r, side="right")
    h_lo = np.interp(lo_r, r, h)
    h_hi = np.interp(hi_r, r, h, right=h[-1])
    hmax = np.maximum(h_lo, h_hi)
    hmin = np.minimum(h_lo, h_hi)
    for i in range(r.size):
        if hi[i] > lo[i]:
            seg = h[lo[i] : hi[i]]
            hmax[i] = max(hmax[i], seg.max())
            hmin[i] = min(hmin[i], seg.min())
    return hmin, hmax


def _h_radial_sinc(chi, r):
    """h(r) with the kernel np.sinc(qr/pi) = sin(qr)/(qr)."""
    q, wq = gauss_legendre(400)
    q = 0.5 * chi.p_hi * (q + 1.0)
    wq = 0.5 * chi.p_hi * wq
    amp = wq * q * q * (1.0 - chi(q))
    kern = np.sinc(np.outer(np.asarray(r, dtype=float), q) / np.pi)
    return kern @ amp / (2.0 * np.pi**2)


def _fft_apply(grid, multiplier, gauge, scalar, vec):
    """(multiplier(k) + 2 p.A + scalar(x)) vec, one n-D transform per axis."""
    v = vec.reshape(grid.shape)
    vhat = np.fft.fftn(v)
    out = np.fft.ifftn(multiplier * vhat)
    for ax, a_comp in enumerate(gauge.components):
        out += 2.0 * a_comp * np.fft.ifftn(grid.kvecs()[ax] * vhat)  # 2 A . p
    out += scalar * v
    return out.reshape(-1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 400),
    R=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_extremes_match_loop(n, R, seed):
    rng = np.random.default_rng(seed)
    r = np.linspace(0.0, rng.uniform(0.5, 10.0), n)
    h = rng.standard_normal(n)
    fast = _windowed_extremes(h, r, R)
    ref = _windowed_extremes_loop(h, r, R)
    assert np.array_equal(fast[0], ref[0]) and np.array_equal(fast[1], ref[1])


def test_windowed_extremes_match_loop_on_h():
    chi = CutoffFunction(3.5)
    r = np.linspace(0.0, 25.0 * 3.5 + 0.35, 6000)
    h = _h_radial(chi, r[-1], r.size)
    for R in (0.1, 0.35, 1.05):
        fast = _windowed_extremes(h, r, R)
        ref = _windowed_extremes_loop(h, r, R)
        assert np.array_equal(fast[0], ref[0]) and np.array_equal(fast[1], ref[1])


@pytest.mark.parametrize("s", [1.0, 3.5, 7.0])
def test_h_radial_matches_sinc_form(s):
    # small r on a fine grid (steps of 5e-12 up to 1e-8), out to 100 on a
    # grid that is not a multiple of the block length, and the grid of
    # build_soft_potentials at R = s
    chi = CutoffFunction(s)
    for r_max, n in [(1e-8, 2001), (100.0, 997), (26.0 * s, 6000)]:
        h = _h_radial(chi, r_max, n)
        ref = _h_radial_sinc(chi, np.linspace(0.0, r_max, n))
        assert np.max(np.abs(h - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_nested_galerkin_blocks_match_one_solve_per_size(soft):
    v_n = square_barrier(1.0, 50.0).scaled(4)
    a_n = scattering_length(v_n)
    sizes = (90, 120, 60)  # unsorted, the largest in the middle
    nested = check_dyson_inequality(v_n, soft, a_n, ell_list=(0, 1), basis_sizes=sizes)
    for ell in (0, 1):
        for K, lam in zip(sizes, nested["channels"][ell]):
            single = check_dyson_inequality(
                v_n, soft, a_n, ell_list=(ell,), basis_sizes=(K,)
            )["channels"][ell][0]
            assert lam == pytest.approx(single, rel=1e-12, abs=0.0)
    # the table keeps the caller's order, and the minima fall as K grows
    lam90, lam120, lam60 = nested["channels"][0]
    assert lam120 <= lam90 <= lam60
    assert nested["min_eig"] == min(nested["channels"][ell][-1] for ell in (0, 1))


def _captured_operators(monkeypatch):
    ops = []

    def capture(op, **kw):
        ops.append(op)
        return eigsh(op, **kw)

    monkeypatch.setattr(dyson, "eigsh", capture)
    return ops


@pytest.mark.parametrize("omega", [0.0, 0.4])
def test_k0_operators_match_per_axis_formula(monkeypatch, omega):
    p = harmonic_problem(dim=2, n=16, length=10.0, omega=omega)
    chi, eta, grid = CutoffFunction(2.0), 1.0, p.grid
    ops = _captured_operators(monkeypatch)
    mob = build_K0(p, chi, eta=eta, J=2)
    assert len(ops) == 2  # kappa(eta), then K0
    quartic = grid.radius_sq() ** 2
    ksq = grid.ksq()
    mult = ksq * (1.0 - chi(np.sqrt(ksq)) ** 2) + 2.0 * eta * ksq
    refs = [
        (eta * ksq, eta * quartic),
        (mult, p.gauge.magnitude_sq() + p.potential + eta * quartic - mob.kappa),
    ]
    rng = np.random.default_rng(5)
    for op, (m, scalar) in zip(ops, refs):
        # at Omega = 0 the operator is real symmetric: real probes
        assert op.dtype == (complex if omega else float)
        for _ in range(3):
            x = rng.standard_normal(op.shape[0])
            if omega:
                x = x + 1j * rng.standard_normal(op.shape[0])
            ref = _fft_apply(grid, m, p.gauge, scalar, x)
            assert np.max(np.abs(op.matvec(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_k0_real_eigensolve_matches_complex_path(monkeypatch):
    p = harmonic_problem(dim=2, n=32, length=12.0)
    chi = CutoffFunction(3.5)
    real = build_K0(p, chi, eta=1.0, J=4)

    def complex_eigsh(op, **kw):
        # the same operator through ARPACK's complex driver
        cop = LinearOperator(
            op.shape, dtype=complex,
            matvec=lambda x: op.matvec(x.real) + 1j * op.matvec(x.imag),
        )
        return eigsh(cop, **kw)

    monkeypatch.setattr(dyson, "eigsh", complex_eigsh)
    cplx = build_K0(p, chi, eta=1.0, J=4)
    assert abs(real.kappa - cplx.kappa) <= 1e-10
    assert np.max(np.abs(real.e - cplx.e)) <= 1e-10


def test_k0_repeatable_bitwise():
    p = harmonic_problem(dim=2, n=32, length=12.0)
    first = build_K0(p, CutoffFunction(3.5), eta=1.0, J=4)
    second = build_K0(p, CutoffFunction(3.5), eta=1.0, J=4)
    assert first.kappa == second.kappa
    assert np.array_equal(first.e, second.e)


@pytest.mark.parametrize("omega, n", [(0.0, 32), (0.4, 16)])
def test_k0_eigenvalues_match_full_precision_solve(monkeypatch, omega, n):
    # the Ritz residual rule sqrt(eps)|theta| against ARPACK run to machine
    # precision (tol=0): at Omega = 0 on the CLI's default grid, at 0.4 with
    # the complex driver
    p = harmonic_problem(dim=2, n=n, length=12.0, omega=omega)
    chi = CutoffFunction(3.5)
    shipped = build_K0(p, chi, eta=1.0, J=4)
    monkeypatch.setattr(dyson, "eigsh", lambda op, **kw: eigsh(op, **{**kw, "tol": 0}))
    exact = build_K0(p, chi, eta=1.0, J=4)
    assert abs(shipped.kappa - exact.kappa) <= 1e-10
    assert np.max(np.abs(shipped.e - exact.e)) <= 1e-10


def test_k0_default_solves_apply_count(monkeypatch):
    # kappa(eta) and K0 at the CLI defaults took 2,067 applies when ARPACK
    # ran to machine precision; the seeded start makes the count deterministic
    applies = []  # one count per solve

    def counted_eigsh(op, **kw):
        applies.append(0)

        def matvec(x):
            applies[-1] += 1
            return op.matvec(x)

        return eigsh(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), **kw)

    monkeypatch.setattr(dyson, "eigsh", counted_eigsh)
    p = harmonic_problem(dim=2, n=32, length=12.0)
    build_K0(p, CutoffFunction(3.5), eta=1.0, J=4)
    assert len(applies) == 2
    assert sum(applies) <= 1300
