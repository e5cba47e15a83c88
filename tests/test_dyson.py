import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, special
from scipy.linalg.lapack import dsyevx
from scipy.sparse.linalg import LinearOperator, eigsh

from rotogp import dyson, fields
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
from rotogp.quadrature import BesselChannel, bessel_zeros, gauss_legendre
from rotogp.scattering import RadialPotential, from_samples, scattering_length, square_barrier


@pytest.fixture(scope="module")
def soft():
    return build_soft_potentials(CutoffFunction(3.5), 0.35)


def _sampled_direction_fR(sp, r_values, n_radii=8):
    """f_R by brute sampling of y over 26 directions and n_radii radii.

    Sampling can only miss the extremes of the exact radial reduction in
    build_soft_potentials, so it bounds f_R from below.
    """
    dirs = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                     for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)], dtype=float)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    out = np.zeros(len(r_values))
    # h on sp.r: build_soft_potentials samples it out to 25 s + R on 6000 radii
    h = _h_radial(sp.chi, 25.0 * sp.chi.s + sp.R, 6000)[:sp.r.size]
    hr = np.interp(r_values, sp.r, h)
    for rho in sp.R * np.arange(1, n_radii + 1) / n_radii:
        for d in dirs:
            # x along the z-axis wlog, h being radial
            dist = np.sqrt(r_values**2 - 2.0 * r_values * (rho * d[2]) + rho**2)
            out = np.maximum(out, np.abs(np.interp(dist, sp.r, h) - hr))
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


def test_cutoff_refuses_nan():
    with pytest.raises(ValueError, match="cutoff scale"):
        CutoffFunction(np.nan)


def test_hat_potential_integral_exact(soft):
    # 6 R^{-3} * (4 pi / 3)(R^3 - R^3/2) = 4 pi; the inequality's Gauss
    # nodes on the shell integrate the hat's r^2 exactly, up to rounding
    v0 = RadialPotential((0.125,), (0.0,))
    int_UR = check_dyson_inequality(v0, soft, 0.0, 0.5,
                                    ell_list=(0,), basis_sizes=(20,))["int_UR"]
    assert int_UR == pytest.approx(4.0 * np.pi, rel=1e-14, abs=0.0)
    assert soft.UR_height == 6.0 / 0.35**3
    r = np.linspace(0, 1, 2001)
    vals = soft.UR(r)
    inner = 2.0 ** (-1.0 / 3.0) * 0.35
    assert np.all(vals[(r < inner) | (r > 0.35)] == 0.0)
    # quadrature agrees with the closed form
    num = 4.0 * np.pi * np.trapezoid(vals * r * r, r)
    assert num == pytest.approx(4.0 * np.pi, rel=1e-2)


def test_wr_proportional_to_fr(soft):
    w = soft.wR(soft.r)
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
    assert verify_wr_scaling(3.5)["slope"] >= 1.9
    chi = CutoffFunction(3.5)
    R = np.geomspace(0.105, 1.05, 5)  # verify_wr_scaling's sweep at s = 3.5
    ratio = np.array([build_soft_potentials(chi, r).int_wR for r in R]) / (R / 3.5) ** 2
    assert ratio.max() / ratio.min() < 3.0
    # halving R shrinks the integral by about 4x
    i1 = build_soft_potentials(chi, 0.3).int_wR
    i2 = build_soft_potentials(chi, 0.15).int_wR
    assert i1 / i2 == pytest.approx(4.0, rel=0.1)
    # fixed R, doubling s also shrinks it by about 4x
    i3 = build_soft_potentials(CutoffFunction(7.0), 0.3).int_wR
    assert i1 / i3 == pytest.approx(4.0, rel=0.15)


def test_soft_potentials_validation():
    chi = CutoffFunction(1.0)
    with pytest.raises(ValueError):
        build_soft_potentials(chi, 2.0)  # R > s
    with pytest.raises(ValueError):
        build_soft_potentials(chi, 0.0)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
def test_inequality_refuses_eps_outside_the_unit_interval(soft, eps):
    v0 = RadialPotential((0.125,), (0.0,))
    with pytest.raises(ValueError, match="epsilon"):
        check_dyson_inequality(v0, soft, 0.0, eps, ell_list=(0,), basis_sizes=(20,))


def test_inequality_trivial_positive(soft):
    v0 = RadialPotential((0.125,), (0.0,))
    out = check_dyson_inequality(v0, soft, 0.0, 0.5, basis_sizes=(60, 90))
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
    out = check_dyson_inequality(v_n, soft, a_n, 0.5)
    assert out["passed"]
    assert out["min_eig"] >= -out["slack"]
    # margin stable under basis refinement
    assert out["refinement_drift"] < 1e-3


def test_inequality_margin_grows_with_eps(soft):
    v_n = square_barrier(1.0, 4.0e4).scaled(8)
    a_n = scattering_length(v_n)
    margins_l0 = []
    for eps in (0.3, 0.5, 0.7):
        out = check_dyson_inequality(
            v_n, soft, a_n, eps, ell_list=(0, 1), basis_sizes=(120,)
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
        check_dyson_inequality(hard_sphere(0.125), soft, 0.125, 0.5)


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
    with pytest.raises(ValueError):  # J = 5 eigenvalues of a 2 x 2 grid
        build_K0(harmonic_problem(dim=2, n=2, length=4.0), CutoffFunction(2.0), eta=1.0, J=5)


def test_kappa_refuses_nan_eta():
    # an input error, not the LinAlgError (a ValueError subclass) of a NaN operator
    with pytest.raises(ValueError, match="eta must be positive"):
        kappa_eta(harmonic_problem(dim=2, n=16, length=10.0), np.nan)


def test_bessel_zeros_channel0_are_n_pi():
    z = bessel_zeros(0, 5)
    assert np.allclose(z, np.pi * np.arange(1, 6), atol=1e-10)


@pytest.mark.parametrize("ell, count", [(1, 350), (2, 350), (17, 350), (30, 400), (60, 400)],
                         ids=["1", "2", "17", "30", "60"])
def test_bessel_zeros_match_brentq(ell, count):
    z = bessel_zeros(ell, count)
    assert z.size == count and np.all(np.diff(z) > 0)
    # independent reference: a finer scan, each bracket refined by brentq
    x = np.arange(max(1.0, ell), 1400.0, 0.01)
    fx = special.spherical_jn(ell, x)
    idx = np.nonzero(fx[:-1] * fx[1:] < 0.0)[0][:count]
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


@pytest.fixture
def recorded(monkeypatch):
    """(kin_mult, pieces, matrix) of each channel matrix dyson builds."""
    calls = []

    class Recorder(BesselChannel):
        def matrix(self, kin_mult, pieces):
            calls.append((kin_mult, pieces, super().matrix(kin_mult, pieces)))
            return calls[-1][2]

    monkeypatch.setattr(dyson, "BesselChannel", Recorder)
    return calls


def test_nested_galerkin_blocks_match_one_solve_per_size(soft, recorded):
    v_n = square_barrier(1.0, 50.0).scaled(4)
    a_n = scattering_length(v_n)
    sizes = (90, 120, 60)  # unsorted, the largest in the middle
    nested = check_dyson_inequality(v_n, soft, a_n, 0.5, ell_list=(0, 1), basis_sizes=sizes)
    kin, pieces, _ = recorded[0]
    for ell in (0, 1):
        for K, lam in zip(sizes, nested["channels"][ell]):
            # a K-mode basis built alone on the same Gauss pieces
            single = np.linalg.eigvalsh(BesselChannel(ell, K, 14.0).matrix(kin, pieces))[0]
            assert lam == pytest.approx(single, rel=1e-12, abs=0.0)
    # the table keeps the caller's order, and the minima fall as K grows
    lam90, lam120, lam60 = nested["channels"][0]
    assert lam120 <= lam90 <= lam60
    assert nested["min_eig"] == min(nested["channels"][ell][-1] for ell in (0, 1))


def test_potential_reaching_the_ball_is_refused(soft):
    # dyson-check --N 0.05: the barrier's range 20 reaches past the ball of
    # radius 14, where the modes end, and the Dirichlet wall would decide
    # the verdict; a range of exactly 14 reaches the wall too
    far = square_barrier(1.0, 4.0e4).scaled(0.05)
    edge = RadialPotential((14.0,), far.values)
    for v in (far, edge):
        with pytest.raises(ValueError, match="reaches the ball"):
            check_dyson_inequality(v, soft, scattering_length(far), 0.5,
                                   ell_list=(0, 1), basis_sizes=(60, 120))
    # --N 0.1 scales the range to 10, inside the ball: it runs
    near = square_barrier(1.0, 4.0e4).scaled(0.1)
    check_dyson_inequality(near, soft, scattering_length(near), 0.5,
                           ell_list=(0,), basis_sizes=(60,))


_BARRIERS = pytest.mark.parametrize("pot", [
    square_barrier(1.0, 4.0e4).scaled(8.0),
    # a piecewise-linear barrier as `--potential file` reads it, kinked at
    # each sample radius
    from_samples([0.0, 0.2, 0.5, 0.8, 1.0], [3e4, 4e4, 2e4, 4e4, 1e4]).scaled(8.0),
], ids=["default", "file"])


@_BARRIERS
def test_channel_minima_converge_in_the_gauss_nodes(soft, pot):
    a_n = scattering_length(pot)
    rule, minima = dyson.gauss_pieces, []
    for m in (1, 2, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dyson, "gauss_pieces",
                       lambda *a: [(lo, hi, m * n, f) for lo, hi, n, f in rule(*a)])
            channels = check_dyson_inequality(pot, soft, a_n, 0.5)["channels"]
        minima.append(np.array([channels[ell] for ell in (0, 1, 2)]))
    assert np.max(np.abs(minima[1] - minima[0])) <= 1e-10
    assert np.max(np.abs(minima[2] - minima[0])) <= 1e-10


@_BARRIERS
def test_channel_minima_match_a_full_eigvalsh(soft, recorded, pot, monkeypatch):
    # the Cholesky minima, the eigvalsh fallback never called, against
    # every eigenvalue of the same leading block
    eigvalsh = np.linalg.eigvalsh

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", refuse)
        channels = check_dyson_inequality(pot, soft, scattering_length(pot), 0.5)["channels"]
    assert len(recorded) == 3
    for ell, (_, _, H) in zip((0, 1, 2), recorded):
        for k, lam in zip((150, 250, 350), channels[ell]):
            assert abs(lam - eigvalsh(H[:k, :k])[0]) <= 1e-12, (ell, k)


def _bisected_lowest(H):
    """Lowest eigenvalue of the symmetric H by LAPACK's dsyevx: bisection
    for that one value, at its finest absolute tolerance 2 dlamch('S')."""
    w, _, found, _, info = dsyevx(H, compute_v=0, range="I", il=1, iu=1, lower=1,
                                  abstol=2.0 * np.finfo(float).tiny)
    assert info == 0 and found == 1
    return w[0]


def test_cholesky_minima_and_fallback_match_bisection(soft, recorded, monkeypatch):
    # the nine dyson-check default blocks: inverse iteration on the leading
    # blocks of one Cholesky factor, the fallback _lowest_eig never called,
    # against dsyevx block by block; _lowest_eig on the same blocks too
    pot = square_barrier(1.0, 4.0e4).scaled(8.0)

    def refuse(H):
        raise AssertionError("_lowest_eig called")

    with monkeypatch.context() as mp:
        mp.setattr(dyson, "_lowest_eig", refuse)
        channels = check_dyson_inequality(pot, soft, scattering_length(pot), 0.5)["channels"]
    assert len(recorded) == 3
    for ell, (_, _, H) in zip((0, 1, 2), recorded):
        for k, lam in zip((150, 250, 350), channels[ell]):
            reference = _bisected_lowest(H[:k, :k])
            assert abs(lam - reference) <= 1e-12, (ell, k)
            assert abs(dyson._lowest_eig(H[:k, :k]) - reference) <= 1e-13, (ell, k)


def test_warm_started_blocks_take_fewer_solves(soft, recorded, monkeypatch):
    # each larger block of a dyson-check default channel starts from the
    # vector the smaller one settled on: fewer dpotrs solves than a flat
    # start for every block (13 against 24 at ell = 2), the same minima to
    # rounding
    pot = square_barrier(1.0, 4.0e4).scaled(8.0)
    check_dyson_inequality(pot, soft, scattering_length(pot), 0.5)
    solve, solves = dyson.dpotrs, []
    monkeypatch.setattr(dyson, "dpotrs", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    sizes = (150, 250, 350)
    assert len(recorded) == 3
    for ell, (_, _, H) in zip((0, 1, 2), recorded):
        solves.clear()
        warm = dyson._nested_minima(H, sizes)
        n_warm = len(solves)
        cold = [dyson._nested_minima(H, (k,))[0] for k in sizes]
        assert n_warm < len(solves) - n_warm, ell
        for k, w, c in zip(sizes, warm, cold):
            assert abs(w - c) <= 1e-15 * abs(c), (ell, k)
    for k, lam in zip(sizes, warm):  # ell = 2
        reference = np.linalg.eigvalsh(H[:k, :k])[0]
        assert abs(lam - reference) <= 1e-12 * abs(reference), k


def test_a_block_after_a_larger_one_starts_flat():
    G = np.random.default_rng(3).standard_normal((60, 60))
    H = np.diag(np.r_[0.01, np.linspace(1.0, 5.0, 59)]) + 1e-3 * (G + G.T)
    assert dyson._nested_minima(H, (40, 60, 20))[2] == dyson._nested_minima(H, (20,))[0]


def test_fallback_matches_bisection_where_dpotrf_refuses(soft, recorded, monkeypatch):
    # at 5 a_N channel 0 is not positive definite (criterion 6's failing
    # case): dpotrf refuses it, and each of its three blocks goes to
    # _lowest_eig
    pot = square_barrier(1.0, 4.0e4).scaled(8.0)
    lowest_eig, calls = dyson._lowest_eig, []
    monkeypatch.setattr(dyson, "_lowest_eig", lambda B: calls.append(B.shape) or lowest_eig(B))
    out = check_dyson_inequality(pot, soft, 5.0 * scattering_length(pot), 0.5, ell_list=(0,))
    assert calls == [(150, 150), (250, 250), (350, 350)]
    assert not out["passed"]
    (_, _, H), = recorded
    for k, lam in zip((150, 250, 350), out["channels"][0]):
        assert abs(lam - _bisected_lowest(H[:k, :k])) <= 1e-13, k


def test_nested_minima_fall_back_where_inverse_iteration_cannot(monkeypatch):
    G = np.random.default_rng(3).standard_normal((60, 60))
    # a lowest level far below the rest, as in the Dyson channels; and a
    # lowest pair close together, which inverse iteration takes hundreds of
    # steps to separate
    separated = np.diag(np.r_[0.01, np.linspace(1.0, 5.0, 59)]) + 1e-3 * (G + G.T)
    close = G @ G.T / 60.0 + np.eye(60)
    sizes = (20, 40, 60)
    lowest_eig, calls = dyson._lowest_eig, []
    monkeypatch.setattr(dyson, "_lowest_eig", lambda B: calls.append(B.shape) or lowest_eig(B))
    for k, lam in zip(sizes, dyson._nested_minima(separated, sizes)):
        assert abs(lam - np.linalg.eigvalsh(separated[:k, :k])[0]) <= 1e-12
    assert calls == []
    # not positive definite, so dpotrf refuses it; not settled in 50 steps;
    # not settled in 1
    for H, steps in ((separated - 0.02 * np.eye(60), 50), (close, 50), (separated, 1)):
        monkeypatch.setattr(dyson, "_INVERSE_STEPS", steps)
        calls.clear()
        assert dyson._nested_minima(H, sizes) == [lowest_eig(H[:k, :k]) for k in sizes]
        assert calls == [(k, k) for k in sizes]


def test_inverse_iteration_settles_a_rounding_cycle(monkeypatch):
    # solves that differ in their last bits from one step to the next, as a
    # reordered assembly's rounding can make them: every other solve scaled
    # by 1 + 2^-49 (8 ulp of 1) moves the Rayleigh quotient by 8 ulp, past
    # the 4-ulp rule, so that it alternates between two values for good.
    # Compared with its value two steps back it settles, and eigvalsh is
    # never called
    G = np.random.default_rng(3).standard_normal((60, 60))
    H = np.diag(np.r_[0.01, np.linspace(1.0, 5.0, 59)]) + 1e-3 * (G + G.T)
    reference = np.linalg.eigvalsh(H)[0]
    solve, solves = dyson.dpotrs, []

    def alternating(*args, **kwargs):
        y, info = solve(*args, **kwargs)
        solves.append(y)
        return (y * (1.0 + 2.0**-49) if len(solves) % 2 else y), info

    def refuse(B):
        raise AssertionError("_lowest_eig called")

    monkeypatch.setattr(dyson, "dpotrs", alternating)
    monkeypatch.setattr(dyson, "_lowest_eig", refuse)
    lam, = dyson._nested_minima(H, (60,))
    assert abs(lam - reference) <= np.finfo(float).eps * np.linalg.norm(H, 2)
    assert 2 < len(solves) < dyson._INVERSE_STEPS


def test_lowest_eig_refuses_a_matrix_with_nan():
    # eigvalsh returns NaN eigenvalues there, and raises nothing
    H = np.diag([3.0, 1.0, 2.0])
    assert dyson._lowest_eig(H) == 1.0
    H[0, 1] = H[1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        dyson._lowest_eig(H)


def _captured_solves(monkeypatch):
    """(apply, precondition, start block) of each lowest_eigenpairs solve in
    rotogp.fields."""
    solves = []
    solve = fields.lowest_eigenpairs

    def capture(apply, precondition, start, J):
        solves.append((apply, precondition, start))
        return solve(apply, precondition, start, J)

    monkeypatch.setattr(fields, "lowest_eigenpairs", capture)
    return solves


def _operator(apply, start):
    """apply, which takes (size, m) blocks, as a scipy LinearOperator."""
    size = start.shape[0]
    return LinearOperator((size, size), matvec=lambda x: apply(x.reshape(size, 1)),
                          matmat=apply, dtype=start.dtype)


def _separable_apply(grid, multiplier, scalar, vec):
    """H0 vec: per axis, the multiplier along k_d and the scalar along x_d
    through the origin, each less (dim - 1)/dim of its value at the origin."""
    dim, o = grid.dim, grid.n // 2
    share = (dim - 1) / dim
    v = vec.reshape(grid.shape)
    out = np.zeros_like(v, dtype=complex)
    for d in range(dim):
        line = [1] * dim
        line[d] = grid.n
        k_axis = tuple(slice(None) if e == d else 0 for e in range(dim))
        x_axis = tuple(slice(None) if e == d else o for e in range(dim))
        m = multiplier[k_axis] - share * multiplier[(0,) * dim]
        w = scalar[x_axis] - share * scalar[(o,) * dim]
        out += np.fft.ifft(m.reshape(line) * np.fft.fft(v, axis=d), axis=d)
        out += w.reshape(line) * v
    return out.reshape(-1)


@pytest.mark.parametrize("dim, omega, n", [
    (2, 0.0, 16), (2, 0.4, 16), (3, (0.3, 0.0, 0.8), 10),
], ids=["0.0", "0.4", "3d-offaxis-10"])
def test_k0_operators_match_per_axis_formula(monkeypatch, dim, omega, n):
    # off the z axis every A_i depends on two coordinates, the case the
    # per-axis 2 A.p term must get right
    p = harmonic_problem(dim=dim, n=n, length=10.0, omega=omega)
    chi, eta, grid = CutoffFunction(2.0), 1.0, p.grid
    solves = _captured_solves(monkeypatch)
    mob = build_K0(p, chi, eta=eta, J=2)
    assert len(solves) == 2  # kappa(eta), then K0
    quartic = grid.radius_sq() ** 2
    ksq = grid.ksq()
    mult = ksq * (1.0 - chi(np.sqrt(ksq)) ** 2) + 2.0 * eta * ksq
    refs = [
        (eta * ksq, eta * quartic),
        (mult, p.gauge.magnitude_sq() + p.potential + eta * quartic - mob.kappa),
    ]
    rng = np.random.default_rng(5)
    size = grid.n**grid.dim
    for (op, prec, start), (m, scalar) in zip(solves, refs):
        # at Omega = 0 the operator is real symmetric: real probes
        rotating = bool(np.any(omega))
        dtype = complex if rotating else float
        assert start.dtype == op(start).dtype == prec(start).dtype == dtype
        X = rng.standard_normal((size, 3))
        if rotating:
            X = X + 1j * rng.standard_normal((size, 3))
        ref = np.stack([_fft_apply(grid, m, p.gauge, scalar, x) for x in X.T], axis=1)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(op(X[:, :1]) - ref[:, :1])) <= 1e-12 * scale
        assert np.max(np.abs(op(X) - ref)) <= 1e-12 * scale
        # the preconditioner is the exact inverse of the separable part H0
        H0X = np.stack([_separable_apply(grid, m, scalar, x) for x in X.T], axis=1)
        if not rotating:
            H0X = H0X.real
        assert np.max(np.abs(prec(H0X) - X)) <= 1e-12 * np.max(np.abs(X))
        assert np.max(np.abs(prec(H0X[:, :1]) - X[:, :1])) <= 1e-12 * np.max(np.abs(X))


def test_k0_real_eigensolve_matches_complex_path(monkeypatch):
    p = harmonic_problem(dim=2, n=32, length=12.0)
    chi = CutoffFunction(3.5)
    real = build_K0(p, chi, eta=1.0, J=4)

    def lift(op):
        # the real operator acting on complex blocks
        return lambda Z: op(np.ascontiguousarray(Z.real)) + 1j * op(np.ascontiguousarray(Z.imag))

    solve = fields.lowest_eigenpairs

    def complex_solve(apply, precondition, X, J):
        # the same solve on a complex block, its residual rule checked on
        # the complex Ritz vectors
        Z = X + 1j * np.random.default_rng(1).standard_normal(X.shape)
        return solve(lift(apply), lift(precondition), Z, J)

    monkeypatch.setattr(fields, "lowest_eigenpairs", complex_solve)
    cplx = build_K0(p, chi, eta=1.0, J=4)
    assert abs(real.kappa - cplx.kappa) <= 1e-10
    assert np.max(np.abs(real.e - cplx.e)) <= 1e-10


def test_k0_repeatable_bitwise():
    p = harmonic_problem(dim=2, n=32, length=12.0)
    first = build_K0(p, CutoffFunction(3.5), eta=1.0, J=4)
    second = build_K0(p, CutoffFunction(3.5), eta=1.0, J=4)
    assert first.kappa == second.kappa
    assert np.array_equal(first.e, second.e)


@pytest.mark.parametrize("dim, omega, n, J", [
    (2, 0.0, 32, 4), (2, 0.4, 16, 4), (2, 0.9, 32, 4), (3, 0.0, 12, 4),
    (3, (0.0, 0.0, 0.5), 12, 4), (3, (0.3, 0.0, 0.8), 12, 4), (2, 0.0, 16, 6),
], ids=["0.0-32", "0.4-16", "0.9-32", "3d-0.0-12", "3d-0.5z-12", "3d-offaxis-12",
        "J6-0.0-16"])
def test_k0_eigenvalues_match_full_precision_solve(monkeypatch, dim, omega, n, J):
    # the residual rule sqrt(eps) max(1, |theta|) against ARPACK run to
    # machine precision (tol=0) on the same operators: on the CLI's default
    # grid, rotating (the complex block), in 3D, where K0's second level
    # is threefold at Omega = 0, about an axis off z, and with J = 6 levels,
    # more than the start block's lowest separable vectors resolve
    p = harmonic_problem(dim=dim, n=n, length=12.0, omega=omega)
    solves = _captured_solves(monkeypatch)
    shipped = build_K0(p, CutoffFunction(3.5), eta=1.0, J=J)
    v0 = np.random.default_rng(0).standard_normal(n**dim)
    exact = [np.sort(eigsh(_operator(op, start), k=k, which="SA", tol=0, v0=v0,
                           return_eigenvectors=False))
             for (op, _, start), k in zip(solves, (1, J))]
    assert abs(shipped.kappa - exact[0][0]) <= 1e-10
    assert np.max(np.abs(shipped.e - exact[1])) <= 1e-10


@pytest.mark.parametrize("J", [15, 16])
def test_k0_on_a_grid_smaller_than_the_block(monkeypatch, J):
    # 16 points hold fewer than J + 2 start vectors: the columns past the
    # grid's size start random, and the solve matches the dense spectrum
    p = harmonic_problem(dim=2, n=4, length=12.0)
    solves = _captured_solves(monkeypatch)
    mob = build_K0(p, CutoffFunction(3.5), eta=1.0, J=J)
    dense = np.linalg.eigvalsh(solves[1][0](np.eye(16)))
    assert np.max(np.abs(mob.e - dense[:J])) <= 1e-10 * np.max(np.abs(dense))


def test_k0_default_solves_apply_count(monkeypatch):
    # kappa(eta) and K0 at the CLI defaults took 1,251 ARPACK applies; the
    # preconditioned block solve took 222 column applies from a random
    # start and 191 from the separable part's lowest eigenvectors in
    # scipy's lobpcg, and takes 164 in lowest_eigenpairs, which stops at the
    # J pairs it returns; the seeded start makes the count deterministic
    applies = []  # column applies per solve, the residual check's 1 + 4 included
    solve = fields.lowest_eigenpairs

    def counted(apply, precondition, start, J):
        applies.append(0)

        def counted_apply(Z):
            applies[-1] += Z.shape[1]
            return apply(Z)

        return solve(counted_apply, precondition, start, J)

    monkeypatch.setattr(fields, "lowest_eigenpairs", counted)
    p = harmonic_problem(dim=2, n=32, length=12.0)
    build_K0(p, CutoffFunction(3.5), eta=1.0, J=4)
    assert len(applies) == 2
    assert sum(applies) <= 300
    assert sum(applies) <= 170


def _check_pairs(apply, vals, vecs, dense, J):
    """vals against the dense spectrum; vecs orthonormal and within the
    residual rule sqrt(eps) max(1, |theta|)."""
    assert vals.shape == (J,) and vecs.shape == (dense.size, J)
    assert np.max(np.abs(vals - dense[:J])) <= 1e-10 * max(1.0, np.max(np.abs(dense[:J])))
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(J))) <= 1e-12
    resid = np.linalg.norm(apply(vecs) - vecs * vals, axis=0)
    assert np.all(resid <= np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(vals)))


@pytest.mark.parametrize("dtype", [float, complex])
def test_lowest_eigenpairs_on_a_dense_hermitian_matrix(dtype):
    # no preconditioner, a random start, and a doubly degenerate lowest level
    rng = np.random.default_rng(11)
    size, J = 60, 5
    Q = np.linalg.qr(rng.standard_normal((size, size))
                     + (1j * rng.standard_normal((size, size)) if dtype is complex else 0))[0]
    spectrum = np.r_[1.0, 1.0, np.linspace(2.0, 30.0, size - 2)]
    A = (Q * spectrum) @ Q.conj().T
    start = rng.standard_normal((size, J + 2)).astype(dtype)
    vals, vecs = fields.lowest_eigenpairs(lambda X: A @ X, lambda X: X, start, J)
    assert vecs.dtype == dtype
    _check_pairs(lambda X: A @ X, vals, vecs, np.linalg.eigvalsh(A), J)


@pytest.mark.parametrize("dim, omega, n, J", [
    (2, 0.0, 12, 4), (2, 0.4, 12, 4), (3, 0.0, 12, 4), (2, 0.0, 4, 16),
], ids=["real", "rotating", "3d-threefold", "grid-below-block"])
def test_lowest_eigenpairs_match_dense_eigh(monkeypatch, dim, omega, n, J):
    # K0's operators, real at Omega = 0 and complex when rotating; on 3D
    # n = 12 its second level, 8.99547, is threefold; 16 points hold fewer
    # than the J + 2 start columns
    p = harmonic_problem(dim=dim, n=n, length=12.0, omega=omega)
    solves = _captured_solves(monkeypatch)
    build_K0(p, CutoffFunction(3.5), eta=1.0, J=J)
    apply, precondition, start = solves[1]
    A = apply(np.eye(start.shape[0], dtype=start.dtype))
    assert np.max(np.abs(A - A.conj().T)) <= 1e-12 * np.max(np.abs(A))
    vals, vecs = fields.lowest_eigenpairs(apply, precondition, start, J)
    dense = np.linalg.eigvalsh(A)
    _check_pairs(apply, vals, vecs, dense, J)
    if dim == 3:
        assert np.ptp(vals[1:4]) <= 1e-10 and abs(vals[1] - 8.99547) <= 1e-5


def test_k0_solve_with_indefinite_separable_part():
    # K0 less 10: the separable part's lowest level goes negative, so its
    # denominators are shifted to keep the preconditioner positive definite
    p = harmonic_problem(dim=2, n=32, length=12.0)
    chi, eta, grid = CutoffFunction(3.5), 1.0, p.grid
    ksq = grid.ksq()
    mult = ksq * (1.0 - chi(np.sqrt(ksq)) ** 2) + 2.0 * eta * ksq
    scalar = p.potential + eta * grid.radius_sq() ** 2
    base = fields.lowest_modes(p.gauge, mult, scalar, 4)[0]
    shifted = fields.lowest_modes(p.gauge, mult, scalar - 10.0, 4)[0]
    assert base[0] - 10.0 < 0.0
    assert np.max(np.abs(shifted - (base - 10.0))) <= 1e-10


def test_missed_residual_rule_raises(monkeypatch):
    # two iterations cannot reach sqrt(eps): the recomputed residuals fail
    # the rule
    monkeypatch.setattr(fields, "_LOBPCG_MAXITER", 2)
    with pytest.raises(ArithmeticError, match="residual rule"):
        build_K0(harmonic_problem(dim=2, n=16, length=12.0), CutoffFunction(3.5), eta=1.0, J=2)
