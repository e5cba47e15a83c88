import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from rotogp import heatkernel, quadrature
from rotogp.quadrature import (BesselChannel, bessel_zeros, gauss_legendre, gauss_pieces,
                               integrate, weighted_nodes)


@pytest.mark.parametrize("n", [1, 2, 48, 400, 2400])
def test_rule_integrates_polynomials_exactly(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert w.sum() == pytest.approx(2.0, rel=1e-14, abs=0.0)
    # an even and an odd monomial within the rule's degree of exactness;
    # numpy's companion-matrix weights miss the even one by 4.6e-12 at n = 2400
    deg = min(2 * n - 2, 20)
    assert np.dot(w, x**deg) == pytest.approx(2.0 / (deg + 1), rel=1e-12, abs=0.0)
    assert abs(np.dot(w, x ** (deg + 1))) < 1e-15


def test_rule_matches_numpy_to_rounding():
    x, w = gauss_legendre(200)
    x_ref, w_ref = np.polynomial.legendre.leggauss(200)
    assert np.max(np.abs(x - x_ref)) < 1e-15
    assert np.max(np.abs(w - w_ref)) < 1e-14


def test_rule_is_cached_and_read_only():
    x, w = gauss_legendre(64)
    assert gauss_legendre(64)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_channel_zero_is_the_sine_basis():
    L = 7.5
    ch = BesselChannel(0, 40, L)
    r = np.linspace(0.01, L, 301)
    k = np.arange(1, 41)[:, None]
    sines = np.sqrt(2.0 / L) * np.sin(k * np.pi * r / L)
    assert np.max(np.abs(r * ch(r) - sines)) < 1e-13


@pytest.mark.parametrize("K, L, r", [
    # p_k r < 1 for every mode: the kernel's power series
    (40, 7.5, np.geomspace(1e-12, 7.5 / (40 * np.pi), 50)),
    # r = L / m, m odd, puts p_k r on odd multiples of pi for k = m, 3m, ...,
    # where tan(x/2) blows up
    (40, 7.5, 7.5 / np.arange(1, 40, 2)),
    # the d = 1 oracle's cap, K = 1000 on L = 60
    (1000, 60.0, np.linspace(0.0, 60.0, 1201)),
], ids=["series", "odd-zeros", "oracle-cap"])
def test_channel_zero_edge_cases(K, L, r):
    sines = np.sqrt(2.0 / L) * np.sin(np.multiply.outer(np.arange(1, K + 1) * np.pi / L, r))
    assert np.max(np.abs(r * BesselChannel(0, K, L)(r) - sines)) < 1e-13


def test_channel_zero_has_exact_zeros_and_nested_modes():
    # r = 0 is checked against the limit sqrt(2/L) p_k in
    # test_channel_zero_matches_spherical_bessel
    L, K = 60.0, 1000
    assert np.array_equal(bessel_zeros(0, K), np.pi * np.arange(1, K + 1))
    r = np.linspace(0.0, L, 257)
    assert np.array_equal(BesselChannel(0, 37, L)(r), BesselChannel(0, K, L)(r)[:37])


@pytest.mark.parametrize("ell", [0, 2, 9])
def test_channel_matrix_is_orthonormal_and_nested(ell):
    # a constant potential c adds c times the identity; the split is exact
    L, K = 5.0, 30
    ch = BesselChannel(ell, K, L)
    pieces = [(0.0, 2.0, 80, lambda r: np.full_like(r, 3.0)),
              (2.0, L, 80, lambda r: np.full_like(r, 3.0))]
    H = ch.matrix(np.square, pieces)
    assert np.max(np.abs(H - np.diag(ch.p**2) - 3.0 * np.eye(K))) < 1e-12
    small = BesselChannel(ell, 12, L).matrix(np.square, pieces)
    assert np.array_equal(small, H[:12, :12])
    # projecting mode j onto the basis gives the j-th unit vector
    coef = ch.project([(lo, hi, n, lambda r: ch(r)[4]) for lo, hi, n, _ in pieces])
    assert np.max(np.abs(coef - np.eye(K)[4])) < 1e-12


def test_gauss_pieces_put_two_nodes_per_half_wave_of_mode_K():
    pieces = gauss_pieces((0.0, 1.5, 7.0, 10.0), np.cos, 100, 10.0)
    assert [(lo, hi, n) for lo, hi, n, _ in pieces] == [
        (0.0, 1.5, 46), (1.5, 7.0, 126), (7.0, 10.0, 76)]
    assert all(func is np.cos for *_, func in pieces)
    # the weights integrate func r^2 over the piece
    r, wq = weighted_nodes(1.5, 7.0, 126, np.ones_like)
    assert np.all((r > 1.5) & (r < 7.0))
    assert wq.sum() == pytest.approx((7.0**3 - 1.5**3) / 3.0, rel=1e-14, abs=0.0)


def _unblocked(ell, K, L, pieces):
    """Mode tables and weights of whole pieces, modes from spherical_jn and
    the zero search for every channel: the assembler without node blocks."""
    alph = bessel_zeros(ell, K)
    norms = np.sqrt(L**3 / 2.0) * np.abs(special.spherical_jn(ell + 1, alph))
    for r_lo, r_hi, n_quad, func in pieces:
        x, w = gauss_legendre(n_quad)
        r = 0.5 * (r_hi - r_lo) * x + 0.5 * (r_hi + r_lo)
        B = special.spherical_jn(ell, np.multiply.outer(alph / L, r)) / norms[:, None]
        yield B, 0.5 * (r_hi - r_lo) * w * func(r) * r * r


def _unblocked_matrix(ell, K, L, kin_mult, pieces):
    H = np.diag(kin_mult(bessel_zeros(ell, K) / L))
    for B, wq in _unblocked(ell, K, L, pieces):
        H += (B * wq[None, :]) @ B.T
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_blocked_matrix_matches_unblocked_on_dyson_pieces(ell, dyson_pieces):
    kin, pieces = dyson_pieces
    H = BesselChannel(ell, 350, 14.0).matrix(kin, pieces)
    ref = _unblocked_matrix(ell, 350, 14.0, kin, pieces)
    assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sine_channel_blocks_nest_bitwise_at_the_row_edges(dyson_pieces):
    # channel 0's cosine sums come in rows of 32 frequencies (2K // 32 + 1
    # rows): sizes on both sides of a row edge, and the single-row builds
    kin, pieces = dyson_pieces
    H = BesselChannel(0, 100, 14.0).matrix(kin, pieces)
    for K in (1, 2, 15, 16, 17, 31, 32, 33):
        assert np.array_equal(BesselChannel(0, K, 14.0).matrix(kin, pieces), H[:K, :K]), K


def test_sine_assembly_matches_mode_tables_on_the_shell(dyson_pieces):
    # the potential part alone, without the kinetic diagonal that dominates
    # max|H|: the U_R shell piece, whose edges are jumps inside the ball,
    # and all three pieces
    _, pieces = dyson_pieces
    for part in (pieces[1:2], pieces):
        H = BesselChannel(0, 350, 14.0).matrix(np.zeros_like, part)
        ref = _unblocked_matrix(0, 350, 14.0, np.zeros_like, part)
        assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))


def _check_oracle_assembly(ell, d, K_range):
    # the heat-kernel oracle for points |x| <= 3, as brute_diag takes it: in
    # d = 1, two pieces of K + 16 nodes on [0, L], L = 2 box; in d = 3, one
    # piece of 2K + 16 nodes on [0, box]
    alpha = 0.08
    L = (3.0 + 12.0 * np.sqrt(alpha) + 8.0) * (2.0 if d == 1 else 1.0)
    K, pieces = heatkernel._oracle_basis(heatkernel.log_potential(2.0), alpha, L, d)
    assert K_range[0] <= K <= K_range[1]
    ch = BesselChannel(ell, K, L)
    H, ref = ch.matrix(np.square, pieces), _unblocked_matrix(ell, K, L, np.square, pieces)
    assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))
    bump = [(lo, hi, n, lambda r: np.exp(-np.abs(r - L / 2)) / r) for lo, hi, n, _ in pieces]
    coef = ch.project(bump)
    coef_ref = sum(B @ wq for B, wq in _unblocked(ell, K, L, bump))
    assert np.max(np.abs(coef - coef_ref)) <= 1e-13 * np.max(np.abs(coef_ref))


def test_blocked_assembly_matches_unblocked_on_oracle_pieces():
    _check_oracle_assembly(0, 1, (360, 400))


def test_blocked_assembly_matches_unblocked_on_d3_oracle_pieces():
    # channel 17 has mode values below and above its turning point
    _check_oracle_assembly(17, 3, (180, 200))


# x up to the d = 3 oracle's largest argument, (K + ell/2 + 1) pi at K = 400
_KERNEL_X = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 431 * np.pi, 40001),
                            np.geomspace(1e-6, 70.0, 4001)])


@pytest.mark.parametrize("ell", range(61))
def test_spherical_jn_pair_matches_scipy(ell):
    x = np.concatenate([_KERNEL_X, ell + np.linspace(-1e-3, 1e-3, 41)])
    x = x[x >= 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, j_next = quadrature._spherical_jn_pair(ell, x)
    assert np.max(np.abs(j - special.spherical_jn(ell, x))) <= 1e-13
    assert np.max(np.abs(j_next - special.spherical_jn(ell + 1, x))) <= 1e-13
    assert j[0] == (ell == 0) and j_next[0] == 0.0


def test_channels_make_no_scipy_bessel_call(monkeypatch, dyson_pieces):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special.spherical_jn called")

    monkeypatch.setattr(special, "spherical_jn", refuse)
    assert not hasattr(quadrature, "spherical_jn")
    kin, pieces = dyson_pieces
    assert np.all(np.isfinite(BesselChannel(1, 350, 14.0).matrix(kin, pieces)))
    ch = BesselChannel(60, 40, 30.0)
    assert np.all(np.isfinite(ch(np.linspace(0.0, 30.0, 301))))
    assert bessel_zeros(17, 100).size == 100


def test_channel_zero_matches_spherical_bessel():
    L, K = 9.0, 1000
    ch = BesselChannel(0, K, L)
    assert np.array_equal(ch.p, np.pi * np.arange(1, K + 1) / L)
    norms = np.sqrt(L**3 / 2.0) * np.abs(special.spherical_jn(1, ch.p * L))
    r = np.concatenate([np.geomspace(1e-6, 1e-2, 40), np.linspace(1e-2, L, 500)])
    ref = special.spherical_jn(0, np.multiply.outer(ch.p, r)) / norms[:, None]
    assert np.max(np.abs(ch(r) - ref)) <= 1e-13 * np.max(np.abs(ref))
    # r = 0 gives the limit sqrt(2/L) p_k, which is j_0(0) / norm_k
    at_zero = ch(np.array([0.0, L]))[:, 0]
    assert np.max(np.abs(at_zero - np.sqrt(2.0 / L) * ch.p)) <= 1e-15 * at_zero.max()
    assert np.max(np.abs(at_zero - 1.0 / norms)) <= 1e-13 * at_zero.max()


def test_channel_assembly_memory_is_bounded_by_node_blocks(dyson_pieces):
    # a whole-piece table of 350 modes at 716 nodes is 2.0 MB alone; the
    # assembler without node blocks peaks near 11.6 MB, with them near 4.8 MB
    kin, pieces = dyson_pieces
    ch = BesselChannel(1, 350, 14.0)
    for _, _, n_quad, _ in pieces:
        gauss_legendre(n_quad)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ch.matrix(kin, pieces)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("deg", [0, 1, 7, 13, 22])
def test_integrate_is_exact_for_polynomials(deg):
    # the 15-point Kronrod rule is exact to degree 22 and its 7-point check to
    # degree 13, so up to there one panel passes: one call of f, zero error
    a, b = -0.3, 1.7
    p = np.polynomial.Polynomial(np.arange(1.0, deg + 2.0))
    exact = p.integ()(b) - p.integ()(a)
    calls = []
    value, error = integrate(lambda y: calls.append(y.shape) or p(y), [a, b])
    assert value == pytest.approx(exact, rel=1e-14, abs=1e-14)
    if deg <= 13:
        assert calls == [(1, 15)] and error <= 1e-13 * abs(exact)


@pytest.mark.parametrize("breaks", [[-1.0, 2.0], [-1.0, 0.0, 2.0]], ids=["inside", "at-break"])
def test_integrate_resolves_a_square_root_cusp(breaks):
    exact = 2.0 / 3.0 * (1.0 + 2.0**1.5)
    value, error = integrate(lambda y: np.sqrt(np.abs(y)), breaks)
    assert abs(value - exact) <= error <= 1e-8 * exact


def test_integrate_resolves_a_narrow_gaussian():
    # width 1e-4 on [0, 1]: a panel reaching 10 widths past the peak finds it;
    # a peak no node sees at all (here, one at a break) would be invisible
    c, s = 0.3, 1e-4
    exact = s * np.sqrt(2.0 * np.pi)
    value, error = integrate(lambda y: np.exp(-0.5 * ((y - c) / s) ** 2),
                             [0.0, c - 10 * s, c + 10 * s, 1.0])
    assert abs(value - exact) <= error <= 1e-8 * exact


def test_integrate_refuses_a_nan_integrand_at_once():
    # bisection never settles a NaN panel: 48 rounds would double the live
    # panels until memory runs out, so the first panel's value stops it
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match=r"panel \[0.0, 1.0\]"):
        integrate(lambda y: np.full_like(y, np.nan), np.r_[0.0, 1.0])
    assert time.perf_counter() - start < 1.0


def test_integrate_rows_match_single_integrals_and_calls_stay_in_blocks():
    # one row per (a, k): int_a^{a+2} e^{-k y} dy, with a duplicate break in the first;
    # 40 panels per row are more than one call of f takes
    a, k = np.array([0.0, 1.0, -0.5]), np.array([1.0, 3.0, 0.5])
    breaks = np.column_stack([a, a + 0.5, a + 0.5, a[:, None] + np.linspace(0.55, 2.0, 39)])
    seen = []

    def f(y, k):
        seen.append(y.size)
        return np.exp(-k * y)

    value, error = integrate(f, breaks, k)
    exact = (np.exp(-k * a) - np.exp(-k * (a + 2.0))) / k
    # smooth rows: the checks sit at rounding level, so allow a few ulps besides
    assert np.all(np.abs(value - exact) <= error + 4e-16 * exact)
    assert np.all(error <= 1e-8 * exact)
    assert sum(seen) == 3 * 40 * 15 and max(seen) <= quadrature._BLOCK
    for i in range(3):
        single = integrate(lambda y: np.exp(-k[i] * y), [a[i], a[i] + 2.0])
        assert single[0] == pytest.approx(value[i], rel=1e-13)


def test_diag_bound_integrand_transient_is_bounded():
    # a call evaluates at most 255 nodes x 200 theta terms: 0.4 MB per array
    xs = np.linspace(0.2, 3.0, 8)
    V = heatkernel.harmonic_potential()
    heatkernel.diag_bound(V, 1.0, xs, d=3)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        heatkernel.diag_bound(V, 1.0, xs, d=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4e6
