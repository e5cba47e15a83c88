import tracemalloc

import numpy as np
import pytest
from scipy import special

from rotogp import dyson, heatkernel
from rotogp.quadrature import BesselChannel, bessel_zeros, gauss_legendre
from rotogp.scattering import scattering_length, square_barrier


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


@pytest.fixture(scope="module")
def dyson_pieces():
    """Kinetic multiplier and Gauss pieces of check_dyson_inequality at the
    dyson-check defaults: 600, 200 and 2400 nodes on the ball of radius 14."""
    seen = []

    class Recorder(BesselChannel):
        def matrix(self, kin_mult, pieces):
            seen.append((kin_mult, pieces))
            return np.eye(self.p.size)

    pot = square_barrier(1.0, 4.0e4).scaled(8.0)
    sp = dyson.build_soft_potentials(dyson.CutoffFunction(3.5), 0.35, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyson, "BesselChannel", Recorder)
        dyson.check_dyson_inequality(pot, sp, scattering_length(pot))
    kin, pieces = seen[0]
    # the w_R piece spans the whole ball
    assert [(n, hi) for _, hi, n, _ in pieces][1:] == [(200, 0.35), (2400, 14.0)]
    assert pieces[0][2] == 600
    return kin, pieces


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


def test_blocked_assembly_matches_unblocked_on_oracle_pieces():
    # the d = 1 heat-kernel oracle: two pieces of K + 16 nodes on [0, L],
    # L = 2 box for points |x| <= 3, as brute_diag takes it
    alpha = 0.08
    L = 2.0 * (3.0 + 12.0 * np.sqrt(alpha) + 8.0)
    K, pieces = heatkernel._oracle_basis(heatkernel.log_potential(2.0), alpha, L, 1)
    assert 360 <= K <= 400
    ch = BesselChannel(0, K, L)
    H, ref = ch.matrix(np.square, pieces), _unblocked_matrix(0, K, L, np.square, pieces)
    assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))
    bump = [(lo, hi, n, lambda r: np.exp(-np.abs(r - L / 2)) / r) for lo, hi, n, _ in pieces]
    coef = ch.project(bump)
    coef_ref = sum(B @ wq for B, wq in _unblocked(0, K, L, bump))
    assert np.max(np.abs(coef - coef_ref)) <= 1e-13 * np.max(np.abs(coef_ref))


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
    # a whole-piece table of 350 modes at 2400 nodes is 6.7 MB alone; the
    # assembler without node blocks peaks near 29 MB, with them near 4.7 MB
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
