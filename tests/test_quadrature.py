import numpy as np
import pytest

from rotogp.quadrature import BesselChannel, gauss_legendre


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
