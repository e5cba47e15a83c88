"""The spherical-Bessel tables in place: bitwise the old kernel, one table per oracle channel.

sin_cos and the three-term recurrences write into arrays they own instead
of allocating a temporary per operation; the upward recurrence runs on all
of x, its values below max(ell, 1) overwritten, instead of on an np.where
copy; the power series runs numpy's polyval Horner loop in place on
coefficients built once per order; the zero search and the norms take the
upward recurrence directly; and brute_diag evaluates each channel's modes
at its points in the table of the last Gauss-node block.  Every
floating-point operation keeps its operands and its order, so the results
must be equal, not close: the references below are the kernel as it was
before, kept verbatim, and compared with np.array_equal.
"""

import math

import numpy as np
import pytest

from rotogp import heatkernel, quadrature
from rotogp.quadrature import BesselChannel, bessel_zeros, weighted_nodes


# -- the kernel before the in-place rewrite -----------------------------------

def _sin_cos_reference(x):
    t = np.tan(0.5 * x)
    c = 2.0 / (1.0 + t * t)
    return np.multiply(t, c, out=t), np.subtract(c, 1.0, out=c)


def _upward_reference(ell, x):
    s, c = _sin_cos_reference(x)
    j0 = np.divide(s, x, out=s)
    j1 = np.divide(j0 - c, x, out=c)
    for n in range(1, ell + 1):
        j0, j1 = j1, np.subtract((2 * n + 1) * j1 / x, j0, out=j0)
    return j0, j1


def _series_reference(ell, x):
    for m in (ell, ell + 1):
        c = np.cumprod([1.0 / math.prod(range(1, 2 * m + 2, 2))]
                       + [-0.5 / (k * (2 * m + 2 * k + 1)) for k in range(1, 10)])
        yield x**m * np.polynomial.polynomial.polyval(x * x, c)


def _miller_reference(ell, x):
    f_next, f = np.zeros_like(x), np.ones_like(x)
    for n in range(ell + 10 + int(6 * ell ** (1 / 3)), 0, -1):
        f_next, f = f, np.subtract((2 * n + 1) * f / x, f_next, out=f_next)
        if n == ell + 1:
            top = np.array([f, f_next])
    norm = np.hypot(f, f_next)
    j0, j1 = _upward_reference(0, x)
    return top * (((f / norm) * j0 + (f_next / norm) * j1) / norm)


def _pair_reference(ell, x):
    upward, small = x >= max(ell, 1), x < 1.0
    pair = _upward_reference(ell, x if upward.all() else np.where(upward, x, ell + 1.0))
    for mask, part in ((small, _series_reference), (~(upward | small), _miller_reference)):
        if mask.any():
            pair[0][mask], pair[1][mask] = part(ell, x[mask])
    return pair


def _zeros_reference(ell, count):
    if ell == 0:
        return np.pi * np.arange(1, count + 1)
    x = np.arange(max(1.0, ell), (count + 0.5 * ell + 1.0) * np.pi, 0.1)
    fx = _pair_reference(ell, x)[0]
    idx = np.nonzero((fx[:-1] == 0.0) | (fx[:-1] * fx[1:] < 0.0))[0][:count]
    z = x[idx] - 0.1 * fx[idx] / (fx[idx + 1] - fx[idx])
    for _ in range(4):
        j, j_next = _pair_reference(ell, z)
        z = z + j / (j_next - ell * j / z)
    return z


class _ReferenceChannel(BesselChannel):
    """The old channel: its own zeros, norms and tables, one table per node
    block.  Channel 0's matrix is the cosine sums, which take the old
    sin_cos where the caller patches it in."""

    def __init__(self, ell, K, L):
        self.ell, self.L = ell, L
        alph = _zeros_reference(ell, K)
        self.p = alph / L
        self.norms = np.sqrt(L**3 / 2.0) * np.abs(_pair_reference(ell, alph)[1])

    def __call__(self, r):
        x = np.multiply.outer(self.p, np.asarray(r, dtype=float))
        return _pair_reference(self.ell, x)[0] / self.norms[:, None]

    def matrix(self, kin_mult, pieces):
        if self.ell == 0:
            H = super().matrix(kin_mult, pieces)
        else:
            H = np.diag(kin_mult(self.p))
            for piece in pieces:
                r, wq = weighted_nodes(*piece)
                for i in range(0, r.size, quadrature._BLOCK):
                    B = self(r[i:i + quadrature._BLOCK])
                    H += (B * wq[i:i + quadrature._BLOCK]) @ B.T
            H = 0.5 * (H + H.T)
        return H


# -- the tables against it ----------------------------------------------------

@pytest.mark.parametrize("ell", [1, 2])
def test_channel_matrices_match_the_old_kernel_bitwise(ell, dyson_pieces):
    kin, pieces = dyson_pieces
    H = BesselChannel(ell, 350, 14.0).matrix(kin, pieces)
    assert np.array_equal(H, _ReferenceChannel(ell, 350, 14.0).matrix(kin, pieces))


_ORACLES = {
    "d1": (heatkernel.harmonic_potential(), 1.0, np.linspace(0.0, 3.0, 9), 1),
    "d3": (heatkernel.harmonic_potential(), 1.0, np.linspace(0.2, 3.0, 8), 3),
    "log": (heatkernel.log_potential(2.0), 0.1, np.linspace(0.0, 3.0, 9), 1),
}


@pytest.mark.parametrize("config", sorted(_ORACLES))
def test_oracle_matches_the_old_kernel_bitwise_with_one_table_per_channel(config, monkeypatch):
    # the heat-bound configs: (diagonal, K, drift) equal to the old kernel's,
    # and one table of the points per channel
    V, alpha, xs, d = _ORACLES[config]
    channels, tables, pair = [], [], quadrature._spherical_jn_pair

    class Counting(BesselChannel):
        def __init__(self, *args):
            channels.append(args[0])
            super().__init__(*args)

    with monkeypatch.context() as mp:
        mp.setattr(heatkernel, "BesselChannel", Counting)
        mp.setattr(quadrature, "_spherical_jn_pair",
                   lambda *a: tables.append((a[0], a[1].shape[1])) or pair(*a))
        diag, K, drift = heatkernel.brute_diag(V, alpha, xs, d=d)
    with monkeypatch.context() as mp:
        mp.setattr(heatkernel, "BesselChannel", _ReferenceChannel)
        mp.setattr(quadrature, "sin_cos", _sin_cos_reference)
        diag_ref, K_ref, drift_ref = heatkernel.brute_diag(V, alpha, xs, d=d)
    assert K == K_ref
    assert np.array_equal(diag, diag_ref) and np.array_equal(drift, drift_ref)
    # the first channel, _oracle_basis's 32-mode bound on lam_0, makes no
    # table; each later one makes one of the points besides those of its node
    # blocks (channel 0's matrix makes none)
    points = [ell for ell, columns in tables if columns == xs.size]
    assert points == channels[1:] == list(range(len(points)))
    assert [ell for ell, _ in tables] == sorted(ell for ell, _ in tables)
    assert len(points) > 1 if d == 3 else tables == [(0, xs.size)]


def test_zeros_match_the_old_kernel_bitwise():
    # the d = 3 oracle's channels at the heat-bound default, K = 58
    for ell in range(19):
        assert np.array_equal(bessel_zeros(ell, 58), _zeros_reference(ell, 58)), ell


@pytest.mark.parametrize("ell", [0, 1, 2, 17, 60])
def test_tables_below_ell_warn_of_nothing_and_keep_the_error_state(ell):
    # x = 0, values below ell and past it: the upward recurrence divides 0 by
    # 0 and overflows there, silenced in the kernel alone, under the
    # RuntimeWarning-as-error filter of the test configuration as under a
    # caller's errstate that raises
    x = np.concatenate([[0.0, 1e-300, 1e-8], np.geomspace(1e-6, 70.0, 401),
                        ell + np.linspace(-1e-3, 1e-3, 41), np.linspace(0.0, 200.0, 2001)])
    x = x[x >= 0.0]
    reference = _pair_reference(ell, x)
    outside = np.geterr()
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        inside = np.geterr()
        pair = quadrature._spherical_jn_pair(ell, x)
        assert np.geterr() == inside
    assert np.geterr() == outside
    assert all(np.array_equal(u, v) for u, v in zip(pair, reference))
    # and on a mode table, where the kernel divides in place by the norms
    ch = BesselChannel(ell, 40, 30.0)
    assert np.array_equal(ch(x[x <= 30.0]), _ReferenceChannel(ell, 40, 30.0)(x[x <= 30.0]))
