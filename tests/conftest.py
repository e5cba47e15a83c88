"""Fixtures shared by the quadrature test modules."""

import numpy as np
import pytest

from rotogp import dyson
from rotogp.quadrature import BesselChannel
from rotogp.scattering import scattering_length, square_barrier


@pytest.fixture(scope="module")
def dyson_pieces():
    """Kinetic multiplier and Gauss pieces of check_dyson_inequality at the
    dyson-check defaults: int(2K(hi - lo)/L) + 16 nodes per piece for K = 350
    on the ball of radius L = 14, that is 22, 19 and 716."""
    seen = []

    class Recorder(BesselChannel):
        def matrix(self, kin_mult, pieces):
            seen.append((kin_mult, pieces))
            return np.eye(self.p.size)

    pot = square_barrier(1.0, 4.0e4).scaled(8.0)
    sp = dyson.build_soft_potentials(dyson.CutoffFunction(3.5), 0.35)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyson, "BesselChannel", Recorder)
        dyson.check_dyson_inequality(pot, sp, scattering_length(pot), 0.5)
    kin, pieces = seen[0]
    # v/2 on its range 1/8, the U_R shell, and the w_R piece on the whole ball
    assert [(lo, hi) for lo, hi, _, _ in pieces] == [
        (0.0, 0.125), (2.0 ** (-1.0 / 3.0) * 0.35, 0.35), (0.0, 14.0)]
    assert [n for _, _, n, _ in pieces] == [22, 19, 716]
    assert all(n == int(2 * 350 * (hi - lo) / 14.0) + 16 for lo, hi, n, _ in pieces)
    return kin, pieces
