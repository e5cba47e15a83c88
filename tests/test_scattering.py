import numpy as np
import pytest

from rotogp.scattering import (
    CELLS,
    RadialPotential,
    _piece_matrices,
    from_samples,
    hard_sphere,
    scattering_bracket,
    scattering_length,
    square_barrier,
    square_barrier_length,
)


def square_well(radius, depth):
    """Attractive well -|depth| on r <= radius."""
    return RadialPotential((radius,), (-abs(depth),))


def test_hard_sphere_length_is_radius():
    for r0 in (0.5, 1.0, 2.7):
        assert scattering_length(hard_sphere(r0)) == pytest.approx(r0, abs=1e-12)


def test_square_barrier_against_closed_form():
    for r0, w0 in ((1.0, 1.0), (1.0, 25.0), (1.0, 100.0), (0.7, 400.0)):
        a = scattering_length(square_barrier(r0, w0))
        assert a == pytest.approx(square_barrier_length(r0, w0), abs=1e-6)


@pytest.mark.parametrize("r0, w0", [(1.0, 1.0), (1.0, 25.0), (1.0, 50.0),
                                     (1.0, 100.0), (0.7, 400.0)])
def test_square_barrier_to_rounding(r0, w0):
    # a square barrier is one constant piece: cosh and sinh meet the closed
    # form to rounding
    a, exact = scattering_length(square_barrier(r0, w0)), square_barrier_length(r0, w0)
    assert abs(a - exact) <= 2 * np.spacing(exact)


def test_tall_barrier_approaches_hard_sphere():
    a = scattering_length(square_barrier(1.0, 4.0e4))
    assert abs(a - 1.0) < 0.01
    assert a < 1.0


def test_attractive_well_sign():
    # weak attraction, no bound state: a = R - tan(kR)/k < 0 for small kR
    r0, w0 = 1.0, 0.5
    k = np.sqrt(2.0 * w0)
    a = scattering_length(square_well(r0, w0))
    assert a == pytest.approx(r0 - np.tan(k * r0) / k, abs=1e-6)
    assert a < 0


def test_short_range_scaling():
    base = square_barrier(1.0, 9.0)
    a = scattering_length(base)
    for n in (2.0, 10.0, 64.0):
        an = scattering_length(base.scaled(n))
        assert an == pytest.approx(a / n, rel=1e-6)


def test_scaled_hard_sphere():
    pot = hard_sphere(1.0).scaled(8.0)
    assert scattering_length(pot) == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_sampled_potential_matches_functional_form():
    r = np.linspace(0.0, 1.0, 4001)
    pot = from_samples(r, np.full_like(r, 25.0))
    a = scattering_length(pot)
    assert a == pytest.approx(square_barrier_length(1.0, 25.0), abs=1e-4)


@pytest.mark.filterwarnings("error")
def test_barrier_too_tall_for_double_precision_raises():
    # u(R) ~ exp(sqrt(2 W) R) passes the double range near W R^2 = 2.5e5
    for pot in (square_barrier(1.0, 1.0e6), square_barrier(1.0, 1.0e10).scaled(8.0)):
        with pytest.raises(ArithmeticError, match="hardcore R0"):
            scattering_length(pot)


def test_validation():
    with pytest.raises(ValueError):
        RadialPotential((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        RadialPotential((1.0,), (1.0,), core=2.0)
    with pytest.raises(ValueError):
        square_barrier(1.0, -3.0)
    with pytest.raises(ValueError):
        from_samples([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        from_samples([0.0, np.nan, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        square_barrier(1.0, 1.0).scaled(0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -50.0])
def test_from_samples_rejects_non_finite_or_negative(bad):
    r = np.linspace(0.0, 1.0, 51)
    w = np.full_like(r, 25.0)
    w[10:20] = bad
    with pytest.raises(ValueError):
        from_samples(r, w)


def test_knots_follow_the_samples_and_the_scaling():
    pot = from_samples([0.5, 1.0, 2.0], [3.0, 1.0, 2.0])
    assert pot.knots == (0.5, 1.0, 2.0)
    assert pot.scaled(4.0).knots == (0.125, 0.25, 0.5)
    assert square_barrier(1.0, 2.0).scaled(4.0).knots == ()


def test_negative_sample_radius_is_refused():
    # the knot data starts at r = 0
    with pytest.raises(ValueError):
        from_samples([-1.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        RadialPotential((-0.5, 1.0), (2.0, 1.0))


# ---------------------------------------------------------------------------
# exact piece matrices
# ---------------------------------------------------------------------------

# (width, q at the start, q at the end): Airy pieces rising, falling, tall,
# weak, across q = 0 and below it; constant pieces above, at and below 0;
# slopes so small that the constant form takes them, plus its first order;
# the last piece is Airy (|al h| = 1.5e-3) and its halves are not
_PIECES = [(1.0, 100.0, 0.0), (0.3, 2.0, 50.0), (1.0, 2e4, 1e4), (1.0, 2e-3, 0.0),
           (0.5, -3.0, 4.0), (0.7, -50.0, -10.0), (0.4, 9.0, 9.0), (1.0, 0.0, 0.0),
           (0.4, -9.0, -9.0), (1.0, 100.0, 100.0 * (1 + 1e-12)), (1e-3, 80.0, 80.16),
           (1.0, 1e5, 1e5 * (1 + 1e-9)), (1.0, 1.0, 1.0 + 1.5e-3**3)]


def _matrices(pieces):
    h, q0, q1 = (np.array(x, dtype=float) for x in zip(*pieces))
    return _piece_matrices(h, q0, q1)


def test_piece_matrices_are_unimodular():
    # the Wronskian of u'' = q u is constant: det = 1, to rounding of the
    # products M11 M22 and M12 M21
    M = _matrices(_PIECES)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    scale = np.maximum(np.abs(M[0, 0] * M[1, 1]), np.abs(M[0, 1] * M[1, 0]))
    assert np.all(np.abs(det - 1.0) <= 1e-13 * np.maximum(scale, 1.0)), det


def test_piece_matrix_is_the_product_of_its_halves():
    for h, q0, q1 in _PIECES:
        qm = 0.5 * (q0 + q1)
        halves = _matrices([(h / 2, q0, qm), (h / 2, qm, q1)])
        whole = _matrices([(h, q0, q1)])[..., 0]
        product = halves[..., 1] @ halves[..., 0]
        assert np.allclose(product, whole, rtol=1e-13, atol=1e-13 * np.abs(whole).max()), (h, q0, q1)


@pytest.mark.parametrize("height", [1e-3, 1.0, 50.0, 1e4, 2e5])
def test_slope_of_1e_12_meets_the_constant_form(height):
    # a rise of 1e-12 of q moves the piece matrix by about 1e-12 of it per
    # unit of k h, k = sqrt(q), the phase it accumulates
    flat = _matrices([(1.0, height, height)])
    tilted = _matrices([(1.0, height, height * (1 + 1e-12))])
    assert np.allclose(tilted, flat, rtol=2e-12 * (1 + np.sqrt(height)), atol=0)


# ---------------------------------------------------------------------------
# against the 20,000-step RK4 integrator these matrices replaced
# ---------------------------------------------------------------------------

def _tri(height):
    return [0.0, 1.0], [height, 0.0]


def _ramp(height):
    return [0.0, 1.0], [0.0, height]


_R1001 = np.linspace(0.0, 1.0, 1001)
# (knots, RK4's scattering length at 20,000 steps): the triangle, ramp and
# tent of the scattering-length table, triangles and ramps from height 1e-3
# to just below the overflow of u (about 5.7e5), plateaus whose rise or
# fall is 1e-12 of their height, and 1,001 equispaced samples, whose knots
# fall on RK4's step boundaries
_RK4 = [
    (_tri(50.0), 0.7044724455974013),
    (_ramp(5.0), 0.655274056857122),
    (([0.0, 0.5, 1.0], [0.0, 20.0, 0.0]), 0.6810229886976389),
    (_tri(1e4), 0.9494653602374121),
    (_tri(1e-3), 0.00016662540731648967),
    (_tri(0.1), 0.016264201078779683),
    (_tri(10.0), 0.4967905000282532),
    (_tri(1e3), 0.8911264190472169),
    (_tri(1e5), 0.9765438980367293),
    (_tri(5.5e5), 0.9867117350837071),
    (_ramp(1e-3), 0.0004997144499054862),
    (_ramp(0.1), 0.04729820639539195),
    (_ramp(10.0), 0.7608901324143236),
    (_ramp(1e3), 0.977511788218638),
    (_ramp(1e5), 0.9977626795685706),
    (_ramp(5.5e5), 0.999046309948218),
    (([0.0, 1.0], [1e-3, 1e-3 * (1 + 1e-12)]), 0.0006661337647302368),
    (([0.0, 1.0], [1e-3 * (1 + 1e-12), 1e-3]), 0.0006661337647300147),
    (([0.0, 1.0], [1.0, 1.0 + 1e-12]), 0.37181654509472295),
    (([0.0, 1.0], [1.0 + 1e-12, 1.0]), 0.37181654509460615),
    (([0.0, 1.0], [50.0, 50.0 * (1 + 1e-12)]), 0.9000000004122782),
    (([0.0, 1.0], [50.0 * (1 + 1e-12), 50.0]), 0.9000000004122333),
    (([0.0, 1.0], [1e4, 1e4 * (1 + 1e-12)]), 0.992928932188138),
    (([0.0, 1.0], [1e4 * (1 + 1e-12), 1e4]), 0.9929289321881345),
    (([0.0, 1.0], [2e5, 2e5 * (1 + 1e-12)]), 0.9984188611699166),
    (([0.0, 1.0], [2e5 * (1 + 1e-12), 2e5]), 0.9984188611699158),
    ((_R1001, 40 * (1 - _R1001)**2 + 5 * np.sin(6 * _R1001)**2), 0.6496663816556559),
]


@pytest.mark.parametrize("knots, a_rk4", _RK4)
def test_lengths_meet_rk4(knots, a_rk4):
    # 1e-13 relative; where a << R, a few ulp of R, to which the subtraction
    # a = R - u/u' rounds (RK4's own error is 3.5e-13 of a on the 1e-3
    # triangle, against 80-digit Airy products)
    a = scattering_length(from_samples(*knots))
    assert abs(a - a_rk4) <= 1e-13 * a_rk4 + 8 * np.finfo(float).eps


@pytest.mark.parametrize("r0, w0", [(1.0, 1e-3), (1.0, 1.0), (1.0, 50.0), (0.1, 300.0),
                                     (1.0, 4e4), (1.0, 2.5e5)])
def test_square_barriers_meet_rk4_to_2_ulp(r0, w0):
    # RK4 met the closed form to 1 ulp on these, up to W R^2 = 2.5e5
    a = scattering_length(square_barrier(r0, w0))
    assert abs(a - square_barrier_length(r0, w0)) <= 2 * np.spacing(a)


def test_misaligned_samples_meet_the_airy_reference():
    # 1,000 equispaced samples put knots inside RK4's steps, where it was
    # 3.4e-12 off (0.6496663820661057); the 80-digit product of the Airy
    # piece matrices gives 0.64966638206392175725
    r = np.linspace(0.0, 1.0, 1000)
    a = scattering_length(from_samples(r, 40 * (1 - r)**2 + 5 * np.sin(6 * r)**2))
    assert a == pytest.approx(0.64966638206392175725, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# the monotone bracket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("knots, a_rk4", _RK4)
def test_bracket_contains_the_length(knots, a_rk4):
    # up to the rounding allowance of the scattering verdict, 1e-12 R: the
    # plateaus' brackets are narrower than that
    pot = from_samples(*knots)
    lo, hi = scattering_bracket(pot)
    assert lo - 1e-12 <= scattering_length(pot) <= hi + 1e-12
    assert lo <= hi


def test_bracket_width_falls_like_one_over_cells():
    # on the table's triangle, ramp and tent the width at CELLS = 64 is
    # 2.2e-2, 5.2e-3 and 1.2e-2 of a
    for knots, width in [(_tri(50.0), 2.2e-2), (_ramp(5.0), 5.2e-3),
                         (([0.0, 0.5, 1.0], [0.0, 20.0, 0.0]), 1.2e-2)]:
        pot = from_samples(*knots)
        lo, hi = scattering_bracket(pot)
        assert (hi - lo) / scattering_length(pot) == pytest.approx(width, rel=0.05)
    assert CELLS == 64


@pytest.mark.parametrize("pot", [square_barrier(1.0, 50.0), square_barrier(0.1, 300.0).scaled(3.0),
                                 hard_sphere(0.7), square_barrier(1.0, 0.0)],
                         ids=["square", "scaled-square", "hard-sphere", "zero"])
def test_constant_piece_is_its_own_bracket(pot):
    a = scattering_length(pot)
    assert scattering_bracket(pot) == (a, a)
