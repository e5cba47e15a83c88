import numpy as np
import pytest

from rotogp.scattering import (
    RadialPotential,
    _rk4_outward,
    _rk4_step,
    from_samples,
    hard_sphere,
    radial_solution,
    scattering_length,
    square_barrier,
    square_barrier_length,
)


def square_well(radius, depth):
    """Attractive well -|depth| on r <= radius."""
    return RadialPotential(
        rrange=radius, func=lambda r: np.full_like(np.asarray(r, float), -abs(depth))
    )


def test_hard_sphere_length_is_radius():
    for r0 in (0.5, 1.0, 2.7):
        assert scattering_length(hard_sphere(r0)) == pytest.approx(r0, abs=1e-12)


def test_square_barrier_against_closed_form():
    for r0, w0 in ((1.0, 1.0), (1.0, 25.0), (1.0, 100.0), (0.7, 400.0)):
        a = scattering_length(square_barrier(r0, w0))
        assert a == pytest.approx(square_barrier_length(r0, w0), abs=1e-6)


def _rk4_loop(h, wvals):
    """Reference: the RK4 steps taken one at a time."""
    us = np.zeros((wvals.size + 1) // 2)
    u, v = 0.0, 1.0
    for k in range(1, us.size):
        du, dv = _rk4_step(u, v, h, *(2.0 * wvals[2 * k - 2 : 2 * k + 1]))
        u, v = u + du, v + dv
        us[k] = u
    return us, v


@pytest.mark.parametrize("pot", [
    square_barrier(1.0, 1.0),
    square_barrier(1.0, 4.0e4).scaled(8.0),
    square_well(1.0, 2.0),
    RadialPotential(2.0, lambda r: 50.0 / (1.0 + r**2), core=0.3),
], ids=["weak", "tall-scaled", "well", "smooth-core"])
def test_rk4_prefix_products_match_stepwise_loop(pot):
    # the products round in another order than the loop: allow eps per step.
    # Odd counts and 2^10 + 1 reach the scan's ragged ends: the up-sweep's
    # unpaired last step and the down-sweep's indices past the last 2^m - 1
    for n in (1, 2, 3, 7, 1024, 1025, 2000):
        h = (pot.rrange - pot.core) / n
        wvals = pot.func(pot.core + 0.5 * h * np.arange(2 * n + 1))
        us, v = _rk4_outward(h, wvals)
        us_ref, v_ref = _rk4_loop(h, wvals)
        tol = n * np.finfo(float).eps
        assert us.shape == us_ref.shape
        assert np.max(np.abs(us - us_ref)) <= tol * np.max(np.abs(us_ref)), n
        assert abs(v - v_ref) <= tol * abs(v_ref), n


@pytest.mark.parametrize("r0, w0", [(1.0, 1.0), (1.0, 25.0), (1.0, 50.0),
                                     (1.0, 100.0), (0.7, 400.0)])
def test_square_barrier_to_rounding(r0, w0):
    # at 20,000 steps RK4 meets the closed form to rounding on these
    # barriers; products rounded against the identity were up to 6.6e-13 off
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


def test_radial_solution_shape_and_outer_linearity():
    pot = square_barrier(1.0, 10.0)
    r, u = radial_solution(pot)
    assert r.shape == u.shape
    out = r >= 1.0
    coeffs = np.polyfit(r[out], u[out], 1)
    resid = u[out] - np.polyval(coeffs, r[out])
    assert np.max(np.abs(resid)) < 1e-10


@pytest.mark.parametrize("pot", [square_barrier(1.0, 50.0), square_well(1.0, 0.5),
                                 square_barrier(1.0, 4.0e4).scaled(8)])
def test_closed_form_matches_affine_fit(pot):
    # a = R - u(R)/u'(R) against a least-squares line through the outer samples
    r, u = radial_solution(pot)
    out = r >= pot.rrange
    slope, intercept = np.polyfit(r[out], u[out], 1)
    assert scattering_length(pot) == pytest.approx(-intercept / slope, rel=1e-13)


def test_validation():
    with pytest.raises(ValueError):
        RadialPotential(rrange=-1.0, func=lambda r: r)
    with pytest.raises(ValueError):
        RadialPotential(rrange=1.0, func=lambda r: r, core=2.0)
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
