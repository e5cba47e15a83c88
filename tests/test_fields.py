import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rotogp.fields import (
    ComplexField,
    GaugeField,
    Grid,
    GridMismatchError,
    apply_gauge_kinetic,
    boundary_decay_ok,
    gaussian_field,
    inner,
    lowest_modes,
    norm,
    norm4_pow4,
    read_field,
    vortex_field,
    write_field,
)

RNG = np.random.default_rng(7)


def random_field(grid):
    vals = RNG.standard_normal(grid.shape) + 1j * RNG.standard_normal(grid.shape)
    return ComplexField(grid, vals)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 16, 10.0)
    with pytest.raises(ValueError):
        Grid(2, 15, 10.0)
    with pytest.raises(ValueError):
        Grid(2, 16, -1.0)
    g = Grid(3, 16, 8.0)
    assert g.spacing == 0.5
    k = np.sort(g.kvecs()[0].ravel())
    expected = 2 * np.pi * np.arange(-8, 8) / 8.0
    assert np.allclose(k, np.sort(expected))


def test_gauge_kinetic_plane_wave_eigenfunction():
    g = Grid(2, 32, 8.0)
    A = GaugeField(g, 0.0)
    k = g.kvecs()[0].ravel()
    kx, ky = k[2], k[5]
    x = g.coords()
    f = ComplexField(g, np.exp(1j * (kx * x[0] + ky * x[1])))
    out = apply_gauge_kinetic(f, A)
    assert np.allclose(out.values, (kx**2 + ky**2) * f.values, atol=1e-10)


def test_gauge_kinetic_gaussian_virial():
    # ground state of -Lap + |x|^2 has <p^2> = dim/2 (half of E0 = dim)
    for dim in (2, 3):
        g = Grid(dim, 32, 14.0)
        phi = gaussian_field(g)
        A = GaugeField(g, 0.0)
        val = inner(phi, apply_gauge_kinetic(phi, A)).real
        assert np.isclose(val, dim / 2.0, atol=1e-8)


def test_gauge_cross_term_vanishes_for_real_field():
    g = Grid(3, 24, 12.0)
    phi = gaussian_field(g)
    A = GaugeField(g, [0.0, 0.0, 1.0])
    # <phi|2 p.A|phi> = <(-i grad + A)^2> - <p^2> - <A^2> should vanish
    total = inner(phi, apply_gauge_kinetic(phi, A)).real
    A0 = GaugeField(g, 0.0)
    p2 = inner(phi, apply_gauge_kinetic(phi, A0)).real
    a2 = g.spacing**g.dim * np.sum(A.magnitude_sq() * np.abs(phi.values) ** 2)
    assert abs(total - p2 - a2) < 1e-10


def test_gauge_kinetic_hermitian_and_positive():
    g = Grid(2, 32, 16.0)
    A = GaugeField(g, 0.7)
    env = np.exp(-g.radius_sq())
    f = ComplexField(g, env * (RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape)))
    h = ComplexField(g, env * (RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape)))
    lhs = inner(f, apply_gauge_kinetic(h, A))
    rhs = inner(apply_gauge_kinetic(f, A), h)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    assert inner(f, apply_gauge_kinetic(f, A)).real > -1e-12


def _gauge_kinetic_reference(phi, A):
    """-Lap phi - 2i A.grad phi + |A|^2 phi with five n-D transforms (div A = 0)."""
    g = phi.grid
    fhat = np.fft.fftn(phi.values)
    out = np.fft.ifftn(g.ksq() * fhat)
    for a, k in zip(A.components, g.kvecs()):
        out = out - 2j * a * np.fft.ifftn(1j * k * fhat)
    return out + A.magnitude_sq() * phi.values


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    half_n=st.integers(4, 12),
    length=st.floats(2.0, 30.0),
    omega=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gauge_kinetic_matches_five_fft_reference(dim, half_n, length, omega, seed):
    g = Grid(dim, 2 * half_n, length)
    A = GaugeField(g, omega[2] if dim == 2 else omega)
    rng = np.random.default_rng(seed)
    f, h = (ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
            for _ in range(2))
    hf, hh = apply_gauge_kinetic(f, A), apply_gauge_kinetic(h, A)
    ref = _gauge_kinetic_reference(f, A)
    assert np.max(np.abs(hf.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(inner(f, hh) - inner(hf, h)) <= 1e-12 * norm(f) * norm(hh)
    assert inner(f, hf).real >= -1e-12


@pytest.mark.parametrize("dim, omega, n", [(2, 0.4, 16), (3, (0.3, 0.0, 0.8), 10)],
                         ids=["2d", "3d-offaxis"])
def test_lowest_modes_are_eigenvectors_of_the_gauge_kinetic_apply(dim, omega, n):
    # lowest_modes applies k^2 + 2 A.k + |A|^2, apply_gauge_kinetic
    # sum_i (k_i + A_i)^2: its vectors must be eigenvectors of the latter
    g = Grid(dim, n, 10.0)
    A = GaugeField(g, omega)
    V = g.radius_sq()
    J = 4
    vals, vecs = lowest_modes(A, g.ksq(), A.magnitude_sq() + V, J)
    assert vals.shape == (J,) and vecs.shape == (n**dim, J)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(J))) <= 1e-12
    for theta, v in zip(vals, vecs.T):
        phi = ComplexField(g, v.reshape(g.shape))
        resid = apply_gauge_kinetic(phi, A).values + (V - theta) * phi.values
        assert np.linalg.norm(resid) <= np.sqrt(np.finfo(float).eps) * max(1.0, abs(theta))


def test_cached_k_grids_are_read_only():
    g = Grid(2, 16, 8.0)
    assert g.ksq() is g.ksq()
    with pytest.raises(ValueError):
        g.ksq()[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.kvecs()[1][0, 0] = 1.0


def test_inner_normalized_gaussian():
    g = Grid(3, 32, 14.0)
    phi = gaussian_field(g)
    assert np.isclose(inner(phi, phi).real, 1.0, atol=1e-8)


def test_norm4_gaussian_closed_form_and_quadrature_oracle():
    # phi = pi^{-3/4} exp(-|x|^2/2): int |phi|^4 = (2 pi)^{-3/2}
    g = Grid(3, 32, 14.0)
    phi = gaussian_field(g)
    closed = (2.0 * np.pi) ** (-1.5)
    # independent 1D quadrature oracle: the integral factorizes per axis
    axis_int, _ = quad(lambda x: (np.pi**-0.25 * np.exp(-x**2 / 2)) ** 4, -10, 10)
    oracle = axis_int**3
    assert np.isclose(oracle, closed, rtol=1e-10)
    assert np.isclose(norm4_pow4(phi), closed, rtol=1e-7)
    assert np.isclose(closed, 0.063494, atol=1e-6)


def _vortex_reference(grid, winding):
    """(x +- iy)^|q| e^{-|x|^2/2}, the power taken before the Gaussian damps it."""
    x = grid.coords()
    zplane = x[0] + 1j * x[1]
    if winding < 0:
        zplane = np.conj(zplane)
    return ComplexField(grid, zplane ** abs(winding) * np.exp(-grid.radius_sq() / 2.0)).normalized()


@pytest.mark.parametrize("grid", [Grid(2, 64, 12.0), Grid(3, 24, 10.0)], ids=["2d", "3d"])
def test_vortex_field_matches_the_direct_power(grid):
    for q in (1, 2, 3, -2, 0):
        diff = vortex_field(grid, q).values - _vortex_reference(grid, q).values
        assert np.abs(diff).max() < 1e-14, q


def test_vortex_field_of_high_winding_stays_finite():
    # the direct power reaches |x + iy|^200 = 42^200 at the box corners and
    # overflows; the state itself peaks near |x + iy| = sqrt 200, inside the box
    phi = vortex_field(Grid(2, 128, 60.0), 200)
    assert np.isfinite(phi.values).all()
    assert norm(phi) == pytest.approx(1.0, abs=1e-12)


def test_grid_mismatch_raises():
    f = random_field(Grid(2, 16, 8.0))
    h = random_field(Grid(2, 32, 8.0))
    with pytest.raises(GridMismatchError):
        inner(f, h)


def test_boundary_decay_flag():
    g = Grid(2, 32, 20.0)
    assert boundary_decay_ok(gaussian_field(g))
    assert not boundary_decay_ok(ComplexField(g, np.ones(g.shape)))


def test_field_dump_round_trip(tmp_path):
    g = Grid(2, 16, 7.5)
    f = random_field(g)
    path = str(tmp_path / "field.f64")
    write_field(f, path, omega=[0.0, 0.0, 0.3])
    back, omega = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    assert np.allclose(omega, [0.0, 0.0, 0.3])
