import numpy as np
import pytest

from rotogp.analysis import (
    MixtureState,
    angular_momentum_z,
    concavity_defects,
    detect_vortices,
    is_extreme,
    rotate_field,
    total_vortex_charge,
)
from rotogp.fields import ComplexField, Grid, gaussian_field, inner, norm, vortex_field


@pytest.fixture
def grid2d():
    return Grid(2, 64, 14.0)


def test_vortex_census_on_imprinted_charge(grid2d):
    for q in (1, -1, 2):
        phi = vortex_field(grid2d, winding=q)
        vortices = detect_vortices(phi)
        assert total_vortex_charge(phi) == q
        # all detected charge sits near the origin
        n = grid2d.n
        for i, j, _ in vortices:
            assert abs(i - n // 2) <= 2 and abs(j - n // 2) <= 2


def test_no_vortices_in_gaussian(grid2d):
    phi = gaussian_field(grid2d)
    assert detect_vortices(phi) == []


def test_amplitude_floor_excludes_noise(grid2d):
    # phase garbage far outside the cloud must not produce counts
    rng = np.random.default_rng(0)
    phi = gaussian_field(grid2d)
    noise = 1e-9 * np.exp(2j * np.pi * rng.random(grid2d.shape))
    phi = ComplexField(grid2d, phi.values + noise)
    assert detect_vortices(phi) == []


def test_off_lattice_census_is_plaquette_census(grid2d):
    from rotogp.analysis import _plaquette_census

    rng = np.random.default_rng(5)
    phi = vortex_field(grid2d, winding=3)
    # cores shifted off the lattice: no undefined node sits by live
    # amplitude, so the repair pass adds nothing to the plaquette census
    pert = rng.standard_normal(2) @ np.array([1.0, 1j])
    vals = phi.values + 1e-4 * pert * np.exp(-grid2d.radius_sq())
    phi = ComplexField(grid2d, vals).normalized()
    amp = np.abs(phi.values)
    ok = amp > 1e-3 * amp.max()
    defined = amp > 1e-12 * amp.max()
    ref = _plaquette_census(np.angle(phi.values), ok, defined)
    assert sorted(detect_vortices(phi)) == sorted(ref)
    assert sum(q for _, _, q in ref) == 3


def test_angular_momentum_of_winding_states(grid2d):
    # (x + iy)^q Gaussian is an L_z eigenstate with eigenvalue q
    for q in (0, 1, 2, -1):
        phi = vortex_field(grid2d, winding=q)
        assert angular_momentum_z(phi) == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("grid", [Grid(2, 64, 14.0), Grid(3, 24, 10.0)], ids=["2d", "3d"])
def test_angular_momentum_matches_nd_gradient(grid):
    # reference: every partial derivative from one n-D transform pair
    rng = np.random.default_rng(5)
    envelope = np.exp(-grid.radius_sq() / 2.0)
    phi = ComplexField(grid, envelope * (rng.standard_normal(grid.shape)
                                         + 1j * rng.standard_normal(grid.shape))).normalized()
    fhat = np.fft.fftn(phi.values)
    grads = [np.fft.ifftn(1j * k * fhat) for k in grid.kvecs()]
    x, y = grid.coords()[:2]
    lz = ComplexField(grid, -1j * (x * grads[1] - y * grads[0]))
    ref = inner(phi, lz).real
    assert abs(angular_momentum_z(phi) - ref) < 1e-13 * max(1.0, abs(ref))


def test_rotation_of_winding_state_is_phase(grid2d):
    # L_z eigenstate: rotation by theta multiplies by exp(-i q theta)
    phi = vortex_field(grid2d, winding=1)
    theta = 0.37
    rot = rotate_field(phi, theta)
    expect = np.exp(-1j * theta) * phi.values
    # compare away from the boundary where shear wrap-around lives
    s = slice(8, -8)
    assert np.max(np.abs(rot.values[s, s] - expect[s, s])) < 1e-8


def test_rotation_quarter_turn_exact(grid2d):
    rng = np.random.default_rng(1)
    base = gaussian_field(grid2d)
    bump = ComplexField(
        grid2d, base.values * (1.0 + 0.2 * rng.standard_normal(grid2d.shape))
    ).normalized()
    rot4 = bump
    for _ in range(4):
        rot4 = rotate_field(rot4, np.pi / 2)
    assert np.allclose(rot4.values, bump.values, atol=1e-12)


def test_rotation_forward_backward_identity(grid2d):
    x, y = grid2d.coords()
    vals = (x + 0.3 * y**2) * np.exp(-(x**2 + y**2) / 2)
    phi = ComplexField(grid2d, vals + 0j).normalized()
    back = rotate_field(rotate_field(phi, 0.8), -0.8)
    # boundary wrap from the shears leaves ~1e-9 residue on a decaying field
    assert np.max(np.abs(back.values - phi.values)) < 1e-7


def test_rotation_matches_analytic(grid2d):
    # rotate an anisotropic Gaussian and compare pointwise to the formula
    x, y = grid2d.coords()
    phi = ComplexField(grid2d, np.exp(-(x**2) / 2 - y**2 / 1.5) + 0j)
    theta = 0.6
    rot = rotate_field(phi, theta)
    c, s = np.cos(theta), np.sin(theta)
    xr, yr = c * x + s * y, -s * x + c * y
    expect = np.exp(-(xr**2) / 2 - yr**2 / 1.5)
    sl = slice(10, -10)
    assert np.max(np.abs(rot.values[sl, sl] - expect[sl, sl])) < 1e-7


def test_rotation_preserves_norm(grid2d):
    phi = vortex_field(grid2d, winding=2)
    assert norm(rotate_field(phi, 1.234)) == pytest.approx(1.0, abs=1e-12)


def test_concavity_defects_signs():
    a = np.array([0.0, 1.0, 2.0, 4.0])
    concave = -np.array([0.0, 1.0, 4.0, 16.0])  # -a^2 is concave
    assert np.all(concavity_defects(a, concave) <= 0)
    assert np.all(concavity_defects(a, -concave) >= 0)
    with pytest.raises(ValueError):
        concavity_defects(a[:2], concave[:2])
    with pytest.raises(ValueError):
        concavity_defects(a[::-1], concave)


def test_concavity_defects_match_the_pointwise_loop():
    # the same subtractions and divisions of the same operands: bitwise equal
    rng = np.random.default_rng(5)
    a = np.cumsum(rng.uniform(0.1, 1.0, 12))
    e = -a**2 + 1e-3 * rng.standard_normal(12)
    loop = [(e[i + 1] - e[i]) / (a[i + 1] - a[i]) - (e[i] - e[i - 1]) / (a[i] - a[i - 1])
            for i in range(1, a.size - 1)]
    assert np.array_equal(concavity_defects(a, e), loop)


def test_mixture_gram_matches_pairwise_inner_products(grid2d):
    fields = [gaussian_field(grid2d), vortex_field(grid2d, 1), vortex_field(grid2d, -2),
              rotate_field(vortex_field(grid2d, 1), 0.3)]
    w = np.array([0.1, 0.2, 0.3, 0.4])
    g = MixtureState(w, fields).gram()
    ref = np.array([[np.sqrt(w[i] * w[j]) * inner(f, h) for j, h in enumerate(fields)]
                    for i, f in enumerate(fields)])
    assert np.abs(g - ref).max() <= 1e-15


def test_mixture_pure_state_is_extreme(grid2d):
    phi = gaussian_field(grid2d)
    same_ray = ComplexField(grid2d, np.exp(1j * 0.7) * phi.values)
    st = MixtureState([0.4, 0.6], [phi, same_ray])
    assert is_extreme(st)
    assert st.spectrum()[0] == pytest.approx(1.0, abs=1e-12)


def test_mixture_of_distinct_states_not_extreme(grid2d):
    st = MixtureState([0.5, 0.5], [gaussian_field(grid2d), vortex_field(grid2d, 1)])
    assert not is_extreme(st)
    ev = st.spectrum()
    # orthogonal constituents: spectrum is exactly the weights
    assert np.allclose(ev, [0.5, 0.5], atol=1e-12)


def test_mixture_validation(grid2d):
    phi = gaussian_field(grid2d)
    with pytest.raises(ValueError):
        MixtureState([0.5, 0.6], [phi, phi])
    with pytest.raises(ValueError):
        MixtureState([-0.5, 1.5], [phi, phi])
