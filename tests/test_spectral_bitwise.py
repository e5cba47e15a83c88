"""fields.apply_symbols and fields.apply_multiplier: bitwise the expressions
they replaced, and blind to a block's trailing column axis.

L_z, the rotation shears and the gauge field were each computed by their
own expression before every complex transform went through fields.  The
references below are those expressions, kept verbatim (the grid's removed
wavenumbers property inlined as its body), and the results must be equal,
not close: a product at most swaps its factors, which IEEE multiplication
commutes, and a real factor is cast to complex as numpy's multiply casts it.
"""

import numpy as np
import pytest

from rotogp import analysis
from rotogp.fields import (
    ComplexField,
    GaugeField,
    Grid,
    apply_multiplier,
    apply_symbols,
    inner,
)


# -- the expressions before one transform convention -------------------------

def _angular_momentum_z_reference(phi):
    px, py = (np.fft.ifft(k * np.fft.fft(phi.values, axis=ax), axis=ax)
              for ax, k in enumerate(phi.grid.kvecs()[:2]))
    x, y = phi.grid.coords()[:2]
    return inner(phi, ComplexField(phi.grid, x * py - y * px)).real


def _shear_reference(values, grid, axis, amount):
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    c = grid.axis
    if axis == 0:
        ramp = np.exp(-1j * np.outer(k, amount * c))
    else:
        ramp = np.exp(-1j * np.outer(amount * c, k))
    return np.fft.ifft(np.fft.fft(values, axis=axis) * ramp, axis=axis)


def _rotate_field_reference(phi, theta):
    vals = phi.values
    t = theta % (2.0 * np.pi)
    quarter = int(np.rint(t / (np.pi / 2.0)))
    rem = t - quarter * (np.pi / 2.0)
    for _ in range(quarter % 4):
        vals = np.roll(np.flip(vals.T, axis=0), 1, axis=0)
    if rem != 0.0:
        a = -np.tan(rem / 2.0)
        b = np.sin(rem)
        vals = _shear_reference(vals, phi.grid, 0, a)
        vals = _shear_reference(vals, phi.grid, 1, b)
        vals = _shear_reference(vals, phi.grid, 0, a)
    return vals


def _gauge_components_reference(grid, omega):
    x = grid.coords()
    wx, wy, wz = omega
    if grid.dim == 2:
        return [-0.5 * wz * x[1], 0.5 * wz * x[0]]
    return [
        0.5 * (wy * x[2] - wz * x[1]),
        0.5 * (wz * x[0] - wx * x[2]),
        0.5 * (wx * x[1] - wy * x[0]),
    ]


def _rough_field(grid, seed):
    """A normalized off-centre Gaussian with random phase and amplitude noise."""
    rng = np.random.default_rng(seed)
    shifted = np.exp(-0.5 * sum((c - 0.3) ** 2 for c in grid.coords()))
    noise = (1.0 + 0.3 * rng.standard_normal(grid.shape)) * np.exp(
        2j * np.pi * rng.random(grid.shape))
    return ComplexField(grid, shifted * noise).normalized()


# -- the callers -------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_angular_momentum_z_is_the_old_value(dim):
    phi = _rough_field(Grid(dim, 16, 9.0), seed=dim)
    assert analysis.angular_momentum_z(phi) == _angular_momentum_z_reference(phi)


@pytest.mark.parametrize("theta", [0.37, 2.0])
def test_rotate_field_is_the_old_three_shears(theta):
    phi = _rough_field(Grid(2, 32, 12.0), seed=5)
    assert np.array_equal(analysis.rotate_field(phi, theta).values,
                          _rotate_field_reference(phi, theta))


@pytest.mark.parametrize("dim, omega", [(2, -0.9), (2, 0.0), (3, [0.3, -0.2, 0.5]),
                                        (3, [0.0, 0.0, 0.7])])
def test_one_gauge_formula_is_the_old_two_branches(dim, omega):
    # A = (1/2) Omega ^ x with z = 0 in 2D: only a zero's sign may differ,
    # so the components compare equal and their symbols keep every bit
    grid = Grid(dim, 16, 9.0)
    A = GaugeField(grid, omega)
    reference = _gauge_components_reference(grid, A.omega)
    assert len(A.components) == dim
    for a, ref, sym, k in zip(A.components, reference, A.symbols, grid.kvecs()):
        assert a.shape == ref.shape and np.array_equal(a, ref)
        ref_sym = ((k + ref) ** 2).astype(complex)
        assert np.array_equal(sym.view(np.uint64), ref_sym.view(np.uint64))


# -- a trailing column axis --------------------------------------------------

def _block(grid, m, seed):
    return np.stack([_rough_field(grid, seed + j).values for j in range(m)], axis=-1)


@pytest.mark.parametrize("dim", [2, 3])
def test_apply_symbols_on_a_block_is_its_columns_applies(dim):
    grid = Grid(dim, 16, 9.0)
    A = GaugeField(grid, [0.0, 0.0, -0.8] if dim == 2 else [0.3, -0.2, 0.5])
    block = _block(grid, 4, seed=20)
    before = block.copy()
    term_lists = [
        list(enumerate(A.symbols)),                                         # gauge kinetic
        [(ax, 2.0 * a * k) for ax, (k, a) in enumerate(zip(grid.kvecs(), A.components))],
        [(1, grid.kvecs()[1])],                                             # p_y, one axis
        [(0, np.exp(-1j * (grid.kvecs()[0] * (0.4 * grid.coords()[1]))))],  # a shear ramp
    ]
    for terms in term_lists:
        out = apply_symbols(block, terms)
        assert out.shape == block.shape
        for j in range(block.shape[-1]):
            assert np.array_equal(out[..., j], apply_symbols(block[..., j], terms))
    assert np.array_equal(block, before)


@pytest.mark.parametrize("dim", [2, 3])
def test_apply_multiplier_on_a_block_is_its_columns_applies(dim):
    grid = Grid(dim, 16, 9.0)
    block = _block(grid, 4, seed=30)
    for mult in (1.0 / (1.0 + grid.ksq()), (grid.ksq() + 2.0).astype(complex)):
        z = block.copy()
        out = apply_multiplier(z, mult)
        assert out is z  # in place
        for j in range(block.shape[-1]):
            column = apply_multiplier(block[..., j].copy(), mult)
            assert np.array_equal(out[..., j], column)
            assert np.array_equal(column, np.fft.ifftn(mult * np.fft.fftn(block[..., j])))

