"""Grids, complex fields and spectral operators on a periodic box.

Units are hbar = 2m = 1 throughout: the kinetic operator is -Laplacian and
the rotation gauge field is A(x) = (1/2) Omega ^ x.  The box is centred at
the origin, x_i = -L/2 + i*L/n, and all integrals use midpoint quadrature
(spacing**dim weights), which is spectrally accurate for fields that have
decayed at the boundary.

Since A_i never depends on x_i, the gauge kinetic operator splits exactly
into sum_i (-i d_i + A_i)^2, each term the multiplier (k_i + A_i)^2 of the
1D transform along axis i.  Each Grid caches its wavenumber grids
(read-only) and each GaugeField builds its multipliers once.
"""

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Raised when two objects do not live on the same grid."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^dim with n points per axis."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be even and positive, got {self.n}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"box length must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        """1D coordinate axis, shared by every dimension."""
        return -0.5 * self.length + self.spacing * np.arange(self.n)

    def _per_axis(self, v):
        return [v.reshape((1,) * d + (self.n,) + (1,) * (self.dim - d - 1))
                for d in range(self.dim)]

    def coords(self):
        """Broadcastable coordinate arrays, one per axis."""
        return self._per_axis(self.axis)

    @property
    def wavenumbers(self) -> np.ndarray:
        """1D wavenumber axis 2*pi*k/L, k = -n/2 .. n/2-1, fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @cached_property
    def _spectrum(self):
        k = self.wavenumbers
        k.setflags(write=False)  # the per-axis views inherit the flag
        kv = self._per_axis(k)
        ksq = sum(kk**2 for kk in kv)
        ksq.setflags(write=False)
        return kv, ksq

    def kvecs(self):
        """Broadcastable wavenumber arrays, one per axis (cached, read-only)."""
        return list(self._spectrum[0])

    def ksq(self) -> np.ndarray:
        """|k|^2 on the full grid (cached, read-only)."""
        return self._spectrum[1]

    def radius_sq(self) -> np.ndarray:
        return sum(x**2 for x in self.coords())


@dataclass
class ComplexField:
    """Complex scalar field sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def normalized(self) -> "ComplexField":
        """The field over its norm; a ValueError unless it is finite and nonzero."""
        if not np.isfinite(self.values).all():
            raise ValueError("cannot normalize a non-finite field")
        n = norm(self)
        if not n > 0:
            raise ValueError("cannot normalize a field of zero norm")
        return ComplexField(self.grid, self.values / n)


@dataclass
class GaugeField:
    """Rotation gauge field A(x) = (1/2) Omega ^ x on a grid.

    omega is always a 3-vector; for a 2D grid it must point along z so the
    in-plane components A = (omega_z/2) * (-y, x) are well defined.
    """

    grid: Grid
    omega: np.ndarray
    components: list = field(init=False)
    symbols: list = field(init=False)

    def __post_init__(self):
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if self.omega.size == 1:
            self.omega = np.array([0.0, 0.0, float(self.omega[0])])
        if self.omega.shape != (3,) or not np.all(np.isfinite(self.omega)):
            raise ValueError("omega must be a finite scalar (z component) or 3-vector")
        if self.grid.dim == 2 and (self.omega[0] != 0 or self.omega[1] != 0):
            raise ValueError("2D grids support rotation about z only")
        x = self.grid.coords()
        wx, wy, wz = self.omega
        if self.grid.dim == 2:
            self.components = [-0.5 * wz * x[1], 0.5 * wz * x[0]]
        else:
            self.components = [
                0.5 * (wy * x[2] - wz * x[1]),
                0.5 * (wz * x[0] - wx * x[2]),
                0.5 * (wx * x[1] - wy * x[0]),
            ]
        # multipliers (k_i + A_i)^2 of apply_gauge_kinetic, axis by axis
        self.symbols = [(k + a) ** 2 for k, a in zip(self.grid.kvecs(), self.components)]

    def magnitude_sq(self) -> np.ndarray:
        return sum(a**2 for a in self.components)


def _check_same_grid(*objs):
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid != g0:
            raise GridMismatchError("operands live on different grids")
    return g0


def apply_gauge_kinetic(phi: ComplexField, A: GaugeField) -> ComplexField:
    """(-i grad + A)^2 phi = sum_i ifft_i((k_i + A_i)^2 fft_i(phi)): dim 1D
    transform pairs, about two n-D transforms, a bare Laplacian's cost at Omega = 0."""
    _check_same_grid(phi, A)
    out = sum(np.fft.ifft(sym * np.fft.fft(phi.values, axis=ax), axis=ax)
              for ax, sym in enumerate(A.symbols))
    return ComplexField(phi.grid, out)


def inner(f: ComplexField, g: ComplexField) -> complex:
    """Quadrature inner product <f|g> = spacing^dim sum conj(f) g."""
    grid = _check_same_grid(f, g)
    return grid.spacing**grid.dim * np.vdot(f.values, g.values)


def norm(f: ComplexField) -> float:
    return float(np.sqrt(inner(f, f).real))


def norm4_pow4(f: ComplexField) -> float:
    """The L4 norm to the fourth power, int |f|^4."""
    return float(f.grid.spacing**f.grid.dim * np.sum(np.abs(f.values) ** 4))


def boundary_decay_ok(f: ComplexField) -> bool:
    """True if the box faces hold less than 1e-8 of ||f||^2.

    The periodic spectral operators are only trustworthy when this holds.
    A norm share, not a pointwise bound: a solve converged to tol leaves
    tail noise of 1e-7 to 1e-5 of max|f| that carries no weight.
    """
    total = np.sum(np.abs(f.values) ** 2)
    faces = sum(np.sum(np.abs(np.take(f.values, 0, axis=ax)) ** 2)
                for ax in range(f.grid.dim))
    return bool(faces <= 1e-8 * total)


def gaussian_field(grid: Grid) -> ComplexField:
    """Normalized isotropic Gaussian exp(-|x|^2 / 2)."""
    r2 = grid.radius_sq()
    vals = np.exp(-r2 / 2.0).astype(complex)
    return ComplexField(grid, vals).normalized()


def vortex_field(grid: Grid, winding: int = 1) -> ComplexField:
    """Normalized (x + iy)^q Gaussian, a winding-q trial state.

    For q != 0 the in-plane factor is formed, up to a constant, as
    (w e^{(1 - |w|^2)/2})^|q| with w = (x + iy)/sqrt|q|: the base's modulus
    peaks at 1, so no power overflows on a grid that can hold the state.
    """
    x = grid.coords()
    q = abs(winding)
    if q == 0:
        return gaussian_field(grid)
    w = (x[0] + 1j * np.sign(winding) * x[1]) / np.sqrt(q)
    vals = (w * np.exp((1.0 - np.abs(w) ** 2) / 2.0)) ** q
    vals = vals * np.exp(-sum(c**2 for c in x[2:]) / 2.0)  # the Gaussian along z in 3D
    return ComplexField(grid, vals).normalized()


# -- binary field dump: little-endian complex128, row-major ----------------

def write_field(f: ComplexField, path: str, omega=None):
    """Write <path> (raw complex128: float64 re/im pairs) and <path>.json sidecar."""
    f.values.astype("<c16").tofile(path)
    side = {
        "dim": f.grid.dim,
        "n": f.grid.n,
        "L": f.grid.length,
        "omega": list(np.atleast_1d(omega if omega is not None else [0.0, 0.0, 0.0]).astype(float)),
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(side, fh, indent=2)


def read_field(path: str):
    """Read a field dump written by write_field; returns (field, omega)."""
    with open(str(path) + ".json") as fh:
        side = json.load(fh)
    keys = {"dim", "n", "L", "omega"}
    if not isinstance(side, dict) or not side.keys() >= keys:
        raise ValueError(f"sidecar {path}.json must be an object with {sorted(keys)}")
    grid = Grid(int(side["dim"]), int(side["n"]), float(side["L"]))
    size, expected = os.path.getsize(path), 16 * grid.n**grid.dim
    if size != expected:
        raise ValueError(f"dump holds {size} bytes, its sidecar implies {expected}")
    vals = np.fromfile(path, dtype="<c16").reshape(grid.shape)
    if not np.isfinite(vals).all():
        raise ValueError(f"dump {path} holds non-finite samples")
    return ComplexField(grid, vals), GaugeField(grid, side["omega"]).omega
