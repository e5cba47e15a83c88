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

Every transform of the package lives here.  The complex ones are two
functions, on the grid's axes, a block's trailing column axis riding along:
apply_symbols, sum_i ifft_i(symbol_i fft_i(values)) (the gauge kinetic
term, L_z, the shears, lowest_modes' 2 A.p), and apply_multiplier,
ifftn(mult fftn(z)) in place as fftn's own 1D passes (the GP
preconditioner, lowest_modes' rotating multiplier).  lowest_modes, the grid
eigensolver, adds scipy.fft's real rfftn/irfftn pair at Omega = 0 and the
ifft of its preconditioner's circulants.  In the GP hot path each term is
multiplied and inverted in its own buffer and summed with +=, in order.
That is bitwise the sum of the separate expressions: the multipliers
(k_i + A_i)^2 are cast to complex once, as numpy's multiply casts a real
factor; a product only swaps its factors, which IEEE multiplication
commutes; += adds the same operands in the same order (sum()'s leading 0
could only turn a -0.0 into +0.0).  norm4_pow4 sums by np.add.reduce,
np.sum's call without its wrapper.  gp's CG loop, whose iterates depend on
all of that, keeps the same rules.
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

    @cached_property
    def _spectrum(self):
        # the wavenumbers 2 pi k / L, k = -n/2 .. n/2-1, in fft order
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
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
        x, y, z = self.grid.coords() + [0.0] * (3 - self.grid.dim)  # z = 0 in 2D
        wx, wy, wz = self.omega
        self.components = [0.5 * (wy * z - wz * y), 0.5 * (wz * x - wx * z),
                           0.5 * (wx * y - wy * x)][: self.grid.dim]
        # multipliers (k_i + A_i)^2 of apply_gauge_kinetic per axis, complex once
        self.symbols = [((k + a) ** 2).astype(complex)
                        for k, a in zip(self.grid.kvecs(), self.components)]

    def magnitude_sq(self) -> np.ndarray:
        return sum(a**2 for a in self.components)


def _check_same_grid(*objs):
    g0 = objs[0].grid
    for o in objs[1:]:
        if o.grid != g0:
            raise GridMismatchError("operands live on different grids")
    return g0


def apply_symbols(values: np.ndarray, terms) -> np.ndarray:
    """sum over (axis, symbol) in terms of ifft_axis(symbol fft_axis(values))."""
    out = None
    for ax, sym in terms:
        term = np.fft.fft(values, axis=ax)
        term *= sym.reshape(sym.shape + (1,) * (term.ndim - sym.ndim))
        np.fft.ifft(term, axis=ax, out=term)
        if out is None:
            out = term
        else:
            out += term
    return out


def apply_multiplier(z: np.ndarray, mult) -> np.ndarray:
    """z = ifftn(mult fftn(z)) over mult's axes, in place."""
    axes = range(mult.ndim - 1, -1, -1)
    for ax in axes:
        np.fft.fft(z, axis=ax, out=z)
    z *= mult.reshape(mult.shape + (1,) * (z.ndim - mult.ndim))
    for ax in axes:
        np.fft.ifft(z, axis=ax, out=z)
    return z


def apply_gauge_kinetic(phi: ComplexField, A: GaugeField) -> ComplexField:
    """(-i grad + A)^2 phi = sum_i ifft_i((k_i + A_i)^2 fft_i(phi)): dim 1D
    transform pairs, about two n-D transforms, a bare Laplacian's cost at Omega = 0."""
    _check_same_grid(phi, A)
    return ComplexField(phi.grid, apply_symbols(phi.values, enumerate(A.symbols)))


def inner(f: ComplexField, g: ComplexField) -> complex:
    """Quadrature inner product <f|g> = spacing^dim sum conj(f) g."""
    grid = _check_same_grid(f, g)
    return grid.spacing**grid.dim * np.vdot(f.values, g.values)


def norm(f: ComplexField) -> float:
    return float(np.sqrt(inner(f, f).real))


def norm4_pow4(f: ComplexField) -> float:
    """The L4 norm to the fourth power, int |f|^4."""
    return float(f.grid.spacing**f.grid.dim * np.add.reduce(np.abs(f.values) ** 4, axis=None))


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


# -- lowest eigenpairs of a grid operator -----------------------------------

# LOBPCG iterations before the residual rule is judged; the CLI defaults
# take 15 (kappa) and 20 (K0)
_LOBPCG_MAXITER = 200
# amplitude of the seeded random part of LOBPCG's start block, per entry
_START_NOISE = 1e-2
# SVQB drops the directions whose Gram eigenvalue is below this share of
# the largest: near-dependent
_DROP = 1e-12


def _svqb(Z):
    """T with Z T orthonormal: SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput.
    23, 2165 (2002)), D V Lambda^{-1/2} from the eigenpairs of the
    column-scaled Gram matrix D Z^H Z D, less its near-dependent directions
    (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput. 40, C655 (2018))."""
    d = 1.0 / np.linalg.norm(Z, axis=0)
    lam, V = np.linalg.eigh(d[:, None] * (Z.conj().T @ Z) * d)
    keep = lam > _DROP * lam[-1]
    return d[:, None] * V[:, keep] / np.sqrt(lam[keep])


def lowest_eigenpairs(apply, precondition, start, J):
    """Lowest J eigenpairs (values ascending, orthonormal vectors as columns)
    of the hermitian operator apply, by block LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23, 517 (2001)) from the block start, of J or more columns.

    apply and precondition take and return (size, m) blocks; precondition
    approximates the inverse.  Each step runs Rayleigh-Ritz on the
    orthonormal basis [X, W, P]: the Ritz block X, W the preconditioned
    residuals of X's columns that have not converged, P their last updates.
    W and P are projected off X twice and orthonormalized together by
    _svqb.  Only W goes through apply; A P and A X are carried as the same
    combinations as P and X.  The solve stops once the J wanted columns
    have residuals within half of sqrt(eps) max(1, |theta|); the other
    columns guard the Jth against its neighbours and need not converge.

    The J returned pairs' residuals are then recomputed, and each must meet
    ||A x - theta x|| <= sqrt(eps) max(1, |theta|), else ArithmeticError.
    For a hermitian operator a Ritz value theta with residual r lies within
    ||r||^2 / gap of an eigenvalue, gap being its distance to the rest of
    the spectrum (Parlett, The Symmetric Eigenvalue Problem, Thm 11.7.1):
    eps theta^2 / gap, the eigenvalues at machine precision.
    """
    root_eps = np.sqrt(np.finfo(float).eps)
    X = start @ _svqb(start)
    AX = apply(X)
    theta, C = np.linalg.eigh(X.conj().T @ AX)
    X, AX, P = X @ C, AX @ C, None
    for _ in range(_LOBPCG_MAXITER):
        R = AX - X * theta
        active = np.linalg.norm(R, axis=0) > 0.5 * root_eps * np.maximum(1.0, np.abs(theta))
        if not active[:J].any():
            break
        Z = precondition(R[:, active])
        AZ = apply(Z)
        if P is not None:
            Z, AZ = np.hstack([Z, P[:, active]]), np.hstack([AZ, AP[:, active]])
        for _ in range(2):
            Y = X.conj().T @ Z
            Z, AZ = Z - X @ Y, AZ - AX @ Y
        T = _svqb(Z)
        Z, AZ = Z @ T, AZ @ T
        S, AS = np.hstack([X, Z]), np.hstack([AX, AZ])
        theta, C = np.linalg.eigh(S.conj().T @ AS)
        theta, C = theta[:X.shape[1]], C[:, :X.shape[1]]
        X, AX = S @ C, AS @ C
        P, AP = Z @ C[X.shape[1]:], AZ @ C[X.shape[1]:]
    vals, vecs = theta[:J], X[:, :J] / np.linalg.norm(X[:, :J], axis=0)
    resid = np.linalg.norm(apply(vecs) - vecs * vals, axis=0)
    if not np.all(resid <= root_eps * np.maximum(1.0, np.abs(vals))):
        raise ArithmeticError(
            f"eigensolver missed its residual rule: residuals {resid.tolist()} "
            f"at Ritz values {vals.tolist()}")
    return vals, vecs


def _separable_part(grid, multiplier, potential):
    """Eigenpairs (lam_d, Q_d) of H0 = sum_d A_d, one n x n operator per axis.

    A_d is the multiplier along the k_d axis plus the potential along the
    x_d axis through the origin, each less (dim - 1)/dim of its value at
    k = 0 or x = 0, so that the constants add up once.  The multiplier is
    real and even, so A_d's kinetic part is a real symmetric circulant
    (eigh reads its lower triangle).
    """
    from scipy import fft as sfft  # not at import: the GP path runs without scipy
    n, dim = grid.n, grid.dim
    share = (dim - 1) / dim
    lag = (np.arange(n)[:, None] - np.arange(n)) % n
    pairs = []
    for d in range(dim):
        k_axis = [0] * dim
        x_axis = [n // 2] * dim  # x = 0 sits at index n/2
        k_axis[d] = x_axis[d] = slice(None)
        m = multiplier[tuple(k_axis)] - share * multiplier[(0,) * dim]
        w = potential[tuple(x_axis)] - share * potential[(n // 2,) * dim]
        A = sfft.ifft(m).real[lag]  # the circulant of the multiplier
        A[np.diag_indices(n)] += w
        pairs.append(np.linalg.eigh(A))
    return pairs


def lowest_modes(gauge: GaugeField, multiplier, scalar, J):
    """Lowest J eigenpairs of multiplier(k) + 2 A.p + scalar(x) on gauge's
    grid, (-i grad + A)^2 + V for multiplier k^2 and scalar |A|^2 + V: the
    values ascending, the vectors as orthonormal columns of a (size, J)
    block over the flattened grid (unit sum of squares).

    A block of vectors, its columns on a trailing axis, goes through one
    n-D transform pair over the grid axes for the multiplier.  At
    Omega = 0, A = 0 and the operator is real symmetric (the multiplier is
    real and even in k), so the pair is scipy.fft's real half-spectrum
    rfftn/irfftn, and the vectors are real.  When rotating it is the
    complex pair (apply_multiplier), and 2 A.p adds
    sum_i ifft_i(2 A_i k_i fft_i V), one 1D pair along each axis
    (apply_symbols): exact, since A_i does not depend on x_i.

    One lowest_eigenpairs solve on a block of J + 2 vectors serves both
    cases.  Its preconditioner is the exact inverse of the separable part
    H0 = sum_d A_d (_separable_part), by fast diagonalization (Lynch, Rice
    & Thomas, Numer. Math. 6, 185 (1964)): Q^T, a division by
    lam_i + lam_j [+ lam_k], and Q along each axis.  What H0 leaves out
    (for K0: eta |x|^4's cross terms and the cutoff's k^2 (1 - chi^2) on
    |k| < 2/s, both >= 0, the rotation's 2 A.p and |A|^2's cross terms off
    z) is small next to it, so the iteration count does not grow with n.
    Should H0 not be positive definite, its denominators are shifted up to
    its first gap.  The block starts at H0's J + 2 lowest eigenvectors, the
    Q columns' tensor products, plus a seeded random part.  A solve that
    misses the residual rule raises ArithmeticError (lowest_eigenpairs).
    """
    from scipy import fft as sfft  # not at import: the GP path runs without scipy
    grid = gauge.grid
    rotating = bool(np.any(gauge.omega))
    shape, dim, size = grid.shape, grid.dim, grid.n**grid.dim
    if J > size:
        raise ValueError(f"J = {J} eigenvalues need a grid of at least {J} points")

    drift = [(ax, 2.0 * a * k)  # the symbols of 2 A.p, used when rotating
             for ax, (k, a) in enumerate(zip(grid.kvecs(), gauge.components))]
    # the last axis's first n//2 + 1 frequencies are rfftn's, up to the sign
    # of the Nyquist one, which an even multiplier does not see; irfftn's
    # default length along that axis, 2 (n//2), is n (n is even)
    half, axes = multiplier[..., : grid.n // 2 + 1, None], tuple(range(dim))

    def apply(X):
        V = X.reshape(shape + X.shape[1:])
        if rotating:
            out = apply_multiplier(V.copy(), multiplier)
            out += apply_symbols(V, drift)
        else:
            out = sfft.irfftn(half * sfft.rfftn(V, axes=axes), axes=axes)
        out += scalar[..., None] * V
        return out.reshape(X.shape)

    pairs = _separable_part(grid, multiplier, scalar)
    denom = sum(lam.reshape((1,) * d + (-1,) + (1,) * (dim - d - 1))
                for d, (lam, _) in enumerate(pairs))
    if denom.min() <= 0.0:
        gap = min(lam[1] - lam[0] for lam, _ in pairs)
        denom = denom - denom.min() + gap

    def along_axes(Y, trans):
        # Q^T (trans) or Q along every grid axis of a real (size, m) block
        for d, (_, Q) in enumerate(pairs):
            Y = np.matmul(Q.T if trans else Q, Y.reshape(grid.n**d, grid.n, -1))
        return Y.reshape(size, -1)

    def precondition(X):
        # Q acts on real and imaginary parts alike: a complex block is
        # transformed as its float view, the columns' two halves side by side
        X = np.ascontiguousarray(X)
        Y = along_axes(X.view(float), True) / denom.reshape(size, 1)
        return along_axes(Y, False).view(X.dtype)

    # the random part reaches every symmetry sector, also those in which
    # H0's lowest eigenvectors have no component; on a grid of fewer than
    # J + 2 points the columns past its size are random alone
    block = J + 2
    lowest = np.argsort(denom.ravel(), kind="stable")[:block]
    E = np.zeros((size, block))
    E[lowest, np.arange(lowest.size)] = 1.0
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((size, block))
    if rotating:
        noise = noise + 1j * rng.standard_normal((size, block))
    X = along_axes(E, False) + _START_NOISE * noise
    return lowest_eigenpairs(apply, precondition, X, J)


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
    if (grid.dim, grid.n) != (side["dim"], side["n"]):
        raise ValueError(f"sidecar {path}.json: dim and n must be integers")
    size, expected = os.path.getsize(path), 16 * grid.n**grid.dim
    if size != expected:
        raise ValueError(f"dump holds {size} bytes, its sidecar implies {expected}")
    vals = np.fromfile(path, dtype="<c16").reshape(grid.shape)
    if not np.isfinite(vals).all():
        raise ValueError(f"dump {path} holds non-finite samples")
    return ComplexField(grid, vals), GaugeField(grid, side["omega"]).omega
