"""Diagnostics on condensate fields: vortices, angular momentum, rotations.

Vortex detection is a plaquette census of the phase winding: around each
grid plaquette the four phase differences, each folded into (-pi, pi],
sum to 2 pi q for an integer q, and q != 0 flags a vortex of charge q.
Plaquettes whose four corners all sit below the amplitude floor are
skipped (pure-noise region); a plaquette with at least one corner above
the floor is kept even if another corner is a core zero, since the folded
differences telescope and totals over a neighbourhood stay correct.

Rotation of a 2D field by an arbitrary angle is done with the exact
three-shear factorization (each shear is a spectral phase ramp, hence
unitary and reversible), composed with whole-array quarter turns so the
shear angles stay small.
"""

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid, GridMismatchError, apply_symbols, inner


# ---------------------------------------------------------------------------
# vortex census
# ---------------------------------------------------------------------------

def _fold(d):
    """Fold a phase difference into (-pi, pi]."""
    return d - 2.0 * np.pi * np.ceil(d / (2.0 * np.pi) - 0.5)


def _plaquette_census(phase, ok, defined):
    d1 = _fold(phase[1:, :-1] - phase[:-1, :-1])
    d2 = _fold(phase[1:, 1:] - phase[1:, :-1])
    d3 = _fold(phase[:-1, 1:] - phase[1:, 1:])
    d4 = _fold(phase[:-1, :-1] - phase[:-1, 1:])
    q = np.rint((d1 + d2 + d3 + d4) / (2.0 * np.pi)).astype(np.int64)
    good = ok[:-1, :-1] | ok[1:, :-1] | ok[1:, 1:] | ok[:-1, 1:]
    good &= defined[:-1, :-1] & defined[1:, :-1] & defined[1:, 1:] & defined[:-1, 1:]
    ii, jj = np.nonzero((q != 0) & good)
    return [(int(i), int(j), int(q[i, j])) for i, j in zip(ii, jj)]


def _ring_winding(phase, i, j):
    """Winding around the 8-point loop surrounding grid node (i, j)."""
    ring = [(i - 1, j - 1), (i, j - 1), (i + 1, j - 1), (i + 1, j),
            (i + 1, j + 1), (i, j + 1), (i - 1, j + 1), (i - 1, j)]
    s = 0.0
    for k in range(8):
        a, b = ring[k], ring[(k + 1) % 8]
        s += _fold(phase[b] - phase[a])
    return int(np.rint(s / (2.0 * np.pi)))


def detect_vortices(phi: ComplexField):
    """Plaquette phase-winding census of a 2D field.

    Returns a list of (i, j, charge) with (i, j) the lower-left grid index
    of the plaquette.  Plaquettes with every corner below 1e-3 max|phi| are
    excluded.  A corner with amplitude at roundoff zero has no phase; when
    such a node sits inside the live region (a core zero landing exactly on
    the lattice) its four incident plaquettes are replaced by one charge
    obtained from the winding around the 8-node ring enclosing it.
    """
    if phi.grid.dim != 2:
        raise ValueError("vortex census requires a 2D field")
    amp = np.abs(phi.values)
    floor = 1e-3 * amp.max()
    ok = amp > floor
    defined = amp > 1e-12 * amp.max()
    phase = np.angle(phi.values)
    found = _plaquette_census(phase, ok, defined)
    # repair pass: undefined nodes adjacent to live amplitude
    n = phi.grid.n
    bad = np.nonzero(~defined)
    for i, j in zip(*bad):
        if i < 1 or j < 1 or i > n - 2 or j > n - 2:
            continue
        patch_ok = ok[i - 1 : i + 2, j - 1 : j + 2]
        patch_def = defined[i - 1 : i + 2, j - 1 : j + 2]
        if not patch_ok.any() or np.count_nonzero(~patch_def) > 1:
            continue
        q = _ring_winding(phase, i, j)
        if q != 0:
            found.append((int(i) - 1, int(j) - 1, q))
    return found


def total_vortex_charge(phi: ComplexField) -> int:
    return sum(q for _, _, q in detect_vortices(phi))


# ---------------------------------------------------------------------------
# angular momentum
# ---------------------------------------------------------------------------

def angular_momentum_z(phi: ComplexField) -> float:
    """<phi| x p_y - y p_x |phi>, p_i = ifft_i(k_i fft_i(phi)) by 1D transforms
    along axis i (fields.apply_symbols)."""
    px, py = (apply_symbols(phi.values, [(ax, k)])
              for ax, k in enumerate(phi.grid.kvecs()[:2]))
    x, y = phi.grid.coords()[:2]
    return inner(phi, ComplexField(phi.grid, x * py - y * px)).real


# ---------------------------------------------------------------------------
# rotation by spectral shears
# ---------------------------------------------------------------------------

def _shear(values, grid: Grid, axis, amount):
    """Shift rows along `axis` by amount * (transverse coordinate)."""
    k, c = grid.kvecs()[axis], grid.coords()[1 - axis]
    return apply_symbols(values, [(axis, np.exp(-1j * (k * (amount * c))))])


def rotate_field(phi: ComplexField, theta: float) -> ComplexField:
    """Rotate a 2D field by angle theta about the grid center.

    Exact quarter turns are array transpositions; the remainder
    |theta| <= pi/4 uses the three-shear factorization
    shear_x(-tan(t/2)) . shear_y(sin t) . shear_x(-tan(t/2)).
    """
    if phi.grid.dim != 2:
        raise ValueError("rotate_field requires a 2D field")
    vals = phi.values
    t = theta % (2.0 * np.pi)
    quarter = int(np.rint(t / (np.pi / 2.0)))
    rem = t - quarter * (np.pi / 2.0)
    for _ in range(quarter % 4):
        # (x, y) -> (-y, x): with axis 0 = x and axis 1 = y this is a
        # transpose followed by a flip along x, with the wrap row fixed
        # so center symmetry of the grid (-L/2 ... L/2 - h) is respected.
        vals = np.roll(np.flip(vals.T, axis=0), 1, axis=0)
    if rem != 0.0:
        a = -np.tan(rem / 2.0)
        b = np.sin(rem)
        vals = _shear(vals, phi.grid, 0, a)
        vals = _shear(vals, phi.grid, 1, b)
        vals = _shear(vals, phi.grid, 0, a)
    return ComplexField(phi.grid, vals)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def concavity_defects(a_values, energies):
    """Second differences of E(a) on a (possibly nonuniform) grid.

    E(a) = inf over a jointly linear family, hence concave in a; returns
    the divided second differences, which should all be <= 0 up to solver
    tolerance.
    """
    a = np.asarray(a_values, dtype=float)
    e = np.asarray(energies, dtype=float)
    if a.ndim != 1 or a.shape != e.shape or a.size < 3:
        raise ValueError("need matching 1D arrays with at least 3 points")
    if np.any(np.diff(a) <= 0):
        raise ValueError("a_values must be strictly increasing")
    return np.diff(np.diff(e) / np.diff(a))


# ---------------------------------------------------------------------------
# mixtures of condensate fields
# ---------------------------------------------------------------------------

@dataclass
class MixtureState:
    """Convex combination sum_i weights[i] |phi_i><phi_i| of unit fields."""

    weights: np.ndarray
    fields: list

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be a probability vector")
        if len(self.fields) != self.weights.size:
            raise ValueError("one field per weight")
        g0 = self.fields[0].grid
        for f in self.fields:
            if f.grid != g0:
                raise GridMismatchError("mixture fields live on different grids")

    def gram(self):
        """Weighted Gram matrix sqrt(w_i w_j) <phi_i|phi_j>, the quadrature
        inner products of all pairs in one product of the stacked values."""
        grid = self.fields[0].grid
        x = np.stack([f.values.ravel() for f in self.fields])
        x = np.sqrt(self.weights)[:, None] * x
        return grid.spacing**grid.dim * (x.conj() @ x.T)

    def spectrum(self):
        """Nonzero eigenvalues of the mixture's one-body density matrix.

        The density matrix and the weighted Gram matrix share their
        nonzero spectrum.
        """
        ev = np.linalg.eigvalsh(self.gram())
        return np.sort(ev)[::-1]


def is_extreme(state: MixtureState) -> bool:
    """True iff the mixture is a pure state (rank-one density matrix, to 1e-10)."""
    ev = state.spectrum()
    return bool(ev[0] >= 1.0 - 1e-10) if ev.size else False
