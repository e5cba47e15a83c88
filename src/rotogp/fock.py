"""Truncated bosonic Fock space: ED, coherent states, symbol calculus.

The basis holds every occupation vector (n_1, ..., n_J) with total below a
cap; its dimension is C(n_max + J, J).  Ladder operators follow the sqrt-n
rules, and the raising operator simply drops the top total-number sector
(the only place truncation is visible).  The model Hamiltonian is

    H = sum_j e_j a+_j a_j + sum_{ijkl} W_{ijkl} a+_i a+_j a_k a_l,

which conserves total particle number, so each sector diagonalizes
independently and truncation is exact on full sectors.

Coherent states, lower/upper symbols of normal-ordered polynomials (the
upper-symbol series terminates for degree <= 4), and the coherent-state
resolution of identity int dz Pi(z) = Id (dz = pi^{-1} dx dy per mode)
live here too, plus the closed-form error constants D1, D2, D3.
"""

from dataclasses import dataclass, field as dc_field
from itertools import chain, combinations
from math import comb

import numpy as np
from scipy import optimize, sparse, special
from scipy.sparse.linalg import eigsh

from .quadrature import gauss_legendre


# ---------------------------------------------------------------------------
# basis and ladder operators
# ---------------------------------------------------------------------------

class FockBasis:
    """All occupation vectors with sum(n) <= n_max: the union of the number
    sectors 0..n_max, each in lexicographic order.

    A state's key total * (n_max+1)^J + sum_j n_j (n_max+1)^(J-1-j) increases
    along the basis, so states are found by binary search on it.
    """

    def __init__(self, modes: int, n_max: int):
        if modes < 1 or n_max < 0:
            raise ValueError("need modes >= 1 and n_max >= 0")
        if (n_max + 1) ** (modes + 1) >= 2**63:
            raise ValueError("basis keys overflow int64")
        self.modes = modes
        self.n_max = n_max
        self.states = np.concatenate([_sector_states(modes, N) for N in range(n_max + 1)])
        self.totals = self.states.sum(axis=1)
        # removing one particle from mode j lowers a key by _weights[j]
        self._weights = (n_max + 1) ** modes + (n_max + 1) ** np.arange(
            modes - 1, -1, -1, dtype=np.int64)
        self._keys = self.states @ self._weights

    def __len__(self):
        return self.states.shape[0]

    def _lowered(self, src, *modes):
        """Indices of the states src with one particle removed from each of
        modes (arrays aligned with src); each result must lie in the basis."""
        keys = self._keys[src] - sum(self._weights[j] for j in modes)
        return np.searchsorted(self._keys, keys)

    def sector(self, total: int) -> np.ndarray:
        """Indices of all states with the given total particle number."""
        idx = np.nonzero(self.totals == total)[0]
        if idx.size == 0:
            raise ValueError(f"sector {total} empty in truncation {self.n_max}")
        return idx


def _sector_states(modes, total):
    """Occupations with sum `total`, lexicographic: stars and bars, the gaps
    between modes - 1 bars placed among total + modes - 1 slots."""
    count = comb(total + modes - 1, modes - 1)
    bars = np.fromiter(
        chain.from_iterable(combinations(range(total + modes - 1), modes - 1)),
        dtype=np.int64, count=count * (modes - 1),
    ).reshape(count, modes - 1)
    edges = np.hstack([np.full((count, 1), -1), bars,
                       np.full((count, 1), total + modes - 1)])
    return np.diff(edges, axis=1) - 1


def lowering_operator(basis: FockBasis, j: int) -> sparse.csr_matrix:
    """a_j on the truncated basis (sqrt-n rule)."""
    if not 0 <= j < basis.modes:
        raise IndexError(f"mode {j} out of range")
    src = np.nonzero(basis.states[:, j] > 0)[0]
    amp = np.sqrt(basis.states[src, j].astype(float))
    tgt = basis._lowered(src, j)
    n = len(basis)
    return sparse.csr_matrix((amp, (tgt, src)), shape=(n, n))


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

@dataclass
class ModeBasis:
    """One-particle energies and two-body tensor."""

    e: np.ndarray            # one-particle energies, positive nondecreasing
    W: np.ndarray            # W[i,j,k,l], hermitian with i<->j, k<->l symmetry

    def __post_init__(self):
        self.e = np.asarray(self.e, dtype=float)
        self.W = np.asarray(self.W)
        J = self.e.size
        if np.any(np.diff(self.e) < 0) or np.any(self.e <= 0):
            raise ValueError("energies must be positive and nondecreasing")
        if self.W.shape != (J, J, J, J):
            raise ValueError("W tensor shape must be (J, J, J, J)")
        herm = np.conj(np.transpose(self.W, (2, 3, 0, 1)))
        if not np.allclose(self.W, herm, atol=1e-12):
            raise ValueError("W must be hermitian: W_ijkl = conj(W_klij)")

    @property
    def modes(self):
        return self.e.size


def _two_body(mb: ModeBasis, basis: FockBasis, total=None):
    """sum W_ijkl a+_i a+_j a_k a_l as B^H (Wp x Id) B in one sparse product.

    B stacks the pair annihilators B_p = a_k a_l over unordered pairs
    p = (k <= l); Wp[q, p] sums W over the orderings of both pairs, which
    is exact because a_k a_l = a_l a_k.  (Wp x Id) B is formed directly from
    B's entries, never as a Kronecker product.  With total, B's source
    states are that sector's alone, and the product is the sector's block.
    """
    J, n = mb.modes, len(basis)
    sources = np.arange(n) if total is None else basis.sector(total)
    occ = basis.states[sources]
    kk, ll = np.triu_indices(J)
    pairs = np.arange(kk.size)
    amp = np.sqrt(occ[:, ll] * (occ[:, kk] - (kk == ll)))  # a_l first, then a_k
    src, pair = np.nonzero(amp)
    amp = amp[src, pair]
    src = sources[src]
    tgt = basis._lowered(src, kk[pair], ll[pair])
    fold = np.zeros((J * J, kk.size))
    fold[kk * J + ll, pairs] = 1.0
    fold[ll * J + kk, pairs] = 1.0
    Wp = fold.T @ mb.W.reshape(J * J, J * J) @ fold
    B = sparse.csr_matrix((amp, (pair * n + tgt, src)), shape=(kk.size * n, n))
    rows = pairs[:, None] * n + tgt[None, :]
    vals = Wp[:, pair] * amp[None, :]
    WB = sparse.csr_matrix(
        (vals.ravel(), (rows.ravel(), np.broadcast_to(src, rows.shape).ravel())),
        shape=B.shape,
    )
    return B.T @ WB


def build_hamiltonian(mb: ModeBasis, basis: FockBasis, total=None):
    """Sparse hermitian H = sum e_j n_j + two-body.

    H conserves particle number; with total, the two-body term is assembled
    on that sector only, so H's block there is the full H's (bitwise) and
    its two-body entries elsewhere are left out.
    """
    if mb.modes != basis.modes:
        raise ValueError("mode count mismatch")
    diag = basis.states.astype(float) @ mb.e
    return (sparse.diags(diag) + _two_body(mb, basis, total)).tocsr()


def ground_state(H, basis: FockBasis, total: int):
    """(E0, vector) on the fixed-total-number sector; residual <= 1e-10."""
    idx = basis.sector(total)
    sub = H[np.ix_(idx, idx)]
    if idx.size <= 400:
        w, v = np.linalg.eigh(sub.toarray())
    else:  # seeded start vector: repeated solves agree bitwise
        v0 = np.random.default_rng(0).standard_normal(idx.size)
        w, v = eigsh(sub.tocsc(), k=1, which="SA", v0=v0)
    e0, vec = float(w[0]), v[:, 0]
    resid = np.linalg.norm(sub @ vec - e0 * vec)
    if resid > 1e-10 * max(1.0, abs(e0)):
        raise ArithmeticError(f"eigensolver residual {resid}")
    full = np.zeros(len(basis), dtype=vec.dtype)
    full[idx] = vec
    return e0, full


def hartree_minimum(e, W):
    """min over unit vectors of sum e|c|^2 + sum W_ijkl conj(c_i c_j) c_k c_l,
    best of 24 seeded Nelder-Mead starts."""
    e = np.asarray(e, dtype=float)
    W = np.asarray(W)
    J = e.size

    def value(c):
        c = c / np.linalg.norm(c)
        quad = float(e @ np.abs(c) ** 2)
        quart = np.einsum("ijkl,i,j,k,l->", W, np.conj(c), np.conj(c), c, c)
        return quad + float(quart.real)

    def fun(x):
        c = x[:J] + 1j * x[J:]
        nc = np.linalg.norm(c)
        if nc < 1e-12:
            return 1e6
        return value(c)

    rng = np.random.default_rng(0)
    best = np.inf
    best_c = None
    for _ in range(24):
        x0 = rng.standard_normal(2 * J)
        res = optimize.minimize(fun, x0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14,
                                         "maxiter": 6000})
        if res.fun < best:
            best = res.fun
            c = res.x[:J] + 1j * res.x[J:]
            best_c = c / np.linalg.norm(c)
    return float(best), best_c


def pair_interaction_tensor(u, g=1.0):
    """Symmetrized rank-style tensor W_ijkl = g (u_ik u_jl + u_il u_jk)/2."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.allclose(u, u.T):
        raise ValueError("u must be a symmetric square matrix")
    W = 0.5 * (np.einsum("ik,jl->ijkl", u, u) + np.einsum("il,jk->ijkl", u, u))
    return g * W


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

@dataclass
class CoherentVector:
    z: np.ndarray
    vector: np.ndarray
    truncation_error: float


def coherent_state(z, basis: FockBasis) -> CoherentVector:
    """Truncated product coherent state; its Poisson tail must stay below 1e-8."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.size != basis.modes:
        raise ValueError("one amplitude per mode")
    s = float(np.sum(np.abs(z) ** 2))
    # P[Poisson(s) > n_max]: the exact squared-norm deficit of the truncation
    tail = float(special.gammainc(basis.n_max + 1, s)) if s > 0 else 0.0
    if tail > 1e-8:
        raise ValueError(f"coherent tail {tail:.3e} exceeds tolerance 1e-8")
    logfact = special.gammaln(np.arange(basis.n_max + 1) + 1.0)
    amp = np.exp(-0.5 * s) * np.ones(len(basis), dtype=complex)
    for j in range(basis.modes):
        nj = basis.states[:, j]
        zj = z[j]
        if zj == 0:
            amp = np.where(nj == 0, amp, 0.0)
        else:
            amp = amp * np.exp(nj * np.log(zj) - 0.5 * logfact[nj])
    return CoherentVector(z=z, vector=amp, truncation_error=tail)


# ---------------------------------------------------------------------------
# normal-ordered polynomials and their symbols
# ---------------------------------------------------------------------------

@dataclass
class SymbolPolynomial:
    """sum of coeff * prod_j (a+_j)^{p_j} prod_j (a_j)^{q_j}, degree <= 4.

    Also read as the polynomial u(z) = sum coeff * zbar^p z^q, which is the
    lower symbol of the operator.
    """

    modes: int
    terms: dict = dc_field(default_factory=dict)  # {(p, q): coeff}

    def __post_init__(self):
        for (p, q), _ in self.terms.items():
            if len(p) != self.modes or len(q) != self.modes:
                raise ValueError("term arity does not match mode count")
            if sum(p) + sum(q) > 4:
                raise ValueError("symbol calculus is exact only to degree 4")

    @classmethod
    def term(cls, modes, p, q, coeff=1.0):
        return cls(modes, {(tuple(p), tuple(q)): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return SymbolPolynomial(self.modes, out)

    def scale(self, c):
        return SymbolPolynomial(
            self.modes, {k: c * v for k, v in self.terms.items()}
        )

    def evaluate(self, z):
        """u(z), the lower symbol, at one point z (one amplitude per mode)
        or, as an array, at each row of a (points, modes) array."""
        z = np.asarray(z, dtype=complex)
        z = z if z.ndim == 2 else np.atleast_1d(z)
        val = np.zeros(z.shape[:-1], dtype=complex)
        for (p, q), c in self.terms.items():
            val += c * np.prod(np.conj(z) ** p, axis=-1) * np.prod(z**q, axis=-1)
        return val if z.ndim == 2 else complex(val)

    def contract(self):
        """sum_j d/dz_j d/dzbar_j applied termwise."""
        out = {}
        for (p, q), c in self.terms.items():
            for j in range(self.modes):
                if p[j] > 0 and q[j] > 0:
                    np_ = tuple(x - (1 if t == j else 0) for t, x in enumerate(p))
                    nq = tuple(x - (1 if t == j else 0) for t, x in enumerate(q))
                    key = (np_, nq)
                    out[key] = out.get(key, 0.0) + c * p[j] * q[j]
        return SymbolPolynomial(self.modes, out)

    def upper(self):
        """Upper-symbol polynomial U = u - Du + D^2 u / 2 (exact, degree <= 4)."""
        d1 = self.contract()
        d2 = d1.contract()
        return self + d1.scale(-1.0) + d2.scale(0.5)

    def to_matrix(self, basis: FockBasis):
        n = len(basis)
        out = sparse.csr_matrix((n, n), dtype=complex)
        a = [lowering_operator(basis, j) for j in range(basis.modes)]
        for (p, q), c in self.terms.items():
            m = sparse.identity(n, dtype=complex, format="csr")
            for j in range(basis.modes):
                for _ in range(p[j]):
                    m = m @ a[j].conj().T
            for j in range(basis.modes):
                for _ in range(q[j]):
                    m = m @ a[j]
            out = out + c * m
        return out


def lower_symbol(poly: SymbolPolynomial, z):
    return poly.evaluate(z)


def upper_symbol(poly: SymbolPolynomial, z):
    return poly.upper().evaluate(z)


def verify_resolution(basis: FockBasis, Z=6.0, n_angle=64, poly=None):
    """Operator-norm error of int dz U(z) Pi(z) against the target.

    Single-mode quadrature: 80-node Gauss-Legendre radius on [0, Z], uniform
    angle; with poly=None the target is the identity (U = 1); otherwise the
    target is poly's matrix and U its upper symbol.  Compared on the
    n <= 3 block, which the coherent projector reproduces once Z covers the
    relevant matrix elements.
    """
    if basis.modes != 1:
        raise ValueError("resolution check implemented for a single mode")
    if basis.n_max <= 3:
        raise ValueError("the n <= 3 block must sit strictly below the truncation")
    if not Z > 0 or n_angle < 1:
        raise ValueError("need Z > 0 and n_angle >= 1")
    r, wr = gauss_legendre(80)
    r = 0.5 * Z * (r + 1.0)
    wr = 0.5 * Z * wr
    th = 2.0 * np.pi * np.arange(n_angle) / n_angle
    zg = np.outer(r, np.exp(1j * th)).ravel()
    wg = np.outer(wr * r, np.full(n_angle, 2.0 * np.pi / n_angle)).ravel() / np.pi
    # V[n, g] = z_g^n / sqrt(n!) * e^{-|z_g|^2/2}, only for the compared n <= 3
    ns = np.arange(4)
    logfact = special.gammaln(ns + 1.0)
    V = np.exp(
        np.outer(ns, np.log(zg)) - 0.5 * logfact[:, None]
        - 0.5 * np.abs(zg)[None, :] ** 2
    )
    if poly is None:
        u = np.ones_like(wg)
        target = np.eye(4)
    else:
        u = poly.upper().evaluate(zg[:, None])
        target = poly.to_matrix(basis)[:4, :4].toarray()
    M = (V * (wg * u)[None, :]) @ V.conj().T
    return float(np.abs(M - target).max())


# ---------------------------------------------------------------------------
# error constants
# ---------------------------------------------------------------------------

@dataclass
class ErrorConstants:
    D1: float
    D2: float
    D3: float


def error_constants(w1, winf, delta, eta, e, J, M, E, C=0.0) -> ErrorConstants:
    """The three closed-form bookkeeping constants.

    w1, winf: L1 and sup norms of the two-body potential; delta in (0,1);
    eta > 0; e: one-particle spectrum (length >= J); M: particle number;
    E: the a-priori energy-per-particle constant; C: penalty weight.
    """
    e = np.asarray(e, dtype=float)
    if e.size < J:
        raise ValueError("spectrum shorter than J")
    if not (0 < delta < 1) or eta <= 0 or w1 < 0 or winf < 0:
        raise ValueError("bad inputs")
    eJ = e[J - 1]
    s_sqrt = float(np.sum(np.sqrt(e[:J])))
    s_34 = float(np.sum(e[:J] ** 0.75))
    s_e = float(np.sum(e[:J]))

    t_b = 2.0 * np.sqrt(2.0 / 3.0) * (2.0 * np.pi**2) ** (-1.0 / 3.0) \
        * winf ** (1.0 / 6.0) * w1 ** (1.0 / 3.0)
    t_c = (4.0 / (3.0 * np.pi ** (2.0 / 3.0))) * eta**-0.25 * np.sqrt(w1) \
        * eJ**-0.25 * np.sqrt(M * E)
    t_d = (4.0 / np.pi**2) * np.sqrt(2.0 / 27.0) / np.sqrt(eta) * w1 \
        * np.sqrt(M * E)
    t_e = (4.0 / 3.0) ** 1.5 / (2.0 * np.pi**2) / np.sqrt(eta) * w1 * s_sqrt
    t_f = 4.0 * (4.0 / 3.0) ** 1.25 * (2.0 * np.pi**2) ** (-5.0 / 6.0) \
        * w1 ** (5.0 / 6.0) * winf ** (1.0 / 6.0) * eta**-0.75 * s_34

    D1 = 1.0 - delta - eJ**-0.25 * w1 * M * E - t_b - t_c
    D2 = t_b + t_c + t_d + t_e + t_f
    D3 = (
        s_e
        + (2.0 * C * J / M) * (M * E / eJ + 0.5)
        + (4.0 / 3.0) ** 1.5 / (2.0 * np.pi**2) * eta**-1.5 * w1 * M * E * s_sqrt
        + t_f * (M * E / eJ + 0.5)
        + winf / delta
    )
    return ErrorConstants(D1=float(D1), D2=float(D2), D3=float(D3))
