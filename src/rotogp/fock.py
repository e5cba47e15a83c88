"""Bosonic Fock space one number sector at a time: ED, coherent states,
symbol calculus.

The model Hamiltonian

    H = sum_j e_j a+_j a_j + sum_{ijkl} W_{ijkl} a+_i a+_j a_k a_l

conserves the total particle number N, so it is built and diagonalized on
one sector: the C(N + J - 1, J - 1) occupation vectors (n_1, ..., n_J) with
sum N, in lexicographic order.  A state's index is its lexicographic rank,
which the combinatorial number system gives in closed form; the pair
annihilators a_k a_l map sector N into sector N - 2 and find their targets
by that rank.

Coherent states, lower/upper symbols of normal-ordered polynomials (the
upper-symbol series terminates for degree <= 4), and the coherent-state
resolution of identity int dz Pi(z) = Id (dz = pi^{-1} dx dy) live here too,
on one mode truncated at level n_max, where a = diag(sqrt 1..sqrt n_max, 1);
plus the closed-form error constants D1, D2, D3.
"""

from dataclasses import dataclass, field as dc_field
from itertools import chain, combinations
from math import comb

import numpy as np
from scipy import sparse, special
from scipy.sparse.linalg import eigsh

from .quadrature import gauss_legendre


# ---------------------------------------------------------------------------
# number sector
# ---------------------------------------------------------------------------

class SectorBasis:
    """The occupation vectors of `modes` modes holding `total` particles,
    in lexicographic order: stars and bars, the gaps between modes - 1 bars
    placed among total + modes - 1 slots."""

    def __init__(self, modes: int, total: int):
        if modes < 1 or total < 0:
            raise ValueError("need modes >= 1 and total >= 0")
        self.modes = modes
        self.total = total
        count = comb(total + modes - 1, modes - 1)
        bars = np.fromiter(
            chain.from_iterable(combinations(range(total + modes - 1), modes - 1)),
            dtype=np.int64, count=count * (modes - 1),
        ).reshape(count, modes - 1)
        edges = np.hstack([np.full((count, 1), -1), bars,
                           np.full((count, 1), total + modes - 1)])
        self.states = np.diff(edges, axis=1) - 1

    def __len__(self):
        return self.states.shape[0]

    def sector(self, total: int) -> np.ndarray:
        """Indices of the states with the given total: all of the basis."""
        if total != self.total:
            raise ValueError(f"basis holds sector {self.total}, not {total}")
        return np.arange(len(self))


def _rank(states, total):
    """Lexicographic ranks of occupation rows that each sum to total.

    The states before n are counted mode by mode: with r particles left for
    the k + 1 modes from j on, those with a smaller n_j number
    sum_{v < n_j} C(r - v + k - 1, k - 1) = C(r + k, k) - C(r - n_j + k, k)
    (hockey stick).  Every table entry C(r + k, k), r <= total, k < modes,
    counts a sector no larger than the rows' own, so int64 holds it exactly.
    """
    modes = states.shape[1]
    table = np.ones((total + 1, modes), dtype=np.int64)
    for k in range(1, modes):
        table[:, k] = np.cumsum(table[:, k - 1])
    after = total - np.cumsum(states[:, :-1], axis=1)  # r left after mode j
    k = np.arange(modes - 1, 0, -1)
    return (table[after + states[:, :-1], k] - table[after, k]).sum(axis=1)


def lowering_operator(n_max: int) -> sparse.csr_matrix:
    """a on one mode truncated at level n_max: diag(sqrt 1..sqrt n_max, 1)."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    return sparse.diags(np.sqrt(np.arange(1, n_max + 1, dtype=float)), 1,
                        shape=(n_max + 1, n_max + 1), format="csr")


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
        if not (np.all(np.isfinite(self.e)) and np.all(np.isfinite(self.W))):
            raise ValueError("non-finite entry in the energies or in W")
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


def _two_body(mb: ModeBasis, basis: SectorBasis):
    """sum W_ijkl a+_i a+_j a_k a_l on the sector as B^H (Wp x Id) B in one
    sparse product.

    B stacks the pair annihilators B_p = a_k a_l over unordered pairs
    p = (k <= l), from sector N into sector N - 2; Wp[q, p] sums W over the
    orderings of both pairs, which is exact because a_k a_l = a_l a_k.
    (Wp x Id) B is formed directly from B's entries, never as a Kronecker
    product.
    """
    J, n, N = mb.modes, len(basis), basis.total
    if N < 2:  # no pair to lower
        return sparse.csr_matrix((n, n))
    m = comb(N + J - 3, J - 1)  # dimension of sector N - 2
    occ = basis.states
    kk, ll = np.triu_indices(J)
    pairs = np.arange(kk.size)
    amp = np.sqrt(occ[:, ll] * (occ[:, kk] - (kk == ll)))  # a_l first, then a_k
    src, pair = np.nonzero(amp)
    amp = amp[src, pair]
    one = np.eye(J, dtype=np.int64)
    tgt = _rank(occ[src] - one[kk[pair]] - one[ll[pair]], N - 2)
    fold = np.zeros((J * J, kk.size))
    fold[kk * J + ll, pairs] = 1.0
    fold[ll * J + kk, pairs] = 1.0
    Wp = fold.T @ mb.W.reshape(J * J, J * J) @ fold
    B = sparse.csr_matrix((amp, (pair * m + tgt, src)), shape=(kk.size * m, n))
    rows = pairs[:, None] * m + tgt[None, :]
    vals = Wp[:, pair] * amp[None, :]
    WB = sparse.csr_matrix(
        (vals.ravel(), (rows.ravel(), np.broadcast_to(src, rows.shape).ravel())),
        shape=B.shape,
    )
    return B.T @ WB


def build_hamiltonian(mb: ModeBasis, basis: SectorBasis):
    """Sparse hermitian H = sum e_j n_j + two-body on the basis's sector."""
    if mb.modes != basis.modes:
        raise ValueError("mode count mismatch")
    diag = basis.states.astype(float) @ mb.e
    return (sparse.diags(diag) + _two_body(mb, basis)).tocsr()


def ground_state(H, basis: SectorBasis, total: int):
    """(E0, vector) of H on the sector basis; residual <= 1e-10."""
    n = basis.sector(total).size  # ValueError unless total is the basis's
    if n <= 400:
        w, v = np.linalg.eigh(H.toarray())
    else:  # seeded start vector: repeated solves agree bitwise
        v0 = np.random.default_rng(0).standard_normal(n)
        w, v = eigsh(H.tocsc(), k=1, which="SA", v0=v0)
    e0, vec = float(w[0]), v[:, 0]
    resid = np.linalg.norm(H @ vec - e0 * vec)
    if resid > 1e-10 * max(1.0, abs(e0)):
        raise ArithmeticError(f"eigensolver residual {resid}")
    return e0, vec


def hartree_minimum(e, W):
    """min over unit vectors of sum e|c|^2 + sum W_ijkl conj(c_i c_j) c_k c_l,
    best of 24 seeded Nelder-Mead starts."""
    from scipy import optimize  # only here: no subcommand loads it
    e, W = np.asarray(e, dtype=float), np.asarray(W)
    J = e.size

    def fun(x):
        c = x[:J] + 1j * x[J:]
        nc = np.linalg.norm(c)
        if nc < 1e-12:
            return 1e6
        c = c / nc
        quart = np.einsum("ijkl,i,j,k,l->", W, np.conj(c), np.conj(c), c, c)
        return float(e @ np.abs(c) ** 2) + float(quart.real)

    rng = np.random.default_rng(0)
    best = min((optimize.minimize(fun, rng.standard_normal(2 * J), method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000})
                for _ in range(24)), key=lambda res: res.fun)  # the first of equal minima
    c = best.x[:J] + 1j * best.x[J:]
    return float(best.fun), c / np.linalg.norm(c)


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
    vector: np.ndarray
    truncation_error: float


def coherent_state(z, n_max: int) -> CoherentVector:
    """Coherent state of one mode on levels 0..n_max; its Poisson tail must
    stay below 1e-8."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    z = complex(z)
    s = abs(z) ** 2
    # P[Poisson(s) > n_max]: the exact squared-norm deficit of the truncation
    tail = float(special.gammainc(n_max + 1, s)) if s > 0 else 0.0
    if tail > 1e-8:
        raise ValueError(f"coherent tail {tail:.3e} exceeds tolerance 1e-8")
    n = np.arange(n_max + 1)
    amp = np.exp(-0.5 * s) * np.ones(n_max + 1, dtype=complex)
    if z == 0:
        amp = np.where(n == 0, amp, 0.0)
    else:
        amp = amp * np.exp(n * np.log(z) - 0.5 * special.gammaln(n + 1.0))
    return CoherentVector(vector=amp, truncation_error=tail)


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
    def term(cls, modes, p, q):
        """The monomial with coefficient 1; .scale(c) gives coefficient c."""
        return cls(modes, {(tuple(p), tuple(q)): 1.0})

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

    def to_matrix(self, n_max: int):
        """The operator on levels 0..n_max of one mode."""
        if self.modes != 1:
            raise ValueError("matrix form implemented for a single mode")
        a = lowering_operator(n_max)
        out = sparse.csr_matrix(a.shape, dtype=complex)
        for ((p,), (q,)), c in self.terms.items():
            m = sparse.identity(n_max + 1, dtype=complex, format="csr")
            for _ in range(p):
                m = m @ a.conj().T
            for _ in range(q):
                m = m @ a
            out = out + c * m
        return out


def lower_symbol(poly: SymbolPolynomial, z):
    return poly.evaluate(z)


def upper_symbol(poly: SymbolPolynomial, z):
    return poly.upper().evaluate(z)


def verify_resolution(n_max: int, Z=6.0, n_angle=64, poly=None):
    """Operator-norm error of int dz U(z) Pi(z) against the target.

    One mode truncated at level n_max; 80-node Gauss-Legendre radius on
    [0, Z], uniform angle; with poly=None the target is the identity (U = 1);
    otherwise the target is poly's matrix and U its upper symbol.  Compared
    on the n <= 3 block, which the coherent projector reproduces once Z
    covers the relevant matrix elements.
    """
    if n_max <= 3:
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
        target = poly.to_matrix(n_max)[:4, :4].toarray()
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
