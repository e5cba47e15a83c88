"""Bosonic Fock space one number sector at a time: ED, coherent states,
symbol calculus.

The model Hamiltonian

    H = sum_j e_j a+_j a_j + sum_{ijkl} W_{ijkl} a+_i a+_j a_k a_l

conserves the total particle number N, so it is built and diagonalized on
one sector: the C(N + J - 1, J - 1) occupation vectors (n_1, ..., n_J) with
sum N, in lexicographic order.  A state's index is its lexicographic rank,
which the combinatorial number system gives in closed form.  The pair
operators are one raise table: each state t of sector N - 2, raised by
a+_k a+_l, lands on one state of sector N, found by that rank; the
annihilators a_k a_l are its transpose.

Coherent states, the lower and upper symbols of one normal-ordered
monomial (a+)^p a^q in closed form, and the coherent-state resolution
int dz U(z) Pi(z) (dz = pi^{-1} dx dy) live here too, with the monomial's
matrix on one mode truncated at level n_max, one diagonal in closed form;
plus the closed-form error constants D1, D2, D3.
"""

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, factorial, perm

import numpy as np
from scipy import linalg, sparse, special
from scipy.sparse.linalg import LinearOperator, eigsh

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


class SectorHamiltonian(LinearOperator):
    """H = diag(D) + B^T (Wp x Id) B on one number sector, kept as its factors.

    B stacks the pair annihilators B_p = a_k a_l over unordered pairs
    p = (k <= l), from sector N into sector N - 2: row p m + t holds a[t, p] at
    column s[t, p] alone, from the raise table (build_hamiltonian).  Wp[q, p]
    sums W over the orderings of both pairs, exact as a_k a_l = a_l a_k.  B is
    real and kept as B^T, CSR with the source states as rows.  `@` applies H
    to vectors and blocks; `nnz` counts the factors' entries.
    """

    def __init__(self, D, s, a, Wp):
        super().__init__(np.result_type(D, Wp), (D.size, D.size))
        # one entry per column of B^T; CSC to CSR orders each row by pair
        BT = sparse.csc_matrix((a.T.ravel(), s.T.ravel(), np.arange(s.size + 1)),
                               shape=(D.size, s.size)).tocsr()
        self.D, self.s, self.a, self.BT, self.B, self.Wp = D, s, a, BT, BT.T, Wp
        self.nnz = D.size + BT.nnz + Wp.size

    def _matmat(self, V):
        BV = self.B @ V
        WBV = (self.Wp @ BV.reshape(self.Wp.shape[0], -1)).reshape(BV.shape)
        return (self.D * V.T).T + self.BT @ WBV

    _matvec = _rmatvec = _matmat  # H is hermitian

    def diagonal(self):
        """D + a[t, p]^2 Wp[p, p] at s[t, p], added in B^T's row order: only
        q = p reaches the diagonal, as no two pairs raise one t to one state."""
        w = self.a**2 * self.Wp.diagonal().real
        return self.D + np.bincount(self.s.T.ravel(), w.T.ravel(), self.D.size)

    def toarray(self):
        """Dense H, a P x P block per state t of sector N - 2: a[t, p] Wp[p, q]
        a[t, q] adds at (s[t, p], s[t, q])."""
        s, a = self.s, self.a
        H = np.diag(self.D).astype(self.dtype)
        np.add.at(H, (s[:, :, None], s[:, None, :]), a[:, :, None] * self.Wp * a[:, None, :])
        return H


def build_hamiltonian(mb: ModeBasis, basis: SectorBasis) -> SectorHamiltonian:
    """sum e_j n_j + sum W_ijkl a+_i a+_j a_k a_l on the basis's sector.  Its raise
    table: a+_k a+_l, p = (k <= l), takes state t of sector N - 2 (none for N < 2)
    to the state ranked s[t, p], with a[t, p] = sqrt((t_k + 1)(t_l + 1 + delta_kl))."""
    if mb.modes != basis.modes:
        raise ValueError("mode count mismatch")
    J, N = mb.modes, basis.total
    D = basis.states.astype(float) @ mb.e
    kk, ll = np.triu_indices(J)
    low = SectorBasis(J, N - 2).states if N >= 2 else np.zeros((0, J), dtype=np.int64)
    one = np.eye(J, dtype=np.int64)
    s = _rank((low[:, None] + one[kk] + one[ll]).reshape(-1, J), N).reshape(-1, kk.size)
    a = np.sqrt((low[:, kk] + 1) * (low[:, ll] + 1 + (kk == ll)))
    fold = np.zeros((J * J, kk.size))
    fold[[kk * J + ll, ll * J + kk], np.arange(kk.size)] = 1.0
    Wp = fold.T @ mb.W.reshape(J * J, J * J) @ fold
    return SectorHamiltonian(D, s, a, Wp)


# ARPACK on the factors beats dense eigh above this (2 cores: even at 210-250 states)
_DENSE_STATES = 200


def ground_state(H, basis: SectorBasis, total: int):
    """(E0, vector) of H on the sector basis, with ||H v - E0 v|| <= 1e-10
    max(1, |E0|), else an ArithmeticError.

    Up to _DENSE_STATES states, the lowest pair of the dense matrix alone
    (LAPACK's MRRR driver); above, ARPACK on H's factors from the occupation
    state of lowest diagonal entry plus a seeded random part, so that
    repeated solves agree bitwise, to a Ritz residual of 1e-12 |E0|.
    """
    n = basis.sector(total).size  # ValueError unless total is the basis's
    if n <= _DENSE_STATES:
        w, v = linalg.eigh(H.toarray(), subset_by_index=[0, 0])
    else:
        v0 = 1e-3 * np.random.default_rng(0).standard_normal(n)
        v0[np.argmin(H.diagonal().real)] += 1.0
        w, v = eigsh(H, k=1, which="SA", v0=v0, tol=1e-12)
    e0, vec = float(w[0]), v[:, 0]
    resid = np.linalg.norm(H @ vec - e0 * vec)
    if resid > 1e-10 * max(1.0, abs(e0)):
        raise ArithmeticError(f"eigensolver residual {resid}")
    return e0, vec


# the identity and the Pauli matrices: rho = sum_a m_a sigma_a / 2, m = (1, n)
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def hartree_minimum(e, W):
    """min over unit c in C^2 of sum e|c|^2 + sum W_ijkl conj(c_i c_j) c_k c_l,
    and a minimizer c.

    With rho = c c^+ = (1 + n.sigma)/2 the energy is E0 + 2 b.n + n.Q n on
    the unit (Bloch) sphere.  Its minimum is at n = -(Q - lam)^-1 b, with
    lam < lambda_min(Q) the root of |n| = 1; |n| rises with lam, so bisection
    finds it.  Where b is orthogonal to Q's lowest eigenvector (the hard
    case), |n| stays below 1 and that eigenvector makes up the rest.
    """
    e = np.asarray(e, dtype=float)
    if e.size != 2:
        raise ValueError("the closed-form Hartree minimum needs J = 2 modes")
    # with tr rho = 1, sum e_j rho_jj = sum e_j rho_jj rho_ii: the energy is
    # sum W1_ijkl rho_ki rho_lj, a quadratic form m.A m in m = (1, n)
    W1 = np.asarray(W) + np.einsum("ik,jl,j->ijkl", np.eye(2), np.eye(2), e)
    A = np.einsum("ijkl,aki,blj->ab", W1, _PAULI, _PAULI).real
    A = (A + A.T) / 8
    b, (q, V) = A[0, 1:], np.linalg.eigh(A[1:, 1:])
    beta = V.T @ b
    lo, hi = q[0] - np.linalg.norm(b), q[0]  # |n(lo)| <= 1
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # down to adjacent floats
        lo, hi = (mid, hi) if np.sum((beta / (q - mid)) ** 2) <= 1.0 else (lo, mid)
    n = np.divide(-beta, q - lo, out=np.zeros(3), where=q > lo)
    n[0] = np.copysign(np.sqrt(max(1.0 - n[1:] @ n[1:], 0.0)), n[0])  # |n| = 1, hard case too
    c = np.linalg.eigh(np.tensordot(np.r_[1.0, V @ n], _PAULI, 1))[1][:, -1]
    return float(np.einsum("ijkl,i,j,k,l->", W1, np.conj(c), np.conj(c), c, c).real), c


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
    if not np.isfinite(z):  # a NaN would slip past the tail test below
        raise ValueError(f"coherent state needs a finite z, got {z}")
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
# symbols of one normal-ordered monomial (a+)^p a^q
# ---------------------------------------------------------------------------

def lower_symbol(p, q, z):
    """<z| (a+)^p a^q |z> = zbar^p z^q, at a point or elementwise on an array."""
    z = np.asarray(z)
    return np.conj(z) ** p * z**q


def upper_symbol(p, q, z):
    """U(z) with int dz U(z) Pi(z) = (a+)^p a^q, exact at every degree.

    Reordering to antinormal form, (a+)^p a^q = sum_k c_k a^(q-k) (a+)^(p-k)
    with c_k = (-1)^k k! C(p, k) C(q, k) (Cahill & Glauber, Phys. Rev. 177,
    1857 (1969)), and each antinormal term has the upper symbol
    zbar^(p-k) z^(q-k).
    """
    z = np.asarray(z)
    return sum((-1) ** k * factorial(k) * comb(p, k) * comb(q, k)
               * np.conj(z) ** (p - k) * z ** (q - k) for k in range(min(p, q) + 1))


def monomial_matrix(p, q, n_max: int) -> sparse.csr_matrix:
    """(a+)^p a^q on levels 0..n_max of one mode, with the truncated
    a = diag(sqrt 1..sqrt n_max, 1): one diagonal in closed form.

    Level n goes to n - q + p with sqrt(n!/(n-q)!) sqrt((n-q+p)!/(n-q)!), the
    root of an exact integer product, for q <= n <= n_max - max(p - q, 0);
    every other column is zero, as in the product of the truncated factors.
    """
    if min(p, q, n_max) < 0:
        raise ValueError("need p, q, n_max >= 0")
    cols = np.arange(q, n_max + 1 - max(p - q, 0))
    vals = np.sqrt([float(perm(n, q) * perm(n - q + p, p)) for n in cols.tolist()])
    return sparse.csr_matrix((vals, (cols - q + p, cols)), shape=(n_max + 1, n_max + 1))


def _coherent_rows(z, count):
    """V[n] = z^n e^{-|z|^2/2} / sqrt(n!) for n < count, one row per level,
    by V[n] = V[n - 1] z / sqrt(n): products only, no complex exp or log."""
    V = np.empty((count, z.size), dtype=complex)
    V[0] = np.exp(-0.5 * (z.real * z.real + z.imag * z.imag))
    for n in range(1, count):
        V[n] = V[n - 1] * z / np.sqrt(n)
    return V


def verify_resolution(ops, n_max: int, Z=6.0, n_angle=64):
    """Largest entry error of int dz U(z) Pi(z) against (a+)^p a^q, U its
    upper symbol, for each (p, q) in ops, in order; (0, 0) checks the
    resolution of identity.

    80-node Gauss-Legendre radius on [0, Z], uniform angle: one node set
    and one table of coherent rows <n|z> at the nodes, by recurrence in n
    (_coherent_rows), serve every (p, q).  Compared on the n <= 3 block,
    whose entries the closed form gives exactly (monomial_matrix at n_max 3)
    and the coherent projector reproduces once Z covers them; n_max only
    has to lie above that block.
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
    V = _coherent_rows(zg, 4)  # only the compared n <= 3
    Vh, errors = V.conj().T, []
    for p, q in ops:
        M = (V * (wg * upper_symbol(p, q, zg))[None, :]) @ Vh
        errors.append(float(np.abs(M - monomial_matrix(p, q, 3).toarray()).max()))
    return errors


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
