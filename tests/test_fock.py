import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import product
from math import comb, factorial, sqrt
from scipy import special

from rotogp import fock
from rotogp.fock import (
    CoherentVector,
    ErrorConstants,
    ModeBasis,
    SectorBasis,
    _rank,
    build_hamiltonian,
    coherent_state,
    error_constants,
    ground_state,
    hartree_minimum,
    lower_symbol,
    monomial_matrix,
    pair_interaction_tensor,
    upper_symbol,
    verify_resolution,
)


def _two_body_reference(W, states):
    """sum W_ijkl a+_i a+_j a_k a_l on the span of the occupation tuples
    states, one state at a time: a_l, a_k, a+_j, a+_i applied in turn, each
    with its sqrt(n) factor.  An image outside the span raises KeyError."""
    index = {s: col for col, s in enumerate(states)}
    J = W.shape[0]
    H = np.zeros((len(states), len(states)), dtype=W.dtype)
    for state, col in index.items():
        for k, l in product(range(J), repeat=2):
            occ = list(state)
            amp = sqrt(occ[l])
            occ[l] -= 1
            amp *= sqrt(max(occ[k], 0))
            occ[k] -= 1
            if amp == 0:
                continue
            for i, j in product(range(J), repeat=2):
                w = W[i, j, k, l]
                if w == 0:
                    continue
                up = list(occ)
                up[j] += 1
                a = amp * sqrt(up[j])
                up[i] += 1
                a *= sqrt(up[i])
                H[index[tuple(up)], col] += w * a
    return H


def _lookup(basis):
    """Occupation tuple -> basis index."""
    return {tuple(s): i for i, s in enumerate(basis.states.tolist())}


def _states(basis):
    return [tuple(s) for s in basis.states.tolist()]


def test_basis_dimension_and_index_roundtrip():
    for J, N in ((1, 12), (2, 8), (3, 5), (5, 0)):
        b = SectorBasis(J, N)
        assert len(b) == comb(N + J - 1, J - 1)
        index = _lookup(b)
        assert len(index) == len(b)  # no state repeats
        assert np.array_equal(_rank(b.states, N), np.arange(len(b)))
        assert np.array_equal(b.sector(N), np.arange(len(b)))
        with pytest.raises(ValueError):
            b.sector(N + 1)
    with pytest.raises(ValueError):
        SectorBasis(0, 2)
    with pytest.raises(ValueError):
        SectorBasis(2, -1)


def test_basis_is_sorted_product_enumeration():
    for J, N in ((1, 5), (2, 4), (3, 4), (4, 3)):
        b = SectorBasis(J, N)
        ref = sorted(s for s in product(range(N + 1), repeat=J) if sum(s) == N)
        assert b.states.tolist() == [list(s) for s in ref]


def test_rank_roundtrip_forty_modes():
    # a key (N + 1)^J over 40 modes would overflow int64; the rank does not
    b = SectorBasis(40, 3)
    assert len(b) == 11480
    assert np.array_equal(_rank(b.states, 3), np.arange(len(b)))
    # one particle removed from the first occupied mode lands in sector 2
    below = _lookup(SectorBasis(40, 2))
    lowered = b.states.copy()
    lowered[np.arange(len(b)), np.argmax(b.states > 0, axis=1)] -= 1
    assert _rank(lowered, 2).tolist() == [below[tuple(s)] for s in lowered.tolist()]


def test_ccr_below_truncation():
    n_max = 6
    a = monomial_matrix(0, 1, n_max)
    ad = a.conj().T
    comm = (a @ ad - ad @ a).toarray()
    # the top level is where truncation leaks
    assert np.allclose(comm[:n_max, :n_max], np.eye(n_max), atol=1e-13)
    # a |vac> = 0, a+a eigenvalues are the levels
    vac = np.eye(n_max + 1)[0]
    assert np.linalg.norm(a @ vac) == 0.0
    assert np.allclose((ad @ a).diagonal(), np.arange(n_max + 1), rtol=1e-14)
    assert np.allclose(monomial_matrix(1, 1, n_max).diagonal(), np.arange(n_max + 1), rtol=1e-14)
    assert monomial_matrix(0, 1, 0).shape == (1, 1)
    for bad in [(0, 1, -1), (-1, 0, 4), (0, -1, 4)]:
        with pytest.raises(ValueError):
            monomial_matrix(*bad)


def test_monomial_matrix_matches_dense_powers_of_the_truncated_a():
    # (a+)^p a^q from p + q dense products of a = diag(sqrt 1..sqrt n_max, 1);
    # empty where q > n_max or p - q > n_max, then exactly zero
    mp = np.linalg.matrix_power
    for n_max in range(21):
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        for p, q in product(range(5), repeat=2):
            m = monomial_matrix(p, q, n_max)
            assert m.format == "csr" and m.shape == (n_max + 1, n_max + 1)
            ref = mp(a.T, p) @ mp(a, q)
            if q > n_max or p - q > n_max:
                assert m.nnz == 0 and not ref.any(), (p, q, n_max)
            else:
                err = np.abs(m.toarray() - ref).max()
                assert err <= 2e-15 * np.abs(ref).max(), (p, q, n_max)
    # the one diagonal is held in O(n_max) memory
    assert monomial_matrix(2, 2, 5000).nnz == 4999


def test_single_mode_spectrum_closed_form():
    g = 0.7
    mb = ModeBasis(e=[1e-12], W=np.full((1, 1, 1, 1), g))
    for N in (0, 2, 5, 10):
        b = SectorBasis(1, N)
        e0, vec = ground_state(build_hamiltonian(mb, b), b, N)
        assert e0 == pytest.approx(g * N * (N - 1), abs=1e-9)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_no_interaction_ground_energy():
    b = SectorBasis(2, 4)
    mb = ModeBasis(e=[0.5, 1.5], W=np.zeros((2, 2, 2, 2)))
    H = build_hamiltonian(mb, b)
    e0, _ = ground_state(H, b, 4)
    assert e0 == pytest.approx(4 * 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ground_state(H, b, 3)  # not the basis's sector


def test_hamiltonian_hermitian_commutes_with_number():
    # the reference acts on all states with at most n_max particles and
    # never assumes number conservation; if H conserves it, the union's
    # spectrum is the union of the sector spectra
    J, n_max = 2, 8
    mb = ModeBasis(
        e=[0.5, 1.5],
        W=pair_interaction_tensor([[1.0, 0.3], [0.3, 0.8]], 0.2),
    )
    union = [s for N in range(n_max + 1) for s in _states(SectorBasis(J, N))]
    ref = np.diag(np.array(union, dtype=float) @ mb.e) + _two_body_reference(mb.W, union)
    spectra = []
    for N in range(n_max + 1):
        H = build_hamiltonian(mb, SectorBasis(J, N)).toarray()
        assert abs(H - H.conj().T).max() <= 1e-12
        spectra.append(np.linalg.eigvalsh(H))
    assert np.allclose(np.sort(np.concatenate(spectra)), np.linalg.eigvalsh(ref),
                       rtol=0, atol=1e-12)


def test_hamiltonian_matches_occupation_reference():
    b = SectorBasis(3, 5)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3, 3))
    u = u @ u.T  # PSD symmetric
    mb = ModeBasis(e=[0.5, 1.0, 2.0], W=pair_interaction_tensor(u, 0.1))
    H = build_hamiltonian(mb, b)
    ref = np.diag(b.states.astype(float) @ mb.e) + _two_body_reference(mb.W, _states(b))
    assert np.abs(H.toarray() - ref).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    J=st.integers(1, 3),
    total=st.integers(0, 5),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
    g=st.floats(-1.0, 1.0),
)
def test_assembly_properties(J, total, entries, g):
    u = np.array(entries[: J * J]).reshape(J, J)
    u = 0.5 * (u + u.T)
    b = SectorBasis(J, total)
    mb = ModeBasis(e=np.arange(1.0, J + 1.0), W=pair_interaction_tensor(u, g))
    H = build_hamiltonian(mb, b).toarray()
    ref = np.diag(b.states.astype(float) @ mb.e) + _two_body_reference(mb.W, _states(b))
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(H - ref).max() <= 1e-12 * scale
    assert abs(H - H.conj().T).max() <= 1e-12 * scale


@pytest.mark.parametrize("J, N", [(2, 0), (2, 1), (3, 4), (6, 8)])
def test_sector_assembly_matches_reference(J, N):
    # N = 0 and N = 1 hold no pair to lower: the two-body term is empty
    rng = np.random.default_rng(J + N)
    g = rng.standard_normal((J, J))
    b = SectorBasis(J, N)
    mb = ModeBasis(e=np.arange(1.0, J + 1.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.3))
    two_body = build_hamiltonian(mb, b).toarray() - np.diag(b.states.astype(float) @ mb.e)
    ref = _two_body_reference(mb.W, _states(b))
    assert np.abs(two_body - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    if N < 2:
        assert not two_body.any() and not ref.any()


@pytest.mark.parametrize("N", [0, 1, 4, 8])
@pytest.mark.parametrize("J", [1, 2, 6])
def test_raise_table_lands_on_the_raised_state(J, N):
    # a+_k a+_l, p = (k <= l) in np.triu_indices order, takes state t of sector
    # N - 2 to the state ranked s[t, p] in sector N, with a[t, p]^2 =
    # (t_k + 1)(t_l + 1 + delta_kl); sector N - 2 is empty for N < 2
    b = SectorBasis(J, N)
    H = build_hamiltonian(ModeBasis(e=np.arange(1.0, J + 1.0), W=np.zeros((J,) * 4)), b)
    low = SectorBasis(J, N - 2).states.tolist() if N >= 2 else []
    pairs = [(k, l) for k in range(J) for l in range(k, J)]
    assert H.s.shape == H.a.shape == (len(low), len(pairs))
    for t, occ in enumerate(low):
        for p, (k, l) in enumerate(pairs):
            raised = list(occ)
            raised[k] += 1
            raised[l] += 1
            assert b.states[H.s[t, p]].tolist() == raised
            assert H.a[t, p] ** 2 == pytest.approx((occ[k] + 1) * (occ[l] + 1 + (k == l)),
                                                   rel=1e-15)


@pytest.mark.parametrize("J, N, complex_W", [(2, 0, False), (3, 4, False), (6, 5, False),
                                              (2, 7, True)])
def test_operator_applies_its_dense_matrix(J, N, complex_W):
    # H @ V on a vector and on a block, against the assembled matrix; the
    # diagonal and nnz, the entries of D, B^T and Wp, from the factors
    rng = np.random.default_rng(J + N)
    if complex_W:
        e, W = _random_two_mode_model(J + N)
    else:
        g = rng.standard_normal((J, J))
        e, W = np.arange(1.0, J + 1.0), pair_interaction_tensor(0.5 * (g + g.T), 0.3)
    b = SectorBasis(J, N)
    H = build_hamiltonian(ModeBasis(e=e, W=W), b)
    dense = np.diag(b.states.astype(float) @ e) + _two_body_reference(W, _states(b))
    assert np.abs(H.toarray() - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())
    V = rng.standard_normal((len(b), 3))
    if complex_W:
        V = V + 1j * rng.standard_normal((len(b), 3))
    ref = H.toarray() @ V
    scale = max(1.0, np.abs(ref).max())
    assert (H @ V).shape == (len(b), 3)
    assert np.abs(H @ V - ref).max() <= 1e-13 * scale
    assert np.abs(H @ V[:, 1] - ref[:, 1]).max() <= 1e-13 * scale
    assert np.abs(H.diagonal() - np.diag(dense)).max() <= 1e-13 * max(1.0, np.abs(dense).max())
    pairs = J * (J + 1) // 2
    assert H.nnz == len(b) + np.count_nonzero(H.BT.toarray()) + pairs * pairs


def test_pair_sector_matches_first_quantized():
    # N = 2 on J = 40 modes (820 states, the eigsh branch): in first
    # quantization H = e x 1 + 1 x e + 2W on C^J x C^J, restricted to the
    # symmetric states; occupation (..1_k..1_l..) is (|kl> + |lk>)/sqrt 2
    J = 40
    rng = np.random.default_rng(40)
    g = rng.standard_normal((J, J))
    e = np.linspace(0.5, 2.5, J)
    mb = ModeBasis(e=e, W=pair_interaction_tensor(0.5 * (g + g.T), 0.05))
    b = SectorBasis(J, 2)
    H = build_hamiltonian(mb, b)
    one = np.eye(J)
    first = (np.kron(np.diag(e), one) + np.kron(one, np.diag(e))
             + 2.0 * mb.W.reshape(J * J, J * J))
    S = np.zeros((J * J, len(b)))
    for col, occ in enumerate(b.states):
        k, l = np.repeat(np.arange(J), occ)
        S[[k * J + l, l * J + k], col] = 1.0 / np.sqrt(2.0) if k != l else 1.0
    sym = S.T @ first @ S
    scale = np.abs(sym).max()
    assert np.abs(H.toarray() - sym).max() <= 1e-12 * scale
    e0, vec = ground_state(H, b, 2)
    assert abs(e0 - np.linalg.eigvalsh(sym)[0]) <= 1e-12 * scale
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_mode_relabel_symmetry():
    # symmetric e and W: ground energy invariant under swapping the modes
    b = SectorBasis(2, 4)
    u = np.array([[1.0, 0.4], [0.4, 1.0]])
    mb = ModeBasis(e=[1.0, 1.0], W=pair_interaction_tensor(u, 0.3))
    H = build_hamiltonian(mb, b)
    e0, vec = ground_state(H, b, 4)
    index = _lookup(b)
    swapped = np.array([index[tuple(s[::-1])] for s in b.states])
    vs = vec[swapped]
    assert abs(vs @ H @ vs - e0) < 1e-10


def test_mode_basis_validation():
    with pytest.raises(ValueError):
        ModeBasis(e=[1.0, 0.5], W=np.zeros((2, 2, 2, 2)))  # decreasing
    with pytest.raises(ValueError):
        ModeBasis(e=[0.0], W=np.zeros((1, 1, 1, 1)))  # not positive
    W = np.zeros((2, 2, 2, 2))
    W[0, 0, 1, 1] = 1.0  # not hermitian: W_0011 != conj(W_1100)
    with pytest.raises(ValueError):
        ModeBasis(e=[1.0, 2.0], W=W)
    W[0, 0, 1, 1] = W[1, 1, 0, 0] = np.nan  # hermitian pattern, not finite
    with pytest.raises(ValueError, match="non-finite"):
        ModeBasis(e=[1.0, 2.0], W=W)
    with pytest.raises(ValueError, match="non-finite"):
        ModeBasis(e=[1.0, np.nan], W=np.zeros((2, 2, 2, 2)))


def test_hartree_convergence_from_above_sector_sweep():
    u = np.array([[1.0, 0.3], [0.3, 0.8]])
    g, e = 0.4, np.array([0.5, 1.5])
    e_h, c = hartree_minimum(e, pair_interaction_tensor(u, g))
    assert np.linalg.norm(c) == pytest.approx(1.0)
    gaps = []
    for N in range(2, 9):
        mb = ModeBasis(e=e, W=pair_interaction_tensor(u, g / N))
        b = SectorBasis(2, N)
        e0, _ = ground_state(build_hamiltonian(mb, b), b, N)
        gaps.append(abs(e0 / N - e_h))
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1 * e_h


def _hartree_energy(e, W, c):
    """sum e|c|^2 + sum W_ijkl conj(c_i c_j) c_k c_l, c of shape (2, ...)."""
    quart = np.einsum("ijkl,i...,j...,k...,l...->...", W, np.conj(c), np.conj(c), c, c)
    return np.einsum("j,j...->...", e, np.abs(c) ** 2) + quart.real


def _random_two_mode_model(seed):
    # a complex W with the i <-> j and k <-> l symmetries, made hermitian
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
    S = X + X.transpose(1, 0, 2, 3)
    S = S + S.transpose(0, 1, 3, 2)
    mb = ModeBasis(e=np.sort(rng.uniform(0.2, 2.0, 2)),
                   W=0.1 * (S + np.conj(S.transpose(2, 3, 0, 1))))
    return mb.e, mb.W


_HARTREE_MODELS = [(np.array([0.5, 1.5]), pair_interaction_tensor([[1.0, 0.3], [0.3, 0.8]], 0.4)),
                   *(_random_two_mode_model(seed) for seed in range(5))]


@pytest.mark.parametrize("e, W", _HARTREE_MODELS, ids=["criterion-8", *map(str, range(5))])
def test_hartree_minimum_lies_below_a_dense_bloch_grid(e, W):
    e_h, c = hartree_minimum(e, W)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-15)
    assert _hartree_energy(e, W, c) == pytest.approx(e_h, abs=1e-14)
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 401), np.linspace(0.0, 2 * np.pi, 400))
    c_grid = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    grid = _hartree_energy(e, W, c_grid)
    assert grid.min() >= e_h - 1e-14
    assert grid.min() - e_h < 1e-4


def test_hartree_minimum_hard_case():
    # u diagonal: the energy 1.1 - 0.1 z + 0.25 (0.6 + 0.4 z)^2 depends on
    # the Bloch vector's z alone, so Q's lowest eigenvectors (x and y) are
    # orthogonal to b; its minimum, z = -1/4 inside the sphere, is 1.1875
    e_h, c = hartree_minimum([1.0, 1.2], pair_interaction_tensor(np.diag([1.0, 0.2]), 0.25))
    assert e_h == pytest.approx(1.1875, abs=1e-14)
    assert abs(c[0]) ** 2 - abs(c[1]) ** 2 == pytest.approx(-0.25, abs=1e-12)


def test_hartree_minimum_is_phase_invariant_and_takes_two_modes():
    e, W = _HARTREE_MODELS[1]
    e_h, c = hartree_minimum(e, W)
    # a global phase of c leaves its energy, and a phase of one mode
    # (W_ijkl times its phases at i, j over those at k, l) the minimum
    assert _hartree_energy(e, W, np.exp(0.7j) * c) == pytest.approx(e_h, abs=1e-14)
    u = np.exp(1j * np.array([0.0, 1.3]))
    rephased = W * np.einsum("i,j,k,l->ijkl", u, u, u.conj(), u.conj())
    assert hartree_minimum(e, rephased)[0] == pytest.approx(e_h, abs=1e-14)
    with pytest.raises(ValueError, match="J = 2"):
        hartree_minimum(np.ones(3), np.zeros((3,) * 4))


def test_coherent_state_properties():
    z = 0.8
    cs = coherent_state(z, 12)
    assert cs.truncation_error < 1e-8
    assert np.linalg.norm(cs.vector) == pytest.approx(1.0, abs=1e-8)
    a = monomial_matrix(0, 1, 12)
    assert np.linalg.norm(a @ cs.vector - z * cs.vector) < 1e-5
    nbar = np.vdot(cs.vector, monomial_matrix(1, 1, 12) @ cs.vector).real
    assert nbar == pytest.approx(abs(z) ** 2, abs=1e-8)
    # vacuum
    vac = coherent_state(0.0, 12)
    assert vac.vector[0] == pytest.approx(1.0)
    assert np.linalg.norm(vac.vector) == pytest.approx(1.0)


def test_coherent_overlap_closed_form():
    z1, z2 = 0.5 + 0.3j, -0.4 + 0.6j
    c1 = coherent_state(z1, 14)
    c2 = coherent_state(z2, 14)
    ov = np.vdot(c1.vector, c2.vector)
    expect = np.exp(-0.5 * abs(z1) ** 2 - 0.5 * abs(z2) ** 2 + np.conj(z1) * z2)
    assert abs(ov - expect) < 1e-8


def test_coherent_tail_rejected():
    with pytest.raises(ValueError):
        coherent_state(3.0, 4)
    with pytest.raises(ValueError):
        coherent_state(0.0, -1)
    # a NaN compares False with the tail's bound, so it is refused by name
    for z in (np.nan, complex(1.0, np.nan), np.inf):
        with pytest.raises(ValueError, match="finite z"):
            coherent_state(z, 12)


def test_symbols_reference_values():
    z = 0.7 + 0.2j
    assert lower_symbol(1, 1, z) == pytest.approx(abs(z) ** 2)
    assert upper_symbol(1, 1, z) == pytest.approx(abs(z) ** 2 - 1.0)
    assert lower_symbol(2, 2, z) == pytest.approx(abs(z) ** 4)
    assert lower_symbol(1, 0, z) == pytest.approx(np.conj(z))
    assert upper_symbol(1, 0, z) == pytest.approx(np.conj(z))
    # a point or an array of points: the same values elementwise
    zs = np.array([z, -1.2 + 0.5j, 0.0])
    assert upper_symbol(2, 1, zs)[0] == upper_symbol(2, 1, z)
    assert upper_symbol(2, 1, zs)[2] == 0.0


def test_lower_symbol_equals_coherent_expectation():
    z = 0.6 - 0.4j
    cs = coherent_state(z, 14)
    for p, q in ((1, 1), (2, 2), (1, 0), (2, 1)):
        expect = np.vdot(cs.vector, monomial_matrix(p, q, 14) @ cs.vector)
        assert abs(expect - lower_symbol(p, q, z)) < 1e-6


def test_antinormal_coefficients_reorder_the_monomial():
    # (a+)^p a^q = sum_k c_k a^(q-k) (a+)^(p-k), c_k = (-1)^k k! C(p,k) C(q,k),
    # checked with dense powers of a on levels 0..40; (a+)^(p-k) raises
    # columns n <= 40 - p without reaching the cut, so those columns are exact
    n_max = 40
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    ad = a.T
    mp = np.linalg.matrix_power
    z = np.array([0.7 + 0.2j, -1.1 + 0.4j])
    for p, q in product(range(5), repeat=2):
        coeffs = [(-1) ** k * factorial(k) * comb(p, k) * comb(q, k)
                  for k in range(min(p, q) + 1)]
        normal = mp(ad, p) @ mp(a, q)
        antinormal = sum(c * mp(a, q - k) @ mp(ad, p - k) for k, c in enumerate(coeffs))
        cols = slice(0, n_max + 1 - p)
        assert np.abs(normal - antinormal)[:, cols].max() <= 1e-9 * np.abs(normal).max()
        # the upper symbol is the antinormal polynomial with these coefficients
        expect = sum(c * np.conj(z) ** (p - k) * z ** (q - k) for k, c in enumerate(coeffs))
        assert np.allclose(upper_symbol(p, q, z), expect, rtol=1e-14, atol=0)


def test_resolution_of_identity():
    # (0, 0) is the identity; every monomial of degree <= 4 is rebuilt
    ops = [(p, q) for p in range(5) for q in range(5 - p)]
    for pq, err in zip(ops, verify_resolution(ops, 12, Z=6.0), strict=True):
        assert err < 1e-6, pq
    with pytest.raises(ValueError):
        verify_resolution([(0, 0)], 3)  # no room above the n <= 3 block


def test_resolution_error_is_independent_of_the_truncation():
    # the n <= 3 block comes from the closed form, which n_max never enters
    ops = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]
    errs = {tuple(verify_resolution(ops, n_max, n_angle=96)) for n_max in (4, 8, 12, 40)}
    assert len(errs) == 1, errs


def _coherent_rows_exp_log(z, count):
    """The rows z^n e^{-|z|^2/2} / sqrt(n!) as one complex exp of
    n log z - log(n!)/2 - |z|^2/2, the former form of verify_resolution."""
    ns = np.arange(count)
    return np.exp(np.outer(ns, np.log(z)) - 0.5 * special.gammaln(ns + 1.0)[:, None]
                  - 0.5 * np.abs(z)[None, :] ** 2)


def test_resolution_rows_match_the_closed_form(monkeypatch):
    # the rows verify_resolution builds at symbols-check --nodes 96, Z = 6
    seen = []
    rows = fock._coherent_rows

    def recording(z, count):
        seen.append((z, rows(z, count)))
        return seen[-1][1]

    monkeypatch.setattr(fock, "_coherent_rows", recording)
    verify_resolution([(1, 1)], 12, Z=6.0, n_angle=96)
    (z, V), = seen
    assert V.shape == (4, 80 * 96)
    power = np.array([z**n * np.exp(-0.5 * np.abs(z) ** 2) / sqrt(factorial(n))
                      for n in range(4)])
    for ref in (power, _coherent_rows_exp_log(z, 4)):
        assert np.max(np.abs(V - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("p, q", [(0, 0), (1, 1), (2, 2), (2, 1)])
def test_resolution_error_matches_the_exp_log_rows(monkeypatch, p, q):
    new, = verify_resolution([(p, q)], 12, n_angle=96)
    monkeypatch.setattr(fock, "_coherent_rows", _coherent_rows_exp_log)
    old, = verify_resolution([(p, q)], 12, n_angle=96)
    assert abs(new - old) <= 1e-13


def test_error_constants_limits():
    a, E, eta, delta, J, C = 0.01, 0.01, 1.0, 0.1, 10, 1.0
    e = 1000.0 * np.arange(1, J + 1)
    vals = {}
    for N in (1e6, 1e8):
        R = N**-0.5
        ec = error_constants(
            4 * np.pi * a / N, 6 * a / (R**3 * N), delta, eta, e, J, int(N), E, C
        )
        assert ec.D1 <= 1.0 and ec.D2 >= 0.0 and ec.D3 >= 0.0
        vals[N] = ec
    ec = vals[1e8]
    assert abs(ec.D1 - (1.0 - delta)) < 0.01
    assert ec.D2 < 0.01
    assert ec.D3 / 1e8 < 0.01
    # limits are approached monotonically over the N sweep
    assert abs(ec.D1 - 0.9) < abs(vals[1e6].D1 - 0.9)
    assert ec.D2 < vals[1e6].D2
    with pytest.raises(ValueError):
        error_constants(1.0, 1.0, 0.1, 1.0, e, 20, 10, 1.0)


def test_ground_state_repeatable_bitwise():
    # sector 6 of J = 6 holds C(11, 5) = 462 states, past fock._DENSE_STATES:
    # ARPACK's branch on the unassembled operator
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    b = SectorBasis(6, 6)
    mb = ModeBasis(e=np.arange(1.0, 7.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.1))
    H = build_hamiltonian(mb, b)
    assert len(b) > fock._DENSE_STATES
    e1, v1 = ground_state(H, b, 6)
    e2, v2 = ground_state(H, b, 6)
    assert e1 == e2 and np.array_equal(v1, v2)


@pytest.mark.parametrize("N", [2, 4, 5, 6])
def test_ground_state_matches_full_dense_solve(N):
    # up to fock._DENSE_STATES = 200 states (N <= 4 of J = 6) the dense branch
    # computes the lowest pair alone: against every pair of the full matrix,
    # the vector up to its phase; N = 5 and N = 6 hold 252 and 462 states,
    # ARPACK's branch from the state of lowest diagonal entry
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    b = SectorBasis(6, N)
    mb = ModeBasis(e=np.arange(1.0, 7.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.4 / N))
    H = build_hamiltonian(mb, b)
    e0, vec = ground_state(H, b, N)
    if len(b) <= fock._DENSE_STATES:
        w, v = np.linalg.eigh(H.toarray())
        assert w[1] - w[0] > 1e-3  # a simple level: its vector is defined
        assert abs(e0 - w[0]) <= 1e-12
        assert abs(abs(np.vdot(v[:, 0], vec)) - 1.0) <= 1e-12
    else:
        assert len(b) in (252, 462)
        assert abs(e0 - np.linalg.eigvalsh(H.toarray())[0]) <= 1e-10
