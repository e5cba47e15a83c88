import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import product
from math import comb, factorial, sqrt
from scipy import sparse

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
    lowering_operator,
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
    a = lowering_operator(n_max)
    ad = a.conj().T
    comm = (a @ ad - ad @ a).toarray()
    # the top level is where truncation leaks
    assert np.allclose(comm[:n_max, :n_max], np.eye(n_max), atol=1e-13)
    # a |vac> = 0, a+a eigenvalues are the levels
    vac = np.eye(n_max + 1)[0]
    assert np.linalg.norm(a @ vac) == 0.0
    assert np.allclose((ad @ a).diagonal(), np.arange(n_max + 1), rtol=1e-14)
    assert lowering_operator(0).shape == (1, 1)
    with pytest.raises(ValueError):
        lowering_operator(-1)


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
        H = build_hamiltonian(mb, SectorBasis(J, N))
        assert abs(H - H.conj().T).max() <= 1e-12
        spectra.append(np.linalg.eigvalsh(H.toarray()))
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
    H = build_hamiltonian(mb, b)
    ref = np.diag(b.states.astype(float) @ mb.e) + _two_body_reference(mb.W, _states(b))
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(H.toarray() - ref).max() <= 1e-12 * scale
    assert abs(H - H.conj().T).max() <= 1e-12 * scale


@pytest.mark.parametrize("J, N", [(2, 0), (2, 1), (3, 4), (6, 8)])
def test_sector_assembly_matches_reference(J, N):
    # N = 0 and N = 1 hold no pair to lower: the two-body term is empty
    rng = np.random.default_rng(J + N)
    g = rng.standard_normal((J, J))
    b = SectorBasis(J, N)
    mb = ModeBasis(e=np.arange(1.0, J + 1.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.3))
    two_body = build_hamiltonian(mb, b) - sparse.diags(b.states.astype(float) @ mb.e)
    ref = _two_body_reference(mb.W, _states(b))
    assert np.abs(two_body.toarray() - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    if N < 2:
        assert two_body.count_nonzero() == 0 and not ref.any()


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


def test_coherent_state_properties():
    z = 0.8
    cs = coherent_state(z, 12)
    assert cs.truncation_error < 1e-8
    assert np.linalg.norm(cs.vector) == pytest.approx(1.0, abs=1e-8)
    a = lowering_operator(12)
    ad = a.conj().T
    assert np.linalg.norm(a @ cs.vector - z * cs.vector) < 1e-5
    nbar = np.vdot(cs.vector, (ad @ a) @ cs.vector).real
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
    for p in range(5):
        for q in range(5 - p):
            assert verify_resolution(p, q, 12, Z=6.0) < 1e-6, (p, q)
    with pytest.raises(ValueError):
        verify_resolution(0, 0, 3)  # no room above the n <= 3 block


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
    # sector 6 of J = 6 holds C(11, 5) = 462 states: the sparse eigsh branch
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    b = SectorBasis(6, 6)
    mb = ModeBasis(e=np.arange(1.0, 7.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.1))
    H = build_hamiltonian(mb, b)
    assert len(b) > 400
    e1, v1 = ground_state(H, b, 6)
    e2, v2 = ground_state(H, b, 6)
    assert e1 == e2 and np.array_equal(v1, v2)
