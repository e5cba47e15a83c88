import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import product
from math import comb
from scipy import sparse

from rotogp.fock import (
    CoherentVector,
    ErrorConstants,
    FockBasis,
    ModeBasis,
    SymbolPolynomial,
    build_hamiltonian,
    coherent_state,
    error_constants,
    ground_state,
    hartree_minimum,
    lower_symbol,
    lowering_operator,
    pair_interaction_tensor,
    upper_symbol,
    verify_resolution,
)


def _two_body_reference(mb, basis):
    """sum W_ijkl a+_i a+_j a_k a_l accumulated from ladder products."""
    J = mb.modes
    a = [lowering_operator(basis, j) for j in range(J)]
    pair = {(k, l): (a[k] @ a[l]).tocsr() for k in range(J) for l in range(J)}
    n = len(basis)
    H = sparse.csr_matrix((n, n), dtype=mb.W.dtype)
    for i in range(J):
        for j in range(J):
            left = pair[(j, i)].conj().T  # a+_i a+_j
            for k in range(J):
                for l in range(J):
                    w = mb.W[i, j, k, l]
                    if w != 0:
                        H = H + w * (left @ pair[(k, l)])
    return H


def _lookup(basis):
    """Occupation tuple -> basis index."""
    return {tuple(s): i for i, s in enumerate(basis.states.tolist())}


def test_basis_dimension_and_index_roundtrip():
    for J, nmax in ((1, 12), (2, 8), (3, 5)):
        b = FockBasis(J, nmax)
        assert len(b) == comb(nmax + J, J)
        index = _lookup(b)
        assert len(index) == len(b)  # no state repeats
        for i in (0, len(b) // 2, len(b) - 1):
            assert index[tuple(b.states[i])] == i


def test_basis_is_sorted_product_enumeration():
    for J, nmax in ((1, 5), (2, 4), (3, 4), (4, 3)):
        b = FockBasis(J, nmax)
        ref = sorted((s for s in product(range(nmax + 1), repeat=J) if sum(s) <= nmax),
                     key=lambda s: (sum(s), s))
        assert b.states.tolist() == [list(s) for s in ref]


def test_ccr_below_truncation():
    b = FockBasis(2, 6)
    a0, a1 = lowering_operator(b, 0), lowering_operator(b, 1)
    ad0, ad1 = a0.conj().T, a1.conj().T
    comm = (a0 @ ad0 - ad0 @ a0).toarray()
    safe = b.totals < b.n_max  # top sector is where truncation leaks
    assert np.allclose(comm[np.ix_(safe, safe)], np.eye(safe.sum()), atol=1e-13)
    cross = (a0 @ ad1 - ad1 @ a0).toarray()
    assert np.abs(cross[np.ix_(safe, safe)]).max() < 1e-13
    # a |vac> = 0
    vac = np.zeros(len(b))
    vac[_lookup(b)[(0, 0)]] = 1.0
    assert np.linalg.norm(a0 @ vac) == 0.0
    # a+a eigenvalues are occupations
    nn = (ad0 @ a0).diagonal()
    assert np.allclose(nn, b.states[:, 0], rtol=1e-14)
    with pytest.raises(IndexError):
        lowering_operator(b, 5)


def test_single_mode_spectrum_closed_form():
    b = FockBasis(1, 10)
    g = 0.7
    mb = ModeBasis(e=[1e-12], W=np.full((1, 1, 1, 1), g))
    H = build_hamiltonian(mb, b)
    for N in (0, 2, 5, 10):
        e0, vec = ground_state(H, b, N)
        assert e0 == pytest.approx(g * N * (N - 1), abs=1e-9)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_no_interaction_ground_energy():
    b = FockBasis(2, 8)
    mb = ModeBasis(e=[0.5, 1.5], W=np.zeros((2, 2, 2, 2)))
    H = build_hamiltonian(mb, b)
    e0, _ = ground_state(H, b, 4)
    assert e0 == pytest.approx(4 * 0.5, abs=1e-12)


def test_hamiltonian_hermitian_commutes_with_number():
    b = FockBasis(2, 8)
    mb = ModeBasis(
        e=[0.5, 1.5],
        W=pair_interaction_tensor([[1.0, 0.3], [0.3, 0.8]], 0.2),
    )
    H = build_hamiltonian(mb, b)
    assert abs(H - H.conj().T).max() <= 1e-12
    n_op = sparse.diags(b.totals.astype(float))
    assert abs(H @ n_op - n_op @ H).max() <= 1e-12


def test_backends_build_identical_hamiltonian():
    b = FockBasis(3, 5)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((3, 3))
    u = u @ u.T  # PSD symmetric
    mb = ModeBasis(e=[0.5, 1.0, 2.0], W=pair_interaction_tensor(u, 0.1))
    H = build_hamiltonian(mb, b)
    ref = sparse.diags(b.states.astype(float) @ mb.e) + _two_body_reference(mb, b)
    assert abs(H - ref.tocsr()).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    J=st.integers(1, 3),
    n_max=st.integers(0, 5),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
    g=st.floats(-1.0, 1.0),
)
def test_assembly_properties(J, n_max, entries, g):
    u = np.array(entries[: J * J]).reshape(J, J)
    u = 0.5 * (u + u.T)
    b = FockBasis(J, n_max)
    mb = ModeBasis(e=np.arange(1.0, J + 1.0), W=pair_interaction_tensor(u, g))
    H = build_hamiltonian(mb, b)
    ref = sparse.diags(b.states.astype(float) @ mb.e) + _two_body_reference(mb, b)
    scale = max(1.0, abs(ref).max())
    assert abs(H - ref).max() <= 1e-12 * scale
    assert abs(H - H.conj().T).max() <= 1e-12 * scale
    n_op = sparse.diags(b.totals.astype(float))
    assert abs(H @ n_op - n_op @ H).max() <= 1e-12 * scale * b.n_max


def test_mode_relabel_symmetry():
    # symmetric e and W: ground energy invariant under swapping the modes
    b = FockBasis(2, 8)
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


def test_hartree_convergence_from_above_sector_sweep():
    u = np.array([[1.0, 0.3], [0.3, 0.8]])
    g, e = 0.4, np.array([0.5, 1.5])
    e_h, c = hartree_minimum(e, pair_interaction_tensor(u, g))
    assert np.linalg.norm(c) == pytest.approx(1.0)
    b = FockBasis(2, 12)
    gaps = []
    for N in range(2, 9):
        mb = ModeBasis(e=e, W=pair_interaction_tensor(u, g / N))
        e0, _ = ground_state(build_hamiltonian(mb, b), b, N)
        gaps.append(abs(e0 / N - e_h))
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1 * e_h


def test_coherent_state_properties():
    b = FockBasis(1, 12)
    z = 0.8
    cs = coherent_state([z], b)
    assert cs.truncation_error < 1e-8
    assert np.linalg.norm(cs.vector) == pytest.approx(1.0, abs=1e-8)
    a = lowering_operator(b, 0)
    ad = a.conj().T
    assert np.linalg.norm(a @ cs.vector - z * cs.vector) < 1e-5
    nbar = np.vdot(cs.vector, (ad @ a) @ cs.vector).real
    assert nbar == pytest.approx(abs(z) ** 2, abs=1e-8)
    # vacuum
    vac = coherent_state([0.0], b)
    assert vac.vector[_lookup(b)[(0,)]] == pytest.approx(1.0)
    assert np.linalg.norm(vac.vector) == pytest.approx(1.0)


def test_coherent_overlap_closed_form():
    b = FockBasis(1, 14)
    z1, z2 = 0.5 + 0.3j, -0.4 + 0.6j
    c1 = coherent_state([z1], b)
    c2 = coherent_state([z2], b)
    ov = np.vdot(c1.vector, c2.vector)
    expect = np.exp(-0.5 * abs(z1) ** 2 - 0.5 * abs(z2) ** 2 + np.conj(z1) * z2)
    assert abs(ov - expect) < 1e-8


def test_coherent_tail_rejected():
    with pytest.raises(ValueError):
        coherent_state([3.0], FockBasis(1, 4))


def test_symbols_reference_values():
    z = 0.7 + 0.2j
    num = SymbolPolynomial.term(1, (1,), (1,))
    assert lower_symbol(num, z) == pytest.approx(abs(z) ** 2)
    assert upper_symbol(num, z) == pytest.approx(abs(z) ** 2 - 1.0)
    quart = SymbolPolynomial.term(1, (2,), (2,))
    assert lower_symbol(quart, z) == pytest.approx(abs(z) ** 4)
    raise_op = SymbolPolynomial.term(1, (1,), (0,))
    assert lower_symbol(raise_op, z) == pytest.approx(np.conj(z))
    assert upper_symbol(raise_op, z) == pytest.approx(np.conj(z))
    with pytest.raises(ValueError):
        SymbolPolynomial.term(1, (3,), (2,))  # degree 5


def test_lower_symbol_equals_coherent_expectation():
    b = FockBasis(1, 14)
    z = 0.6 - 0.4j
    cs = coherent_state([z], b)
    for p, q in (((1,), (1,)), ((2,), (2,)), ((1,), (0,)), ((2,), (1,))):
        poly = SymbolPolynomial.term(1, p, q, coeff=0.7)
        mat = poly.to_matrix(b)
        expect = np.vdot(cs.vector, mat @ cs.vector)
        assert abs(expect - lower_symbol(poly, z)) < 1e-6


def test_upper_lower_roundtrip():
    # applying e^{+D} (finite series) to the upper symbol returns u exactly
    poly = (
        SymbolPolynomial.term(2, (1, 0), (1, 0), 0.5)
        + SymbolPolynomial.term(2, (1, 1), (1, 1), 0.25)
        + SymbolPolynomial.term(2, (0, 2), (0, 2), -0.1)
    )
    up = poly.upper()
    d1 = up.contract()
    d2 = d1.contract()
    back = up + d1 + d2.scale(0.5)
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    assert back.evaluate(z) == pytest.approx(poly.evaluate(z), abs=1e-12)


def test_resolution_of_identity():
    b = FockBasis(1, 12)
    assert verify_resolution(b, Z=6.0) < 1e-6
    num = SymbolPolynomial.term(1, (1,), (1,))
    assert verify_resolution(b, Z=6.0, poly=num) < 1e-6
    quart = SymbolPolynomial.term(1, (2,), (2,))
    assert verify_resolution(b, Z=6.0, poly=quart) < 1e-6
    with pytest.raises(ValueError):
        verify_resolution(FockBasis(2, 4))
    with pytest.raises(ValueError):
        verify_resolution(FockBasis(1, 3))  # no room above the n <= 3 block


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


def _evaluate_reference(poly, z):
    """u(z) at one point, term by term in scalar arithmetic."""
    val = 0.0 + 0.0j
    for (p, q), c in poly.terms.items():
        val += c * np.prod(np.conj(z) ** p) * np.prod(z**q)
    return complex(val)


def _symbol_terms(modes):
    exps = st.lists(st.integers(0, 2), min_size=modes, max_size=modes)
    term = st.tuples(exps, exps).filter(lambda pq: sum(pq[0]) + sum(pq[1]) <= 4)
    coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    return st.dictionaries(term.map(lambda pq: (tuple(pq[0]), tuple(pq[1]))), coeff,
                           max_size=5)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), modes=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_evaluate_points_matches_per_point_loop(data, modes, seed):
    poly = SymbolPolynomial(modes, data.draw(_symbol_terms(modes)))
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2, 2, (17, modes)) + 1j * rng.uniform(-2, 2, (17, modes))
    # |z_j| < 3, so each monomial is below 3^4 times its coefficient
    scale = max(1.0, sum(abs(c) for c in poly.terms.values())) * 3.0**4
    for pol in (poly, poly.upper()):
        vals = pol.evaluate(z)
        ref = np.array([_evaluate_reference(pol, zg) for zg in z])
        assert vals.shape == (17,)
        assert np.max(np.abs(vals - ref)) <= 1e-14 * scale
        # a single point keeps scalar arithmetic: bitwise the reference
        assert all(pol.evaluate(zg) == r for zg, r in zip(z, ref))


def test_evaluate_single_point_returns_scalar():
    poly = SymbolPolynomial.term(2, (1, 0), (0, 1), 0.5)
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    val = poly.evaluate(z)
    assert isinstance(val, complex)
    assert val == 0.5 * np.conj(z[0]) * z[1]
    assert poly.evaluate(z[None, :]).shape == (1,)


def test_ground_state_repeatable_bitwise():
    # sector 6 of J = 6 holds C(11, 5) = 462 states: the sparse eigsh branch
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    b = FockBasis(6, 6)
    mb = ModeBasis(e=np.arange(1.0, 7.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.1))
    H = build_hamiltonian(mb, b)
    assert b.sector(6).size > 400
    e1, v1 = ground_state(H, b, 6)
    e2, v2 = ground_state(H, b, 6)
    assert e1 == e2 and np.array_equal(v1, v2)


@pytest.mark.parametrize("J, N", [(2, 0), (2, 1), (3, 4), (6, 8)])
def test_sector_assembly_matches_union_block(J, N):
    # N = 0 and N = 1 hold no pair to lower: the two-body term is empty
    rng = np.random.default_rng(J + N)
    g = rng.standard_normal((J, J))
    b = FockBasis(J, N)
    mb = ModeBasis(e=np.arange(1.0, J + 1.0), W=pair_interaction_tensor(0.5 * (g + g.T), 0.3))
    full = build_hamiltonian(mb, b)
    only = build_hamiltonian(mb, b, N)
    idx = b.sector(N)
    block, ref = only[np.ix_(idx, idx)], full[np.ix_(idx, idx)]
    assert np.array_equal(block.toarray(), ref.toarray())
    e_only, v_only = ground_state(only, b, N)
    e_full, v_full = ground_state(full, b, N)
    assert e_only == e_full and np.array_equal(v_only, v_full)
