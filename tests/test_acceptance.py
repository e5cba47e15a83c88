"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line on the real
stdout so the verdicts are visible even under pytest's capture.
"""

import sys
import time

import numpy as np
import pytest

from rotogp import analysis, dyson, fock, gp, heatkernel, scattering
from rotogp.fields import norm4_pow4


def _report(num, name, ok, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _minimize(dim, n, box, omega, a, **kw):
    problem = gp.harmonic_problem(dim=dim, n=n, length=box, omega=omega, a=a)
    opts = gp.GpSolverOptions(**kw)
    return problem, gp.gp_minimize(problem, opts=opts)


# ---------------------------------------------------------------------------
# shared solves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coupling_sweep():
    """3D ground energies over a in {0, 0.5, 1, 2, 4}, with minimizers."""
    out = {}
    for a in (0.0, 0.5, 1.0, 2.0, 4.0):
        out[a] = _minimize(3, 32, 16.0, 0.0, a)
    return out


@pytest.fixture(scope="module")
def multivortex():
    """Converged symmetry-broken minimizer above the multi-vortex threshold."""
    problem = gp.harmonic_problem(dim=2, n=96, length=20.0, omega=-0.9, a=50.0)
    opts = gp.GpSolverOptions(tol=1e-7, max_iter=40000)
    state = gp.gp_minimize(problem, init=("vortex", 2), opts=opts)
    return problem, state, opts


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_linear_limit():
    t0 = time.perf_counter()
    _, s3 = _minimize(3, 32, 14.0, 0.0, 0.0)
    _, s2 = _minimize(2, 32, 14.0, 0.0, 0.0)
    wall = time.perf_counter() - t0
    ok = (
        abs(s3.energy - 3.0) < 1e-5
        and abs(s2.energy - 2.0) < 1e-5
        and wall < 30.0
    )
    _report(1, "linear limit", ok,
            f"E3={s3.energy:.8f} E2={s2.energy:.8f} wall={wall:.1f}s")


def test_criterion_2_chemical_potential_identity(coupling_sweep, multivortex):
    worst = 0.0
    cases = list(coupling_sweep.values()) + [multivortex[:2]]
    for problem, state in cases:
        assert state.converged
        lhs = abs(state.mu - state.energy
                  - 4.0 * np.pi * problem.a * norm4_pow4(state.phi))
        worst = max(worst, lhs / abs(state.mu))
    ok = worst <= 1e-8
    _report(2, "chemical-potential identity", ok, f"worst rel={worst:.2e}")


def test_criterion_3_concavity_in_coupling(coupling_sweep):
    E = {a: st.energy for a, (_, st) in coupling_sweep.items()}
    slack = 2e-7  # 2x solver tolerance
    mid_ok = all(
        E[m] >= 0.5 * (E[lo] + E[hi]) - slack
        for lo, m, hi in [(0.0, 0.5, 1.0), (0.0, 1.0, 2.0), (0.0, 2.0, 4.0)]
    )
    scale_ok = all(
        E[lam * a] >= lam * E[a] - slack
        for a, lam in [(1.0, 0.5), (2.0, 0.5), (4.0, 0.5), (2.0, 0.25), (4.0, 0.25)]
    )
    # each divided second difference moves by at most 4 slack / min(da)
    a = np.array(sorted(E))
    defects = analysis.concavity_defects(a, [E[k] for k in a])
    defects_ok = np.all(defects <= 4.0 * slack / np.diff(a).min())
    _report(3, "concavity in the coupling", mid_ok and scale_ok and defects_ok,
            "midpoint and superhomogeneity inequalities, "
            f"second differences={[f'{d:.3f}' for d in defects]}")


def test_criterion_4_vortex_onset(multivortex):
    t0 = time.perf_counter()
    # rotation-frequency scan in a 2D trap at fixed coupling
    scan, phis = [], []
    for om in (0.3, 0.5, 0.7, 0.9, 0.95):
        problem = gp.harmonic_problem(dim=2, n=48, length=14.0, omega=-om, a=8.0)
        state = gp.gp_minimize(
            problem,
            init_list=["gaussian", ("vortex", 1), ("vortex", 2)],
            opts=gp.GpSolverOptions(tol=1e-7),
        )
        assert state.converged
        phis.append(state.phi)
        scan.append((om, analysis.angular_momentum_z(state.phi),
                     analysis.total_vortex_charge(state.phi)))
    above = [k for k, (_, lz, _) in enumerate(scan) if lz >= 0.5]
    threshold_ok = (
        len(above) > 0
        and all(lz <= 1e-3 for _, lz, _ in scan[:above[0]])
        and all(lz >= 0.5 and wind >= 1 for _, lz, wind in scan[above[0]:])
    )

    # rotation degeneracy above the multi-vortex threshold
    problem, state, opts = multivortex
    winding = analysis.total_vortex_charge(state.phi)
    degeneracy_ok = state.converged and winding >= 2
    worst = 0.0
    angles = (0.35, 0.7, 1.2)
    copies = [state.phi]
    for theta in angles:
        rotated = analysis.rotate_field(state.phi, theta).normalized()
        # re-descend to strip the O(interpolation) noise of the shears
        polished = gp.gp_minimize(problem, init=rotated, opts=opts)
        worst = max(worst, abs(polished.energy - state.energy))
        copies.append(polished.phi)
    degeneracy_ok &= worst <= 5.0 * opts.tol
    # a quarter turn leaves so little shear noise that no polish is needed
    quarter = analysis.rotate_field(state.phi, np.pi / 2).normalized()
    degeneracy_ok &= abs(gp.gp_energy(problem, quarter) - state.energy) <= 5.0 * opts.tol

    # symmetry breaking: the average of the degenerate rotated minimizers is
    # a mixed state, while the same average of the vortex-free Omega = 0.3
    # minimizer, rotated without a polish, is pure
    broken = analysis.MixtureState(np.full(4, 0.25), copies)
    symmetric = analysis.MixtureState(np.full(4, 0.25), [phis[0]] + [
        analysis.rotate_field(phis[0], theta).normalized() for theta in angles])
    breaking_ok = not analysis.is_extreme(broken) and analysis.is_extreme(symmetric)

    wall = time.perf_counter() - t0
    ok = threshold_ok and degeneracy_ok and breaking_ok and wall < 600.0
    _report(4, "vortex onset and degeneracy", ok,
            f"scan Lz={[f'{lz:.3f}' for _, lz, _ in scan]} "
            f"winding={winding} worst dE={worst:.1e} "
            f"mixture top eigenvalue={broken.spectrum()[0]:.3f} wall={wall:.0f}s")


def test_criterion_5_scattering_lengths():
    hard = scattering.scattering_length(scattering.hard_sphere(0.7))
    hard_ok = abs(hard / 0.7 - 1.0) < 1e-6

    barrier = scattering.square_barrier(1.0, 50.0)
    closed = scattering.square_barrier_length(1.0, 50.0)
    barrier_ok = abs(scattering.scattering_length(barrier) / closed - 1.0) < 1e-6

    a1 = scattering.scattering_length(barrier)
    scaling_ok = all(
        abs(scattering.scattering_length(barrier.scaled(N)) / (a1 / N) - 1.0) < 1e-6
        for N in (1, 10, 100)
    )
    _report(5, "scattering lengths", hard_ok and barrier_ok and scaling_ok,
            f"hard={hard:.8f} barrier={closed:.8f}")


def test_criterion_6_dyson_suite():
    chi = dyson.CutoffFunction(3.5)
    sp = dyson.build_soft_potentials(chi, 0.35, 0.5)
    int_ok = abs(sp.int_UR - 4.0 * np.pi) < 1e-12

    scaling = dyson.verify_wr_scaling(3.5, np.geomspace(0.105, 1.05, 5))
    slope_ok = scaling["slope"] >= 1.9

    pot = scattering.square_barrier(1.0, 4.0e4).scaled(8.0)
    a_n = scattering.scattering_length(pot)
    check = dyson.check_dyson_inequality(pot, sp, a_n)
    ineq_ok = check["passed"] and check["min_eig"] >= -check["slack"]

    problem = gp.harmonic_problem(dim=2, n=32, length=12.0)
    k0 = dyson.build_K0(problem, chi, 1.0, 3)
    k0_ok = float(np.min(k0.e)) >= -1e-8
    kappas = {eta: dyson.kappa_eta(problem, eta) for eta in (0.5, 1.0, 2.0)}
    ratios = np.array([k / eta for eta, k in kappas.items()])
    linear_ok = np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-8

    ok = int_ok and slope_ok and ineq_ok and k0_ok and linear_ok
    _report(6, "soft-potential suite", ok,
            f"slope={scaling['slope']:.3f} min_eig={check['min_eig']:.1e} "
            f"K0 min={np.min(k0.e):.4f}")


def test_criterion_7_symbol_suite():
    one = (1, 0)          # creation
    num = (1, 1)          # a^dag a
    pair = (2, 2)         # a^dag^2 a^2
    z = 0.7 + 0.2j
    m2 = abs(z) ** 2
    exact_ok = (
        fock.lower_symbol(*one, z) == np.conj(z)
        and fock.upper_symbol(*one, z) == np.conj(z)
        and abs(fock.lower_symbol(*num, z) - m2) < 1e-15
        and abs(fock.upper_symbol(*num, z) - (m2 - 1.0)) < 1e-15
        and abs(fock.lower_symbol(*pair, z) - m2**2) < 1e-15
        and abs(fock.upper_symbol(*pair, z) - (m2**2 - 4 * m2 + 2.0)) < 1e-14
    )
    errors = [
        fock.verify_resolution(0, 0, 8, Z=6.0),
        fock.verify_resolution(*num, 8, Z=6.0),
        fock.verify_resolution(*pair, 8, Z=6.0),
    ]
    recon_ok = max(errors) < 1e-6
    _report(7, "coherent symbol suite", exact_ok and recon_ok,
            f"reconstruction errors={[f'{e:.1e}' for e in errors]}")


def test_criterion_8_mean_field_surrogate():
    t0 = time.perf_counter()
    u = np.array([[1.0, 0.3], [0.3, 0.8]])
    g, e = 0.4, np.array([0.5, 1.5])
    e_h, _ = fock.hartree_minimum(e, fock.pair_interaction_tensor(u, g))
    gaps = []
    for N in range(2, 9):
        mb = fock.ModeBasis(e=e, W=fock.pair_interaction_tensor(u, g / N))
        basis = fock.SectorBasis(2, N)
        e0, _ = fock.ground_state(fock.build_hamiltonian(mb, basis), basis, N)
        gaps.append(abs(e0 / N - e_h))
    wall = time.perf_counter() - t0
    ok = (
        all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        and gaps[-1] < 0.1 * e_h
        and wall < 120.0
    )
    _report(8, "mean-field surrogate", ok,
            f"gap(N=8)={gaps[-1]:.4f} ({gaps[-1] / e_h:.1%} of e_H) wall={wall:.0f}s")


def test_criterion_9_error_constant_limits():
    N = 1.0e8
    a = E = 0.01
    delta, eta, J, M, C = 0.1, 1.0, 10, N, 1.0
    R = N ** -0.5
    e = 1000.0 * np.arange(1.0, J + 1)
    const = fock.error_constants(
        w1=4 * np.pi * a / N, winf=6 * a / (R**3 * N),
        delta=delta, eta=eta, e=e, J=J, M=M, E=E, C=C,
    )
    ok = (
        abs(const.D1 - (1.0 - delta)) < 0.01
        and const.D2 < 0.01
        and const.D3 / N < 0.01
    )
    _report(9, "error-constant limits", ok,
            f"D1={const.D1:.4f} D2={const.D2:.4f} D3/N={const.D3 / N:.2e}")


def test_criterion_10_heat_kernel_suite():
    int_ok = all(
        abs(heatkernel.h_alpha_integral(alpha, d=d) - 1.0) < 1e-6
        for alpha in (0.3, 1.0, 5.0) for d in (1, 3)
    )
    free = heatkernel.diag_bound(heatkernel.zero_potential(), 1.0,
                                 [0.0, 1.0, 3.0], d=1)[0]
    equality_ok = np.max(np.abs(free - (4 * np.pi) ** -0.5)) < 1e-8

    xs = np.linspace(0.0, 3.0, 7)
    V = heatkernel.harmonic_potential()
    mehler_ok = np.all(
        heatkernel.diag_bound(V, 1.0, xs, d=1)[0] >= heatkernel.mehler_diag(1.0, xs)
    )
    perturbed_ok = heatkernel.perturbed_bound_check(V, 1.0, 1.0, 1.0,
                                                    box=12.0, n=1000) <= 1e-8
    growths = []
    for alpha in (0.1, 1.0, 10.0, 50.0):
        p = heatkernel.weighted_trace(heatkernel.log_potential(2.0), alpha, 4,
                                      d=1)["partials"]
        growths.append(p[-1] / p[-2])
    monotone_ok = all(g2 <= g1 for g1, g2 in zip(growths, growths[1:]))
    transition_ok = growths[0] > 1.01 and abs(growths[-1] - 1.0) <= 0.01

    ok = (int_ok and equality_ok and mehler_ok and perturbed_ok
          and monotone_ok and transition_ok)
    _report(10, "heat-kernel suite", ok,
            f"doubling growth by alpha={[f'{g:.3f}' for g in growths]}")
