import numpy as np
import pytest

from rotogp.fields import ComplexField, Grid, gaussian_field, inner, norm, norm4_pow4
from rotogp.gp import (
    GpProblem,
    GpSolverOptions,
    NormalizationError,
    gp_energy,
    gp_gradient,
    gp_minimize,
    harmonic_problem,
)

GAUSS4 = (2.0 * np.pi) ** -1.5  # int of the normalized 3D Gaussian to the 4th power


def _mu_residual(p, phi):
    """(mu, ||g - mu phi||) of phi from one more apply g = gp_gradient(p, phi)."""
    g = gp_gradient(p, phi)
    mu = inner(phi, g).real
    return mu, norm(ComplexField(p.grid, g.values - mu * phi.values))


def test_gaussian_energy_noninteracting():
    p = harmonic_problem(dim=3, n=32, length=14.0)
    phi = gaussian_field(p.grid)
    assert gp_energy(p, phi) == pytest.approx(3.0, abs=1e-9)


def test_gaussian_energy_interacting():
    # E = 3 + 4 pi a (2 pi)^{-3/2} at a = 1 for the oscillator Gaussian
    p = harmonic_problem(dim=3, n=32, length=14.0, a=1.0)
    phi = gaussian_field(p.grid)
    assert gp_energy(p, phi) == pytest.approx(3.0 + 4.0 * np.pi * GAUSS4, abs=1e-9)


def test_gaussian_energy_rotating_real_field():
    # real field: cross term vanishes, E = 3 + <|A|^2> = 3 + (1/4)|Om|^2 <x^2+y^2>
    p = harmonic_problem(dim=3, n=32, length=14.0, omega=0.5)
    phi = gaussian_field(p.grid)
    assert gp_energy(p, phi) == pytest.approx(3.0625, abs=1e-9)


def test_gradient_matches_energy_fd():
    # directional finite difference of the *unconstrained* quadratic+quartic
    # functional against <eta, grad> at a non-stationary point
    rng = np.random.default_rng(3)
    p = harmonic_problem(dim=3, n=16, length=12.0, omega=0.3, a=0.7)
    base = gaussian_field(p.grid)
    phi = ComplexField(
        p.grid, base.values * (1.0 + 0.1 * rng.standard_normal(p.grid.shape))
    ).normalized()
    eta = ComplexField(
        p.grid,
        base.values
        * (rng.standard_normal(p.grid.shape) + 1j * rng.standard_normal(p.grid.shape)),
    )

    def raw_energy(v):
        f = ComplexField(p.grid, v)
        from rotogp.fields import apply_gauge_kinetic

        w = p.grid.spacing**3
        kin = inner(f, apply_gauge_kinetic(f, p.gauge)).real
        pot = w * float(np.sum(p.potential * np.abs(v) ** 2))
        return kin + pot + 4.0 * np.pi * p.a * norm4_pow4(f)

    eps = 1e-4
    fd = (raw_energy(phi.values + eps * eta.values)
          - raw_energy(phi.values - eps * eta.values)) / (2 * eps)
    pairing = 2.0 * inner(gp_gradient(p, phi), eta).real
    assert fd == pytest.approx(pairing, rel=1e-5)


def test_mu_identity_at_any_point():
    # mu = <phi, grad phi> by construction; at the Gaussian this equals
    # E + 4 pi a ||phi||_4^4 analytically
    p = harmonic_problem(dim=3, n=32, length=14.0, a=1.0)
    phi = gaussian_field(p.grid)
    mu, _ = _mu_residual(p, phi)
    e = gp_energy(p, phi)
    assert mu == pytest.approx(e + 4.0 * np.pi * norm4_pow4(phi), abs=1e-10)


def test_unnormalized_rejected():
    p = harmonic_problem(dim=2, n=16, length=12.0)
    phi = ComplexField(p.grid, 2.0 * gaussian_field(p.grid).values)
    with pytest.raises(NormalizationError):
        gp_energy(p, phi)


def test_minimize_oscillator_3d():
    p = harmonic_problem(dim=3, n=32, length=14.0)
    st = gp_minimize(p)
    assert st.converged
    assert st.energy == pytest.approx(3.0, abs=1e-5)
    assert st.boundary_ok


def test_minimize_oscillator_2d():
    p = harmonic_problem(dim=2, n=64, length=14.0)
    st = gp_minimize(p)
    assert st.converged
    assert st.energy == pytest.approx(2.0, abs=1e-5)


def test_minimize_interacting_residual_and_mu():
    p = harmonic_problem(dim=3, n=32, length=16.0, a=1.0)
    st = gp_minimize(p)
    assert st.converged and st.residual <= 1e-7
    mu2, res = _mu_residual(p, st.phi)
    assert mu2 == pytest.approx(st.mu)
    # mu = E + 4 pi a ||phi||_4^4 at a stationary point
    assert abs(st.mu - st.energy - 4.0 * np.pi * norm4_pow4(st.phi)) <= 1e-8 * abs(st.mu)
    # interaction raises the energy above the linear ground state
    assert st.energy > 3.0


def test_minimize_energy_never_increases_with_restarts():
    p = harmonic_problem(dim=2, n=32, length=12.0, a=0.5)
    st = gp_minimize(p, ["gaussian", "random", "random"], GpSolverOptions(seed=1))
    assert st.converged
    assert st.energy <= min(st.restart_energies) + 1e-12


def test_fused_energy_matches_direct_energy():
    # one apply gives the gradient g, and E = Re<phi, g> - 4 pi a int|phi|^4
    rng = np.random.default_rng(11)
    p = harmonic_problem(dim=2, n=32, length=12.0, omega=-0.7, a=3.0)
    base = gaussian_field(p.grid).values
    phi = ComplexField(p.grid, base * (1.0 + 0.3 * rng.standard_normal(p.grid.shape))
                       * np.exp(2j * np.pi * rng.random(p.grid.shape))).normalized()
    fused = inner(phi, gp_gradient(p, phi)).real - 4.0 * np.pi * p.a * norm4_pow4(phi)
    assert abs(fused - gp_energy(p, phi)) <= 1e-12 * abs(gp_energy(p, phi))
    # the line search's energy is this formula, its int |phi|^4 handed in:
    # the start's from norm4_pow4, a trial's from its normalization
    from rotogp.gp import _gradient_energy, _normalize

    g, mu, e = _gradient_energy(p, phi.values, norm4_pow4(phi))
    assert np.array_equal(g, gp_gradient(p, phi).values)
    assert mu == inner(phi, gp_gradient(p, phi)).real
    assert abs(e - gp_energy(p, phi)) <= 1e-12 * abs(gp_energy(p, phi))
    trial = 2.5 * phi.values
    _, _, e_trial = _gradient_energy(p, trial, _normalize(trial, p.grid.spacing**2))
    e_direct = gp_energy(p, ComplexField(p.grid, trial))
    assert abs(e_trial - e_direct) <= 1e-12 * abs(e_direct)


def test_start_grammar():
    from rotogp.fields import vortex_field
    from rotogp.gp import initial_field

    p = harmonic_problem(dim=2, n=16, length=10.0)
    assert np.array_equal(initial_field(p, "vortex:2", None).values,
                          vortex_field(p.grid, winding=2).values)
    assert np.array_equal(initial_field(p, "vortex:-1", None).values,
                          vortex_field(p.grid, winding=-1).values)
    for bad in [("vortex", 2), "vortex:", "vortex:x", "vortex:2.5", "vortex:2:1", "foo", 2]:
        with pytest.raises(ValueError, match="is not 'gaussian'"):
            initial_field(p, bad, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one start"):
        gp_minimize(p, [])


def test_a_lone_start_is_refused_before_any_work(monkeypatch):
    # a str would iterate its characters; a field is one spec, not a list
    from rotogp import gp

    p = harmonic_problem(dim=2, n=16, length=10.0)
    monkeypatch.setattr(gp, "initial_field", lambda *args: pytest.fail("work was done"))
    for lone in ["vortex:2", "gaussian", gaussian_field(p.grid)]:
        with pytest.raises(ValueError, match="must be a list of start specs"):
            gp_minimize(p, lone)


def test_converged_is_the_stop_reason():
    import dataclasses

    st = gp_minimize(harmonic_problem(dim=2, n=16, length=10.0, a=0.5))
    assert st.converged and st.termination == "converged"
    assert not dataclasses.replace(st, termination="max_iter").converged
    with pytest.raises(AttributeError):
        st.converged = False


def test_minimize_energy_is_gp_energy_of_result():
    p = harmonic_problem(dim=2, n=32, length=12.0, omega=-0.5, a=2.0)
    st = gp_minimize(p, ["vortex:1"])
    assert st.converged and st.termination == "converged"
    assert abs(st.energy - gp_energy(p, st.phi)) <= 1e-12 * abs(st.energy)


def test_minimize_applies_only_inside_the_loop(monkeypatch):
    # mu, the residual and the stop reason come from the loop's last
    # gradient: no apply follows it, and each start's evals count them all
    p = harmonic_problem(dim=2, n=32, length=12.0, omega=-0.5, a=2.0)
    starts = ["gaussian", "vortex:1"]
    evals = [gp_minimize(p, [start]).gradient_evals for start in starts]
    calls = []

    def counting(p, phi):
        calls.append(None)
        return gp_gradient(p, phi)

    monkeypatch.setattr("rotogp.gp.gp_gradient", counting)
    gp_minimize(p, starts)
    assert len(calls) == sum(evals)


def test_termination_reasons(monkeypatch):
    p = harmonic_problem(dim=2, n=32, length=12.0, a=1.0)
    with monkeypatch.context() as m:
        m.setattr("rotogp.gp._FIRST_STEP", 1e-13)
        stalled = gp_minimize(p)
    assert not stalled.converged and stalled.termination == "stalled"
    assert stalled.iterations == 1
    capped = gp_minimize(p, opts=GpSolverOptions(max_iter=3))
    assert not capped.converged and capped.termination == "max_iter"
    assert capped.iterations == 3


def test_negative_inputs_rejected():
    g = Grid(2, 16, 10.0)
    with pytest.raises(ValueError):
        GpProblem(g, -g.radius_sq(), 0.0, 1.0)
    with pytest.raises(ValueError):
        GpProblem(g, g.radius_sq(), 0.0, -1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_inputs_rejected(monkeypatch):
    g = Grid(2, 16, 10.0)
    V = g.radius_sq()
    V[3, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GpProblem(g, V, 0.0, 1.0)
    p = harmonic_problem(dim=2, n=16, length=10.0, a=1.0)
    bad = gaussian_field(p.grid).values.copy()
    bad[5, 5] = np.inf

    def no_gradient(*args):
        raise AssertionError("gradient evaluated on a non-finite start")

    monkeypatch.setattr("rotogp.gp.gp_gradient", no_gradient)
    with pytest.raises(ValueError, match="finite"):
        gp_minimize(p, [ComplexField(p.grid, bad)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_start_rejected_before_normalizing(monkeypatch):
    def no_gradient(*args):
        raise AssertionError("gradient evaluated on a zero start")

    monkeypatch.setattr("rotogp.gp.gp_gradient", no_gradient)
    p = harmonic_problem(dim=2, n=16, length=10.0, a=1.0)
    with pytest.raises(ValueError, match="zero norm"):
        gp_minimize(p, [ComplexField(p.grid, np.zeros(p.grid.shape, dtype=complex))])
    # a constructed start too: on 2 points per axis of a 100-wide box,
    # (x + iy) e^{-|x|^2/2} underflows to 0 at every sample
    with pytest.raises(ValueError, match="zero norm"):
        gp_minimize(harmonic_problem(dim=2, n=2, length=100.0), ["vortex:1"])


def test_non_positive_tol_rejected(monkeypatch):
    def no_gradient(*args):
        raise AssertionError("gradient evaluated with a non-positive tol")

    monkeypatch.setattr("rotogp.gp.gp_gradient", no_gradient)
    p = harmonic_problem(dim=2, n=16, length=10.0, a=1.0)
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            gp_minimize(p, opts=GpSolverOptions(tol=tol))


@pytest.mark.parametrize("bad_call", [1, 5], ids=["start", "trial"])
def test_non_finite_gradient_terminates(monkeypatch, bad_call):
    # from its bad_call-th call on, the gradient is NaN: at the start the
    # next trial's norm is NaN, later a trial's energy is
    calls = []

    def nan_gradient(p, phi):
        calls.append(None)
        g = gp_gradient(p, phi)
        return g if len(calls) < bad_call else ComplexField(p.grid, g.values * np.nan)

    monkeypatch.setattr("rotogp.gp.gp_gradient", nan_gradient)
    p = harmonic_problem(dim=2, n=16, length=10.0, a=1.0)
    st = gp_minimize(p)
    assert st.termination == "non_finite" and not st.converged
    assert np.all(np.isfinite(st.phi.values)) and np.isfinite(st.energy)
    assert st.gradient_evals == bad_call


# Energies of the preconditioned residual descent at commit 12a0de9, the
# minimizer CG replaced (6351 and 358 iterations there).
@pytest.mark.parametrize("dim, n, length, omega, a, init, energy, ceiling", [
    (2, 32, 12.0, -0.6, 4.0, "vortex:1", 6.060900715876088, 400),
    (3, 24, 12.0, 0.0, 1.0, "gaussian", 3.622436098396141, 100),
], ids=["2d-vortex-start", "3d"])
def test_cg_reproduces_descent_energy(dim, n, length, omega, a, init, energy, ceiling):
    st = gp_minimize(harmonic_problem(dim, n, length, omega, a), [init])
    assert st.converged
    assert abs(st.energy / energy - 1.0) <= 1e-9
    assert st.iterations < ceiling


def test_cg_iteration_ceiling_3d_coupling_sweep():
    # the acceptance suite's coupling sweep: 670-755 iterations per solve
    # under residual descent
    for a in (0.5, 1.0, 2.0, 4.0):
        st = gp_minimize(harmonic_problem(dim=3, n=32, length=16.0, a=a))
        assert st.converged and st.iterations < 100, (a, st.iterations)


def test_cg_iteration_ceiling_vortex_pair():
    # the solve-gp vortex-pair config: 10,254 iterations under residual descent
    from rotogp.analysis import total_vortex_charge

    p = harmonic_problem(dim=2, n=64, length=16.0, omega=-0.9, a=20.0)
    st = gp_minimize(p, ["vortex:2"])
    assert st.converged and st.iterations < 500
    assert total_vortex_charge(st.phi) == 2
    # the report is the loop's last gradient, bitwise one more apply's
    assert (st.mu, st.residual) == _mu_residual(p, st.phi)

