"""Rotating Gross-Pitaevskii functional: energy, gradient, minimization.

Energy of a normalized field phi:

    E[phi] = <phi| (-i grad + A)^2 + V |phi> + 4 pi a int |phi|^4,

with A = (1/2) Omega ^ x and the trap V taken as-is (any centrifugal
subtraction is the caller's business).  Minimization is preconditioned
residual descent on the unit sphere: each step subtracts
dt * (1 - Laplacian)^{-1} (H[phi] phi - mu phi) and renormalizes, with
backtracking on dt so the energy never increases.  The fixed points of
this iteration are exactly the solutions of the GP equation (no O(dt)
bias, unlike the usual semi-implicit splitting).  Each line-search trial
costs one operator apply: its gradient g gives its energy as
Re<phi, g> - 4 pi a int|phi|^4, and an accepted trial's g is reused.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .fields import (
    ComplexField,
    GaugeField,
    Grid,
    GridMismatchError,
    apply_gauge_kinetic,
    boundary_decay_ok,
    gaussian_field,
    inner,
    norm,
    norm4_pow4,
    vortex_field,
)


class NormalizationError(ValueError):
    """Input field is not L2-normalized."""


@dataclass
class GpProblem:
    grid: Grid
    potential: np.ndarray       # trap V >= 0, sampled on the grid
    omega: np.ndarray           # angular velocity (3-vector or z scalar)
    a: float                    # coupling, >= 0

    def __post_init__(self):
        self.potential = np.asarray(self.potential, dtype=float)
        if self.potential.shape != self.grid.shape:
            raise GridMismatchError("potential shape does not match grid")
        if np.min(self.potential) < 0:
            raise ValueError("trap potential must be nonnegative")
        if self.a < 0:
            raise ValueError("coupling a must be nonnegative")
        self.gauge = GaugeField(self.grid, self.omega)
        self.omega = self.gauge.omega


def harmonic_problem(dim=3, n=32, length=14.0, omega=0.0, a=0.0) -> GpProblem:
    """V = |x|^2 harmonic trap problem, the workhorse configuration."""
    grid = Grid(dim, n, length)
    return GpProblem(grid, grid.radius_sq(), np.asarray(omega, dtype=float), a)


@dataclass
class GpState:
    phi: ComplexField
    energy: float
    mu: float
    residual: float
    iterations: int
    converged: bool
    restart_energies: list = dc_field(default_factory=list)
    boundary_ok: bool = True
    termination: str = "converged"   # or "max_iter", "stalled" (dt collapsed)


@dataclass
class GpSolverOptions:
    dt: float = 0.9
    tol: float = 1e-7
    max_iter: int = 20000
    restarts: int = 1
    seed: int = 0
    # heavy-ball weight for the refinement stage (0 disables it).  Plain
    # residual descent stalls on nearly-flat directions (vortex positions,
    # rigid rotations), where the convergence rate degrades from
    # sqrt(lambda_min) to lambda_min; momentum restores the square root.
    momentum: float = 0.0


def _check_normalized(phi: ComplexField, tol=1e-8):
    n = norm(phi)
    if abs(n - 1.0) > tol:
        raise NormalizationError(f"|phi| = {n}, expected 1 within {tol}")


def gp_energy(p: GpProblem, phi: ComplexField) -> float:
    """E[phi] for a normalized phi."""
    _check_normalized(phi)
    kin = inner(phi, apply_gauge_kinetic(phi, p.gauge)).real
    w = p.grid.spacing**p.grid.dim
    pot = w * float(np.sum(p.potential * np.abs(phi.values) ** 2))
    return kin + pot + 4.0 * np.pi * p.a * norm4_pow4(phi)


def _gradient_energy(p: GpProblem, vals):
    """(gradient, energy) of the normalized field vals from one apply."""
    f = ComplexField(p.grid, vals)
    g = gp_gradient(p, f)
    return g.values, inner(f, g).real - 4.0 * np.pi * p.a * norm4_pow4(f)


def gp_gradient(p: GpProblem, phi: ComplexField) -> ComplexField:
    """Unconstrained functional gradient (-i grad + A)^2 phi + V phi + 8 pi a |phi|^2 phi."""
    if phi.grid != p.grid:
        raise GridMismatchError("field grid does not match problem grid")
    out = apply_gauge_kinetic(phi, p.gauge).values
    out = out + p.potential * phi.values
    out = out + 8.0 * np.pi * p.a * np.abs(phi.values) ** 2 * phi.values
    return ComplexField(p.grid, out)


def chemical_potential(p: GpProblem, phi: ComplexField) -> float:
    """mu = <phi|H0 phi> + 8 pi a int|phi|^4 for normalized phi."""
    _check_normalized(phi)
    return inner(phi, gp_gradient(p, phi)).real


def gp_residual(p: GpProblem, phi: ComplexField):
    """(mu, ||grad - mu phi||_2), the GP-equation defect of phi."""
    grad = gp_gradient(p, phi)
    mu = inner(phi, grad).real
    defect = ComplexField(p.grid, grad.values - mu * phi.values)
    return mu, norm(defect)


def initial_field(p: GpProblem, strategy, rng) -> ComplexField:
    """Build a starting field: 'gaussian', 'random', or ('vortex', q)."""
    if isinstance(strategy, ComplexField):
        return strategy.normalized()
    if strategy == "gaussian":
        return gaussian_field(p.grid)
    if strategy == "random":
        base = gaussian_field(p.grid)
        phase = np.exp(2j * np.pi * rng.random(p.grid.shape))
        noise = 1.0 + 0.3 * rng.standard_normal(p.grid.shape)
        return ComplexField(p.grid, base.values * phase * noise).normalized()
    if isinstance(strategy, tuple) and strategy[0] == "vortex":
        return vortex_field(p.grid, winding=int(strategy[1]))
    raise ValueError(f"unknown init strategy {strategy!r}")


def _momentum_stage(p: GpProblem, vals, opts: GpSolverOptions):
    """Heavy-ball refinement with gradient restarts.

    Preconditioner: (1+V+8*pi*a*rho)^{-1/2} (1-Lap)^{-1} (1+V+8*pi*a*rho)^{-1/2}
    with the density refreshed every 200 steps, which keeps dt ~ 1 stable
    even for strongly interacting clouds.  Non-monotone, so the lowest-
    residual iterate seen is what gets returned.
    """
    grid = p.grid
    w = grid.spacing**grid.dim
    kp = 1.0 / (1.0 + grid.ksq())
    dt = min(opts.dt, 0.9)
    beta = opts.momentum
    prev = vals.copy()
    best_vals, best_res = vals, np.inf
    dinv = None
    it = 0
    while it < opts.max_iter:
        it += 1
        f = ComplexField(grid, vals)
        g = gp_gradient(p, f)
        mu = inner(f, g).real
        r = g.values - mu * vals
        res = np.sqrt(w * np.sum(np.abs(r) ** 2))
        if res < best_res:
            best_vals, best_res = vals, res
        if res <= opts.tol:
            break
        if dinv is None or it % 200 == 0:
            dinv = 1.0 / np.sqrt(
                1.0 + p.potential + 8.0 * np.pi * p.a * np.abs(vals) ** 2
            )
        step = dinv * np.fft.ifftn(kp * np.fft.fftn(dinv * r))
        momentum = vals - prev
        # restart when the momentum points against the descent direction
        if w * np.real(np.sum(np.conj(momentum) * (-r))) < 0:
            momentum = 0.0
        trial = vals - dt * step + beta * momentum
        trial = trial / np.sqrt(w * np.sum(np.abs(trial) ** 2))
        if not np.all(np.isfinite(trial)):
            break
        prev, vals = vals, trial
    return best_vals, it


def _descend(p: GpProblem, phi: ComplexField, opts: GpSolverOptions):
    """Preconditioned residual descent on the unit sphere from one start."""
    grid = p.grid
    w = grid.spacing**grid.dim
    precond = 1.0 / (1.0 + grid.ksq())
    dt = opts.dt
    vals = phi.values
    g, energy = _gradient_energy(p, vals)
    # with a momentum stage to follow, the monotone stage only roughs in
    stage_tol = opts.tol if opts.momentum == 0.0 else max(opts.tol, 1e-3)
    # Energy differences near the fixed point drop below double-precision
    # resolution long before the gradient residual reaches tol, so steps
    # are accepted up to a roundoff-sized slack; only genuine increases
    # (overstepping) trigger dt backtracking.
    slack = 1e-11
    mu = res = np.inf
    stalled = False
    it = 0
    while it < opts.max_iter:
        it += 1
        mu = w * np.vdot(vals, g).real
        r = g - mu * vals
        res = np.sqrt(w * np.sum(np.abs(r) ** 2))
        if res <= stage_tol:
            break
        step = np.fft.ifftn(precond * np.fft.fftn(r))
        while dt > 1e-12:
            trial = vals - dt * step
            trial = trial / np.sqrt(w * np.sum(np.abs(trial) ** 2))
            if not np.all(np.isfinite(trial)):
                raise FloatingPointError("non-finite field in descent step")
            g_trial, e_trial = _gradient_energy(p, trial)
            if e_trial <= energy + slack * max(1.0, abs(energy)):
                vals, g = trial, g_trial
                energy = min(energy, e_trial)
                dt = min(dt * 1.05, 2.0)
                break
            dt *= 0.5
        else:
            stalled = True
            break

    if opts.momentum > 0.0 and res > opts.tol:
        vals, extra = _momentum_stage(p, vals, opts)
        it += extra
        stalled = extra < opts.max_iter  # stopped early: converged or non-finite

    phi_out = ComplexField(grid, vals)
    mu, res = gp_residual(p, phi_out)
    converged = res <= opts.tol
    return GpState(
        phi=phi_out,
        energy=gp_energy(p, phi_out),
        mu=mu,
        residual=res,
        iterations=it,
        converged=converged,
        boundary_ok=boundary_decay_ok(phi_out),
        termination=("converged" if converged
                     else "stalled" if stalled else "max_iter"),
    )


def gp_minimize(
    p: GpProblem,
    init="gaussian",
    opts: Optional[GpSolverOptions] = None,
    init_list=None,
) -> GpState:
    """Minimize the GP functional; best state over restarts.

    init_list, when given, is the explicit list of starting strategies (one
    restart each); otherwise `init` is used for the first restart and
    'random' for the remaining opts.restarts - 1.
    """
    opts = opts or GpSolverOptions()
    rng = np.random.default_rng(opts.seed)
    if init_list is None:
        init_list = [init] + ["random"] * (opts.restarts - 1)
    best = None
    energies = []
    for strat in init_list:
        phi0 = initial_field(p, strat, rng)
        state = _descend(p, phi0, opts)
        energies.append(state.energy)
        if best is None or state.energy < best.energy - 1e-12:
            best = state
    best.restart_energies = energies
    return best
