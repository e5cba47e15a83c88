"""Rotating Gross-Pitaevskii functional: energy, gradient, minimization.

Energy of a normalized field phi:

    E[phi] = <phi| (-i grad + A)^2 + V |phi> + 4 pi a int |phi|^4,

with A = (1/2) Omega ^ x and the trap V taken as-is (any centrifugal
subtraction is the caller's business).  Minimization is preconditioned
nonlinear conjugate gradient (Polak-Ribiere+) on the unit sphere, with the
preconditioner D (1 - Laplacian)^{-1} D, D = (1 + V + 8 pi a |phi|^2)^{-1/2},
and an energy-monotone secant line search; its fixed points are exactly
the solutions of the GP equation.  Each line-search trial costs one
operator apply: its gradient g gives its energy as
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
        if not np.all(np.isfinite(self.potential)):
            raise ValueError("trap potential must be finite")
        if np.min(self.potential) < 0:
            raise ValueError("trap potential must be nonnegative")
        if not 0 <= self.a < np.inf:
            raise ValueError("coupling a must be nonnegative and finite")
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
    termination: str = "converged"   # or "max_iter", "stalled" (dt collapsed),
                                     # "non_finite" (a trial was not finite)
    gradient_evals: int = 0          # operator applies of the minimizer


@dataclass
class GpSolverOptions:
    dt: float = 0.9
    tol: float = 1e-7
    max_iter: int = 20000
    restarts: int = 1
    seed: int = 0


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


def gp_residual(p: GpProblem, phi: ComplexField):
    """(mu, ||grad - mu phi||_2), the GP-equation defect of phi."""
    grad = gp_gradient(p, phi)
    mu = inner(phi, grad).real
    defect = ComplexField(p.grid, grad.values - mu * phi.values)
    return mu, norm(defect)


def initial_field(p: GpProblem, strategy, rng) -> ComplexField:
    """Build a starting field: 'gaussian', 'random', or ('vortex', q)."""
    if isinstance(strategy, ComplexField):
        if not np.all(np.isfinite(strategy.values)):
            raise ValueError("starting field is not finite")
        if not norm(strategy) > 0:
            raise ValueError("starting field has zero norm")
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


# Roundoff slack of the energy-monotone acceptance: energy differences drop
# below double precision long before the residual reaches tol, so only
# genuine increases (overstepping) shrink the step.
_SLACK = 1e-11
# CG iterations between rebuilds of the preconditioner weight D; CG restarts
# at each rebuild, since a new D breaks conjugacy.  On the 64^2 vortex pair,
# rebuilding every iteration takes 6242 iterations against 376; never
# rebuilding leaves the 96^2 multivortex at residual 1e-3 after 40000.
_REBUILD = 50


def _precond_weight(p: GpProblem, vals):
    """D = (1 + V + 8 pi a |phi|^2)^{-1/2} of the preconditioner D (1 - Lap)^{-1} D."""
    return 1.0 / np.sqrt(1.0 + p.potential + 8.0 * np.pi * p.a * np.abs(vals) ** 2)


def _conjugate_gradient(p: GpProblem, vals, opts: GpSolverOptions):
    """Preconditioned nonlinear CG (Polak-Ribiere+) on the unit sphere.

    Returns (vals, iterations, gradient evaluations, stop): stop is
    "stalled" when the step collapsed, "non_finite" when a trial's norm or
    energy was not finite (vals is then the last finite iterate), and None
    otherwise.  The trial (vals + t d)/|vals + t d| is accepted unless its
    energy rises above the roundoff slack.  The next step is the root of a
    secant on the directional derivative s(t) = 2 Re<r(t), d>, which each
    trial's gradient gives for free, clamped to [t/4, 4t] after an accepted
    trial and to [t/10, t/2] after a rejected one.
    """
    w = p.grid.spacing**p.grid.dim
    kp = 1.0 / (1.0 + p.grid.ksq())
    g, energy = _gradient_energy(p, vals)
    r = g - w * np.vdot(vals, g).real * vals
    evals, t, it = 1, opts.dt, 0
    while it < opts.max_iter:
        it += 1
        if np.sqrt(w * np.vdot(r, r).real) <= opts.tol:
            break
        if (it - 1) % _REBUILD == 0:
            dw, rz_old = _precond_weight(p, vals), None
        z = dw * np.fft.ifftn(kp * np.fft.fftn(dw * r))
        z -= w * np.vdot(vals, z).real * vals
        rz = w * np.vdot(r, z).real
        if rz_old is None:
            d = -z
        else:
            beta = max(0.0, (rz - w * np.vdot(r_old, z).real) / rz_old)
            d = beta * (d - w * np.vdot(vals, d).real * vals) - z
        slope = 2.0 * w * np.vdot(r, d).real
        if slope >= 0.0:  # not a descent direction: restart
            d, slope = -z, -2.0 * rz
        r_old, rz_old = r, rz
        while t > 1e-12:
            trial = vals + t * d
            # a finite, positive sum of squares means every entry is finite
            norm_sq = w * np.sum(np.abs(trial) ** 2)
            if not (np.isfinite(norm_sq) and norm_sq > 0.0):
                return vals, it, evals, "non_finite"
            trial /= np.sqrt(norm_sq)
            g_t, e_t = _gradient_energy(p, trial)
            evals += 1
            if not np.isfinite(e_t):
                return vals, it, evals, "non_finite"
            r_t = g_t - w * np.vdot(trial, g_t).real * trial
            s_t = 2.0 * w * np.vdot(r_t, d).real
            root = t * slope / (slope - s_t) if s_t > slope else np.inf
            if e_t <= energy + _SLACK * max(1.0, abs(energy)):
                vals, r, energy = trial, r_t, min(energy, e_t)
                t = min(max(root, 0.25 * t), 4.0 * t)
                break
            t = min(max(root, 0.1 * t), 0.5 * t)
        else:
            return vals, it, evals, "stalled"
    return vals, it, evals, None


def _descend(p: GpProblem, phi: ComplexField, opts: GpSolverOptions) -> GpState:
    """Minimize by CG from one start."""
    vals, it, evals, stop = _conjugate_gradient(p, phi.values, opts)
    phi_out = ComplexField(p.grid, vals)
    mu, res = gp_residual(p, phi_out)
    converged = res <= opts.tol and stop != "non_finite"
    return GpState(
        phi=phi_out,
        energy=gp_energy(p, phi_out),
        mu=mu,
        residual=res,
        iterations=it,
        converged=converged,
        boundary_ok=boundary_decay_ok(phi_out),
        termination="converged" if converged else stop or "max_iter",
        gradient_evals=evals,
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
    if opts.restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {opts.restarts}")
    if not opts.tol > 0:
        raise ValueError(f"tol must be positive, got {opts.tol}")
    rng = np.random.default_rng(opts.seed)
    if init_list is None:
        init_list = [init] + ["random"] * (opts.restarts - 1)
    best = None
    energies = []
    for strat in init_list:
        phi0 = initial_field(p, strat, rng)
        if not np.all(np.isfinite(phi0.values)):
            raise ValueError("starting field is not finite")
        state = _descend(p, phi0, opts)
        energies.append(state.energy)
        if best is None or state.energy < best.energy - 1e-12:
            best = state
    best.restart_energies = energies
    return best
