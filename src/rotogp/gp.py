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
The loop hands back, with the iterate it stopped on, that iterate's mu, the
residual ||g - mu phi|| its tol test reads and the stop reason, so no apply
follows it.  gp_minimize descends from each of a list of start specs,
"gaussian", "random", "vortex:q" or a given field (one grammar, which
initial_field parses), and keeps the lowest state.

The CG loop writes in place wherever it can, and keeps every floating-point
operation's operands and order, so its iterates are bitwise those of the
plain expressions (tests/test_gp_inplace.py keeps them as references):
    - gp_gradient adds V phi, then 8 pi a |phi|^2 phi (the product written
      as before), to the kinetic term with +=;
    - V, (1 + k^2)^{-1} and D are cast to complex once per problem, solve
      and rebuild: the cast numpy's multiply makes of a real factor;
    - the preconditioner forms z = D r, then applies fftn, *= (1 + k^2)^{-1},
      ifftn (fields.apply_multiplier, fftn's 1D calls) and *= D to z itself;
    - beta (d - c vals) - z is d -= c vals, d *= beta, d -= z; vals + t d
      is trial = t d, trial += vals, then scaled to unit norm by a real
      multiply of its float view (_normalize); the residual r_t = g_t - c
      trial (c the energy's Re<trial, g_t>) is subtracted in g_t's own
      array, which is not read again;
    - the loop's scalars take math.sqrt and math.isfinite, and its sums
      np.add.reduce, the call np.sum makes, without numpy's wrappers.
Nothing is reassociated or fused (a rounding-level change has moved the
64^2 vortex-pair solve between 376 and 316 iterations) but a trial's
energy, its int |phi|^4 the square of the |trial|^2 _normalize sums: only
the accept test, with its 1e-11 |E| slack, sees that rounding, and
gp_energy keeps norm4_pow4.  Every operator apply goes through
gp_gradient -> apply_gauge_kinetic, and each iteration's preconditioner
makes dim fft and dim ifft calls.
"""

import math
import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .fields import (
    ComplexField,
    GaugeField,
    Grid,
    GridMismatchError,
    apply_gauge_kinetic,
    apply_multiplier,
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
        self.complex_potential = self.potential.astype(complex)  # gp_gradient's V


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
    termination: str                 # "converged", "max_iter", "stalled" or "non_finite"
    restart_energies: list = dc_field(default_factory=list)
    boundary_ok: bool = True
    gradient_evals: int = 0          # operator applies of the minimizer

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


@dataclass
class GpSolverOptions:
    tol: float = 1e-7
    max_iter: int = 20000
    seed: int = 0                    # of the draws of the "random" starts


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


def _gradient_energy(p: GpProblem, vals, quartic):
    """One apply's g, mu = Re<vals, g> and E = mu - 4 pi a quartic (int |vals|^4)."""
    g = gp_gradient(p, ComplexField(p.grid, vals)).values
    mu = p.grid.spacing**p.grid.dim * np.vdot(vals, g).real
    return g, mu, mu - 4.0 * np.pi * p.a * quartic


def gp_gradient(p: GpProblem, phi: ComplexField) -> ComplexField:
    """Unconstrained functional gradient (-i grad + A)^2 phi + V phi + 8 pi a |phi|^2 phi."""
    if phi.grid != p.grid:
        raise GridMismatchError("field grid does not match problem grid")
    out = apply_gauge_kinetic(phi, p.gauge).values
    out += p.complex_potential * phi.values
    out += 8.0 * np.pi * p.a * np.abs(phi.values) ** 2 * phi.values
    return ComplexField(p.grid, out)


def initial_field(p: GpProblem, start, rng) -> ComplexField:
    """Build a starting field from its spec: "gaussian", "random" (a Gaussian
    with phases and amplitudes drawn from rng), "vortex:q" for an integer
    winding q, or a given field.  Each is normalized once, which refuses a
    non-finite or zero field; any other spec is a ValueError."""
    if isinstance(start, ComplexField):
        return start.normalized()
    if start == "gaussian":
        return gaussian_field(p.grid)
    if start == "random":
        base = gaussian_field(p.grid)
        phase = np.exp(2j * np.pi * rng.random(p.grid.shape))
        noise = 1.0 + 0.3 * rng.standard_normal(p.grid.shape)
        return ComplexField(p.grid, base.values * phase * noise).normalized()
    vortex = isinstance(start, str) and re.fullmatch(r"vortex:([+-]?[0-9]+)", start)
    if vortex:
        return vortex_field(p.grid, winding=int(vortex.group(1)))
    raise ValueError(f"start {start!r} is not 'gaussian', 'random', 'vortex:q' or a field")


# Roundoff slack of the energy-monotone acceptance: energy differences drop
# below double precision long before the residual reaches tol, so only
# genuine increases (overstepping) shrink the step.
_SLACK = 1e-11
# CG iterations between rebuilds of the preconditioner weight D; CG restarts
# at each rebuild, since a new D breaks conjugacy.  On the 64^2 vortex pair,
# rebuilding every iteration takes 6242 iterations against 376; never
# rebuilding leaves the 96^2 multivortex at residual 1e-3 after 40000.
_REBUILD = 50
# the first trial step of the line search; later steps follow the secant
_FIRST_STEP = 0.9


def _precond_weight(p: GpProblem, vals):
    """D = (1 + V + 8 pi a |phi|^2)^{-1/2} of the preconditioner D (1 - Lap)^{-1} D."""
    return 1.0 / np.sqrt(1.0 + p.potential + 8.0 * np.pi * p.a * np.abs(vals) ** 2)


def _precondition(r, dw, kp):
    """z = D (1 - Lap)^{-1} D r, the n-D transform pair in place."""
    z = apply_multiplier(dw * r, kp)
    z *= dw
    return z


def _normalize(trial, w):
    """Scale the complex array trial to unit norm in place and return its new
    int |trial|^4; None, trial untouched, unless its norm is finite and > 0.

    The scale is a real multiply of trial's float view.  numpy divides a
    complex array by a real c as (re + im 0) (1/c) and (im - re 0) (1/c):
    the same values, and the same bits but that a -0.0 may come out +0.0.
    The quartic squares |trial|^2 times the scale squared: each term <= 1/w.
    """
    sq = np.abs(trial) ** 2
    norm_sq = w * np.add.reduce(sq, axis=None)
    # a finite, positive sum of squares means every entry is finite
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        return None
    scale = 1.0 / math.sqrt(norm_sq)
    re_im = trial.view(float)
    re_im *= scale
    sq *= scale * scale
    return w * np.add.reduce(np.square(sq, out=sq), axis=None)


def _conjugate_gradient(p: GpProblem, vals, opts: GpSolverOptions):
    """Preconditioned nonlinear CG (Polak-Ribiere+) on the unit sphere.

    Returns (vals, mu, residual, iterations, gradient evaluations,
    termination), mu = Re<vals, g> and residual = ||g - mu vals|| from the
    gradient g of the returned vals, the residual the tol test reads.  The
    termination is "converged" whenever that residual is <= tol, and
    otherwise "stalled" when the step collapsed, "non_finite" when a trial's
    norm or energy was not finite (vals is then the last finite iterate), or
    "max_iter".  The trial (vals + t d)/|vals + t d| is accepted unless its
    energy rises above the roundoff slack.  The next step is the root of a
    secant on the directional derivative s(t) = 2 Re<r(t), d>, which each
    trial's gradient gives for free, clamped to [t/4, 4t] after an accepted
    trial and to [t/10, t/2] after a rejected one.
    """
    w = p.grid.spacing**p.grid.dim
    kp = (1.0 / (1.0 + p.grid.ksq())).astype(complex)
    g, mu, energy = _gradient_energy(p, vals, norm4_pow4(ComplexField(p.grid, vals)))
    r = g - mu * vals
    res = math.sqrt(w * np.vdot(r, r).real)
    evals, t, it = 1, _FIRST_STEP, 0
    while it < opts.max_iter:
        it += 1
        if res <= opts.tol:
            break
        if (it - 1) % _REBUILD == 0:
            dw, rz_old = _precond_weight(p, vals).astype(complex), None
        z = _precondition(r, dw, kp)
        z -= w * np.vdot(vals, z).real * vals
        rz = w * np.vdot(r, z).real
        if rz_old is None:
            d = -z
        else:
            beta = max(0.0, (rz - w * np.vdot(r_old, z).real) / rz_old)
            d -= w * np.vdot(vals, d).real * vals
            d *= beta
            d -= z
        slope = 2.0 * w * np.vdot(r, d).real
        if slope >= 0.0:  # not a descent direction: restart
            d, slope = -z, -2.0 * rz
        r_old, rz_old = r, rz
        while t > 1e-12:
            trial = t * d
            trial += vals
            if (quartic := _normalize(trial, w)) is None:
                return vals, mu, res, it, evals, "non_finite"
            g_t, mu_t, e_t = _gradient_energy(p, trial, quartic)
            evals += 1
            if not math.isfinite(e_t):
                return vals, mu, res, it, evals, "non_finite"
            r_t = g_t
            r_t -= mu_t * trial
            s_t = 2.0 * w * np.vdot(r_t, d).real
            root = t * slope / (slope - s_t) if s_t > slope else np.inf
            if e_t <= energy + _SLACK * max(1.0, abs(energy)):
                vals, r, mu, energy = trial, r_t, mu_t, min(energy, e_t)
                res = math.sqrt(w * np.vdot(r, r).real)
                t = min(max(root, 0.25 * t), 4.0 * t)
                break
            t = min(max(root, 0.1 * t), 0.5 * t)
        else:
            return vals, mu, res, it, evals, "stalled"
    return vals, mu, res, it, evals, "converged" if res <= opts.tol else "max_iter"


def gp_minimize(p: GpProblem, starts=("gaussian",),
                opts: Optional[GpSolverOptions] = None) -> GpState:
    """Minimize the GP functional from each start spec in turn (see
    initial_field); the lowest state, with every start's final energy.

    The "random" starts draw, in order, from one default_rng(opts.seed).
    """
    if isinstance(starts, (str, ComplexField)):  # a str iterates its characters
        raise ValueError(f"starts must be a list of start specs, got one "
                         f"{type(starts).__name__}")
    opts = opts or GpSolverOptions()
    if not opts.tol > 0:
        raise ValueError(f"tol must be positive, got {opts.tol}")
    rng = np.random.default_rng(opts.seed)
    best = None
    energies = []
    for start in starts:
        vals, mu, res, it, evals, termination = _conjugate_gradient(
            p, initial_field(p, start, rng).values, opts)
        phi = ComplexField(p.grid, vals)
        state = GpState(phi=phi, energy=gp_energy(p, phi), mu=mu, residual=res,
                        iterations=it, termination=termination,
                        boundary_ok=boundary_decay_ok(phi), gradient_evals=evals)
        energies.append(state.energy)
        if best is None or state.energy < best.energy - 1e-12:
            best = state
    if best is None:
        raise ValueError("need at least one start")
    best.restart_energies = energies
    return best
