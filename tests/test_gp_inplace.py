"""The GP hot path in place: bitwise the old expressions, the same call boundary.

apply_gauge_kinetic, gp_gradient and the CG loop write into arrays they
own instead of allocating a temporary per operation, and take numpy's fast
paths: fftn as its own 1D fft calls, a real multiply of the float view for
complex / real, math.sqrt and math.isfinite on scalars, np.add.reduce for
np.sum, and the real multipliers (k_i + A_i)^2, V, (1 + k^2)^{-1} and D
cast to complex once, the cast numpy's multiply makes on every call.  Every
floating-point operation keeps its operands and its order; a product at
most swaps its two factors, which IEEE multiplication commutes.  So the
results must be equal, not close: the references below are the expressions
the code used before, kept verbatim (the gauge symbols rebuilt real) and
compared with np.array_equal, or bit for bit where no -0.0 can differ.
A reassociated sum or a shared bare-array |phi| would fail here; a
rounding-level change has moved the vortex-pair solve between 376 and 316
CG iterations.  The one value whose rounding did change is a line-search
trial's energy: its int |phi|^4 is the square of the |trial|^2 that the
normalization sums.  It only enters the accept test, and the whole solves
below pin the iterates bitwise to the old loop, which uses the old energy.
"""

import math
from collections import Counter

import numpy as np
import pytest

from rotogp import gp
from rotogp.fields import ComplexField, apply_gauge_kinetic, gaussian_field, inner, norm4_pow4


# -- the expressions before the in-place rewrite -----------------------------

def _real_symbols(A):
    return [(k + a) ** 2 for k, a in zip(A.grid.kvecs(), A.components)]


def _gauge_kinetic_reference(vals, A):
    return sum(np.fft.ifft(sym * np.fft.fft(vals, axis=ax), axis=ax)
               for ax, sym in enumerate(_real_symbols(A)))


def _gradient_reference(p, vals):
    out = _gauge_kinetic_reference(vals, p.gauge)
    out = out + p.potential * vals
    out = out + 8.0 * np.pi * p.a * np.abs(vals) ** 2 * vals
    return out


def _norm4_pow4_reference(f):
    return float(f.grid.spacing**f.grid.dim * np.sum(np.abs(f.values) ** 4))


def _gradient_energy_reference(p, vals):
    f = ComplexField(p.grid, vals)
    g = ComplexField(p.grid, _gradient_reference(p, vals))
    return g.values, inner(f, g).real - 4.0 * np.pi * p.a * _norm4_pow4_reference(f)


def _normalized_reference(trial, w):
    norm_sq = w * np.sum(np.abs(trial) ** 2)
    assert np.isfinite(norm_sq) and norm_sq > 0.0
    return trial / np.sqrt(norm_sq)


def _trial_quartic_reference(trial, w):
    # the normalized trial's int |phi|^4, from the |trial|^2 the norm sums
    sq = np.abs(trial) ** 2
    scale = 1.0 / np.sqrt(w * np.sum(sq))
    return w * np.sum((sq * (scale * scale)) ** 2)


def _precondition_reference(r, dw, kp):
    return dw * np.fft.ifftn(kp * np.fft.fftn(dw * r))


def _conjugate_gradient_reference(p, vals, opts):
    w = p.grid.spacing**p.grid.dim
    kp = 1.0 / (1.0 + p.grid.ksq())
    g, energy = _gradient_energy_reference(p, vals)
    r = g - w * np.vdot(vals, g).real * vals
    evals, t, it = 1, gp._FIRST_STEP, 0
    while it < opts.max_iter:
        it += 1
        if np.sqrt(w * np.vdot(r, r).real) <= opts.tol:
            break
        if (it - 1) % gp._REBUILD == 0:
            dw, rz_old = gp._precond_weight(p, vals), None
        z = _precondition_reference(r, dw, kp)
        z -= w * np.vdot(vals, z).real * vals
        rz = w * np.vdot(r, z).real
        if rz_old is None:
            d = -z
        else:
            beta = max(0.0, (rz - w * np.vdot(r_old, z).real) / rz_old)
            d = beta * (d - w * np.vdot(vals, d).real * vals) - z
        slope = 2.0 * w * np.vdot(r, d).real
        if slope >= 0.0:
            d, slope = -z, -2.0 * rz
        r_old, rz_old = r, rz
        while t > 1e-12:
            trial = vals + t * d
            norm_sq = w * np.sum(np.abs(trial) ** 2)
            if not (np.isfinite(norm_sq) and norm_sq > 0.0):
                return vals, it, evals, "non_finite"
            trial /= np.sqrt(norm_sq)
            g_t, e_t = _gradient_energy_reference(p, trial)
            evals += 1
            if not np.isfinite(e_t):
                return vals, it, evals, "non_finite"
            r_t = g_t - w * np.vdot(trial, g_t).real * trial
            s_t = 2.0 * w * np.vdot(r_t, d).real
            root = t * slope / (slope - s_t) if s_t > slope else np.inf
            if e_t <= energy + gp._SLACK * max(1.0, abs(energy)):
                vals, r, energy = trial, r_t, min(energy, e_t)
                t = min(max(root, 0.25 * t), 4.0 * t)
                break
            t = min(max(root, 0.1 * t), 0.5 * t)
        else:
            return vals, it, evals, "stalled"
    return vals, it, evals, None


# -- fixtures ----------------------------------------------------------------

PROBLEMS = {
    "2d-rotating": lambda: gp.harmonic_problem(2, 32, 12.0, -0.9, 8.0),
    "2d-static": lambda: gp.harmonic_problem(2, 32, 12.0, 0.0, 4.0),
    "3d": lambda: gp.harmonic_problem(3, 16, 10.0, [0.3, -0.2, 0.5], 5.0),
}


def _rough_field(grid, seed):
    """A normalized Gaussian with random phase and amplitude noise."""
    rng = np.random.default_rng(seed)
    base = gaussian_field(grid).values
    noise = (1.0 + 0.3 * rng.standard_normal(grid.shape)) * np.exp(
        2j * np.pi * rng.random(grid.shape))
    return ComplexField(grid, base * noise).normalized()


@pytest.fixture(params=sorted(PROBLEMS))
def problem_and_field(request):
    p = PROBLEMS[request.param]()
    return p, _rough_field(p.grid, seed=len(request.param))


# -- bitwise identity --------------------------------------------------------

def test_gauge_kinetic_is_bitwise_the_summed_expression(problem_and_field):
    p, phi = problem_and_field
    out = apply_gauge_kinetic(phi, p.gauge).values
    assert np.array_equal(out, _gauge_kinetic_reference(phi.values, p.gauge))


def test_gradient_and_energy_are_bitwise_the_old_expressions(problem_and_field):
    p, phi = problem_and_field
    w = p.grid.spacing**p.grid.dim
    before = phi.values.copy()
    assert np.array_equal(gp.gp_gradient(p, phi).values, _gradient_reference(p, phi.values))
    # the start's energy takes norm4_pow4, so it is the old energy bitwise
    g, mu, e = gp._gradient_energy(p, phi.values, norm4_pow4(phi))
    g_ref, e_ref = _gradient_energy_reference(p, phi.values)
    assert np.array_equal(g, g_ref) and e == e_ref
    # mu is the old loop's projection coefficient w Re<phi, g>
    assert mu == w * np.vdot(phi.values, g_ref).real
    assert np.array_equal(phi.values, before)  # the input is never written


def test_trial_energy_is_the_squared_square(problem_and_field):
    # a trial's quartic comes from its normalization's |trial|^2: bitwise the
    # reference expression, and within 4 ulp |E| of the old energy
    p, phi = problem_and_field
    w = p.grid.spacing**p.grid.dim
    for trial in [3.7 * phi.values, phi.values + 0.2 * _rough_field(p.grid, 5).values]:
        quartic_ref = _trial_quartic_reference(trial, w)
        quartic = gp._normalize(trial, w)
        assert quartic == quartic_ref
        g, mu, e = gp._gradient_energy(p, trial, quartic)
        g_old, e_old = _gradient_energy_reference(p, trial)
        assert np.array_equal(g, g_old)
        assert e == w * np.vdot(trial, g_old).real - 4.0 * np.pi * p.a * quartic_ref
        assert abs(e - e_old) <= 4 * np.finfo(float).eps * abs(e_old)


def test_norm4_pow4_is_bitwise_the_old_sum(problem_and_field):
    _, phi = problem_and_field
    assert norm4_pow4(phi) == _norm4_pow4_reference(phi)


def test_normalization_is_bitwise_the_old_division(problem_and_field):
    p, phi = problem_and_field
    w = p.grid.spacing**p.grid.dim
    rng = np.random.default_rng(7)
    # magnitudes from about 1e-130 to 1e130, random signs in both parts
    wide = (rng.standard_normal(p.grid.shape) + 1j * rng.standard_normal(p.grid.shape)) \
        * 10.0 ** rng.uniform(-130, 130, p.grid.shape)
    for trial in [3.7 * phi.values, phi.values + 0.2 * _rough_field(p.grid, 5).values, wide]:
        ref = _normalized_reference(trial, w)
        quartic_ref = _trial_quartic_reference(trial, w)
        quartic = gp._normalize(trial, w)
        assert np.array_equal(trial.view(np.uint64), ref.view(np.uint64))  # sign bits too
        # the quartic neither overflows on the wide trial nor leaves its reference
        assert math.isfinite(quartic) and quartic > 0.0 and quartic == quartic_ref
        assert abs(quartic - norm4_pow4(ComplexField(p.grid, ref))) <= 1e-14 * quartic
    # numpy's division may turn a -0.0 into +0.0; the values stay equal
    zeros = np.array([-0.0 + 1j, complex(-1.0, -0.0), complex(-0.0, -0.0), 2.0 - 3j])
    ref = _normalized_reference(zeros, 1.0)
    assert gp._normalize(zeros, 1.0) is not None and np.array_equal(zeros, ref)
    # a norm that is not finite and positive: refused, the array untouched
    for bad in [np.zeros(4, dtype=complex), np.array([1.0, np.nan, 0.0, 2.0 + 0j]),
                np.array([1.0, 0.0, complex(0.0, -np.inf), 2.0])]:
        before = bad.copy()
        assert gp._normalize(bad, 1.0) is None
        assert np.array_equal(bad, before, equal_nan=True)


def test_complex_multipliers_are_their_real_forms_plus_0j(problem_and_field, monkeypatch):
    # the gauge symbols, V, and the (1 + k^2)^{-1} and D the loop hands the
    # preconditioner: complex arrays holding exactly the real forms
    p, phi = problem_and_field
    seen = []
    precondition = gp._precondition

    def spy(r, dw, kp):
        seen.append((dw, kp))
        return precondition(r, dw, kp)

    monkeypatch.setattr(gp, "_precondition", spy)
    gp._conjugate_gradient(p, phi.values.copy(), gp.GpSolverOptions(max_iter=2))
    dw, kp = seen[0]  # the first iteration builds D at the start
    pairs = [(p.complex_potential, p.potential), (kp, 1.0 / (1.0 + p.grid.ksq())),
             (dw, gp._precond_weight(p, phi.values)),
             *zip(p.gauge.symbols, _real_symbols(p.gauge))]
    for cplx, real in pairs:
        assert cplx.dtype == complex and cplx.shape == p.grid.shape
        assert np.array_equal(cplx.real.view(np.uint64), real.view(np.uint64))
        assert not cplx.imag.view(np.uint64).any()  # +0.0 imaginary parts


def test_complex_times_cast_real_is_bitwise_complex_times_real():
    # numpy has no complex-by-real multiply loop: it casts the real factor
    # to complex and runs the complex loop, so a factor cast once gives the
    # same bits, sign bits and nan included.  (r + 0j is not that cast: it
    # adds +0.0, which turns a -0.0 into +0.0.)
    specials = np.array([0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, 5e-324, 1e300])
    a = np.empty((specials.size, specials.size), dtype=complex)
    a.real, a.imag = specials[:, None], specials[None, :]
    a = a.reshape(-1, 1)
    r = specials[None, :]
    with np.errstate(all="ignore"):  # inf * 0, inf - inf and overflow
        for cast in (r.astype(complex), np.broadcast_to(r.astype(complex), (a.size, r.size))):
            assert np.array_equal((a * r).view(np.uint64), (a * cast).view(np.uint64))
            assert np.array_equal((r * a).view(np.uint64), (cast * a).view(np.uint64))
            in_place = np.repeat(a, r.size, axis=1)
            in_place_cast = in_place.copy()
            in_place *= r
            in_place_cast *= cast
            assert np.array_equal(in_place.view(np.uint64), in_place_cast.view(np.uint64))


def test_loop_scalars_are_bitwise_numpys():
    rng = np.random.default_rng(3)
    for x in 10.0 ** rng.uniform(-300, 300, 200):
        assert math.sqrt(np.float64(x)) == np.sqrt(np.float64(x))
    for x in [np.float64(1.5), np.float64(np.inf), np.float64(-np.inf), np.float64(np.nan)]:
        assert math.isfinite(x) == bool(np.isfinite(x))


def test_preconditioned_step_is_bitwise_the_old_expression(problem_and_field):
    p, phi = problem_and_field
    r = _rough_field(p.grid, seed=11).values
    dw, kp = gp._precond_weight(p, phi.values), 1.0 / (1.0 + p.grid.ksq())
    r_before = r.copy()
    assert np.array_equal(gp._precondition(r, dw, kp), _precondition_reference(r, dw, kp))
    assert np.array_equal(r, r_before)


SOLVES = {
    "20-iterations": (lambda: gp.harmonic_problem(2, 32, 12.0, -0.6, 4.0), "vortex:1", 20),
    "past-a-rebuild": (lambda: gp.harmonic_problem(2, 32, 12.0, -0.6, 4.0), "vortex:1", 60),
    # whole solves to tol: about 300 and 70 iterations
    "vortex-pair-64-converged":
        (lambda: gp.harmonic_problem(2, 64, 16.0, -0.9, 20.0), "vortex:2", 20000),
    "3d-24-converged": (lambda: gp.harmonic_problem(3, 24, 12.0, 0.5, 5.0), "gaussian", 20000),
    # the other vortex2d solve shapes: the README 2D config (about 76
    # iterations) and scan-omega's 48^2 point at Omega = -0.95 (about 62)
    "readme-2d-64-converged":
        (lambda: gp.harmonic_problem(2, 64, 14.0, -0.9, 8.0), "vortex:1", 20000),
    "scan-48-converged": (lambda: gp.harmonic_problem(2, 48, 14.0, -0.95, 8.0), "vortex:1", 20000),
}


@pytest.mark.parametrize("case", list(SOLVES))
def test_cg_iterates_are_bitwise_the_old_loop(case):
    make, spec, max_iter = SOLVES[case]
    p = make()
    start = gp.initial_field(p, spec, None).values
    opts = gp.GpSolverOptions(max_iter=max_iter)
    vals, _, _, it, evals, termination = gp._conjugate_gradient(p, start.copy(), opts)
    vals_ref, it_ref, evals_ref, stop_ref = _conjugate_gradient_reference(p, start.copy(), opts)
    # the reference's stop is None on the exits the loop names by its residual
    stop = None if termination in ("converged", "max_iter") else termination
    assert (it, evals, stop) == (it_ref, evals_ref, stop_ref)
    assert np.array_equal(vals.view(np.uint64), vals_ref.view(np.uint64))
    if max_iter == 20:
        assert it == 20 and termination == "max_iter"  # all 20 iterations ran
    if case.endswith("converged"):
        assert it < max_iter and termination == "converged"  # stopped at tol


# -- the tracer's boundary ---------------------------------------------------

def test_one_gradient_per_trial_and_one_fft_pair_per_iteration(monkeypatch):
    # perfbench counts these calls by name: every operator apply goes through
    # gp.gp_gradient -> fields.apply_gauge_kinetic, and the preconditioner
    # makes one n-D transform pair as dim numpy.fft.fft and dim
    # numpy.fft.ifft calls, with no fftn or ifftn wrapper
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(gp, "gp_gradient", counting("gradient", gp.gp_gradient))
    monkeypatch.setattr(gp, "apply_gauge_kinetic", counting("gauge", apply_gauge_kinetic))
    for name in ("fftn", "ifftn", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    p = gp.harmonic_problem(2, 32, 12.0, -0.6, 4.0)
    start = gp.initial_field(p, "vortex:1", None).values
    *_, it, evals, termination = gp._conjugate_gradient(p, start, gp.GpSolverOptions(max_iter=20))
    assert it == 20 and termination == "max_iter"
    # the start's gradient, then one per line-search trial
    assert counts["gradient"] == counts["gauge"] == evals > it
    assert counts["fftn"] == counts["ifftn"] == 0
    # dim passes each way per iteration (preconditioner) and per apply
    assert counts["fft"] == counts["ifft"] == p.grid.dim * (it + evals)
