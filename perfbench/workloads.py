"""The workloads: their CLI jobs, seeded inputs and output checks.

A job is one `rotogp.cli.main(argv)` call.  Its argv may hold `{out}` (the
job's own output directory), `{in}` (the seeded inputs) and `{job:NAME}`
(the output directory of job NAME earlier in the same pass).  After a run,
`extract` reads the values a job is judged on from its output files and
`check` returns a list of problems, comparing with the values recorded at
the seed commit in references.json (committed data; see README.md).  An
empty list means the job produced the output it should.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

DEFAULT_SEED = 0
GP_TOL = 1e-7  # the solver tolerance every GP job runs with
REFERENCES = Path(__file__).with_name("references.json")

FOCK_MODES, FOCK_NMAX, FOCK_SECTORS = 6, 8, range(2, 9)
SYMBOL_OPS = {"n": "adag a", "nn": "adag adag a a", "n3": "adag adag a"}
SYMBOL_Z = 0.7 + 0.2j  # the CLI's default --z


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    extract: Callable[[Path], dict]
    check: Callable[[int, dict, Optional[dict]], list]
    seeded: bool = False  # its reference holds only for DEFAULT_SEED


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    targets: tuple  # prefixes of the per-layer metrics it is meant to move


# -- reading outputs ---------------------------------------------------------

def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _complex(v):
    return complex(v["re"], v["im"])


# -- comparisons -------------------------------------------------------------

def _near(problems, what, value, expected, tol):
    if not abs(value - expected) <= tol:
        problems.append(f"{what} = {value!r}, expected {expected!r} within {tol:g}")


def _rel(problems, what, value, expected, rel):
    _near(problems, what, value, expected, rel * max(1.0, abs(expected)))


def _equal(problems, what, value, expected):
    if value != expected:
        problems.append(f"{what} = {value!r}, expected {expected!r}")


def _exit_ok(rc):
    return [] if rc == 0 else [f"exit code {rc}"]


# -- GP jobs -----------------------------------------------------------------

def _gp_solve(name, flags, winding):
    def extract(out):
        r = _json(out / "results.json")
        return {k: r[k] for k in ("energy", "residual", "converged", "winding")}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        if not v["converged"] or not v["residual"] <= GP_TOL:
            p.append(f"not converged: residual {v['residual']!r}")
        _equal(p, "winding", v["winding"], winding)
        if ref:
            _rel(p, "energy", v["energy"], ref["energy"], GP_TOL)
        return p

    return Job(name, ("solve-gp", *flags, "--out", "{out}"), extract, check)


def _gp_scan(name, flags, csv_name):
    def extract(out):
        cols = _csv_columns(out / csv_name)
        return {"energy": cols["energy"],
                "total_winding": [int(w) for w in cols["total_winding"]]}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        if ref:
            _equal(p, "total_winding", v["total_winding"], ref["total_winding"])
            _equal(p, "scan points", len(v["energy"]), len(ref["energy"]))
            for i, (e, e_ref) in enumerate(zip(v["energy"], ref["energy"])):
                _rel(p, f"energy[{i}]", e, e_ref, GP_TOL)
        return p

    return Job(name, (name, *flags, "--out", "{out}"), extract, check)


def _analyze(name, source_job, winding):
    def extract(out):
        r = _json(out / "vortex_report.json")
        return {"norm": r["norm"], "total_winding": r["total_winding"],
                "vortices": len(r["vortices"])}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        _equal(p, "total_winding", v["total_winding"], winding)
        _near(p, "norm", v["norm"], 1.0, 1e-8)
        return p

    argv = ("analyze", "--field", f"{{job:{source_job}}}/field.f64", "--out", "{out}")
    return Job(name, argv, extract, check)


# -- certificate jobs --------------------------------------------------------

def _scattering():
    radius, height = 1.0, 50.0
    kappa = math.sqrt(2.0 * height)
    exact = radius - math.tanh(kappa * radius) / kappa

    def extract(out):
        r = _json(out / "results.json")
        return {"a": r["a"], "residual": r["residual"]}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        _rel(p, "a (closed form)", v["a"], exact, 1e-8)
        return p

    argv = ("scattering", "--potential", "square", str(radius), str(height),
            "--out", "{out}")
    return Job("scattering.square", argv, extract, check)


def _dyson():
    keys = ("a", "a_N", "int_UR", "int_wR", "slope", "min_eig", "kappa",
            "e_spectrum", "dyson_passed")

    def extract(out):
        r = _json(out / "results.json")
        return {k: r[k] for k in keys}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        _rel(p, "int_UR (4 pi)", v["int_UR"], 4.0 * math.pi, 1e-2)
        if ref:
            for k in ("a", "a_N", "int_UR", "int_wR", "kappa"):
                _rel(p, k, v[k], ref[k], 1e-6)
            _near(p, "slope", v["slope"], ref["slope"], 1e-6)
            _near(p, "min_eig", v["min_eig"], ref["min_eig"], 1e-7)
            _equal(p, "e_spectrum length", len(v["e_spectrum"]), len(ref["e_spectrum"]))
            for i, (e, e_ref) in enumerate(zip(v["e_spectrum"], ref["e_spectrum"])):
                _near(p, f"e_spectrum[{i}]", e, e_ref, 1e-6)
            _equal(p, "dyson_passed", v["dyson_passed"], ref["dyson_passed"])
        return p

    return Job("dyson-check", ("dyson-check", "--out", "{out}"), extract, check)


def _heat(name, flags, known_failure=False):
    def extract(out):
        r = _json(out / "results.json")
        return {k: r[k] for k in ("int_h", "max_violation", "trace_value", "converged")}

    def check(rc, v, ref):
        p = []
        _near(p, "int_h", v["int_h"], 1.0, 1e-6)
        violated = not v["max_violation"] <= 0
        if known_failure and violated and ref:
            # the seed's known failure: exit 1 with this violation; it still
            # counts in fail_frac, but reproducing it is the expected output
            _near(p, "max_violation", v["max_violation"], ref["max_violation"],
                  1e-3 * ref["max_violation"])
            _equal(p, "exit code", rc, 1)
        else:
            p += _exit_ok(rc)
            if violated:
                p.append(f"max_violation = {v['max_violation']!r} > 0")
            if known_failure:
                # fixed: the trace integral shares the bound's grid, so the
                # seed's (diverged) trace value no longer applies
                return p
        if ref:
            _rel(p, "trace_value", v["trace_value"], ref["trace_value"], 1e-6)
            _equal(p, "converged", v["converged"], ref["converged"])
        return p

    return Job(name, ("heat-bound", *flags, "--out", "{out}"), extract, check)


def _fock(n):
    def extract(out):
        r = _json(out / "results.json")
        return {k: r[k] for k in ("energy", "residual", "dimension", "sector_dimension")}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        if not v["residual"] <= 1e-8:
            p.append(f"residual {v['residual']!r} > 1e-8")
        _equal(p, "dimension", v["dimension"], math.comb(FOCK_NMAX + FOCK_MODES, FOCK_MODES))
        _equal(p, "sector_dimension", v["sector_dimension"],
               math.comb(n + FOCK_MODES - 1, FOCK_MODES - 1))
        if ref:
            _rel(p, "energy", v["energy"], ref["energy"], 1e-9)
        return p

    argv = ("fock-ed", "--J", str(FOCK_MODES), "--Nmax", str(FOCK_NMAX),
            "--sector", str(n), "--W-file", f"{{in}}/W_N{n}.npy", "--out", "{out}")
    return Job(f"fock-ed.N{n}", argv, extract, check, seeded=True)


def _symbols(tag, op):
    p_deg, q_deg = op.split().count("adag"), op.split().count("a")
    z, zb = SYMBOL_Z, SYMBOL_Z.conjugate()
    lower = zb**p_deg * z**q_deg
    # anti-Wick (upper) symbols of the three monomials
    upper = {(1, 1): abs(z) ** 2 - 1,
             (2, 2): abs(z) ** 4 - 4 * abs(z) ** 2 + 2,
             (2, 1): zb**2 * z - 2 * zb}[(p_deg, q_deg)]

    def extract(out):
        r = _json(out / "results.json")
        return {"lower": r["lower_symbol"], "upper": r["upper_symbol"],
                "errors": [r["identity_error"], r["reconstruction_error"]]}

    def check(rc, v, ref):
        p = _exit_ok(rc)
        _near(p, "lower symbol", _complex(v["lower"]), lower, 1e-12)
        _near(p, "upper symbol", _complex(v["upper"]), upper, 1e-12)
        return p

    argv = ("symbols-check", "--op", op, "--Nmax", "12", "--nodes", "96",
            "--out", "{out}")
    return Job(f"symbols-check.{tag}", argv, extract, check)


# -- the workloads -----------------------------------------------------------

_VORTEX_PAIR = ("--dim", "2", "--n", "64", "--box", "16", "--omega", "-0.9",
                "--a", "20", "--init", "vortex:2")
_README_2D = ("--dim", "2", "--n", "64", "--box", "14", "--omega", "-0.9",
              "--a", "8", "--init", "vortex:1")
_SCAN_OMEGA = ("--dim", "2", "--n", "48", "--box", "14", "--a", "8",
               "--omega-min", "-0.3", "--omega-max", "-0.95", "--num", "4",
               "--init", "vortex:1")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "vortex2d",
            (
                _gp_solve("solve-gp.pair", _VORTEX_PAIR, winding=2),
                _analyze("analyze.pair", "solve-gp.pair", winding=2),
                _gp_solve("solve-gp.readme", _README_2D, winding=1),
                _gp_scan("scan-omega", _SCAN_OMEGA, "scan_omega.csv"),
            ),
            ("fields.", "gp.", "analysis.", "cli."),
        ),
        Workload(
            "certify",
            (
                _scattering(),
                _dyson(),
                _heat("heat-bound.d1", ()),
                _heat("heat-bound.d3", ("--dim", "3")),
                _heat("heat-bound.log", ("--V", "log", "2.0", "--alpha", "0.1"),
                      known_failure=True),
                *(_fock(n) for n in FOCK_SECTORS),
                *(_symbols(tag, op) for tag, op in SYMBOL_OPS.items()),
            ),
            ("scattering.", "dyson.", "heatkernel.", "fock.", "cli."),
        ),
    )
}


def subcommand(job: Job) -> str:
    return job.argv[0]


def make_inputs(workload: Workload, seed: int, inputs: Path):
    """Write the seeded inputs; only the Fock two-body tensors depend on seed.

    u is a random symmetric J x J matrix; W = pair_interaction_tensor(u, 0.4/N)
    for each sector N, saved as .npy for `fock-ed --W-file`.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    if not any(j.seeded for j in workload.jobs):
        return
    from rotogp.fock import pair_interaction_tensor

    g = np.random.default_rng(seed).standard_normal((FOCK_MODES, FOCK_MODES))
    u = 0.5 * (g + g.T)
    for n in FOCK_SECTORS:
        np.save(inputs / f"W_N{n}.npy", pair_interaction_tensor(u, 0.4 / n))


def expand_argv(job: Job, out: Path, inputs: Path, pass_dir: Path):
    def fill(arg):
        if arg.startswith("{job:"):
            name, rest = arg[5:].split("}", 1)
            return str(pass_dir / name) + rest
        return arg.replace("{out}", str(out)).replace("{in}", str(inputs))

    return [fill(a) for a in job.argv]


def load_references():
    return _json(REFERENCES)
