"""Command-line front end: configuration, dispatch, result serialization.

One table, COMMANDS, maps each subcommand to its handler, help line and
config defaults; every config key is also the flag --key, typed from its
default or _FLAG_OVERRIDES.  Every subcommand reads an optional JSON config
(--config), each value parsed as its flag parses it; explicit flags override
file values.  solve-gp and the scans hand gp.gp_minimize one list of starts:
--init, in gp's start grammar, then --restarts - 1 "random" ones.

A handler returns (record, verdicts): the values it reports (None if it
writes only its own artifacts) and, per check, the record key it judges
mapped to pass or fail.  main writes each record to results.json between
the effective config and the verdicts, so a run is reproducible from its
artifacts alone, and holds the one exit rule: 0 when every verdict passes;
1 when one fails, or on a numerical failure (LinAlgError, ArithmeticError);
2 on a configuration error, which is any ValueError or OSError, because
every ValueError the library raises comes from an input check.  The --out
directory is made at the first artifact written, so a refused run leaves
none behind.  Artifacts are written by json.dump, whose repr of each float
round-trips it exactly.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

# Certificate modules pull in scipy; each is imported by the subcommand that
# runs it, so the numpy-only GP path starts without them.
from . import analysis, fields, gp, scattering


# ---------------------------------------------------------------------------
# serialization and config plumbing
# ---------------------------------------------------------------------------

def _plain(obj):
    """json.dump's fallback for numpy values and complex numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _artifact(out, name):
    """The path out/name, making the directory out on the first write."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=_plain)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(json.dumps(v, default=_plain) for v in row) + "\n")


def _config_value(key, val, spec):
    """A config-file value as the flag --key (argparse kwargs spec) parses it:
    a JSON value of the flag's type (an int where a float is due, never a
    bool); for a list key, a nonempty list of them, where numbers stand for
    string tokens too, or one string of whitespace-separated tokens."""
    kind, many = spec.get("type", str), "nargs" in spec
    if many and isinstance(val, str):
        items, accepted = val.split(), str
    else:
        items = val if many else [val]
        accepted = {int: int, float: (int, float), str: (str, int, float) if many else str}[kind]
    if not (isinstance(items, list) and items and all(
            isinstance(v, accepted) and not isinstance(v, bool) for v in items)):
        raise ValueError(f"{key} must be {'a list of' if many else 'a'} {kind.__name__}, "
                         f"got {val!r}")
    try:
        items = [kind(v) for v in items]
    except OverflowError:  # an int past the float range
        raise ValueError(f"{key} must be a finite {kind.__name__}, got an int "
                         f"out of its range") from None
    return items if many else items[0]


def _effective_config(args):
    """Table defaults <- config file <- explicit flags, in increasing priority.

    A config-file value is read as its flag reads it (_config_value), or is
    null where the default is.  Every number in the result, list items
    included, must be finite: a float neither inf nor nan, and an int, from
    a flag or a file, within the float range, since the first float
    operation on a larger one would fail mid-run.
    """
    cfg = dict(args.defaults)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            default = args.defaults[key]
            if val is not None or default is not None:
                cfg[key] = _config_value(key, val, _flag_kwargs(key, default))
    for key in args.defaults:
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            cfg[key] = val
    for key, val in cfg.items():
        for v in val if isinstance(val, list) else [val]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v}")
            if isinstance(v, int) and abs(v) > sys.float_info.max:
                raise ValueError(f"{key} must be finite, got an int past the float range")
    return cfg


# ---------------------------------------------------------------------------
# solve-gp / scans / analyze
# ---------------------------------------------------------------------------

def _build_problem(cfg):
    grid = fields.Grid(cfg["dim"], cfg["n"], cfg["box"])
    if cfg["trap"] == "harmonic":
        V = grid.radius_sq()
    elif cfg["trap"].startswith("file:"):
        V = np.load(cfg["trap"][5:])
    else:
        raise ValueError("trap must be 'harmonic' or 'file:<path.npy>'")
    return gp.GpProblem(grid, V, cfg["omega"], cfg["a"])


def _solve(cfg):
    problem = _build_problem(cfg)
    if cfg["restarts"] < 1:
        raise ValueError(f"--restarts must be at least 1, got {cfg['restarts']}")
    starts = [cfg["init"]] + ["random"] * (cfg["restarts"] - 1)
    opts = gp.GpSolverOptions(tol=cfg["tol"], seed=cfg["seed"])
    return problem, gp.gp_minimize(problem, starts, opts)


def cmd_solve_gp(cfg, out):
    t0 = time.perf_counter()
    problem, state = _solve(cfg)
    record = {
        "energy": state.energy,
        "mu": state.mu,
        "residual": state.residual,
        "Lz": analysis.angular_momentum_z(state.phi),
        "winding": (
            analysis.total_vortex_charge(state.phi)
            if problem.grid.dim == 2 else None
        ),
        "converged": state.converged,
        "termination": state.termination,
        "boundary_ok": state.boundary_ok,
        "restart_energies": state.restart_energies,
        "iterations": state.iterations,
        "gradient_evals": state.gradient_evals,
        "tolerance": cfg["tol"],
        "seconds": time.perf_counter() - t0,
    }
    fields.write_field(state.phi, _artifact(out, "field.f64"), omega=problem.omega)
    return record, {"converged": state.converged}


def _scan(cfg, out, key):
    """scan-omega and scan-a: one solve at each of --num values of key,
    evenly spaced from --<key>-min to --<key>-max."""
    values = np.linspace(cfg[f"{key}-min"], cfg[f"{key}-max"], cfg["num"])
    if values.size < 1:
        raise ValueError("--num must be at least 1")
    rows = []
    all_ok = True
    for val in values:
        run_cfg = dict(cfg)
        run_cfg[key] = float(val)
        _, state = _solve(run_cfg)
        all_ok &= state.converged
        winding = analysis.total_vortex_charge(state.phi) if run_cfg["dim"] == 2 else None
        rows.append((val, state.energy, state.mu,
                     analysis.angular_momentum_z(state.phi), winding))
    _write_csv(_artifact(out, f"scan_{key}.csv"),
               ["parameter", "energy", "mu", "Lz", "total_winding"], rows)
    return None, {"converged": all_ok}


def cmd_analyze(cfg, out):
    if not cfg["field"]:
        raise ValueError("analyze requires --field <dump>")
    phi, omega = fields.read_field(cfg["field"])
    report = {
        "dim": phi.grid.dim,
        "n": phi.grid.n,
        "L": phi.grid.length,
        "omega": omega,
        "norm": fields.norm(phi),
        "Lz": analysis.angular_momentum_z(phi),
    }
    if phi.grid.dim == 2:
        vortices = analysis.detect_vortices(phi)
        report["vortices"] = [
            {"i": int(i), "j": int(j), "charge": int(q)} for i, j, q in vortices
        ]
        report["total_winding"] = int(sum(q for _, _, q in vortices))
    _write_json(_artifact(out, "vortex_report.json"), report)
    return None, {}


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def _parse_potential(tokens):
    if not tokens:
        raise ValueError("missing --potential specification")
    kind = tokens[0]
    if kind == "hardcore" and len(tokens) == 2:
        return scattering.hard_sphere(float(tokens[1]))
    if kind == "square" and len(tokens) == 3:
        return scattering.square_barrier(float(tokens[1]), float(tokens[2]))
    if kind == "file" and len(tokens) == 2:
        if (data := np.asarray(np.load(tokens[1]))).ndim != 2 or len(data) != 2:
            raise ValueError(f"need a (2, n) array of radii and values, got shape {data.shape}")
        return scattering.from_samples(*data)
    raise ValueError(
        "potential must be 'hardcore R0', 'square R0 W0', or 'file <path.npy>'"
    )


def cmd_scattering(cfg, out):
    pot = _parse_potential(cfg["potential"])
    if cfg["scale"] is not None:
        pot = pot.scaled(cfg["scale"])
    a, (lo, hi) = scattering.scattering_length(pot), scattering.scattering_bracket(pot)
    slack = 1e-12 * pot.rrange  # rounding: a = R - u(R)/u'(R) is rounded against R
    return ({"a": a, "a_lower": lo, "a_upper": hi, "residual": (hi - lo) / max(abs(a), 1e-300)},
            {"a": lo - slack <= a <= hi + slack})


# ---------------------------------------------------------------------------
# dyson-check
# ---------------------------------------------------------------------------

def cmd_dyson_check(cfg, out):
    from . import dyson

    pot = (_parse_potential(cfg["potential"]) if cfg["potential"] else
           scattering.square_barrier(cfg["R0"], cfg["W0"]))
    pot_n = pot.scaled(cfg["N"])
    # a(w_N) = a(w) / N: exact in the continuum, and the piece matrices scale with it
    a = scattering.scattering_length(pot)
    a_n = a / cfg["N"]

    chi = dyson.CutoffFunction(cfg["s"])
    sp = dyson.build_soft_potentials(chi, cfg["R"])
    check = dyson.check_dyson_inequality(pot_n, sp, a_n, cfg["eps"])

    scaling = dyson.verify_wr_scaling(cfg["s"])

    problem = gp.harmonic_problem(dim=2, n=cfg["n"], length=cfg["box"])
    k0 = dyson.build_K0(problem, chi, cfg["eta"], cfg["J"])

    record = {
        "a": a,
        "a_N": a_n,
        "int_UR": check["int_UR"],
        "int_wR": sp.int_wR,
        "slope": scaling["slope"],
        "min_eig": check["min_eig"],
        "refinement_drift": check["refinement_drift"],
        "channels": [check["channels"][ell] for ell in sorted(check["channels"])],
        "dyson_passed": check["passed"],
        "kappa": k0.kappa,
        "e_spectrum": k0.e,
    }
    return record, {"dyson_passed": check["passed"],
                    "int_UR": abs(check["int_UR"] - 4 * np.pi) < 1e-2 * 4 * np.pi,
                    "slope": scaling["slope"] >= 1.9,
                    "e_spectrum": np.min(k0.e) >= -1e-8}


# ---------------------------------------------------------------------------
# fock-ed / symbols-check
# ---------------------------------------------------------------------------

def cmd_fock_ed(cfg, out):
    from . import fock

    J, n_max, sector = cfg["J"], cfg["Nmax"], cfg["sector"]
    e = np.asarray(cfg["e"], dtype=float) if cfg["e"] is not None else (
        np.arange(1, J + 1, dtype=float)
    )
    if e.size != J:
        raise ValueError("spectrum must hold J numbers")
    # ModeBasis refuses non-finite entries and a W of the wrong shape
    W = (np.load(cfg["W-file"]) if cfg["W-file"] else
         fock.pair_interaction_tensor(np.eye(J), cfg["g"]))
    modes = fock.ModeBasis(e=e, W=W)
    if not 0 <= sector <= n_max:
        raise ValueError("need 0 <= sector <= Nmax")
    # H conserves particle number: its block on the sector is the same on
    # every truncation that holds the sector, so only the sector is built
    basis = fock.SectorBasis(J, sector)
    H = fock.build_hamiltonian(modes, basis)
    energy, vec = fock.ground_state(H, basis, sector)
    residual = float(np.linalg.norm(H @ vec - energy * vec))
    record = {
        "dimension": math.comb(n_max + J, J),
        "sector_dimension": len(basis),
        "energy": energy,
        "energy_per_particle": energy / max(sector, 1),
        "residual": residual,
    }
    return record, {"residual": residual <= 1e-8}


def _parse_op(text):
    """'adag adag a a' -> (p, q) of the monomial (a^dag)^p a^q, which must be
    normal-ordered and of degree <= 4 (cmd_symbols_check pads the ket by
    four levels)."""
    p = q = 0
    for tok in text.split():
        if tok == "adag":
            if q:
                raise ValueError("--op must be normal-ordered: no adag after an a")
            p += 1
        elif tok == "a":
            q += 1
        elif tok not in ("1", "identity"):
            raise ValueError(f"unknown operator token {tok!r}")
    if p + q > 4:
        raise ValueError("operators beyond degree 4 are not supported")
    return p, q


def cmd_symbols_check(cfg, out):
    from . import fock

    z = complex(cfg["z"].replace("i", "j"))
    p, q = _parse_op(cfg["op"])
    n_max, Z, nodes = cfg["Nmax"], cfg["Z"], cfg["nodes"]
    # coherent_state refuses a z whose Poisson tail P[N > Nmax] exceeds 1e-8
    tail = fock.coherent_state(z, n_max).truncation_error
    # op has degree <= 4: four more levels keep a^q from cutting the ket
    # short, and |<z|op|z> - lower| <= |lower| P[N > Nmax] <= 1e-8 |lower|
    ket = fock.coherent_state(z, n_max + 4).vector
    lower = fock.lower_symbol(p, q, z)
    coherent_err = abs(np.vdot(ket, fock.monomial_matrix(p, q, n_max + 4) @ ket) - lower)
    identity_err, recon_err = fock.verify_resolution([(0, 0), (p, q)], n_max, Z=Z,
                                                     n_angle=nodes)
    record = {
        "lower_symbol": lower,
        "upper_symbol": fock.upper_symbol(p, q, z),
        "identity_error": identity_err,
        "reconstruction_error": recon_err,
        "coherent_error": coherent_err,
        "coherent_tail": tail,
    }
    return record, {"identity_error": identity_err < 1e-6,
                    "reconstruction_error": recon_err < 1e-6,
                    "coherent_error": coherent_err / max(1.0, abs(lower)) < 1e-6}


# ---------------------------------------------------------------------------
# heat-bound
# ---------------------------------------------------------------------------

def cmd_heat_bound(cfg, out):
    from . import heatkernel

    tokens = cfg["V"]
    cfg["V"] = " ".join(tokens)  # echoed as one string
    alpha, s, d = cfg["alpha"], cfg["s"], cfg["dim"]
    if tokens == ["harmonic"]:
        V = heatkernel.harmonic_potential()
    elif tokens[:1] == ["log"] and len(tokens) == 2:
        V = heatkernel.log_potential(float(tokens[1]))
    else:
        raise ValueError("V must be 'harmonic' or 'log C1'")
    xs = np.linspace(0.2, 3.0, 8) if d == 3 else np.linspace(0.0, 3.0, 9)
    brute, modes, drift = heatkernel.brute_diag(V, alpha, xs, d=d)
    bound, bound_error = heatkernel.diag_bound(V, alpha, xs, d=d)
    trace = heatkernel.weighted_trace(V, alpha, s, d=d)
    record = {
        "int_h": heatkernel.h_alpha_integral(alpha, d=d),
        "max_violation": float(np.max(brute - bound)),
        "violation": (brute - bound).tolist(),
        "oracle_modes": modes,
        "oracle_drift": float(drift.max()),
        "drift": drift.tolist(),
        "bound_error": bound_error.tolist(),
        "trace_value": trace["value"],
        "converged": trace["converged"],
    }
    return record, {"max_violation": record["max_violation"] <= 0,
                    "int_h": abs(record["int_h"] - 1) < 1e-6}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_GP_DEFAULTS = {
    "dim": 3, "n": 32, "box": 14.0, "omega": 0.0, "a": 0.0,
    "trap": "harmonic", "init": "gaussian", "restarts": 1,
    "tol": 1e-7, "seed": 0,
}

# subcommand -> (handler, help, config defaults); each key is also --key
COMMANDS = {
    "solve-gp": (cmd_solve_gp, "minimize the GP energy", _GP_DEFAULTS),
    "scan-omega": (functools.partial(_scan, key="omega"), "energy/Lz/winding vs rotation speed",
                   {**_GP_DEFAULTS, "omega-min": 0.0, "omega-max": 0.9, "num": 10}),
    "scan-a": (functools.partial(_scan, key="a"), "energy/mu vs coupling",
               {**_GP_DEFAULTS, "a-min": 0.0, "a-max": 4.0, "num": 9}),
    "analyze": (cmd_analyze, "vortex report from a field dump", {"field": None}),
    "scattering": (cmd_scattering, "zero-energy scattering length",
                   {"potential": None, "scale": None}),
    "dyson-check": (cmd_dyson_check, "soft potentials and operator inequality", {
        "s": 3.5, "R": 0.35, "eps": 0.5, "N": 8.0, "R0": 1.0, "W0": 4.0e4,
        "eta": 1.0, "J": 4, "n": 32, "box": 12.0, "potential": None,
    }),
    "fock-ed": (cmd_fock_ed, "truncated exact diagonalization",
                {"J": 2, "Nmax": 6, "e": None, "W-file": None, "sector": 4, "g": 0.0}),
    "symbols-check": (cmd_symbols_check, "coherent symbol calculus checks",
                      {"op": "adag a", "z": "0.7+0.2j", "Z": 6.0, "nodes": 64,
                       "Nmax": 8}),
    "heat-bound": (cmd_heat_bound, "heat-kernel diagonal bound checks",
                   {"V": ["harmonic"], "alpha": 1.0, "s": 2.0, "dim": 1}),
}

# flags whose default (None) gives no type, and help beyond the key's name
_FLAG_OVERRIDES = {
    "field": {"help": "field dump path (expects <path>.json sidecar)"},
    "potential": {"nargs": "+", "help": "hardcore R0 | square R0 W0 | file <path.npy>"},
    "scale": {"type": float, "help": "evaluate w_N(r) = N^2 w(N r)"},
    "e": {"type": float, "nargs": "+"},
    "V": {"help": "harmonic | log C1"},
}


def _flag_kwargs(key, default):
    if isinstance(default, list):
        kw = {"nargs": "+", "type": type(default[0])}
    else:
        kw = {} if default is None else {"type": type(default)}
    return {**kw, **_FLAG_OVERRIDES.get(key, {})}


def build_parser(only=None):
    """The argument parser; with only naming a subcommand, that one alone.

    argparse builds a subparser per add_parser call, which costs more than
    the parse, so a run builds only its own.  Any other only (None, --help,
    an unknown name) gets every subcommand, so the top-level --help and the
    error for a bad name list them all.
    """
    parser = argparse.ArgumentParser(
        prog="rotogp",
        description="ground-state laboratory for rotating dilute Bose gases",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, defaults) in COMMANDS.items():
        if only in COMMANDS and name != only:
            continue
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="output directory (default: .)")
        for key, default in defaults.items():
            sp.add_argument(f"--{key}", **_flag_kwargs(key, default))
        sp.set_defaults(func=handler, defaults=defaults)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # flags are built for the one subcommand that runs
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = _effective_config(args)
        out = args.out or "."
        record, verdicts = args.func(cfg, out)
        if record is not None:
            _write_json(_artifact(out, "results.json"),
                        {"config": cfg, **record, "verdicts": verdicts})
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    # every ValueError the library raises comes from an input check
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
