"""Command-line front end: configuration, dispatch, result serialization.

Every subcommand reads an optional JSON config (--config); explicit flags
override file values, and the effective config is echoed into the result
so a run is reproducible from its artifacts alone.  All floats are written
with 17 significant digits for bit-exact round-trips.  Exit codes: 0 when
the requested invariant checks pass, 1 on a numerical failure, 2 on a
configuration error.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

# Certificate modules pull in scipy; each is imported by the subcommand that
# runs it, so the numpy-only GP path starts without them.
from . import analysis, fields, gp, scattering


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization: JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps17(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps17(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(dumps17(v, indent) for v in seq) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, complex):
        return dumps17({"re": obj.real, "im": obj.imag}, indent)
    return json.dumps(obj)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps17(obj) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_float(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _effective_config(defaults, args):
    """defaults <- config file <- explicit flags, in increasing priority."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _outdir(args):
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# solve-gp / scans / analyze
# ---------------------------------------------------------------------------

_GP_DEFAULTS = {
    "dim": 3, "n": 32, "box": 14.0, "omega": 0.0, "a": 0.0,
    "trap": "harmonic", "init": "gaussian", "restarts": 1,
    "tol": 1e-7, "seed": 0,
}


def _build_problem(cfg):
    grid = fields.Grid(int(cfg["dim"]), int(cfg["n"]), float(cfg["box"]))
    if cfg["trap"] == "harmonic":
        V = grid.radius_sq()
    elif str(cfg["trap"]).startswith("file:"):
        V = np.load(str(cfg["trap"])[5:])
    else:
        raise ConfigError("trap must be 'harmonic' or 'file:<path.npy>'")
    try:
        return gp.GpProblem(grid, V, float(cfg["omega"]), float(cfg["a"]))
    except ValueError as exc:
        raise ConfigError(f"bad problem: {exc}")


def _init_strategy(spec):
    if isinstance(spec, str) and spec.startswith("vortex:"):
        return ("vortex", int(spec.split(":")[1]))
    return spec


def _solve(cfg):
    problem = _build_problem(cfg)
    opts = gp.GpSolverOptions(
        tol=float(cfg["tol"]), restarts=int(cfg["restarts"]), seed=int(cfg["seed"])
    )
    return problem, gp.gp_minimize(problem, init=_init_strategy(cfg["init"]), opts=opts)


def cmd_solve_gp(args):
    cfg = _effective_config(_GP_DEFAULTS, args)
    out = _outdir(args)
    t0 = time.perf_counter()
    problem, state = _solve(cfg)
    result = {
        "config": cfg,
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
        "tolerance": float(cfg["tol"]),
        "seconds": time.perf_counter() - t0,
    }
    fields.write_field(state.phi, os.path.join(out, "field.f64"),
                       omega=problem.omega)
    _write_json(os.path.join(out, "results.json"), result)
    return 0 if state.converged else 1


def _scan(cfg, key, values, csv_name, out):
    rows = []
    all_ok = True
    for val in values:
        run_cfg = dict(cfg)
        run_cfg[key] = float(val)
        _, state = _solve(run_cfg)
        all_ok &= state.converged
        winding = (
            analysis.total_vortex_charge(state.phi)
            if int(run_cfg["dim"]) == 2 else 0
        )
        rows.append((val, state.energy, state.mu,
                     analysis.angular_momentum_z(state.phi), winding))
    _write_csv(os.path.join(out, csv_name),
               ["parameter", "energy", "mu", "Lz", "total_winding"], rows)
    return 0 if all_ok else 1


def cmd_scan_omega(args):
    cfg = _effective_config({**_GP_DEFAULTS, "omega-min": 0.0, "omega-max": 0.9,
                             "num": 10}, args)
    values = np.linspace(float(cfg["omega-min"]), float(cfg["omega-max"]),
                         int(cfg["num"]))
    return _scan(cfg, "omega", values, "scan_omega.csv", _outdir(args))


def cmd_scan_a(args):
    cfg = _effective_config({**_GP_DEFAULTS, "a-min": 0.0, "a-max": 4.0,
                             "num": 9}, args)
    values = np.linspace(float(cfg["a-min"]), float(cfg["a-max"]), int(cfg["num"]))
    return _scan(cfg, "a", values, "scan_a.csv", _outdir(args))


def cmd_analyze(args):
    if not args.field:
        raise ConfigError("analyze requires --field <dump>")
    try:
        phi, omega = fields.read_field(args.field)
    except ValueError as exc:
        raise ConfigError(f"bad field dump {args.field}: {exc}")
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
    _write_json(os.path.join(_outdir(args), "vortex_report.json"), report)
    return 0


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def _parse_potential(tokens):
    if not tokens:
        raise ConfigError("missing --potential specification")
    kind = tokens[0]
    if kind == "hardcore" and len(tokens) == 2:
        return scattering.hard_sphere(float(tokens[1]))
    if kind == "square" and len(tokens) == 3:
        return scattering.square_barrier(float(tokens[1]), float(tokens[2]))
    if kind == "file" and len(tokens) == 2:
        data = np.load(tokens[1])
        return scattering.from_samples(data[0], data[1])
    raise ConfigError(
        "potential must be 'hardcore R0', 'square R0 W0', or 'file <path.npy>'"
    )


def cmd_scattering(args):
    pot = _parse_potential(args.potential)
    if args.scale is not None:
        pot = pot.scaled(float(args.scale))
    a = scattering.scattering_length(pot)
    # RK4 step doubling: the relative change from half as many steps
    a_half = scattering.scattering_length(pot, n_steps=10000)
    result = {"a": a, "residual": abs(a - a_half) / max(abs(a), 1e-300)}
    _write_json(os.path.join(_outdir(args), "results.json"), result)
    return 0 if result["residual"] < 1e-10 else 1


# ---------------------------------------------------------------------------
# dyson-check
# ---------------------------------------------------------------------------

_DYSON_DEFAULTS = {
    "s": 3.5, "R": 0.35, "eps": 0.5, "N": 8.0,
    "R0": 1.0, "W0": 4.0e4, "eta": 1.0, "J": 4, "n": 32, "box": 12.0,
}


def cmd_dyson_check(args):
    from . import dyson

    cfg = _effective_config(_DYSON_DEFAULTS, args)
    if not (0 < float(cfg["R"]) <= float(cfg["s"]) and 0 < float(cfg["eps"]) < 1
            and float(cfg["eta"]) > 0 and int(cfg["J"]) >= 1):
        raise ConfigError("need 0 < R <= s, 0 < eps < 1, eta > 0 and J >= 1")
    pot = scattering.square_barrier(float(cfg["R0"]), float(cfg["W0"]))
    if args.potential:
        pot = _parse_potential(args.potential)
    pot_n = pot.scaled(float(cfg["N"]))
    a_n = scattering.scattering_length(pot_n)

    chi = dyson.CutoffFunction(float(cfg["s"]))
    sp = dyson.build_soft_potentials(chi, float(cfg["R"]), float(cfg["eps"]))
    check = dyson.check_dyson_inequality(pot_n, sp, a_n)

    scaling = dyson.verify_wr_scaling(
        float(cfg["s"]),
        np.geomspace(0.03 * float(cfg["s"]), 0.3 * float(cfg["s"]), 5),
        epsilon=float(cfg["eps"]),
    )

    problem = gp.harmonic_problem(dim=2, n=int(cfg["n"]), length=float(cfg["box"]))
    k0 = dyson.build_K0(problem, chi, float(cfg["eta"]), int(cfg["J"]))

    result = {
        "config": cfg,
        "a": scattering.scattering_length(pot),
        "a_N": a_n,
        "int_UR": sp.int_UR,
        "int_wR": sp.int_wR,
        "slope": scaling["slope"],
        "min_eig": check["min_eig"],
        "dyson_passed": check["passed"],
        "kappa": k0.kappa,
        "e_spectrum": k0.e,
    }
    _write_json(os.path.join(_outdir(args), "results.json"), result)
    ok = (
        check["passed"]
        and abs(sp.int_UR - 4 * np.pi) < 1e-2 * 4 * np.pi
        and scaling["slope"] >= 1.9
        and np.min(k0.e) >= -1e-8
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fock-ed / symbols-check
# ---------------------------------------------------------------------------

def cmd_fock_ed(args):
    from . import fock

    cfg = _effective_config(
        {"J": 2, "Nmax": 6, "e": None, "W-file": None, "sector": 4, "g": 0.0},
        args,
    )
    J, n_max, sector = int(cfg["J"]), int(cfg["Nmax"]), int(cfg["sector"])
    e = np.asarray(cfg["e"], dtype=float) if cfg["e"] is not None else (
        np.arange(1, J + 1, dtype=float)
    )
    if e.size != J:
        raise ConfigError("spectrum length must equal J")
    if cfg["W-file"]:
        W = np.load(cfg["W-file"])
        if W.shape != (J, J, J, J):
            raise ConfigError("W-file must hold a (J,J,J,J) tensor")
    else:
        u = np.eye(J)
        W = fock.pair_interaction_tensor(u, float(cfg["g"]))
    if sector > n_max:
        raise ConfigError("sector exceeds the truncation")
    basis = fock.FockBasis(J, n_max)
    mb = fock.ModeBasis(e=e, W=W, C=0.0, M=sector)
    H = fock.build_hamiltonian(mb, basis)
    energy, vec = fock.ground_state(H, basis, sector)
    residual = float(np.linalg.norm(H @ vec - energy * vec))
    result = {
        "config": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in cfg.items()},
        "dimension": len(basis),
        "sector_dimension": int(basis.sector(sector).size),
        "energy": energy,
        "energy_per_particle": energy / max(sector, 1),
        "residual": residual,
    }
    _write_json(os.path.join(_outdir(args), "results.json"), result)
    return 0 if residual <= 1e-8 else 1


def _parse_op(text):
    """'adag adag a a' -> single-mode monomial (a^dag)^p a^q."""
    from . import fock

    p = q = 0
    for tok in text.split():
        if tok == "adag":
            p += 1
        elif tok == "a":
            q += 1
        elif tok in ("1", "identity"):
            pass
        else:
            raise ConfigError(f"unknown operator token {tok!r}")
    if p + q > 4:
        raise ConfigError("operators beyond degree 4 are not supported")
    return fock.SymbolPolynomial.term(1, (p,), (q,))


def cmd_symbols_check(args):
    from . import fock

    cfg = _effective_config(
        {"op": "adag a", "z": "0.7+0.2j", "Z": 6.0, "nodes": 64, "Nmax": 8},
        args,
    )
    try:
        z = complex(str(cfg["z"]).replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"bad --z: {exc}")
    poly = _parse_op(str(cfg["op"]))
    basis = fock.FockBasis(1, int(cfg["Nmax"]))
    identity_err = fock.verify_resolution(
        basis, Z=float(cfg["Z"]), n_angle=int(cfg["nodes"])
    )
    recon_err = fock.verify_resolution(
        basis, Z=float(cfg["Z"]), n_angle=int(cfg["nodes"]), poly=poly
    )
    result = {
        "config": cfg,
        "lower_symbol": fock.lower_symbol(poly, z),
        "upper_symbol": fock.upper_symbol(poly, z),
        "identity_error": identity_err,
        "reconstruction_error": recon_err,
    }
    _write_json(os.path.join(_outdir(args), "results.json"), result)
    return 0 if max(identity_err, recon_err) < 1e-6 else 1


# ---------------------------------------------------------------------------
# heat-bound
# ---------------------------------------------------------------------------

def cmd_heat_bound(args):
    from . import heatkernel

    cfg = _effective_config(
        {"V": ["harmonic"], "alpha": 1.0, "s": 2.0, "dim": 1}, args
    )
    tokens = cfg["V"] if isinstance(cfg["V"], list) else str(cfg["V"]).split()
    alpha, s, d = float(cfg["alpha"]), float(cfg["s"]), int(cfg["dim"])
    if d not in (1, 3) or not alpha > 0 or not s >= 0:
        raise ConfigError("need --dim 1 or 3, --alpha > 0 and --s >= 0")
    if tokens[0] == "harmonic":
        V = heatkernel.harmonic_potential()
    elif tokens[0] == "log" and len(tokens) >= 2 and float(tokens[1]) > 0:
        V = heatkernel.log_potential(float(tokens[1]),
                                     float(tokens[2]) if len(tokens) > 2 else 0.0)
    else:
        raise ConfigError("V must be 'harmonic' or 'log C1 [C2]' with C1 > 0")
    xs = np.linspace(0.2, 3.0, 8) if d == 3 else np.linspace(0.0, 3.0, 9)
    bound = heatkernel.diag_bound(V, alpha, xs, d=d)
    brute = heatkernel.brute_diag(V, alpha, xs, d=d)
    trace = heatkernel.weighted_trace(V, alpha, s, d=d)
    result = {
        "config": {**cfg, "V": " ".join(tokens)},
        "int_h": heatkernel.h_alpha_integral(alpha, d=d),
        "max_violation": float(np.max(brute - bound)),
        "trace_value": trace["value"],
        "converged": trace["converged"],
    }
    _write_json(os.path.join(_outdir(args), "results.json"), result)
    return 0 if result["max_violation"] <= 0 and abs(result["int_h"] - 1) < 1e-6 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--out", help="output directory (default: .)")


def _add_gp_flags(sp):
    sp.add_argument("--dim", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--box", type=float)
    sp.add_argument("--omega", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--trap")
    sp.add_argument("--init")
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--seed", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rotogp",
        description="ground-state laboratory for rotating dilute Bose gases",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("solve-gp", help="minimize the GP energy")
    _add_common(sp)
    _add_gp_flags(sp)
    sp.set_defaults(func=cmd_solve_gp)

    sp = sub.add_parser("scan-omega", help="energy/Lz/winding vs rotation speed")
    _add_common(sp)
    _add_gp_flags(sp)
    sp.add_argument("--omega-min", type=float)
    sp.add_argument("--omega-max", type=float)
    sp.add_argument("--num", type=int)
    sp.set_defaults(func=cmd_scan_omega)

    sp = sub.add_parser("scan-a", help="energy/mu vs coupling")
    _add_common(sp)
    _add_gp_flags(sp)
    sp.add_argument("--a-min", type=float)
    sp.add_argument("--a-max", type=float)
    sp.add_argument("--num", type=int)
    sp.set_defaults(func=cmd_scan_a)

    sp = sub.add_parser("analyze", help="vortex report from a field dump")
    _add_common(sp)
    sp.add_argument("--field", help="field dump path (expects <path>.json sidecar)")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("scattering", help="zero-energy scattering length")
    _add_common(sp)
    sp.add_argument("--potential", nargs="+",
                    help="hardcore R0 | square R0 W0 | file <path.npy>")
    sp.add_argument("--scale", type=float, help="evaluate w_N(r) = N^2 w(N r)")
    sp.set_defaults(func=cmd_scattering)

    sp = sub.add_parser("dyson-check", help="soft potentials and operator inequality")
    _add_common(sp)
    sp.add_argument("--s", type=float)
    sp.add_argument("--R", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--N", type=float)
    sp.add_argument("--potential", nargs="+")
    sp.set_defaults(func=cmd_dyson_check)

    sp = sub.add_parser("fock-ed", help="truncated exact diagonalization")
    _add_common(sp)
    sp.add_argument("--J", type=int)
    sp.add_argument("--Nmax", type=int)
    sp.add_argument("--e", type=float, nargs="+")
    sp.add_argument("--W-file", dest="W_file")
    sp.add_argument("--sector", type=int)
    sp.add_argument("--g", type=float)
    sp.set_defaults(func=cmd_fock_ed)

    sp = sub.add_parser("symbols-check", help="coherent symbol calculus checks")
    _add_common(sp)
    sp.add_argument("--op")
    sp.add_argument("--z")
    sp.add_argument("--Z", type=float)
    sp.add_argument("--nodes", type=int)
    sp.add_argument("--Nmax", type=int)
    sp.set_defaults(func=cmd_symbols_check)

    sp = sub.add_parser("heat-bound", help="heat-kernel diagonal bound checks")
    _add_common(sp)
    sp.add_argument("--V", nargs="+", help="harmonic | log C1 [C2]")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--dim", type=int)
    sp.set_defaults(func=cmd_heat_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
