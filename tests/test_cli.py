import json
import math
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rotogp import cli


def run(argv):
    return cli.main(argv)


class TestSerialization:
    def test_floats_round_trip(self, tmp_path):
        vals = [1.0 / 3.0, 2.0, 1e-300, -math.pi, 0.1 + 0.2, -0.0, math.inf, -math.inf]
        cli._write_json(tmp_path / "r.json", {"vals": vals, "nan": math.nan})
        back = json.loads((tmp_path / "r.json").read_text())
        assert [struct.pack("<d", v) for v in back["vals"]] == \
            [struct.pack("<d", v) for v in vals]
        assert math.isnan(back["nan"])
        cli._write_csv(tmp_path / "r.csv", ["v"], [[v] for v in vals + [math.nan]])
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "v"
        back = [float(line) for line in lines[1:]]
        assert [struct.pack("<d", v) for v in back[:-1]] == \
            [struct.pack("<d", v) for v in vals]
        assert math.isnan(back[-1])

    def test_scalars(self, tmp_path):
        obj = {"t": True, "none": None, "half": np.float64(0.5), "z": 1 + 2j,
               "whole": 12.0, "count": 12, "arr": np.array([1.5, 2.0]),
               "ints": np.arange(2), "i64": np.int64(3), "flag": np.bool_(False),
               "zarr": np.array([1j])}
        cli._write_json(tmp_path / "r.json", obj)
        text = (tmp_path / "r.json").read_text()
        assert '"t": true' in text and '"none": null' in text and '"half": 0.5' in text
        back = json.loads(text)
        assert back["z"] == {"re": 1.0, "im": 2.0}
        assert type(back["whole"]) is float and type(back["count"]) is int
        assert back["arr"] == [1.5, 2.0] and back["ints"] == [0, 1]
        assert back["i64"] == 3 and back["flag"] is False
        assert back["zarr"] == [{"re": 0.0, "im": 1.0}]
        cli._write_csv(tmp_path / "r.csv", ["a", "b"], [(np.float64(2.0), np.int64(1))])
        assert (tmp_path / "r.csv").read_text().splitlines()[1] == "2.0,1"

    def test_unknown_object_raises(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_json(tmp_path / "r.json", {"x": object()})

    def test_field_dump_is_interleaved_float64(self, tmp_path):
        from rotogp import fields

        grid = fields.Grid(2, 4, 3.0)
        vals = np.random.default_rng(1).standard_normal((2,) + grid.shape)
        f = fields.ComplexField(grid, vals[0] + 1j * vals[1])
        fields.write_field(f, str(tmp_path / "field.f64"))
        ref = np.empty(2 * f.values.size)
        ref[0::2], ref[1::2] = f.values.real.ravel(), f.values.imag.ravel()
        assert (tmp_path / "field.f64").read_bytes() == ref.astype("<f8").tobytes()
        back, _ = fields.read_field(str(tmp_path / "field.f64"))
        assert np.array_equal(back.values, f.values)


class TestSolveGp:
    def test_oscillator_2d(self, tmp_path):
        assert run(["solve-gp", "--dim", "2", "--omega", "0", "--a", "0",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert abs(res["energy"] - 2.0) < 1e-5
        assert res["converged"] is True
        assert (tmp_path / "field.f64").exists()
        assert (tmp_path / "field.f64.json").exists()

    def test_stop_reason_and_certificates_written(self, tmp_path):
        assert run(["solve-gp", "--dim", "2", "--n", "24", "--box", "12", "--a", "0.5",
                    "--restarts", "2", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["termination"] == "converged"
        assert res["boundary_ok"] is True
        assert len(res["restart_energies"]) == 2
        assert res["energy"] in res["restart_energies"]

    def test_small_box_flags_boundary(self, tmp_path):
        assert run(["solve-gp", "--dim", "2", "--n", "24", "--box", "5", "--a", "0.5",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["converged"] is True and res["boundary_ok"] is False

    def test_gradient_evals_written(self, tmp_path):
        # the README 2D vortex config
        assert run(["solve-gp", "--dim", "2", "--n", "64", "--box", "14", "--omega", "-0.9",
                    "--a", "8", "--init", "vortex:1", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["iterations"] <= res["gradient_evals"] <= 2 * res["iterations"] + 2

    def test_non_finite_trap_exits_2(self, tmp_path):
        from rotogp import fields

        V = fields.Grid(2, 16, 10.0).radius_sq()
        V[2, 3] = np.nan
        np.save(tmp_path / "nan.npy", V)
        assert run(["solve-gp", "--dim", "2", "--n", "16", "--box", "10",
                    "--trap", f"file:{tmp_path / 'nan.npy'}", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results.json").exists()

    def test_non_finite_gradient_writes_results_and_exits_1(self, tmp_path, monkeypatch):
        from rotogp.fields import ComplexField

        def nan_gradient(p, phi):
            return ComplexField(p.grid, np.full(p.grid.shape, np.nan + 0j))

        monkeypatch.setattr("rotogp.gp.gp_gradient", nan_gradient)
        assert run(["solve-gp", "--dim", "2", "--n", "16", "--box", "10",
                    "--out", str(tmp_path)]) == 1
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["termination"] == "non_finite"
        assert res["converged"] is False

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "a": 0.0, "omega": 0.3}))
        assert run(["solve-gp", "--config", str(cfg), "--omega", "0",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["config"]["omega"] == 0.0       # flag wins
        assert res["config"]["dim"] == 2           # file wins over default

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["solve-gp", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2

    def test_reproducible_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["solve-gp", "--dim", "2", "--a", "0.5", "--restarts", "2",
                "--seed", "7", "--n", "24", "--box", "12"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        ra = json.loads((a / "results.json").read_text())
        rb = json.loads((b / "results.json").read_text())
        ra.pop("seconds"), rb.pop("seconds")
        assert ra == rb
        assert (a / "field.f64").read_bytes() == (b / "field.f64").read_bytes()


class TestAnalyzeAndScan:
    def test_analyze_report(self, tmp_path):
        run(["solve-gp", "--dim", "2", "--a", "0", "--out", str(tmp_path)])
        assert run(["analyze", "--field", str(tmp_path / "field.f64"),
                    "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "vortex_report.json").read_text())
        assert rep["total_winding"] == 0
        assert abs(rep["norm"] - 1.0) < 1e-10

    def test_truncated_or_mismatched_dump_exits_2(self, tmp_path):
        from rotogp import fields

        dump = tmp_path / "field.f64"
        fields.write_field(fields.gaussian_field(fields.Grid(2, 16, 8.0)), str(dump))
        data = dump.read_bytes()
        dump.write_bytes(data[:-8])
        assert run(["analyze", "--field", str(dump), "--out", str(tmp_path)]) == 2
        dump.write_bytes(data)
        side = json.loads((tmp_path / "field.f64.json").read_text())
        (tmp_path / "field.f64.json").write_text(json.dumps({**side, "n": 32}))
        assert run(["analyze", "--field", str(dump), "--out", str(tmp_path)]) == 2
        side.pop("n")
        (tmp_path / "field.f64.json").write_text(json.dumps(side))
        assert run(["analyze", "--field", str(dump), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "vortex_report.json").exists()

    def test_scan_a_csv(self, tmp_path):
        assert run(["scan-a", "--dim", "2", "--n", "24", "--box", "12",
                    "--a-min", "0", "--a-max", "2", "--num", "3",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scan_a.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,energy,mu,Lz,total_winding"
        assert len(lines) == 4
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert energies == sorted(energies)   # energy increases with coupling


class TestScattering:
    def test_hard_sphere(self, tmp_path):
        assert run(["scattering", "--potential", "hardcore", "0.7",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert abs(res["a"] - 0.7) < 1e-6

    def test_scaled_barrier(self, tmp_path):
        assert run(["scattering", "--potential", "square", "1", "40000",
                    "--scale", "10", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        from rotogp.scattering import square_barrier_length
        assert abs(res["a"] - square_barrier_length(1.0, 4.0e4) / 10.0) < 1e-7

    def test_residual_is_step_doubling_error(self, tmp_path):
        assert run(["scattering", "--potential", "square", "1.0", "50.0",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["residual"] < 1e-10
        from rotogp.scattering import (scattering_length, square_barrier,
                                       square_barrier_length)
        pot = square_barrier(1.0, 50.0)
        a, a_half = scattering_length(pot), scattering_length(pot, n_steps=10000)
        assert res["residual"] == abs(a - a_half) / abs(a)
        # the estimate bounds the true error, up to a few ulp of rounding
        err = abs(res["a"] - square_barrier_length(1.0, 50.0))
        assert err <= res["residual"] * abs(res["a"]) + 4 * np.spacing(res["a"])

    def test_bad_potential_exits_2(self, tmp_path):
        assert run(["scattering", "--potential", "wedge", "1",
                    "--out", str(tmp_path)]) == 2


class TestFockAndSymbols:
    def test_single_mode_closed_form(self, tmp_path):
        # J=2 with diagonal pair tensor: sector-4 ground energy is
        # 4*e0 + g*N(N-1) with all particles in the lower mode
        assert run(["fock-ed", "--J", "2", "--Nmax", "6", "--e", "1", "2",
                    "--g", "0.4", "--sector", "4", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert abs(res["energy"] - (4 * 1.0 + 0.4 * 4 * 3)) < 1e-10

    def test_symbols_number_operator(self, tmp_path):
        assert run(["symbols-check", "--op", "adag a", "--z", "0.7+0.2i",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        mod2 = abs(complex(0.7, 0.2)) ** 2
        assert abs(res["lower_symbol"]["re"] - mod2) < 1e-14
        assert abs(res["upper_symbol"]["re"] - (mod2 - 1.0)) < 1e-14
        assert res["identity_error"] < 1e-6
        assert res["reconstruction_error"] < 1e-6
        # the truncated coherent state reproduces the lower symbol
        assert res["coherent_error"] < 1e-6

    @pytest.mark.parametrize("op", ["a a a", "adag a a a", "a a a a"])
    def test_symbols_unbalanced_operator_passes(self, tmp_path, op):
        # a^q shifts the ket down q levels; the check must not charge that
        # shift to the symbol: the error stays the Poisson tail past Nmax 8
        assert run(["symbols-check", "--op", op, "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["coherent_error"] < 1e-8

    def test_bad_operator_exits_2(self, tmp_path):
        assert run(["symbols-check", "--op", "adag b",
                    "--out", str(tmp_path)]) == 2


class TestHeatBound:
    def test_harmonic_passes(self, tmp_path):
        assert run(["heat-bound", "--V", "harmonic", "--alpha", "1",
                    "--dim", "1", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["max_violation"] <= 0
        assert abs(res["int_h"] - 1.0) < 1e-6
        assert res["converged"] is True

    def test_log_divergent_exits_0(self, tmp_path):
        # divergence of the weighted trace is reported, not failed: the bound
        # holds at every point, and the exit code reads only the bound
        assert run(["heat-bound", "--V", "log", "2", "--alpha", "0.1",
                    "--s", "4", "--dim", "1", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["converged"] is False
        assert res["max_violation"] < 0

    @pytest.mark.parametrize("dim", [1, 3])
    def test_reports_oracle_resolution(self, tmp_path, dim):
        assert run(["heat-bound", "--dim", str(dim), "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert isinstance(res["oracle_modes"], int) and res["oracle_modes"] > 0
        # the oracle's own error is far below the margin it certifies
        assert 0 <= res["oracle_drift"] < abs(res["max_violation"])

    @pytest.mark.parametrize("flags, n_points", [
        ([], 9), (["--dim", "3"], 8), (["--V", "log", "2.0", "--alpha", "0.1"], 9),
    ], ids=["d1", "d3", "log"])
    def test_reports_per_point_resolution(self, tmp_path, flags, n_points):
        assert run(["heat-bound", *flags, "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert len(res["violation"]) == len(res["drift"]) == n_points
        assert max(res["violation"]) == res["max_violation"]
        assert max(res["drift"]) == res["oracle_drift"]
        assert min(res["drift"]) >= 0


def test_certificate_config_errors_exit_2(tmp_path, tmp_path_factory, capsys):
    missing = str(tmp_path / "missing.json")
    configs = tmp_path_factory.mktemp("configs")
    for name, text in [("int", "5"), ("list", '["a"]'), ("V_empty_list", '{"V": []}'),
                       ("V_empty", '{"V": ""}'), ("omega_text", '{"omega": "nan"}'),
                       ("e_text", '{"e": ["nan", 2]}'),
                       ("dim_float", '{"dim": 2.5, "n": 16.7, "box": 8}'),
                       ("n_float", '{"n": 16.0}'), ("n_bool", '{"n": true}'),
                       ("box_text", '{"box": "8"}'), ("box_bool", '{"box": false}'),
                       ("init_int", '{"init": 1}'), ("V_number", '{"V": 2}'),
                       ("alpha_list", '{"alpha": [1.0]}')]:
        (configs / f"{name}.json").write_text(text)
    gp2d = ["solve-gp", "--dim", "2", "--n", "16", "--box", "8"]
    cases = [
        ["heat-bound", "--dim", "2"],
        ["heat-bound", "--alpha", "-1"],
        ["heat-bound", "--alpha", "0"],
        ["heat-bound", "--s", "-1"],
        ["heat-bound", "--V", "log", "-1"],
        # the Galerkin oracle's basis grows like 1/sqrt(alpha)
        ["heat-bound", "--alpha", "1e-4"],
        ["heat-bound", "--dim", "3", "--alpha", "0.005"],
        ["dyson-check", "--eps", "1.5"],
        ["dyson-check", "--R", "-1"],
        # inputs the library rejects with ValueError
        ["fock-ed", "--e", "2", "1"],
        ["fock-ed", "--J", "0"],
        ["fock-ed", "--sector", "-1"],
        ["solve-gp", "--n", "7"],
        ["solve-gp", "--dim", "4"],
        ["solve-gp", "--box", "0"],
        ["solve-gp", "--init", "vortex:x"],
        ["scattering", "--potential", "square", "1", "50", "--scale", "0"],
        ["scattering", "--potential", "square", "1", "-5"],
        ["scattering", "--potential", "hardcore", "x"],
        ["dyson-check", "--N", "0"],
        ["symbols-check", "--Nmax", "2"],
        # |z|^2 = 9: the coherent state's Poisson tail past Nmax 8 exceeds 1e-8
        ["symbols-check", "--z", "3"],
        # checks that run before any work
        ["symbols-check", "--nodes", "0"],
        ["symbols-check", "--Z", "-1"],
        ["solve-gp", "--dim", "2", "--n", "16", "--box", "8", "--restarts", "0"],
        ["scan-omega", "--num", "0"],
        ["scan-a", "--num", "0"],
        # --config is read by every subcommand
        ["scattering", "--config", missing, "--potential", "hardcore", "1"],
        ["analyze", "--config", missing, "--field", missing],
        # a non-positive tol; non-finite numbers from flags or --potential tokens
        [*gp2d, "--tol", "-1"],
        [*gp2d, "--tol", "nan"],
        [*gp2d, "--omega", "nan"],
        [*gp2d, "--omega", "inf"],
        [*gp2d, "--a", "nan"],
        [*gp2d, "--a", "inf"],
        ["scattering", "--potential", "square", "1", "nan"],
        ["scattering", "--potential", "hardcore", "nan"],
        ["scattering", "--potential", "square", "1", "50", "--scale", "nan"],
        ["dyson-check", "--N", "nan"],
        ["fock-ed", "--e", "nan", "2"],
        # malformed JSON config files
        [*gp2d, "--config", str(configs / "int.json")],
        [*gp2d, "--config", str(configs / "list.json")],
        ["heat-bound", "--config", str(configs / "V_empty_list.json")],
        ["heat-bound", "--config", str(configs / "V_empty.json")],
        # non-finite numbers written as text in a config file
        [*gp2d, "--config", str(configs / "omega_text.json")],
        ["fock-ed", "--config", str(configs / "e_text.json")],
        # config-file values whose type is not their default's
        ["solve-gp", "--config", str(configs / "dim_float.json")],
        [*gp2d, "--config", str(configs / "n_float.json")],
        [*gp2d, "--config", str(configs / "n_bool.json")],
        ["solve-gp", "--dim", "2", "--n", "16", "--config", str(configs / "box_text.json")],
        ["solve-gp", "--dim", "2", "--n", "16", "--config", str(configs / "box_bool.json")],
        [*gp2d, "--config", str(configs / "init_int.json")],
        ["heat-bound", "--config", str(configs / "V_number.json")],
        ["heat-bound", "--config", str(configs / "alpha_list.json")],
    ]
    for argv in cases:
        assert run([*argv, "--out", str(tmp_path)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
    # rejected before any work: nothing was computed or written
    assert list(tmp_path.iterdir()) == []


def test_config_values_of_their_defaults_type_run(tmp_path):
    # an int where the default is a float, a string for a list-valued key
    cfg = tmp_path / "heat.json"
    cfg.write_text(json.dumps({"V": "log 2", "alpha": 1, "dim": 1}))
    assert run(["heat-bound", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "results.json").read_text())
    assert res["config"]["V"] == "log 2" and res["config"]["alpha"] == 1


def test_linalg_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must still exit 1, not 2
    def singular(H, basis, total):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr("rotogp.fock.ground_state", singular)
    assert run(["fock-ed", "--out", str(tmp_path)]) == 1
    assert "numerical failure" in capsys.readouterr().err


def test_scattering_and_analyze_run_from_config_alone(tmp_path):
    cfg = tmp_path / "scattering.json"
    cfg.write_text(json.dumps({"potential": ["hardcore", 0.7], "scale": 2.0}))
    assert run(["scattering", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "results.json").read_text())
    assert abs(res["a"] - 0.35) < 1e-6
    assert run(["solve-gp", "--dim", "2", "--n", "16", "--box", "8",
                "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "analyze.json"
    cfg.write_text(json.dumps({"field": str(tmp_path / "field.f64")}))
    assert run(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "vortex_report.json").read_text())["n"] == 16


def test_dyson_check_flags_for_every_config_key(tmp_path):
    assert run(["dyson-check", "--J", "2", "--n", "16", "--box", "10",
                "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "results.json").read_text())
    assert len(res["e_spectrum"]) == 2
    assert res["config"]["potential"] is None
    assert (res["config"]["J"], res["config"]["n"], res["config"]["box"]) == (2, 16, 10.0)


def test_every_config_key_is_a_flag():
    parser = cli.build_parser()
    for name, (handler, _, defaults) in cli.COMMANDS.items():
        for key in defaults:
            args = parser.parse_args([name, f"--{key}", "7"])
            assert args.func is handler
            assert cli._effective_config(args)[key] in (7, "7", [7.0], ["7"]), (name, key)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("rotogp ")]
    assert len(lines) >= len(cli.COMMANDS)
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


_GP_PATH = r"""
import sys
from rotogp import cli

out = sys.argv[1]
assert cli.main(["solve-gp", "--dim", "2", "--n", "16", "--box", "8", "--out", out]) == 0
assert cli.main(["analyze", "--field", out + "/field.f64", "--out", out]) == 0
assert cli.main(["scattering", "--potential", "square", "1", "50", "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numba")))
"""


def test_gp_path_imports_no_scipy_or_numba(tmp_path):
    # the certificate modules load with their own subcommands only
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _GP_PATH, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
