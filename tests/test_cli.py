import argparse
import ast
import collections
import dataclasses
import functools
import importlib
import json
import math
import os
import re
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

    def test_restarts_are_the_random_tail_of_the_starts(self, tmp_path):
        from rotogp import gp

        assert run(["solve-gp", "--dim", "2", "--n", "24", "--box", "12", "--a", "0.5",
                    "--restarts", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        p = gp.harmonic_problem(dim=2, n=24, length=12.0, a=0.5)
        state = gp.gp_minimize(p, ["gaussian", "random", "random"], gp.GpSolverOptions(seed=1))
        assert [struct.pack("<d", e) for e in res["restart_energies"]] == \
            [struct.pack("<d", e) for e in state.restart_energies]
        for k in ("0", "-1"):
            assert run(["solve-gp", "--dim", "2", "--n", "16", "--box", "8", "--restarts", k,
                        "--out", str(tmp_path / "refused")]) == 2, k
        assert not (tmp_path / "refused").exists()


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

    def test_3d_scan_writes_no_winding(self, tmp_path):
        # the vortex census runs in 2D only: a 3D point's winding is null,
        # as in solve-gp's results.json
        assert run(["scan-omega", "--dim", "3", "--n", "8", "--box", "8",
                    "--omega-min", "0.5", "--omega-max", "0.5", "--num", "1",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scan_omega.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[4] == "null"


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

    def test_residual_is_bracket_width(self, tmp_path):
        # a square barrier is one constant piece, its own minorant and
        # majorant: a zero-width bracket at the closed form
        assert run(["scattering", "--potential", "square", "1.0", "50.0",
                    "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert abs(res["a"] - 0.9000000004122307) <= 2 * np.spacing(0.9000000004122307)
        assert res["a_lower"] == res["a"] == res["a_upper"]
        assert res["residual"] == 0.0 and res["verdicts"] == {"a": True}

    def test_file_potential_matches_the_library(self, tmp_path):
        from rotogp.scattering import from_samples, scattering_bracket, scattering_length
        r = np.linspace(0.0, 1.0, 7)
        w = 20.0 * (1.0 - np.abs(2.0 * r - 1.0))
        np.save(tmp_path / "tent.npy", np.stack([r, w]))
        assert run(["scattering", "--potential", "file", str(tmp_path / "tent.npy"),
                    "--scale", "2", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        pot = from_samples(r, w).scaled(2.0)
        assert res["a"] == scattering_length(pot)
        assert (res["a_lower"], res["a_upper"]) == scattering_bracket(pot)
        assert res["residual"] == (res["a_upper"] - res["a_lower"]) / res["a"]
        assert res["a_lower"] < res["a"] < res["a_upper"] and res["verdicts"] == {"a": True}

    @pytest.mark.parametrize("command", ["scattering", "dyson-check"])
    def test_potential_file_must_hold_two_rows(self, tmp_path, capsys, command):
        # square 1 50 sampled: stored as columns it read as a = 49.9, a third
        # row went unread, and an .npz archive ended in a traceback
        r = np.linspace(0.0, 1.0, 11)
        w = np.full_like(r, 50.0)
        np.savez(tmp_path / "rows.npz", r=r, w=w)
        for name, data in [("cols", np.stack([r, w], axis=1)), ("rows3", np.stack([r, w, w])),
                           ("flat", r), ("rows.npz", None)]:
            if data is not None:
                np.save(tmp_path / f"{name}.npy", data)
            path = tmp_path / (name if data is None else f"{name}.npy")
            assert run([command, "--potential", "file", str(path),
                        "--out", str(tmp_path / "out")]) == 2, name
            assert "(2, n) array" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_potential_exits_2(self, tmp_path):
        assert run(["scattering", "--potential", "wedge", "1",
                    "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("error")
    def test_barrier_too_tall_is_numerical_failure(self, tmp_path, capsys):
        assert run(["scattering", "--potential", "square", "1.0", "1e6",
                    "--out", str(tmp_path)]) == 1
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()


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

    @pytest.mark.parametrize("flags, identity, reconstruction", [
        ([], "0x1.158000000009ep-39", "0x1.379a000000007p-34"),
        (["--op", "adag adag a a", "--Nmax", "12", "--nodes", "96"],
         "0x1.1590000000de4p-39", "0x1.4bd2380000000p-29"),
        (["--op", "adag adag a", "--Nmax", "12", "--nodes", "96"],
         "0x1.1590000000de4p-39", "0x1.0658400000009p-33"),
    ], ids=["defaults", "nn", "n3"])
    def test_symbols_check_builds_the_coherent_rows_once(self, tmp_path, monkeypatch,
                                                         flags, identity, reconstruction):
        # one node set and one table of coherent rows serve both errors,
        # each the value of a separate table per error, bit for bit
        from rotogp import fock

        rows, tables = fock._coherent_rows, []
        monkeypatch.setattr(fock, "_coherent_rows",
                            lambda z, count: tables.append(z.size) or rows(z, count))
        assert run(["symbols-check", *flags, "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert len(tables) == 1
        assert res["identity_error"] == float.fromhex(identity)
        assert res["reconstruction_error"] == float.fromhex(reconstruction)

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

    def test_log_takes_one_constant(self, tmp_path, capsys):
        # C1 log(1 + |x|) has no second constant: a third token is refused
        assert run(["heat-bound", "--V", "log", "2.0", "5.0", "--out", str(tmp_path)]) == 2
        assert "log C1" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()

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
        assert len(res["violation"]) == len(res["drift"]) == len(res["bound_error"]) == n_points
        # the quadrature's estimate is far below the margin it certifies
        assert 0 <= max(res["bound_error"]) < 1e-3 * abs(res["max_violation"])
        assert max(res["violation"]) == res["max_violation"]
        assert max(res["drift"]) == res["oracle_drift"]
        assert min(res["drift"]) >= 0


def test_certificate_config_errors_exit_2(tmp_path, tmp_path_factory, capsys):
    missing = str(tmp_path / "missing.json")
    configs = tmp_path_factory.mktemp("configs")
    r = np.linspace(0.0, 1.0, 51)
    for name, bad in [("nan", np.nan), ("inf", np.inf), ("well", -50.0)]:
        w = np.full_like(r, 25.0)
        w[10:20] = bad
        np.save(configs / f"pot_{name}.npy", np.stack([r, w]))
    np.save(configs / "pot_negr.npy", np.stack([r - 0.5, np.full_like(r, 25.0)]))
    from rotogp import fields
    field = fields.gaussian_field(fields.Grid(2, 16, 8.0))
    sidecars = {"nan": [0.0, 0.0, math.nan], "short": [0.0, 0.0], "text": "abc"}
    for name, omega in sidecars.items():
        fields.write_field(field, str(configs / f"omega_{name}.f64"))
        (configs / f"omega_{name}.f64.json").write_text(
            json.dumps({"dim": 2, "n": 16, "L": 8.0, "omega": omega}))
    fields.write_field(field, str(configs / "frac.f64"))
    (configs / "frac.f64.json").write_text(
        json.dumps({"dim": 2.7, "n": 16.9, "L": 8.0, "omega": [0.0, 0.0, 0.0]}))
    field.values[3, 5] = np.nan
    fields.write_field(field, str(configs / "nan.f64"))
    W_nan = np.zeros((2, 2, 2, 2))
    W_nan[0, 0, 0, 0] = np.nan
    np.save(configs / "W_nan.npy", W_nan)
    np.save(configs / "W_shape.npy", np.zeros((3, 3, 3, 3)))
    for name, text in [("int", "5"), ("list", '["a"]'), ("V_empty_list", '{"V": []}'),
                       ("V_empty", '{"V": ""}'), ("omega_text", '{"omega": "nan"}'),
                       ("e_text", '{"e": ["nan", 2]}'),
                       ("dim_float", '{"dim": 2.5, "n": 16.7, "box": 8}'),
                       ("n_float", '{"n": 16.0}'), ("n_bool", '{"n": true}'),
                       ("box_text", '{"box": "8"}'), ("box_bool", '{"box": false}'),
                       ("box_huge", '{"box": 1%s}' % ("0" * 400)),
                       ("n_huge", '{"n": 1%s}' % ("0" * 400)),
                       ("Nmax_huge", '{"Nmax": 1%s}' % ("0" * 400)),
                       ("init_int", '{"init": 1}'), ("V_number", '{"V": 2}'),
                       ("alpha_list", '{"alpha": [1.0]}'), ("scale_list", '{"scale": [1, 2]}'),
                       ("W_int", '{"W-file": 5}'), ("e_int", '{"e": 2}')]:
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
        ["heat-bound", "--dim", "3", "--alpha", "0.001"],
        ["dyson-check", "--eps", "1.5"],
        ["dyson-check", "--R", "-1"],
        # R past the cutoff scale s = 3.5
        ["dyson-check", "--R", "4"],
        ["dyson-check", "--eta", "0"],
        ["dyson-check", "--J", "0"],
        # inputs the library rejects with ValueError
        ["fock-ed", "--e", "2", "1"],
        # --e must hold J numbers, and a --W-file a (J, J, J, J) tensor
        ["fock-ed", "--e", "1", "2", "3"],
        ["fock-ed", "--W-file", str(configs / "W_shape.npy")],
        ["fock-ed", "--J", "0"],
        ["fock-ed", "--sector", "-1"],
        ["solve-gp", "--n", "7"],
        ["solve-gp", "--dim", "4"],
        ["solve-gp", "--box", "0"],
        ["solve-gp", "--init", "vortex:x"],
        ["solve-gp", "--init", "vortex:"],
        ["solve-gp", "--init", "vortex:2.5"],
        ["solve-gp", "--init", "foo"],
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
        # --op must be normal-ordered, and of degree <= 4 for the ket's padding
        ["symbols-check", "--op", "a adag"],
        ["symbols-check", "--op", "adag a adag"],
        ["symbols-check", "--op", "adag adag adag a a"],
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
        ["symbols-check", "--z", "nan"],
        ["symbols-check", "--z", "1+nanj"],
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
        # an int past the float range, for a float key
        ["solve-gp", "--dim", "2", "--n", "16", "--config", str(configs / "box_huge.json")],
        # an int past the float range, for an int key, from a file or a flag
        ["solve-gp", "--dim", "2", "--config", str(configs / "n_huge.json")],
        ["solve-gp", "--dim", "2", "--n", "1" + "0" * 400],
        ["symbols-check", "--config", str(configs / "Nmax_huge.json")],
        [*gp2d, "--config", str(configs / "init_int.json")],
        ["heat-bound", "--config", str(configs / "V_number.json")],
        ["heat-bound", "--config", str(configs / "alpha_list.json")],
        ["scattering", "--potential", "square", "1", "50",
         "--config", str(configs / "scale_list.json")],
        ["fock-ed", "--config", str(configs / "W_int.json")],
        ["fock-ed", "--config", str(configs / "e_int.json")],
        # sampled potentials must be finite and nonnegative (v >= 0 in the
        # lemma), their radii from r = 0
        *(["scattering", "--potential", "file", str(configs / f"pot_{name}.npy")]
          for name in ("nan", "inf", "well", "negr")),
        *(["dyson-check", "--potential", "file", str(configs / f"pot_{name}.npy")]
          for name in ("nan", "inf", "well", "negr")),
        ["fock-ed", "--W-file", str(configs / "W_nan.npy")],
        # a field dump with a NaN sample, sidecars with a malformed omega
        ["analyze", "--field", str(configs / "nan.f64")],
        *(["analyze", "--field", str(configs / f"omega_{name}.f64")] for name in sidecars),
        # a sidecar whose dim and n are not integers, though the bytes fit 16^2
        ["analyze", "--field", str(configs / "frac.f64")],
        # the vortex start underflows to zero at every sample
        ["solve-gp", "--dim", "2", "--n", "2", "--box", "100", "--init", "vortex:1"],
    ]
    for argv in cases:
        assert run([*argv, "--out", str(tmp_path)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
    # rejected before any work: nothing was computed or written
    assert list(tmp_path.iterdir()) == []
    # a NaN in W is named as such, not as a failed hermiticity test
    assert run(["fock-ed", "--W-file", str(configs / "W_nan.npy"),
                "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert run(["analyze", "--field", str(configs / "nan.f64"), "--out", str(tmp_path)]) == 2
    assert "nan.f64" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["dyson-check", "--eps", "1.5"], "need 0 < epsilon < 1"),
    (["heat-bound", "--alpha", "0"], "alpha must be positive and finite"),
], ids=["dyson-check", "heat-bound"])
def test_refusal_names_the_library_check(tmp_path, capsys, argv, message):
    # the library function that uses the input refuses it; the CLI has no copy
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_config_values_of_their_defaults_type_run(tmp_path):
    # an int where the default is a float, a string for a list-valued key
    cfg = tmp_path / "heat.json"
    cfg.write_text(json.dumps({"V": "log 2", "alpha": 1, "dim": 1}))
    assert run(["heat-bound", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "results.json").read_text())
    assert res["config"]["V"] == "log 2" and res["config"]["alpha"] == 1


_CONFIG_KEYS = [(name, key) for name, (_, _, defaults) in cli.COMMANDS.items()
                for key in defaults]


@pytest.mark.parametrize("name, key", _CONFIG_KEYS, ids=[f"{n}-{k}" for n, k in _CONFIG_KEYS])
def test_config_mapping_or_bool_exits_2(tmp_path, capsys, name, key):
    # no flag parses to a mapping or a bool, whatever the key's default
    out = tmp_path / "out"
    for bad in ({"x": 1}, True):
        (tmp_path / "c.json").write_text(json.dumps({key: bad}))
        assert run([name, "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err, err
        assert not out.exists()


def test_refused_run_leaves_no_out_directory(tmp_path):
    # the handler's own input checks run before its first write
    for argv in (["fock-ed", "--e", "1", "2", "3"], ["scan-omega", "--num", "0"],
                 ["analyze"], ["scattering", "--potential", "wedge", "1"]):
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2, argv
        assert not (tmp_path / "out").exists(), argv


@pytest.mark.parametrize("argv, file_cfg", [
    (["fock-ed", "--J", "2", "--e", "1", "2", "--g", "0"], {"J": 2, "e": [1, 2], "g": 0}),
    (["scattering", "--potential", "square", "1", "50"], {"potential": "square 1 50"}),
    (["heat-bound", "--V", "log", "2", "--alpha", "1"], {"V": ["log", 2], "alpha": 1}),
], ids=["fock-ed", "scattering", "heat-bound"])
def test_config_file_values_parse_as_their_flags(tmp_path, argv, file_cfg):
    # the flags, a config file with the same values, and the config that
    # results.json echoes, fed back, write the same results
    (tmp_path / "c.json").write_text(json.dumps(file_cfg))
    runs = [argv, [argv[0], "--config", str(tmp_path / "c.json")],
            [argv[0], "--config", str(tmp_path / "flags" / "echo.json")]]
    results = []
    for name, rest in zip(["flags", "file", "echo"], runs):
        assert run([*rest, "--out", str(tmp_path / name)]) == 0, name
        results.append(json.loads((tmp_path / name / "results.json").read_text()))
        (tmp_path / name / "echo.json").write_text(json.dumps(results[-1]["config"]))
    assert results[0] == results[1] == results[2]


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


class TestParser:
    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert len(cli.COMMANDS) == 9
        assert all(name in text for name in cli.COMMANDS)

    def test_subcommand_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["dyson-check", "--help"])
        assert exc.value.code == 0
        assert "--eta" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["no-such-command"], []])
    def test_unknown_or_missing_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_none_reads_sys_argv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["rotogp", "fock-ed", "--J", "1", "--Nmax", "3",
                                          "--sector", "3", "--out", str(tmp_path)])
        assert cli.main(None) == 0
        assert json.loads((tmp_path / "results.json").read_text())["energy"] == 3.0

    def test_single_command_parser_matches_full(self):
        flags = {
            "solve-gp": ["--dim", "2", "--n", "16", "--omega", "0.4", "--init", "vortex:1"],
            "scan-omega": ["--omega-min", "0.1", "--omega-max", "0.5", "--num", "3"],
            "scan-a": ["--a-max", "2.0", "--num", "3"],
            "analyze": ["--field", "run/field.f64"],
            "scattering": ["--potential", "square", "1", "50", "--scale", "2"],
            "dyson-check": ["--J", "2", "--potential", "file", "w.npy"],
            "fock-ed": ["--e", "0", "1", "--W-file", "w.npy", "--g", "0.5"],
            "symbols-check": ["--op", "adag adag a", "--z", "0.5+0.1j"],
            "heat-bound": ["--V", "log", "2.0", "--alpha", "0.1", "--dim", "3"],
        }
        assert list(flags) == list(cli.COMMANDS)
        full = cli.build_parser()
        for name, rest in flags.items():
            argv = [name, *rest, "--config", "c.json", "--out", "out"]
            assert vars(cli.build_parser(name).parse_args(argv)) == \
                vars(full.parse_args(argv)), name

    @pytest.mark.parametrize("argv, built", [
        (["fock-ed", "--J", "1", "--Nmax", "3", "--sector", "3"], 1),
        (["--help"], 9), ([], 9), (["no-such-command"], 9),
    ], ids=["known", "help", "none", "unknown"])
    def test_main_builds_only_the_subparser_it_runs(self, argv, built, tmp_path, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        if built == 1:
            assert run([*argv, "--out", str(tmp_path)]) == 0
            assert names == argv[:1]
        else:
            with pytest.raises(SystemExit):
                run(argv)
            assert names == list(cli.COMMANDS)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("rotogp ")]
    assert len(lines) >= len(cli.COMMANDS)
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


# one small run of each subcommand; {solve-gp} is that run's output directory
_SMALL_RUNS = {
    "solve-gp": ["--dim", "2", "--n", "16", "--box", "8"],
    "scan-omega": ["--dim", "2", "--n", "16", "--box", "8", "--num", "2"],
    "scan-a": ["--dim", "2", "--n", "16", "--box", "8", "--num", "2"],
    "analyze": ["--field", "{solve-gp}/field.f64"],
    "scattering": ["--potential", "square", "1", "50"],
    "dyson-check": ["--J", "2", "--n", "16", "--box", "10"],
    "fock-ed": [],
    "symbols-check": [],
    "heat-bound": [],
}
_NO_RESULTS = ("scan-omega", "scan-a", "analyze")  # they write their own artifacts


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Subcommand -> (exit code, verdicts its handler returned, results.json or None)."""
    root = tmp_path_factory.mktemp("small_runs")
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, flags in _SMALL_RUNS.items():
            handler, help_text, defaults = cli.COMMANDS[name]
            returned = []

            def keep(cfg, out, handler=handler, returned=returned):
                returned.append(handler(cfg, out))
                return returned[-1]

            mp.setitem(cli.COMMANDS, name, (keep, help_text, defaults))
            flags = [f.replace("{solve-gp}", str(root / "solve-gp")) for f in flags]
            rc = run([name, *flags, "--out", str(root / name)])
            path = root / name / "results.json"
            res = json.loads(path.read_text()) if path.exists() else None
            runs[name] = (rc, returned[0][1], res)
    return runs


def test_every_results_json_holds_config_and_verdicts(small_runs):
    assert set(small_runs) == set(cli.COMMANDS)
    for name, (rc, verdicts, res) in small_runs.items():
        assert rc == (0 if all(verdicts.values()) else 1), name
        if name in _NO_RESULTS:
            assert res is None, name
            continue
        assert list(res)[0] == "config" and list(res)[-1] == "verdicts", name
        assert set(res["config"]) == set(cli.COMMANDS[name][2]), name
        assert res["verdicts"] == verdicts and verdicts, name
        for key, ok in res["verdicts"].items():
            assert type(ok) is bool and key in set(res) - {"config", "verdicts"}, (name, key)
    assert small_runs["analyze"][:2] == (0, {})
    # dyson-check's refinement estimate: each channel's minimum at K = 150,
    # 250, 350, ordered by ell, and the largest change from 250 to 350
    dyson = small_runs["dyson-check"][2]
    channels = dyson["channels"]
    assert len(channels) == 3 and all(len(c) == 3 for c in channels)
    assert all(type(v) is float for c in channels for v in c)
    assert type(dyson["refinement_drift"]) is float
    assert dyson["refinement_drift"] == max(abs(c[2] - c[1]) for c in channels)
    assert dyson["min_eig"] == min(c[2] for c in channels)
    # symbols-check's Poisson tail P[N > Nmax], below coherent_state's 1e-8
    tail = small_runs["symbols-check"][2]["coherent_tail"]
    assert type(tail) is float and 0.0 <= tail <= 1e-8


def _wrapped(target, wrap):
    """(owner, attribute, wrap(its value)) for target 'module.attr' or
    'module.Class.attr' under rotogp."""
    module, *path, attr = target.split(".")
    owner = functools.reduce(getattr, path, importlib.import_module(f"rotogp.{module}"))
    return owner, attr, wrap(getattr(owner, attr))


def _then(change):
    """A wrap that passes a function's value through change."""
    return lambda f: lambda *a, **kw: change(f(*a, **kw))


_not_converged = _then(lambda state: dataclasses.replace(state, termination="max_iter"))
_DYSON_SMALL = ["dyson-check", "--J", "2", "--n", "16", "--box", "10"]
# (argv, verdict, library value it reads, wrap that breaks that value alone)
_FAILURES = [
    (["scattering", "--potential", "square", "1", "50"], "a", "scattering.scattering_bracket",
     _then(lambda bracket: (bracket[0] + 1e-6, bracket[1] + 1e-6))),
    (_DYSON_SMALL, "dyson_passed", "dyson.check_dyson_inequality",
     _then(lambda check: {**check, "passed": False})),
    (_DYSON_SMALL, "int_UR", "dyson.check_dyson_inequality",
     _then(lambda check: {**check, "int_UR": 1.1 * check["int_UR"]})),
    (_DYSON_SMALL, "slope", "dyson.verify_wr_scaling",
     _then(lambda scaling: {**scaling, "slope": 1.0})),
    (_DYSON_SMALL, "e_spectrum", "dyson.build_K0",
     _then(lambda k0: dataclasses.replace(k0, e=k0.e - 1e3))),
    (["fock-ed"], "residual", "fock.ground_state",
     _then(lambda ev: (ev[0] + 1.0, ev[1]))),
    (["symbols-check"], "identity_error", "fock.verify_resolution",
     lambda f: lambda ops, *a, **kw: [e + (pq == (0, 0)) for pq, e in zip(ops, f(ops, *a, **kw))]),
    (["symbols-check"], "reconstruction_error", "fock.verify_resolution",
     lambda f: lambda ops, *a, **kw: [e + (pq != (0, 0)) for pq, e in zip(ops, f(ops, *a, **kw))]),
    (["symbols-check"], "coherent_error", "fock.lower_symbol", _then(lambda z: z + 1.0)),
    (["heat-bound"], "max_violation", "heatkernel.diag_bound", _then(lambda b: b - 1.0)),
    (["heat-bound"], "int_h", "heatkernel.h_alpha_integral", _then(lambda v: v + 0.1)),
    (["solve-gp", "--dim", "2", "--n", "16", "--box", "8"], "converged",
     "gp.gp_minimize", _not_converged),
]


@pytest.mark.parametrize("argv, verdict, target, wrap", _FAILURES,
                         ids=[f"{c[0][0]}-{c[1]}" for c in _FAILURES])
def test_failed_verdict_exits_1_and_names_itself(tmp_path, monkeypatch,
                                                 argv, verdict, target, wrap):
    monkeypatch.setattr(*_wrapped(target, wrap))
    assert run([*argv, "--out", str(tmp_path)]) == 1
    res = json.loads((tmp_path / "results.json").read_text())
    assert [name for name, ok in res["verdicts"].items() if not ok] == [verdict]


def test_default_dyson_check_assembles_at_most_1000_nodes_per_channel(tmp_path, monkeypatch):
    # a cost guard: the Gauss nodes at which each channel's modes are built
    # (channel 0: its cosine tables), 757 at the defaults, where the basis
    # has K = 350 modes
    from rotogp import dyson, quadrature

    nodes = collections.Counter()

    class Counting(dyson.BesselChannel):
        def __call__(self, r):
            nodes[self.ell] += np.size(r)
            return super().__call__(r)

    def cosine_sums(r, *args):
        nodes[0] += np.size(r)
        return sums(r, *args)

    sums = quadrature._cosine_sums
    monkeypatch.setattr(dyson, "BesselChannel", Counting)
    monkeypatch.setattr(quadrature, "_cosine_sums", cosine_sums)
    assert run([*_DYSON_SMALL, "--out", str(tmp_path)]) == 0
    assert sorted(nodes) == [0, 1, 2]
    assert max(nodes.values()) <= 1000


def test_dyson_check_refuses_a_potential_past_its_ball(tmp_path):
    # --N 0.05 scales the barrier's range to 20, past the ball's radius 14,
    # where the Dirichlet wall and not the inequality would decide
    assert run(["dyson-check", "--N", "0.05", "--out", str(tmp_path / "far")]) == 2
    assert not (tmp_path / "far" / "results.json").exists()
    assert run(["dyson-check", "--out", str(tmp_path / "defaults")]) == 0


def test_dyson_check_exits_1_when_the_eigensolver_misses_its_residual_rule(
        tmp_path, monkeypatch):
    from rotogp import fields

    monkeypatch.setattr(fields, "_LOBPCG_MAXITER", 2)
    assert run([*_DYSON_SMALL, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "results.json").exists()


def test_failed_scan_point_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(*_wrapped("gp.gp_minimize", _not_converged))
    assert run(["scan-a", "--dim", "2", "--n", "16", "--box", "8", "--num", "2",
                "--out", str(tmp_path)]) == 1
    assert (tmp_path / "scan_a.csv").exists()
    assert not (tmp_path / "results.json").exists()


def test_failure_cases_cover_every_verdict(small_runs):
    written = {(name, v) for name, (_, verdicts, res) in small_runs.items()
               if res is not None for v in verdicts}
    assert {(argv[0], verdict) for argv, verdict, *_ in _FAILURES} == written


def test_readme_verdict_table_matches_runs(small_runs):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Subcommand | Verdict |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[2:]:
        commands, verdicts = line.split("|")[1:3]
        for name in re.findall(r"`([\w-]+)`", commands):
            listed.setdefault(name, set()).update(re.findall(r"`(\w+)`", verdicts))
    assert listed == {name: set(v) for name, (_, v, _) in small_runs.items()}


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


_CERTIFY_PATH = r"""
import sys
from rotogp import cli

out = sys.argv[1]
for argv in (["scattering", "--potential", "square", "1", "50"],
             ["dyson-check", "--J", "2", "--n", "16", "--box", "10"],
             ["heat-bound"], ["heat-bound", "--dim", "3"],
             ["heat-bound", "--V", "log", "2.0", "--alpha", "0.1"],
             ["fock-ed"], ["symbols-check"]):
    assert cli.main([*argv, "--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.startswith(("scipy.integrate", "scipy.optimize"))))
"""


def test_no_module_imports_optimize_integrate_or_numba():
    # a static scan of every import statement, so that a function-local
    # import that no subcommand reaches is caught too
    banned = ("scipy.optimize", "scipy.integrate", "numba")
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "rotogp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert found == []


def test_every_transform_call_is_in_fields():
    # a static scan of every call of a transform attribute: each one is in
    # fields, the complex ones in fields.apply_symbols and
    # fields.apply_multiplier
    names = {"fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"}
    elsewhere, in_fields = [], 0
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "rotogp").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in names):
                    if path.name == "fields.py":
                        in_fields += 1
                    else:
                        elsewhere.append((path.name, getattr(top, "name", None),
                                          node.func.attr))
    assert in_fields > 0
    assert elsewhere == []


def test_certify_path_imports_no_integrate_or_optimize(tmp_path):
    # heat-bound integrates with quadrature.integrate and fock minimizes in
    # closed form: no module imports scipy.optimize or scipy.integrate
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CERTIFY_PATH, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
