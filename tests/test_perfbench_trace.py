"""A traced run's per-layer metrics are finite and serialize as strict JSON.

perfbench/run.py ends with one JSON line that a strict parser must accept.
A per-layer value that json.dumps writes as a bare NaN or Infinity, a probe
that fails on a changed signature, or a metric source that the tracer can
no longer find would make that result unreadable or incomplete.  This test
uses perfbench's files read-only: in a fresh interpreter it installs
perfbench/tracer.Tracer, runs small solve-gp, analyze, fock-ed,
symbols-check and dyson-check jobs, a heat-bound job and a fock-ed job on a
sector above fock's dense cutoff (ARPACK on the sector operator) through
rotogp.cli.main and computes layer_metrics.compute on the trace.  So the
probes that read `build_hamiltonian(...).nnz`, `ground_state`'s basis and
total and `diag_bound`'s xs run on every job kind that reaches them.  The dyson-check job also runs
untraced in its own interpreter, and the two results.json files must agree
as perfbench/run.py compares a traced pass with a plain one.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from rotogp import fock

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import contextlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer

tracer = Tracer()
tracer.install()
import layer_metrics
import rotogp.cli

JOBS = [
    ["solve-gp", "--dim", "2", "--n", "32", "--box", "12", "--omega", "-0.6",
     "--a", "4", "--init", "vortex:1", "--out", "gp"],
    ["analyze", "--field", "gp/field.f64", "--out", "analyze"],
    ["fock-ed", "--J", "3", "--Nmax", "4", "--sector", "3", "--g", "0.5", "--out", "fock"],
    ["symbols-check", "--op", "adag a", "--out", "symbols"],
    ["dyson-check", "--n", "16", "--out", "dyson"],
    ["heat-bound", "--out", "heat"],
    ["fock-ed", "--J", "6", "--Nmax", "5", "--sector", "5", "--out", "fock-large"],
]
codes, subcommands = [], {}
with contextlib.redirect_stdout(sys.stderr):
    for job, argv in enumerate(JOBS):
        tracer.job = job
        subcommands[job] = argv[0]
        codes.append(rotogp.cli.main(argv))
values, missing = layer_metrics.compute(
    tracer.stats(), {"subcommands": subcommands, "bytes_written": 0},
    ("fields.", "gp.", "analysis.", "fock.", "dyson.", "heatkernel.", "cli."))
print(json.dumps({
    "codes": codes,
    "values": values,
    "missing": missing,
    "unwrapped": sorted(layer_metrics.source_names() - set(tracer.names)),
    "probe_errors": tracer.probe_errors,
}, allow_nan=False))
"""


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module; it imports its sibling workloads.py."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject(token):
    raise ValueError(f"non-finite JSON constant {token}")


def test_traced_jobs_give_finite_strict_json_metrics(tmp_path, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the result is the last line, and a strict parser accepts it
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["codes"] == [0] * 7
    assert result["probe_errors"] == {}
    assert result["unwrapped"] == []
    assert result["missing"] == []
    values = result["values"]
    # a strict parse still reads an overflowing literal such as 1e999 as inf
    assert all(math.isfinite(v) for v in values.values())
    assert values["gp.gradient_calls"] > 0 and values["fock.assembly_nnz"] > 0
    # sectors C(5, 2) = 10 and C(10, 5) = 252, the second past the dense cutoff
    assert values["fock.sector_dim"] == 10 + 252 and 252 > fock._DENSE_STATES
    assert values["heatkernel.s_per_diag_point"] > 0
    assert values["fields.fft_per_grad"] > 0 and values["fields.io_bytes"] > 0
    assert {"dyson.k0_s", "dyson.inequality_s", "dyson.channel_solves"} <= values.keys()
    assert values["dyson.channel_solves"] > 0

    # the same dyson-check untraced, in a fresh interpreter: the eigensolvers
    # must give the traced run's record to perfbench's rounding tolerance
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run(
        [sys.executable, "-m", "rotogp.cli", "dyson-check", "--n", "16", "--out", "plain/dyson"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert plain.returncode == 0, plain.stderr
    run = _perfbench_run(monkeypatch)
    assert (tmp_path / "plain" / "dyson" / "results.json").is_file()
    assert run.same_outputs(tmp_path / "plain", tmp_path) == []
