"""rotogp benchmark: one workload, its outputs checked, its metrics printed.

    python3 perfbench/run.py --workload vortex2d|certify
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src.  The
workload's jobs run through rotogp.cli.main in a fresh interpreter
(perfbench/child.py), and every job's outputs are checked against
perfbench/references.json.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones,
from a traced run next to an untraced one.  The lines before it name every
job, every metric with its unit, and the provenance.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# fresh interpreters timed for setup_s, half before and half after the jobs,
# so that one burst of load from other machines moves few of them
SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
# traced and untraced outputs must agree to rounding: the iterative
# eigensolvers differ in the last digits between any two runs
SAME_REL, SAME_ABS = 1e-9, 1e-12


class BenchError(RuntimeError):
    pass


def _run(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(map(str, cmd))}")


def measure_setup(count):
    """Seconds of `count` fresh interpreters that each import rotogp.cli."""
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import rotogp.cli"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stderr=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("python -c 'import rotogp.cli' failed")
    return samples


def run_child(workload, work, seconds, trace, deadline):
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--work", str(work), "--seconds", str(seconds)] + (["--trace"] if trace else [])
    proc = _run(cmd, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(cmd)}")
    with open(work / "child.json") as fh:
        return json.load(fh)


def refuse_new_threads(child):
    """Stop if a job started threads: they would share the pinned core.

    The child pins its main thread to one core (see child.py).  A thread
    started after that inherits the core, so a program that used a second
    core would be timed as if it ran on one, and its own contention would
    be divided out of the normalised time as if it came from other machines.
    """
    grown = sorted({f"{r['job']} ({r['threads'][0]} -> {r['threads'][1]})"
                    for r in child["jobs"] if r["threads"][1] > r["threads"][0]})
    if grown:
        raise BenchError("run not comparable: threads started on the pinned core by "
                         + ", ".join(grown) + "; see README.md, 'Why normalised time'")


# -- output checks -----------------------------------------------------------

def judge(workload, child, work, refs, seed):
    """Check every job run; return one verdict per run, in order."""
    jobs = {j.name: j for j in workload.jobs}
    verdicts = []
    for rec in child["jobs"]:
        job = jobs[rec["job"]]
        ref = refs[job.name]
        if job.seeded and seed != workloads.DEFAULT_SEED:
            ref = None  # fall back to the job's own invariants
        out = work / f"pass{rec['pass']}" / job.name
        if rec["error"]:
            problems = ["crashed:\n" + rec["error"]]
        else:
            try:
                problems = job.check(rec["rc"], job.extract(out), ref)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        verdicts.append({"job": job.name, "rc": rec["rc"], "problems": problems,
                         "fails": rec["rc"] != 0 or bool(problems)})
    return verdicts


def _numbers(path):
    """The file's content with every number as a float, timings dropped."""
    if path.suffix == ".f64":
        return np.fromfile(path, dtype="<f8").tolist()
    if path.suffix == ".csv":
        with open(path) as fh:
            return [[float(x) for x in line.split(",")] if i else line
                    for i, line in enumerate(fh)]
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data.pop("seconds", None)  # timing, the one field allowed to differ
    return data


def _close(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=SAME_REL, abs_tol=SAME_ABS)
    return a == b


def same_outputs(plain, traced):
    """Files of the traced pass that differ from the untraced one."""
    diffs = []
    for p in sorted(plain.rglob("*")):
        if p.is_file():
            q = traced / p.relative_to(plain)
            if not q.is_file() or not _close(_numbers(p), _numbers(q)):
                diffs.append(str(p.relative_to(plain)))
    return diffs


# -- metrics and provenance --------------------------------------------------

def pass_totals(child, key):
    totals = {}
    for rec in child["jobs"]:
        totals[rec["pass"]] = totals.get(rec["pass"], 0.0) + rec[key]
    return list(totals.values())


def provenance(seed, child):
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), **child["runtime"],
            "nproc": os.cpu_count(), "seed": seed}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload, args, end_to_end, per_layer):
    deadline = time.monotonic() + DEADLINE_S

    work = HERE / "_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    workloads.make_inputs(workload, args.seed, work / "inputs")

    setup = [] if args.trace else measure_setup(SETUP_SAMPLES // 2)
    # a traced run makes one untraced and one traced pass, to compare them
    seconds = 0.0 if args.trace else args.seconds
    plain = run_child(workload.name, work / "plain", seconds, False, deadline)
    traced = run_child(workload.name, work / "traced", 0.0, True, deadline) if args.trace else None
    if not args.trace:
        setup += measure_setup(SETUP_SAMPLES - len(setup))

    for child in (plain, traced) if traced else (plain,):
        refuse_new_threads(child)
    refs = workloads.load_references()[workload.name]

    verdicts = judge(workload, plain, work / "plain", refs, args.seed)
    if traced:
        verdicts += judge(workload, traced, work / "traced", refs, args.seed)
        diffs = same_outputs(work / "plain" / "pass0", work / "traced" / "pass0")
        problems = [f"traced outputs differ: {d}" for d in diffs]
        verdicts.append({"job": "traced == untraced", "rc": 0, "problems": problems,
                         "fails": bool(problems)})
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v["problems"])
    fails = sum(1 for v in verdicts if v["fails"])

    for v in verdicts:
        state = "ok" if not v["fails"] else ("known failure" if not v["problems"] else "FAILED")
        print(f"job {v['job']}: exit {v['rc']}, {state}")
        for problem in v["problems"]:
            print(f"    {problem}")

    wall_norm = pass_totals(plain, "norm_s")
    if traced:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = sum(pass_totals(traced, "norm_s")) / wall_norm[0] - 1
        for name in traced["missing"]:
            print(f"MISSING per-layer metric {name}: its functions saw no call")
        for name in traced["unwrapped"]:
            print(f"MISSING function {name}: not found in its module")
        for name, error in traced["probe_errors"].items():
            print(f"MISSING counters of {name}: probe failed with {error}")
        units = per_layer
        absent = set(units) - set(metrics) - set(traced["missing"])
    else:
        metrics = {
            "wall_norm_s": statistics.median(wall_norm),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": plain["peak_rss_mb"],
            "pass_frac": 1.0 - fails / attempted,
        }
        units = end_to_end
        absent = set(units) - set(metrics)
        print(f"wall_s = {statistics.median(pass_totals(plain, 'raw_s')):.4f} s "
              f"(raw wall time; median over {len(wall_norm)} pass(es))")
        print(f"fail_frac = {fails / attempted:.4f} ({fails}/{attempted} job runs)")
    unknown = set(metrics) - set(units)
    if unknown or absent:
        raise BenchError(f"metrics and BENCHMARK.json disagree: {sorted(unknown | absent)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    prov = provenance(args.seed, plain)
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(work / "result.json", "w") as fh:
        json.dump({**result, "provenance": prov, "verdicts": verdicts}, fh, indent=1)
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rotogp" / "cli.py").is_file():
        raise BenchError("run from a rotogp checkout: src/rotogp/cli.py not found")
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, str(ROOT / "src"))  # make_inputs uses the package
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        run_workload(workloads.WORKLOADS[name], args, end_to_end, per_layer)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
