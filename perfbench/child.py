"""Run one workload's jobs in this fresh interpreter and record what happened.

    python3 perfbench/child.py --workload NAME --work DIR --seconds S [--trace]

Imports rotogp.cli from ./src, runs the workload's jobs through
rotogp.cli.main(argv) in a closed loop, one job after another, pass after
pass until S seconds have gone (at least one whole pass), and writes
DIR/child.json: per job its exit code, raw and load-normalised seconds
(see loadclock.py), bytes written and the process's thread count before
and after it; the peak RSS; the runtime versions.
With --trace the tracer is installed first, the spans are saved to
DIR/spans.npz and the per-layer metrics go into child.json as well.
Output checks are left to run.py.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import loadclock  # noqa: E402  (binds its FFTs before the tracer patches numpy)
import rotogp.cli  # noqa: E402
from rotogp import backend  # noqa: E402
from workloads import WORKLOADS, expand_argv, subcommand  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_job(argv):
    try:
        return rotogp.cli.main(argv), None
    except Exception:  # noqa: BLE001 - one job's crash must not stop the run
        return -1, traceback.format_exc()


def thread_count():
    return len(os.listdir("/proc/self/task"))


def bytes_under(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    inputs = args.work.parent / "inputs"

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Pin this (main) thread to one core, so that the load probe and the
    # work it corrects share a core in every run.  OpenBLAS started its
    # threads when numpy was imported; they keep the full CPU set.  A thread
    # started later inherits the one core and slows the probe, so run.py
    # refuses a run in which a job raised the thread count.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    records, subcommands = [], {}
    clock = loadclock.LoadClock()
    t_begin = time.perf_counter()
    with clock:
        p = 0
        while p == 0 or time.perf_counter() - t_begin < args.seconds:
            pass_dir = args.work / f"pass{p}"
            for job in workload.jobs:
                out = pass_dir / job.name
                out.mkdir(parents=True)
                argv = expand_argv(job, out, inputs, pass_dir)
                job_id = len(records)
                subcommands[job_id] = subcommand(job)
                if tracer:
                    tracer.job = job_id
                threads_before = thread_count()
                (rc, error), raw, norm = clock.time(run_job, argv)
                records.append({"pass": p, "job": job.name, "rc": rc, "error": error,
                                "raw_s": raw, "norm_s": norm,
                                "bytes": bytes_under(out),
                                "threads": [threads_before, thread_count()]})
            p += 1

    result = {
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": backend.backend_name(),
            "blas_threads": blas_threads(),
        },
    }
    if tracer:
        import layer_metrics

        tracer.save(args.work / "spans.npz")
        run = {"subcommands": subcommands,
               "bytes_written": sum(r["bytes"] for r in records)}
        result["layers"], result["missing"] = layer_metrics.compute(
            tracer.stats(), run, workload.targets)
        result["unwrapped"] = sorted(layer_metrics.source_names() - set(tracer.names))
        result["probe_errors"] = tracer.probe_errors
    with open(args.work / "child.json", "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
