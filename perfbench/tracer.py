"""Span tracer installed on rotogp from outside the package.

`Tracer.install` wraps every public module-level function of the layer
modules (fields, gp, analysis, scattering, dyson, fock, heatkernel, cli) and
numpy.fft.{fftn, ifftn, fft, ifft}, then rebinds each wrapped function in
every rotogp module that bound it by name (gp imports apply_gauge_kinetic
and norm4_pow4 from fields, for instance), so calls through either name are
seen.  No source file changes.

Each call records a span: name, job id, parent span, start and end.  Spans
stay in compact arrays in memory and are written out once, at the end.  A
few boundaries also add counters (FFT bytes, solver iterations, matrix
non-zeros) through probes that run after the span has closed; a probe that
fails (a changed signature, say) is recorded, never raised into the program.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("fields", "gp", "analysis", "scattering", "dyson", "fock",
          "heatkernel", "cli")
FFTS = tuple(f"numpy.fft.{n}" for n in ("fftn", "ifftn", "fft", "ifft"))


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _file_bytes(path):
    return os.path.getsize(path) + os.path.getsize(str(path) + ".json")


# probe(counters, fn, args, kwargs, result), run after the span closes
def _fft_probe(c, fn, args, kwargs, result):
    c["fields.fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes


def _minimize_probe(c, fn, args, kwargs, result):
    c["gp.iterations"] += result.iterations
    c["gp.converged"] += bool(result.converged)


def _io_probe(c, fn, args, kwargs, result):
    c["fields.io_bytes"] += _file_bytes(_bound(fn, args, kwargs)["path"])


def _inequality_probe(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    c["dyson.channel_solves"] += len(a["ell_list"]) * len(a["basis_sizes"])


def _diag_probe(c, fn, args, kwargs, result):
    c["heatkernel.diag_points"] += np.atleast_1d(_bound(fn, args, kwargs)["xs"]).size


def _assembly_probe(c, fn, args, kwargs, result):
    c["fock.assembly_nnz"] += result.nnz


def _ground_probe(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    c["fock.sector_dim"] += a["basis"].sector(a["total"]).size


PROBES = {
    **{name: _fft_probe for name in FFTS},
    "gp.gp_minimize": _minimize_probe,
    "fields.write_field": _io_probe,
    "fields.read_field": _io_probe,
    "dyson.check_dyson_inequality": _inequality_probe,
    "heatkernel.diag_bound": _diag_probe,
    "fock.build_hamiltonian": _assembly_probe,
    "fock.ground_state": _ground_probe,
}


class Tracer:
    def __init__(self):
        self.names = []               # name id -> qualified name
        self.span_name = array("q")
        self.span_job = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self.probe_errors = {}        # qualified name -> first probe failure
        self.job = -1
        self._stack = [-1]

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"rotogp.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for qualname in FFTS:
            attr = qualname.rsplit(".", 1)[1]
            setattr(np.fft, attr, self._wrap(getattr(np.fft, attr), qualname))
        for modname, mod in list(sys.modules.items()):
            if modname == "rotogp" or modname.startswith("rotogp."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])

    def _wrap(self, fn, qualname):
        nid = len(self.names)
        self.names.append(qualname)
        probe = PROBES.get(qualname)
        names, jobs, parents = self.span_name, self.span_job, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters, clock, tracer = self.counters, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            jobs.append(tracer.job)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if probe is not None:
                try:
                    probe(counters, fn, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - never break the program
                    tracer.probe_errors.setdefault(qualname, repr(exc))
            return result

        return traced

    # -- output --------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64),
            "job": np.frombuffer(self.span_job, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def stats(self):
        return SpanStats(self.names, self.arrays(), self.counters, self.probe_errors)


class SpanStats:
    """Call counts, inclusive and self times over a finished trace."""

    def __init__(self, names, spans, counters, probe_errors):
        self.ids = {n: i for i, n in enumerate(names)}
        self.probe_errors = probe_errors
        self.name, self.job, self.parent = spans["name"], spans["job"], spans["parent"]
        self.duration = spans["end"] - spans["start"]
        self.counters = counters
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.duration[child],
                              minlength=self.name.size)
        self.self_time = self.duration - covered
        self.layer = np.array([n.split(".")[0] if not n.startswith("numpy.")
                               else "numpy" for n in names])

    def known(self, qualname):
        return qualname in self.ids

    def _mask(self, qualnames):
        ids = [self.ids[q] for q in qualnames if q in self.ids]
        return np.isin(self.name, ids)

    def calls(self, *qualnames):
        return int(np.count_nonzero(self._mask(qualnames)))

    def outer_seconds(self, *qualnames):
        """Inclusive time of the spans of qualnames not nested in one another."""
        member = self._mask(qualnames)
        nested = np.zeros_like(member)
        up = self.parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            nested[live] |= member[up[live]]
            up[live] = self.parent[up[live]]
        return float(self.duration[member & ~nested].sum())

    def self_seconds(self, *qualnames):
        return float(self.self_time[self._mask(qualnames)].sum())

    def layer_self_seconds(self, layer):
        return float(self.self_time[self.layer[self.name] == layer].sum())

    def seconds_by_job(self, qualname):
        """Inclusive seconds of qualname's spans, summed per job id."""
        mask = self._mask((qualname,))
        out = Counter()
        for job, seconds in zip(self.job[mask].tolist(), self.duration[mask].tolist()):
            out[job] += seconds
        return out
