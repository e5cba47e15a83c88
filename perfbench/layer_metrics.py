"""Per-layer metrics of a traced run, one formula per metric.

Each entry names the wrapped functions the metric reads; a tuple among them
is a group, seen if any of its members is.  On a workload that targets the
metric (workloads.Workload.targets), a source that is gone from its module,
saw no call or whose probe failed makes the metric *missing*: it is left out
of the result and listed, never reported as 0, so that a rename in the
package shows up here.  On other workloads an unused source simply reads 0.
Times are seconds; "outer" times are inclusive and count a span nested in
another of the same set once.
"""

from tracer import FFTS

GAUGE = "fields.apply_gauge_kinetic"
GRAD = "gp.gp_gradient"
SUBCOMMANDS = ("solve-gp", "scan-omega", "analyze", "scattering",
               "dyson-check", "heat-bound", "fock-ed", "symbols-check")


def _ratio(num, den):
    return num / den if den else 0.0


def _seen(st, source):
    group = (source,) if isinstance(source, str) else source
    return (any(st.known(f) for f in group) and st.calls(*group) > 0
            and not any(f in st.probe_errors for f in group))


def _energy_evals(st):
    # gauge applies made outside gp_gradient are the line-search trial energies
    return st.calls(GAUGE) - st.calls(GRAD)


def _cli_seconds(sub):
    return lambda st, run: sum(s for job, s in run["cli_main_by_job"].items()
                               if run["subcommands"][job] == sub)


METRICS = {
    "fields.fft_calls": ((FFTS,), lambda st, run: st.calls(*FFTS)),
    "fields.fft_s": ((FFTS,), lambda st, run: st.self_seconds(*FFTS)),
    "fields.fft_per_grad": ((FFTS, GRAD), lambda st, run: _ratio(
        st.calls(*FFTS), st.calls(GRAD))),
    "fields.fft_mb_computed": ((FFTS,), lambda st, run: st.counters["fields.fft_bytes"] / 1e6),
    "fields.gauge_apply_calls": ((GAUGE,), lambda st, run: st.calls(GAUGE)),
    "fields.gauge_apply_s": ((GAUGE,), lambda st, run: st.outer_seconds(GAUGE)),
    "fields.io_s": (("fields.write_field", "fields.read_field"),
                    lambda st, run: st.outer_seconds("fields.write_field",
                                                     "fields.read_field")),
    "fields.io_bytes": (("fields.write_field", "fields.read_field"),
                        lambda st, run: st.counters["fields.io_bytes"]),
    "gp.solves": (("gp.gp_minimize",), lambda st, run: st.calls("gp.gp_minimize")),
    "gp.gradient_calls": ((GRAD,), lambda st, run: st.calls(GRAD)),
    "gp.iterations": (("gp.gp_minimize",), lambda st, run: st.counters["gp.iterations"]),
    "gp.energy_evals": ((GAUGE, GRAD), lambda st, run: _energy_evals(st)),
    "gp.useful_trial_frac": ((GAUGE, GRAD, "gp.gp_minimize"), lambda st, run: _ratio(
        st.counters["gp.iterations"], _energy_evals(st))),
    "gp.s_per_grad": ((GRAD,), lambda st, run: _ratio(
        st.outer_seconds(GRAD), st.calls(GRAD))),
    "gp.self_s": (("gp.gp_minimize",), lambda st, run: st.layer_self_seconds("gp")),
    "gp.converged_frac": (("gp.gp_minimize",), lambda st, run: _ratio(
        st.counters["gp.converged"], st.calls("gp.gp_minimize"))),
    "analysis.census_calls": (("analysis.detect_vortices",),
                              lambda st, run: st.calls("analysis.detect_vortices")),
    "analysis.census_s": (("analysis.detect_vortices",), lambda st, run: st.outer_seconds(
        "analysis.detect_vortices", "analysis.total_vortex_charge")),
    "analysis.lz_s": (("analysis.angular_momentum_z",),
                      lambda st, run: st.outer_seconds("analysis.angular_momentum_z")),
    "scattering.calls": (("scattering.radial_solution",),
                         lambda st, run: st.calls("scattering.radial_solution")),
    "scattering.s": (("scattering.radial_solution",), lambda st, run: st.outer_seconds(
        "scattering.radial_solution", "scattering.scattering_length")),
    "dyson.inequality_s": (("dyson.check_dyson_inequality",),
                           lambda st, run: st.outer_seconds("dyson.check_dyson_inequality")),
    "dyson.channel_solves": (("dyson.check_dyson_inequality",),
                             lambda st, run: st.counters["dyson.channel_solves"]),
    "dyson.s_per_channel_solve": (("dyson.check_dyson_inequality",), lambda st, run: _ratio(
        st.outer_seconds("dyson.check_dyson_inequality"),
        st.counters["dyson.channel_solves"])),
    "dyson.soft_potentials_s": (("dyson.build_soft_potentials",),
                                lambda st, run: st.outer_seconds("dyson.build_soft_potentials")),
    "dyson.k0_s": (("dyson.kappa_eta", "dyson.build_K0"),
                   lambda st, run: st.outer_seconds("dyson.kappa_eta", "dyson.build_K0")),
    "heatkernel.diag_bound_s": (("heatkernel.diag_bound",),
                                lambda st, run: st.outer_seconds("heatkernel.diag_bound")),
    "heatkernel.s_per_diag_point": (("heatkernel.diag_bound",), lambda st, run: _ratio(
        st.outer_seconds("heatkernel.diag_bound"), st.counters["heatkernel.diag_points"])),
    "heatkernel.brute_diag_s": (("heatkernel.brute_diag",),
                                lambda st, run: st.outer_seconds("heatkernel.brute_diag")),
    "heatkernel.weighted_trace_s": (("heatkernel.weighted_trace",),
                                    lambda st, run: st.outer_seconds("heatkernel.weighted_trace")),
    "fock.assembly_s": (("fock.build_hamiltonian",),
                        lambda st, run: st.outer_seconds("fock.build_hamiltonian")),
    "fock.assembly_nnz": (("fock.build_hamiltonian",),
                          lambda st, run: st.counters["fock.assembly_nnz"]),
    "fock.ground_state_s": (("fock.ground_state",),
                            lambda st, run: st.outer_seconds("fock.ground_state")),
    "fock.sector_dim": (("fock.ground_state",), lambda st, run: st.counters["fock.sector_dim"]),
    "fock.symbols_s": (("fock.verify_resolution",), lambda st, run: st.outer_seconds(
        "fock.verify_resolution", "fock.lower_symbol", "fock.upper_symbol")),
    "cli.self_s": (("cli.main",), lambda st, run: st.layer_self_seconds("cli")),
    "cli.bytes_written": (("cli.main",), lambda st, run: run["bytes_written"]),
    **{f"cli.{sub}_s": (("cli.main",), _cli_seconds(sub)) for sub in SUBCOMMANDS},
}


def source_names():
    names = set()
    for sources, _ in METRICS.values():
        for s in sources:
            names.update((s,) if isinstance(s, str) else s)
    return names


def compute(st, run, targets):
    """(metrics, missing) for one traced run.

    run holds what the child saw outside the spans: "subcommands" (job id ->
    subcommand), "cli_main_by_job" and "bytes_written".
    """
    values, missing = {}, []
    run = dict(run, cli_main_by_job=st.seconds_by_job("cli.main"))
    for name, (sources, formula) in METRICS.items():
        targeted = name.startswith(targets)
        if name.startswith("cli.") and name.endswith("_s") and name != "cli.self_s":
            targeted = name[4:-2] in run["subcommands"].values()
        if targeted and not all(_seen(st, s) for s in sources):
            missing.append(name)
            continue
        values[name] = float(formula(st, run))
    return values, missing
