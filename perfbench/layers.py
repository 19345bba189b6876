"""Per-layer metrics from a traced run's spans, averaged per pass.

Every metric is named here once; run.py emits exactly this list with
``--trace 1`` and BENCHMARK.json's ``per_layer`` mirrors it.
"""

import statistics

FOCK_DIMS = (64, 96, 160, 192, 256, 512)
FIGURE_IDS = ("fig2a", "fig2a_inset", "fig2b", "fig2c", "fig2d", "fig3b",
              "fig3c", "fig4a", "fig4c")
SELF_CHECKS = ("squeeze_elements", "displacement_elements", "moments",
               "backend_agreement", "mathieu")
_OPERATORS = ("squeeze_operator_exact", "displacement_operator_exact")


def _dim_label(dim):
    return f"d{dim}" if dim in FOCK_DIMS else "dother"


def per_layer_units():
    """Ordered {metric name: unit} of every per-layer metric."""
    units = {
        "matrix_elements.displacement.calls": "count",
        "matrix_elements.displacement.s": "s",
        "matrix_elements.squeeze.calls": "count",
        "matrix_elements.squeeze.s": "s",
        "matrix_elements.squeeze.nonzero_ratio": "ratio",
        "spectroscopy.weighted_distribution.calls": "count",
        "spectroscopy.weighted_distribution.self_s": "s",
        "spectroscopy.weighted_distribution.elements_per_call": "count",
        "spectroscopy.sideband_populations.calls": "count",
        "spectroscopy.sideband_populations.s": "s",
    }
    for op in _OPERATORS:
        for label in [f"d{d}" for d in FOCK_DIMS] + ["dother"]:
            units[f"fock.{op}.calls.{label}"] = "count"
            units[f"fock.{op}.s.{label}"] = "s"
    units.update({
        "fock.matrix_exponential.s": "s",
        "fock.min_dim_search.s": "s",
        "fock.apply_unitary.calls": "count",
        "fock.apply_unitary.self_s": "s",
        "fock.validate_unitary.s": "s",
        "fock.validate_density.s": "s",
        "fock.number_distribution.calls": "count",
        "fock.number_distribution.self_s": "s",
        "fock.free_evolution_operator.s": "s",
        "fock.matmul_gflop_computed": "GFLOP",
        "fock.operator_bytes_computed": "bytes",
        "protocol.run_fock.calls": "count",
        "protocol.run_fock.self_s": "s",
        "protocol.run_fock.steps": "count",
        "protocol.run_symplectic.calls": "count",
        "protocol.run_symplectic.s": "s",
        "protocol.implied_state.s": "s",
        "cli.protocol_run.attempts_per_run": "ratio",
    })
    for fid in FIGURE_IDS:
        units[f"figures.generate.s.{fid}"] = "s"
    units["figures.emit_csv.s"] = "s"
    units["figures.csv_byte_identical"] = "count"
    for check in SELF_CHECKS:
        units[f"selfcheck.check_{check}.s"] = "s"
    units["config.load_config.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def compute(tracer, traced_passes, untraced_pass_s, traced_pass_s,
            csv_byte_identical):
    """Per-pass per-layer metrics from ``tracer``'s spans."""
    names, keys, parents = tracer.names, tracer.keys, tracer.parents
    dur, self_s = tracer.self_times()
    per = 1.0 / max(traced_passes, 1)
    totals = {}

    def add(metric, value):
        totals[metric] = totals.get(metric, 0.0) + value

    for i, name in enumerate(names):
        short = name.split(".", 1)[1]
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur[i])
        add(f"{name}.self_s", self_s[i])
        if short in _OPERATORS:
            label = _dim_label(keys[i])
            add(f"{name}.calls.{label}", 1)
            add(f"{name}.s.{label}", dur[i])
        if short in _OPERATORS or short == "free_evolution_operator":
            add("operator_bytes", 16.0 * keys[i] ** 2)
        if short == "apply_unitary":
            add("gflop", 2 * 8.0 * keys[i] ** 3 / 1e9)
            if parents[i] >= 0 and names[parents[i]] == "protocol.run_fock":
                add("protocol.run_fock.steps", 1)
        if short == "validate_unitary":
            add("gflop", 8.0 * keys[i] ** 3 / 1e9)
        if short == "generate":
            add(f"figures.generate.s.{keys[i]}", dur[i])
        if short == "run_fock":
            p = parents[i]
            if p >= 0 and names[p] == "cli.protocol_run":
                add("protocol_run.attempts", 1)
    elements = {}
    for idx, agg in tracer.agg.items():
        parent_wd = idx >= 0 and names[idx] == \
            "spectroscopy.weighted_distribution"
        for label, (calls, secs, nonzero) in agg.items():
            slot = elements.setdefault(label, [0, 0.0, 0])
            slot[0] += calls
            slot[1] += secs
            slot[2] += nonzero
            if parent_wd:
                add("wd_elements", calls)

    def total(metric):
        return totals.get(metric, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in per_layer_units():
        if metric.startswith("matrix_elements."):
            _, label, field = metric.split(".")
            calls, secs, nonzero = elements.get(label, (0, 0.0, 0))
            out[metric] = {"calls": calls * per, "s": secs * per,
                           "nonzero_ratio": ratio(nonzero, calls)}[field]
        elif metric == "spectroscopy.weighted_distribution.elements_per_call":
            out[metric] = ratio(total("wd_elements"), total(
                "spectroscopy.weighted_distribution.calls"))
        elif metric == "fock.min_dim_search.s":
            out[metric] = per * (total("fock.min_squeeze_dim.s")
                                 + total("fock.min_displacement_dim.s"))
        elif metric == "fock.matmul_gflop_computed":
            out[metric] = per * total("gflop")
        elif metric == "fock.operator_bytes_computed":
            out[metric] = per * total("operator_bytes")
        elif metric == "cli.protocol_run.attempts_per_run":
            out[metric] = ratio(total("protocol_run.attempts"),
                                total("cli.protocol_run.calls"))
        elif metric == "figures.csv_byte_identical":
            out[metric] = csv_byte_identical or 0
        elif metric == "trace.overhead_s":
            out[metric] = (statistics.median(traced_pass_s)
                           - statistics.median(untraced_pass_s))
        else:
            out[metric] = per * total(metric)
    return out
