"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; a self-test keeps the two equal.
"""

from __future__ import annotations

ORACLE_CLOSED_FORMS = ("case_a", "case_b", "case_c_reduced", "case_d_reduced")

# Untraced runs (--trace 0).
END_TO_END = {
    "scenario_s": "s",     # median wall time of one warm cli.main call
    "setup_s": "s",        # median wall time of a fresh process on a 2-point grid
    "peak_rss_mb": "MiB",  # ru_maxrss of the fresh process that ran the workload
}

# Traced runs (--trace 1): (metric, unit, span names, field of the span summary).
_SPAN_METRICS = [
    ("hilbert.density_diagnostics.calls", "count", ["hilbert.density_diagnostics"], "calls"),
    ("hilbert.density_diagnostics.self_s", "s", ["hilbert.density_diagnostics"], "self_s"),
    ("hilbert.density_diagnostics.total_s", "s", ["hilbert.density_diagnostics"], "total_s"),
    ("hilbert.partial_trace.calls", "count", ["hilbert.partial_trace"], "calls"),
    ("hilbert.partial_trace.self_s", "s", ["hilbert.partial_trace"], "self_s"),
    ("hilbert.negativity.calls", "count", ["hilbert.negativity"], "calls"),
    ("hilbert.negativity.self_s", "s", ["hilbert.negativity"], "self_s"),
    ("hilbert.eigvalsh.calls", "count", ["linalg.eigvalsh", "linalg.eigh"], "calls"),
    ("hilbert.eigvalsh.s", "s", ["linalg.eigvalsh", "linalg.eigh"], "total_s"),
    ("hilbert.l1_coherence.calls", "count", ["hilbert.l1_coherence"], "calls"),
    ("hilbert.l1_coherence.self_s", "s", ["hilbert.l1_coherence"], "self_s"),
    ("engine.evolve.calls", "count", ["engine.evolve"], "calls"),
    ("engine.evolve.self_s", "s", ["engine.evolve"], "self_s"),
    ("engine.reduced_states.calls", "count", ["engine.reduced_states"], "calls"),
    ("engine.reduced_states.self_s", "s", ["engine.reduced_states"], "self_s"),
    ("engine.initial_state.self_s", "s", ["engine.initial_state"], "self_s"),
    ("nonclassicality.cascade.calls", "count", ["nonclassicality.cascade"], "calls"),
    ("nonclassicality.cascade.self_s", "s", ["nonclassicality.cascade"], "self_s"),
    ("nonclassicality.cascade.total_s", "s", ["nonclassicality.cascade"], "total_s"),
    ("nonclassicality.bs_output.calls", "count", ["nonclassicality.bs_output"], "calls"),
    ("nonclassicality.bs_output.self_s", "s", ["nonclassicality.bs_output"], "self_s"),
    (
        "nonclassicality.entanglement_potential.calls",
        "count",
        ["nonclassicality.entanglement_potential"],
        "calls",
    ),
    (
        "nonclassicality.entanglement_potential.self_s",
        "s",
        ["nonclassicality.entanglement_potential"],
        "self_s",
    ),
    ("oracle.closed_form.calls", "count", [f"oracle.{f}" for f in ORACLE_CLOSED_FORMS], "calls"),
    ("oracle.closed_form.self_s", "s", [f"oracle.{f}" for f in ORACLE_CLOSED_FORMS], "self_s"),
    ("cli.run_scenario.total_s", "s", ["cli.run_scenario"], "total_s"),
    ("cli.run_scenario.self_s", "s", ["cli.run_scenario"], "self_s"),
    ("cli.compare_with_oracle.total_s", "s", ["cli.compare_with_oracle"], "total_s"),
    ("cli.compare_with_oracle.self_s", "s", ["cli.compare_with_oracle"], "self_s"),
    ("cli.write_outputs.s", "s", ["cli.write_outputs"], "total_s"),
    ("cli.write_oracle_report.s", "s", ["cli.write_oracle_report"], "total_s"),
]

# Metrics not read off a single span summary field.
_DERIVED_METRICS = {
    "hilbert.eigvalsh.matrices": "count",
    "hilbert.eig_batch_mean": "matrices/call",
    "hilbert.eig_flops_computed": "flop",
    "cli.compare_with_oracle.evolve_calls": "count",
    "cli.output_bytes": "B",
    "trace.scenario_s": "s",
    "trace.overhead_s": "s",
    "trace.diag_bs_self_share": "ratio",
}

PER_LAYER = {name: unit for name, unit, _, _ in _SPAN_METRICS} | _DERIVED_METRICS

# Span names a per-layer metric reads; any not wrapped is reported absent.
TRACED_SPANS = sorted({s for _, _, spans, _ in _SPAN_METRICS for s in spans})


def per_layer(tracer, traced_s: float, untraced_s: float, output_bytes: int) -> dict:
    """Every per-layer metric from one traced scenario call.

    ``traced_s`` is that call's wall time, ``untraced_s`` the median of the
    untraced calls in the same run, ``output_bytes`` the size of the files
    the traced call wrote.
    """
    summary = tracer.summary()

    def span_sum(spans, key):
        return sum(summary[s][key] for s in spans if s in summary)

    values = {name: span_sum(spans, key) for name, _, spans, key in _SPAN_METRICS}
    calls = values["hilbert.eigvalsh.calls"]
    values.update(
        {
            "hilbert.eigvalsh.matrices": tracer.eig_matrices,
            "hilbert.eig_batch_mean": tracer.eig_matrices / calls if calls else 0.0,
            "hilbert.eig_flops_computed": tracer.eig_cubed,
            "cli.compare_with_oracle.evolve_calls": tracer.count_under(
                "engine.evolve", "cli.compare_with_oracle"
            ),
            "cli.output_bytes": output_bytes,
            "trace.scenario_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.diag_bs_self_share": (
                values["hilbert.density_diagnostics.self_s"]
                + values["nonclassicality.bs_output.self_s"]
            )
            / traced_s,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
