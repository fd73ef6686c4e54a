"""Per-layer metrics of a traced run, and the end-to-end metric each should
move (NOTES.md has the full prediction table).

Times and counts are per traced problem, so that runs that finish a
different number of problems in the same time stay comparable; shares,
ratios and maxima are over the whole run.  Layer times are raw wall
seconds (the identity with `bench.traced_problem_s` needs one clock);
`bench.calibration_s` is the run's median calibration-kernel time, so
they can be rescaled to the reference speed like the end-to-end times.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# (layer, functions measured by calls and busy_s, functions by busy_s only)
FUNCTIONS = (
    ("gradedmod", ("syzygy_of_map", "hom_space", "image_presentation",
                   "buchberger_module", "vec_nf"), ()),
    ("algebra", ("FiniteAlgebra.radical", "FiniteAlgebra.charpoly",
                 "semisimple_primitive_idempotents", "lift_idempotents",
                 "FiniteAlgebra.extend_scalars"), ()),
    ("bundle", ("syzygy_bundle", "end_algebra", "decompose_bundle",
                "forcing_data", "component_class_vanishes"), ()),
    ("closure", (), ("tight_closure_member", "tight_closure_ideal",
                     "slope_and_threshold", "frobenius_member")),
    ("linalg", ("solve", "SpanBasis.add", "row_space_contains"), ()),
    ("polyring", ("CubicCurve.nf", "buchberger", "monomials_of_degree",
                  "CubicCurve.piece_monomials"), ()),
    ("field", ("make_field", "embed"), ()),
    ("cli", (), ("parse_problem",)),
)
PER_PROBLEM_COUNTS = (
    ("gradedmod.buchberger_module.in_vectors", "vectors/problem"),
    ("gradedmod.buchberger_module.out_vectors", "vectors/problem"),
    ("algebra.FiniteAlgebra.charpoly.ops", "dim3/problem"),
    ("closure.window.lines", "lines/problem"),
    ("closure.window.criterion_tests", "tests/problem"),
    ("closure.frobenius.degrees_searched", "degrees/problem"),
)


def spec():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for layer, with_calls, busy_only in FUNCTIONS:
        out.append((f"{layer}.self_s", "s/problem", "lower"))
        for fn in with_calls:
            out.append((f"{layer}.{fn}.calls", "calls/problem", "lower"))
            out.append((f"{layer}.{fn}.busy_s", "s/problem", "lower"))
        for fn in busy_only:
            out.append((f"{layer}.{fn}.busy_s", "s/problem", "lower"))
        if layer == "linalg":
            for path in ("prime", "table", "generic"):
                out.append((f"linalg.rref.{path}.calls", "calls/problem",
                            "lower"))
                out.append((f"linalg.rref.{path}.busy_s", "s/problem",
                            "lower"))
                out.append((f"linalg.rref.{path}.cells", "cells/problem",
                            "lower"))
    for name, unit in PER_PROBLEM_COUNTS:
        out.append((name, unit, "lower"))
    out += [
        ("bundle.decompose_bundle.ext_share", "share", "lower"),
        ("closure.window.tests_per_line", "tests/line", "lower"),
        ("closure.frobenius.max_D", "degree", "lower"),
        ("closure.frobenius.witness_share", "share", "higher"),
        ("closure.frobenius.wasted_s", "s/problem", "lower"),
        ("polyring.monomials_of_degree.max_degree", "degree", "lower"),
        ("bench.traced_problem_s", "s/problem", "lower"),
        ("bench.unattributed_s", "s/problem", "lower"),
        ("bench.trace_overhead_frac", "ratio", "lower"),
        ("bench.traced_problems", "count", "higher"),
        ("bench.calibration_s", "s", "lower"),
    ]
    return out


def layer_metrics(tracer, traced, untraced):
    """{name: (value, unit)} for every metric of `spec()`, from the traced
    and untraced `Outcome`s of the same problems."""
    n = len(traced)
    c = tracer.counts
    values = {}
    for layer, with_calls, busy_only in FUNCTIONS:
        values[f"{layer}.self_s"] = tracer.layer_self(layer) / n
        for fn in with_calls:
            values[f"{layer}.{fn}.calls"] = tracer.calls[f"{layer}.{fn}"] / n
        for fn in with_calls + busy_only:
            values[f"{layer}.{fn}.busy_s"] = tracer.busy[f"{layer}.{fn}"] / n
    for path in ("prime", "table", "generic"):
        key = f"linalg.rref.{path}"
        values[key + ".calls"] = tracer.calls[key] / n
        values[key + ".busy_s"] = tracer.busy[key] / n
        values[key + ".cells"] = c[key + ".cells"] / n
    for name, _ in PER_PROBLEM_COUNTS:
        values[name] = c[name] / n
    decompositions = tracer.calls["bundle.decompose_bundle"]
    values["bundle.decompose_bundle.ext_share"] = (
        c["bundle.decompose_bundle.extended"] / decompositions
        if decompositions else 0.0)
    lines = c["closure.window.lines"]
    values["closure.window.tests_per_line"] = (
        c["closure.window.criterion_tests"] / lines if lines else 0.0)
    values["closure.frobenius.max_D"] = c["closure.frobenius.max_D"]
    oracles = c["closure.frobenius.calls"]
    values["closure.frobenius.witness_share"] = (
        c["closure.frobenius.witnesses"] / oracles if oracles else 0.0)
    values["closure.frobenius.wasted_s"] = c["closure.frobenius.wasted_s"] / n
    values["polyring.monomials_of_degree.max_degree"] = \
        c["polyring.monomials_of_degree.max_degree"]
    seconds = [o.seconds for o in traced]
    values["bench.traced_problem_s"] = sum(seconds) / n
    values["bench.unattributed_s"] = unattributed(tracer, seconds) / n
    values["bench.trace_overhead_frac"] = (
        sum(seconds) / sum(o.seconds for o in untraced) - 1.0)
    values["bench.traced_problems"] = n
    values["bench.calibration_s"] = statistics.median(
        o.kernel_s for o in traced)
    return {name: (values[name], unit) for name, unit, _ in spec()}


def unattributed(tracer, traced_times):
    """Traced wall time that no layer's self time covers."""
    return sum(traced_times) - sum(tracer.layer_self(l) for l in LAYERS)


def sum_check(tracer, traced_times):
    parts = " + ".join(f"{l} {tracer.layer_self(l):.3f}" for l in LAYERS)
    return (f"traced wall {sum(traced_times):.3f} s = {parts} + unattributed "
            f"{unattributed(tracer, traced_times):.3f} s")
