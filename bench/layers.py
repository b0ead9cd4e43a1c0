"""Per-layer metrics of the traced run, computed from its spans.

Times are seconds per op, averaged over the traced ops; counts are per
cycle of the workload's op list, so they repeat exactly from run to run.
Every metric is emitted on every workload (0 where the layer does no work).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import ATTRS, END, NAME, OP, PARENT, START, outermost, self_times
from workloads import Radial

THEOREMS = ("thm_HJ", "thm_product_A", "thm_product_B", "thm_product_C", "thm_IL",
            "thm_sum_growth", "thm_sum_liouville", "none")
SELECTION_CASES = ("case1", "case2", "case3", "infeasible", "sum_large_tau")
RADIAL_FIELDS = (("solve_s", "s", "lower"), ("newton_iters", "count", "lower"),
                 ("continuation_steps", "count", "lower"), ("converged", "count", "higher"))
# Operator bytes are computed from array sizes: one read of the input and
# one write of the output field per call, 8 bytes a node; temporaries and
# cache misses are not counted.  Nodes updated are the interior nodes.
BYTES_PER_NODE = 16
ORACLE_STOP = {"trinomial.product_trinomial", "trinomial.verify_negativity", "trinomial.value",
               "selection.select"}


def radial_cases() -> list[str]:
    return [op.name for op in Radial(None, False, False).cycle()]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    return [
        ("params.expand_s", "s", "lower"), ("params.instances", "count", "higher"),
        ("thresholds.product_s", "s", "lower"), ("thresholds.sum_s", "s", "lower"),
        ("selection.select_s", "s", "lower"),
        *[(f"selection.{case}", "count", "higher") for case in SELECTION_CASES],
        ("classify.total_s", "s", "lower"), ("classify.self_s", "s", "lower"),
        *[(f"classify.theorem.{name}", "count", "higher") for name in THEOREMS],
        ("trinomial.oracle_s", "s", "lower"), ("trinomial.grid_points", "count", "lower"),
        ("report.as_dict_s", "s", "lower"), ("report.encode_s", "s", "lower"),
        ("report.write_s", "s", "lower"), ("report.bytes", "B", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("setup.import_numpy_s", "s", "lower"), ("setup.import_scipy_s", "s", "lower"),
        ("setup.import_pqliouville_self_s", "s", "lower"),
        *[(f"radial.{case}.{field}", unit, better)
          for case in radial_cases() for field, unit, better in RADIAL_FIELDS],
        ("radial.s_per_newton_iter", "s", "lower"), ("radial.profile_fit_s", "s", "lower"),
        ("operators.pq_laplacian_2d_s", "s", "lower"), ("operators.pq_laplacian_3d_s", "s", "lower"),
        ("operators.nodes_per_s", "1/s", "higher"), ("operators.nodes_per_call", "count", "lower"),
        ("operators.computed_bytes", "B", "lower"),
        ("identities.change_of_variable_s", "s", "lower"), ("identities.bochner_s", "s", "lower"),
        ("identities.scaling_s", "s", "lower"), ("identities.checks_passed", "count", "higher"),
        ("weights.aux_weights_s", "s", "lower"),
        ("fields.sample_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"), ("trace.untraced_p50_ms", "ms", "lower"),
        ("trace.layer_sum_p50_ms", "ms", "lower"),
    ]


def op_span_seconds(spans: list[list], n_ops: int) -> list[float]:
    """Per op, the summed self times of its spans (= the durations of its top-level spans)."""
    out = [0.0] * n_ops
    for span in spans:
        if span[OP] is not None and span[PARENT] is None:
            out[span[OP]] += span[END] - span[START]
    return out


def _selection_case(tag: str) -> str:
    return next(case for case in SELECTION_CASES if tag.startswith(case))


def layer_metrics(spans: list[list], op_names: list[str], cycles: int, extra: dict) -> dict:
    """Aggregate spans (op id = index into op_names) into the per-layer metrics.

    extra carries what spans cannot: the setup.*, weights.* and trace.*
    values measured by the harness itself.
    """
    n_ops = len(op_names)
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    solves: dict[int, list] = defaultdict(list)
    nodes = updated = calls = 0
    stencil_s = 0.0
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        op = span[OP]
        if op is None:
            continue
        name, dur, attrs = span[NAME], span[END] - span[START], span[ATTRS] or {}
        if name == "cli.main":
            times["cli.overhead_s"] += selfs[i]
        elif name == "params.expand":
            times["params.expand_s"] += dur
            counts["params.instances"] += attrs["instances"]
        elif name.startswith("thresholds."):
            times[name + "_s"] += dur
        elif name == "selection.select":
            times["selection.select_s"] += dur
            counts["selection." + _selection_case(attrs["case"])] += 1
        elif name == "classify.classify":
            times["classify.total_s"] += dur
            times["classify.self_s"] += selfs[i]
            counts["classify.theorem." + attrs["theorem"]] += 1
        elif name.startswith("trinomial."):
            if outermost(spans, i, ORACLE_STOP):
                times["trinomial.oracle_s"] += dur
            counts["trinomial.grid_points"] += attrs.get("grid_points", 0)
        elif name == "report.as_dict":
            if outermost(spans, i, {name}):
                times["report.as_dict_s"] += dur
        elif name == "report.encode":
            times["report.encode_s"] += dur
        elif name == "report.write":
            times["report.write_s"] += dur
            counts["report.bytes"] += attrs["bytes"]
        elif name == "radial.solve":
            solves[op].append((dur, attrs))
        elif name in ("radial.profile", "radial.fit"):
            times["radial.profile_fit_s"] += dur
        elif name.startswith("identities."):
            times[name + "_s"] += dur
            counts["identities.checks_passed"] += attrs["passed"]
        elif name == "operators.pq_laplacian":
            times[f"operators.pq_laplacian_{attrs['ndim']}d_s"] += dur
            nodes += attrs["nodes"]
            updated += attrs["updated"]
            calls += 1
            stencil_s += dur
        elif name == "fields.sample":
            times["fields.sample_s"] += dur

    metrics = {}
    for name, unit, _ in per_layer_spec():
        if unit == "s" and name in times:
            metrics[name] = times[name] / n_ops
        elif name == "report.bytes":
            metrics[name] = counts[name] / n_ops
        else:
            metrics[name] = counts[name] / cycles if name in counts else 0.0
    for case in radial_cases():
        ops = [op for op in range(n_ops) if op_names[op] == case]
        for field, _, _ in RADIAL_FIELDS:
            metrics[f"radial.{case}.{field}"] = 0.0
        if not ops:
            continue
        metrics[f"radial.{case}.solve_s"] = statistics.median(
            sum(d for d, _ in solves[op]) for op in ops)
        for field in ("newton_iters", "continuation_steps"):
            metrics[f"radial.{case}.{field}"] = statistics.median(
                sum(a[field] for _, a in solves[op]) for op in ops)
        metrics[f"radial.{case}.converged"] = float(all(
            solves[op] and all(a["converged"] for _, a in solves[op]) for op in ops))
    iters = sum(a["newton_iters"] for op_solves in solves.values() for _, a in op_solves)
    solve_s = sum(d for op_solves in solves.values() for d, _ in op_solves)
    metrics["radial.s_per_newton_iter"] = solve_s / iters if iters else 0.0
    metrics["operators.nodes_per_s"] = updated / stencil_s if stencil_s else 0.0
    metrics["operators.nodes_per_call"] = updated / calls if calls else 0.0
    metrics["operators.computed_bytes"] = BYTES_PER_NODE * nodes / calls if calls else 0.0
    metrics["trace.layer_sum_p50_ms"] = 1e3 * statistics.median(op_span_seconds(spans, n_ops))
    metrics.update(extra)
    return {name: {"value": float(metrics[name]), "unit": unit}
            for name, unit, _ in per_layer_spec()}
