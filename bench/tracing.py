"""Spans around pqliouville's public calls, kept in memory for the traced run.

The benchmark wraps the names each layer's callers look up (module
attributes and methods), so no program file changes.  A span records its
name, start, end, parent span and op id; derived attributes (counts read
from arguments or results) ride along.  Spans nest because the program
is single-threaded, so a span's self time is its duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return fn recording one span per call; attrs(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                    self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[END] = time.perf_counter()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, attrs))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded in another process, re-based onto this list."""
        base = len(self.spans)
        for span in spans:
            parent = None if span[PARENT] is None else span[PARENT] + base
            self.spans.append([span[NAME], span[START], span[END], parent, op, span[ATTRS]])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _solution_attrs(_args, _kwargs, sol) -> dict:
    return {
        "newton_iters": sol.newton_iters,
        "continuation_steps": sol.continuation_steps,
        "converged": bool(sol.converged),
    }


def _field_attrs(_args, _kwargs, out) -> dict:
    shape = out.values.shape
    return {"nodes": int(out.values.size), "updated": math.prod(n - 2 for n in shape),
            "ndim": len(shape)}


def _passed_attrs(_args, _kwargs, rep) -> dict:
    return {"passed": bool(rep.passed)}


# (module[:class], attribute, span name, attrs); each entry is the name a
# caller looks up, so the same function can appear under several owners.
LAYER_CALLS = (
    ("pqliouville.cli", "main", "cli.main", None),
    ("pqliouville.cli", "expand_instances", "params.expand", lambda a, k, r: {"instances": len(r)}),
    ("pqliouville.cli", "classify", "classify.classify", lambda a, k, r: {"theorem": r.theorem}),
    ("pqliouville.classify", "product_thresholds", "thresholds.product", None),
    ("pqliouville.classify", "sum_thresholds", "thresholds.sum", None),
    ("pqliouville.selection", "product_thresholds", "thresholds.product", None),
    ("pqliouville.selection", "sum_thresholds", "thresholds.sum", None),
    ("pqliouville.classify", "select_b_product", "selection.select", lambda a, k, r: {"case": r.case_tag}),
    ("pqliouville.classify", "sum_selection", "selection.select", lambda a, k, r: {"case": r.case_tag}),
    ("pqliouville.cli", "select_b_product", "selection.select", lambda a, k, r: {"case": r.case_tag}),
    ("pqliouville.cli", "sum_selection", "selection.select", lambda a, k, r: {"case": r.case_tag}),
    ("pqliouville.cli", "product_trinomial", "trinomial.product_trinomial", None),
    ("pqliouville.cli", "verify_negativity", "trinomial.verify_negativity",
     lambda a, k, r: {"grid_points": _arg(a, k, 2, "grid_points", 100_000)}),
    ("pqliouville.trinomial:TrinomialCoeffs", "value", "trinomial.value", None),
    ("pqliouville.classify:RegimeDecision", "as_dict", "report.as_dict", None),
    ("pqliouville.selection:BSelection", "as_dict", "report.as_dict", None),
    ("pqliouville.trinomial:TrinomialCoeffs", "as_dict", "report.as_dict", None),
    ("pqliouville.identities:IdentityReport", "as_dict", "report.as_dict", None),
    ("pqliouville.ishii_lions:ILWindow", "as_dict", "report.as_dict", None),
    ("pqliouville.radial:BlowupFit", "as_dict", "report.as_dict", None),
    ("pqliouville.report:Report", "to_json", "report.encode", None),
    ("pqliouville.cli", "atomic_write_text", "report.write", lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text"))}),
    ("pqliouville.cli", "solve_radial", "radial.solve", _solution_attrs),
    ("pqliouville", "solve_radial", "radial.solve", _solution_attrs),
    ("pqliouville.cli", "gradient_vs_distance", "radial.profile", None),
    ("pqliouville.cli", "fit_blowup_exponent", "radial.fit", None),
    ("pqliouville.cli", "change_of_variable_check", "identities.change_of_variable", _passed_attrs),
    ("pqliouville", "change_of_variable_check", "identities.change_of_variable", _passed_attrs),
    ("pqliouville.cli", "bochner_check", "identities.bochner", _passed_attrs),
    ("pqliouville.cli", "scaling_check", "identities.scaling", _passed_attrs),
    ("pqliouville.identities", "pq_laplacian", "operators.pq_laplacian", _field_attrs),
    ("pqliouville.identities", "p_laplacian", "operators.pq_laplacian", _field_attrs),
    ("pqliouville.fields:ManufacturedField", "sample", "fields.sample", None),
    ("pqliouville.fields:ManufacturedField", "sample_scaled", "fields.sample", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every LAYER_CALLS entry; tracer.restore() undoes it."""
    for target, attr, name, attrs in LAYER_CALLS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        tracer.patch(owner, attr, name, attrs)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def outermost(spans: list[list], index: int, stop_names) -> bool:
    """True when no ancestor of the span has a name in stop_names."""
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] in stop_names:
            return False
        parent = spans[parent][PARENT]
    return True
