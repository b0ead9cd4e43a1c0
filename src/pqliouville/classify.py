"""Literal hypothesis checking for the five reaction regimes.

Each instance is tested against every theorem that can speak to its
reaction kind; all matches are reported and `theorem` holds the
strongest one under the precedence product > IL > sum > HJ (the
dedicated Hamilton-Jacobi statement outranks the bounded-solution
rigidity result for its own kind, since its conclusion needs no
boundedness).  The trace keeps every hypothesis row as a hashable
`TheoremCondition`, so a report row can name each one by its index in
the report's condition table.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AdmissibilityError
from .exponents import ExponentBundle, exponent_bundle
from .instance import ProblemInstance
from .selection import (
    BSelection,
    Row,
    TheoremCondition,
    product_shared_rows,
    select_b_product,
    small_s_row,
    sum_liouville_rows,
    sum_selection,
    window_position,
)
from .thresholds import ProductThresholds, SumThresholds, product_thresholds, sum_thresholds

PRODUCT_SHARED = "product_shared"

GRAD_U = "|grad u|"
GRAD_U_POWER = "|grad u^(1/b)|"


def _owned(rows, theorem: str) -> list[TheoremCondition]:
    """The rows a theorem needs: product cases also own the shared block."""
    owners = {theorem, PRODUCT_SHARED} if theorem.startswith("thm_product_") else {theorem}
    return [c for c in rows if c.theorem in owners]


class _Trace:
    """The rows classify files, in filing order, and a running verdict per
    theorem: whether every row filed under it so far passed."""

    __slots__ = ("rows", "verdict")

    def __init__(self):
        self.rows: list[TheoremCondition] = []
        self.verdict: dict[str, bool] = {}


def _passes(trace: _Trace, theorem: str) -> bool:
    """A theorem passes when it owns at least one row and every row it owns
    passes (a product case owns the shared block too, as in `_owned`)."""
    verdict = trace.verdict.get(theorem)
    if theorem.startswith("thm_product_"):
        shared = trace.verdict.get(PRODUCT_SHARED)
        if shared is not None:
            verdict = shared if verdict is None else verdict and shared
    return bool(verdict)


def _file(trace: _Trace, theorem: str, *entries: Row) -> None:
    """File (label, template, values, passed) entries as rows under one theorem."""
    append = trace.rows.append
    verdict = trace.verdict.get(theorem, True)
    for label, template, values, passed in entries:
        passed = bool(passed)
        # tuple.__new__ skips the NamedTuple's Python-level __new__, the
        # larger part of a row's cost.
        append(tuple.__new__(TheoremCondition, (theorem, label, template, values, passed)))
        verdict = verdict and passed
    trace.verdict[theorem] = verdict


class RegimeDecision(NamedTuple):
    inst: ProblemInstance
    theorem: str
    matches: tuple[str, ...]
    conditions: tuple[TheoremCondition, ...]
    liouville: bool
    estimate_exponent: float | None
    estimate_target: str | None
    exponents: ExponentBundle | None
    product: ProductThresholds | None = None
    sums: SumThresholds | None = None
    selection: BSelection | None = None

    def conditions_for(self, theorem: str) -> tuple[TheoremCondition, ...]:
        """Conditions owned by a theorem (product cases share their common block)."""
        return tuple(_owned(self.conditions, theorem))

    def as_dict(self, table) -> dict:
        """The report row.  Each condition becomes its index in `table`.

        `table` (a `report.ConditionTable`) numbers the distinct conditions
        of a whole report; the report writes them once, as its
        `conditions` entries.
        The row leaves out `inst` (the report's echoed parameter map gives
        it back), every None, an empty `matches` and the threshold records,
        which the instance gives back; the records RECORD_KEYS names are
        written through their own `as_dict`.
        """
        row = {
            "theorem": self.theorem,
            "conditions": table.indices(self.conditions),
            "liouville": self.liouville,
        }
        if self.matches:
            row["matches"] = list(self.matches)
        if self.estimate_exponent is not None:
            row["estimate_exponent"] = self.estimate_exponent
        if self.estimate_target is not None:
            row["estimate_target"] = self.estimate_target
        for key in RECORD_KEYS:
            if (record := getattr(self, key)) is not None:
                row[key] = record.as_dict()
        return row


# The record fields a report row writes, under their field names.
RECORD_KEYS = ("exponents", "selection")


def _ishii_lions_rows(inst: ProblemInstance, trace: _Trace) -> None:
    template = "m > q (gradient-dominated reaction, bounded solutions): {:.6g} > {:.6g}"
    _file(trace, "thm_IL", ("m_gt_q", template, (inst.m, inst.q), inst.m > inst.q))


def _classify_hj(inst: ProblemInstance, trace: _Trace) -> None:
    _file(trace, "thm_HJ", ("superlinear_gradient", "m > p-1: {:.6g} > {:.6g}",
                            (inst.m, inst.p - 1.0), inst.m > inst.p - 1.0))
    _ishii_lions_rows(inst, trace)


def _product_case_rows(
    inst: ProblemInstance, th: ProductThresholds, trace: _Trace,
    optimal_search: bool,
) -> tuple[str | None, BSelection | None]:
    """Emit rows for the Q-position-selected case; return its theorem name and
    the selection its window_numeric row ran (optimal search only)."""
    if not th.discriminant_ok:
        return None, None
    Q, q1, q2 = th.Q, th.Q1, th.Q2
    position = window_position(th)
    if position == "boundary":
        _file(trace, "thm_product_B", ("boundary_window", "Q in {{Q1, Q2}}: Q = {:.6g}", (Q,), True),
              small_s_row(inst))
        return "thm_product_B", None
    if position == "inside":
        _file(trace, "thm_product_A",
              ("open_window", "Q1 < Q < Q2: {:.6g} < {:.6g} < {:.6g}", (q1, Q, q2), True))
        return "thm_product_A", None
    theorem = "thm_product_C"
    _file(
        trace, theorem, small_s_row(inst),
        ("m_le_q", "m <= q: {:.6g} <= {:.6g}", (inst.m, inst.q), inst.m <= inst.q),
        ("q_lt_p", "q < p: {:.6g} < {:.6g}", (inst.q, inst.p), inst.q < inst.p),
        ("p_lt_m_plus_1", "p < m+1: {:.6g} < {:.6g}", (inst.p, inst.m + 1.0),
         inst.p < inst.m + 1.0),
    )
    if optimal_search:
        sel = select_b_product(inst, th)
        _file(trace, theorem, (
            "window_numeric",
            "numeric convex-case feasibility (vertex of the majorant is negative): {}",
            (sel.case_tag,),
            sel.case_tag == "case3_convex",
        ))
        return theorem, sel
    if position == "above":
        if th.Q3 is None:
            _file(trace, theorem, ("upper_window", "Q3 undefined at s=0", (), False))
        else:
            _file(trace, theorem, ("upper_window", "Q2 < Q < Q3: {:.6g} < {:.6g} < {:.6g}",
                                   (q2, Q, th.Q3), Q < th.Q3))
        return theorem, None
    # Q below Q1, so the lower-window row tests its lower bound only; it
    # needs the comparison ratio a.
    if th.a is None:
        _file(trace, theorem,
              ("lower_window", "comparison ratio a undefined (s=0 or p=q)", (), False))
        return theorem, None
    if th.a <= 1.0:
        lower = inst.N * ((1.0 - th.a) * th.Q1**2 + th.R) / (4.0 * (inst.q - 1.0))
        template = "a <= 1 branch: N((1-a)Q1^2+R)/(4(q-1)) < Q < Q1: {:.6g} < {:.6g} < {:.6g}"
    else:
        lower = inst.N * th.R / (4.0 * (inst.q - 1.0))
        template = "a > 1 branch: NR/(4(q-1)) < Q < Q1: {:.6g} < {:.6g} < {:.6g}"
    _file(trace, theorem, ("lower_window", template, (lower, Q, q1), lower < Q))
    return theorem, None


def _classify_product(
    inst: ProblemInstance, trace: _Trace, optimal_search: bool
) -> tuple[ProductThresholds, str | None, BSelection | None, ExponentBundle | None]:
    th = product_thresholds(inst)
    _file(trace, PRODUCT_SHARED, *product_shared_rows(inst, th))
    case_theorem, window_selection = _product_case_rows(inst, th, trace, optimal_search)
    _ishii_lions_rows(inst, trace)
    selection = bundle = None
    if case_theorem is not None and _passes(trace, case_theorem):
        selection = window_selection or select_b_product(inst, th)
        _file(trace, case_theorem, ("selection_feasible", "constructive b-selection: {}",
                                    (selection.case_tag,), selection.feasible))
        if selection.feasible:
            bundle = exponent_bundle(inst, selection.b_star)
    return th, case_theorem, selection, bundle


def _classify_sum(
    inst: ProblemInstance, trace: _Trace
) -> tuple[SumThresholds, BSelection | None, ExponentBundle | None]:
    th = sum_thresholds(inst)
    p, q, s, m = inst.p, inst.q, inst.s, inst.m
    liou = "thm_sum_liouville"
    M_positive = ("M_positive", "M > 0: {:.6g}", (inst.M,), inst.M > 0.0)
    _file(trace, liou, M_positive, *sum_liouville_rows(inst, th))

    s_lo_g = max(q - 1.0, 1.0)
    m_lo = max(q * s / (s + 1.0), 2.0 * s)
    _file(
        trace, "thm_sum_growth", M_positive,
        ("m_p_gap", "m-p+2 > 0: {:.6g}", (m - p + 2.0,), m - p + 2.0 > 0.0),
        ("s_large", "s > max(q-1, 1): {:.6g} > {:.6g}", (s, s_lo_g), s > s_lo_g),
        ("m_large", "m > max(qs/(s+1), 2s): {:.6g} > {:.6g}", (m, m_lo), m > m_lo),
    )

    selection = bundle = None
    if _passes(trace, liou):
        selection = sum_selection(inst, th)
        _file(trace, liou, ("selection_feasible", "constructive tau-selection: {}",
                            (selection.case_tag,), selection.feasible))
        if selection.feasible:
            bundle = exponent_bundle(inst._replace(m=0.0), selection.b_star)
    return th, selection, bundle


def classify(inst: ProblemInstance, optimal_search: bool = False) -> RegimeDecision:
    """Classify an instance against every applicable theorem.

    Returns the full condition trace; non-matching instances come back
    with theorem='none'.  With optimal_search=True the convex-case
    window membership is delegated to the numeric feasibility of the
    majorant instead of the stated (non-optimal) closed-form bounds.
    """
    trace = _Trace()
    product_th = sums_th = selection = bundle = None

    if inst.kind == "hamilton_jacobi":
        _classify_hj(inst, trace)
        candidates = ["thm_HJ", "thm_IL"]
    elif inst.kind == "product":
        product_th, case_theorem, selection, bundle = _classify_product(inst, trace, optimal_search)
        candidates = ([case_theorem] if case_theorem else []) + ["thm_IL"]
    else:
        sums_th, selection, bundle = _classify_sum(inst, trace)
        candidates = ["thm_sum_liouville", "thm_sum_growth"]

    matches = [theorem for theorem in candidates if _passes(trace, theorem)]

    theorem = matches[0] if matches else "none"
    liouville = theorem not in ("none", "thm_sum_growth")

    estimate = target = None
    exponents = None
    if theorem == "thm_HJ":
        estimate, target = 1.0 / (inst.m - inst.p + 1.0), GRAD_U
    elif theorem == "thm_sum_growth":
        estimate, target = 1.0 / (inst.m - inst.p + 2.0), GRAD_U
    elif theorem.startswith("thm_product_") or theorem == "thm_sum_liouville":
        exponents = bundle
        if bundle is not None:
            estimate, target = 2.0 / bundle.gamma, GRAD_U_POWER

    return RegimeDecision(inst, theorem, tuple(matches), tuple(trace.rows), liouville, estimate,
                          target, exponents, product_th, sums_th, selection)


class EstimateRate(NamedTuple):
    rate: float
    target: str


def estimate_rate(decision: RegimeDecision) -> EstimateRate:
    """Positive dist-power of the gradient bound and the function it bounds.

    The rigidity regime (thm_IL) yields constancy only, with no rate.
    """
    if decision.theorem == "thm_IL":
        raise AdmissibilityError("no estimate available")
    if decision.theorem == "none" or decision.estimate_exponent is None:
        raise AdmissibilityError("decision carries no estimate-bearing theorem")
    return EstimateRate(decision.estimate_exponent, decision.estimate_target)
