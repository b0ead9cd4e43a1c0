"""Literal hypothesis checking for the five reaction regimes.

Each instance is tested against every theorem that can speak to its
reaction kind; all matches are reported and `theorem` holds the
strongest one under the precedence product > IL > sum > HJ (the
dedicated Hamilton-Jacobi statement outranks the bounded-solution
rigidity result for its own kind, since its conclusion needs no
boundedness).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AdmissibilityError
from .exponents import ExponentBundle, exponent_bundle, sum_exponent_bundle
from .instance import ProblemInstance
from .selection import (
    BSelection,
    TheoremCondition,
    product_shared_rows,
    select_b_product,
    small_s_row,
    sum_liouville_rows,
    sum_selection,
    window_position,
)
from .thresholds import ProductThresholds, SumThresholds, product_thresholds, sum_thresholds

THEOREMS = (
    "thm_HJ",
    "thm_product_A",
    "thm_product_B",
    "thm_product_C",
    "thm_IL",
    "thm_sum_growth",
    "thm_sum_liouville",
    "none",
)

PRODUCT_SHARED = "product_shared"

GRAD_U = "|grad u|"
GRAD_U_POWER = "|grad u^(1/b)|"


def _owners(theorem: str) -> set[str]:
    """Theorems whose rows a theorem needs: product cases also own the shared block."""
    if theorem.startswith("thm_product_"):
        return {theorem, PRODUCT_SHARED}
    return {theorem}


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
        owners = _owners(theorem)
        return tuple(c for c in self.conditions if c.theorem in owners)

    def as_dict(self, templates: dict) -> dict:
        """The report row.  Each condition becomes [template index, passed, values].

        `templates` (a `report.ConditionTemplates`) maps (theorem, label,
        template) to its index in the report's `condition_templates` table
        and appends keys it has not seen, so one index serves a whole report.
        The row leaves out `instance` (the report's echoed parameter map
        gives it back), every None field and an empty `matches`;
        `report.load` puts them back.
        """
        row = {
            "theorem": self.theorem,
            "conditions": [[templates[theorem, label, template], passed, values]
                           for theorem, label, template, values, passed in self.conditions],
            "liouville": self.liouville,
        }
        if self.matches:
            row["matches"] = list(self.matches)
        if self.estimate_exponent is not None:
            row["estimate_exponent"] = self.estimate_exponent
        if self.estimate_target is not None:
            row["estimate_target"] = self.estimate_target
        if self.exponents:
            row["exponents"] = self.exponents.as_dict()
        if self.product:
            row["product_thresholds"] = self.product.as_dict()
        if self.sums:
            row["sum_thresholds"] = self.sums.as_dict()
        if self.selection:
            row["selection"] = self.selection.as_dict()
        return row


# The report row key of each RegimeDecision field whose key is not its name;
# report.load refills a row's left-out keys from RegimeDecision._fields.
ROW_KEYS = {"inst": "instance", "product": "product_thresholds", "sums": "sum_thresholds"}


class _Trace:
    """Condition rows in report order, and per theorem whether all its rows pass."""

    def __init__(self):
        self.rows: list[TheoremCondition] = []
        self.passing: dict[str, bool] = {}

    def add(self, theorem: str, label: str, template: str, values: list, passed) -> None:
        passed = bool(passed)
        self.rows.append(TheoremCondition(theorem, label, template, values, passed))
        self.passing[theorem] = self.passing.get(theorem, True) and passed

    def extend(self, theorem: str, rows) -> None:
        """Append (label, template, values, passed) rows under one theorem."""
        for row in rows:
            self.add(theorem, *row)

    def all_pass(self, theorem: str) -> bool:
        states = [self.passing[owner] for owner in _owners(theorem) if owner in self.passing]
        return bool(states) and all(states)


def _ishii_lions_rows(inst: ProblemInstance, trace: _Trace) -> None:
    trace.add(
        "thm_IL",
        "m_gt_q",
        "m > q (gradient-dominated reaction, bounded solutions): {:.6g} > {:.6g}",
        [inst.m, inst.q],
        inst.m > inst.q,
    )


def _classify_hj(inst: ProblemInstance, trace: _Trace) -> None:
    trace.add(
        "thm_HJ",
        "superlinear_gradient",
        "m > p-1: {:.6g} > {:.6g}",
        [inst.m, inst.p - 1.0],
        inst.m > inst.p - 1.0,
    )
    _ishii_lions_rows(inst, trace)


def _product_case_rows(
    inst: ProblemInstance, th: ProductThresholds, trace: _Trace, optimal_search: bool
) -> tuple[str | None, BSelection | None]:
    """Emit rows for the Q-position-selected case; return its theorem name and
    the selection its window_numeric row ran (optimal search only)."""
    if not th.discriminant_ok:
        return None, None
    Q, q1, q2 = th.Q, th.Q1, th.Q2
    position = window_position(th)
    if position == "boundary":
        trace.add("thm_product_B", "boundary_window", "Q in {{Q1, Q2}}: Q = {:.6g}", [Q], True)
        trace.add("thm_product_B", *small_s_row(inst))
        return "thm_product_B", None
    if position == "inside":
        trace.add(
            "thm_product_A",
            "open_window",
            "Q1 < Q < Q2: {:.6g} < {:.6g} < {:.6g}",
            [q1, Q, q2],
            True,
        )
        return "thm_product_A", None
    theorem = "thm_product_C"
    trace.add(theorem, *small_s_row(inst))
    trace.add(theorem, "m_le_q", "m <= q: {:.6g} <= {:.6g}", [inst.m, inst.q], inst.m <= inst.q)
    trace.add(theorem, "q_lt_p", "q < p: {:.6g} < {:.6g}", [inst.q, inst.p], inst.q < inst.p)
    trace.add(
        theorem, "p_lt_m_plus_1", "p < m+1: {:.6g} < {:.6g}", [inst.p, inst.m + 1.0],
        inst.p < inst.m + 1.0,
    )
    if optimal_search:
        sel = select_b_product(inst)
        trace.add(
            theorem,
            "window_numeric",
            "numeric convex-case feasibility (vertex of the majorant is negative): {}",
            [sel.case_tag],
            sel.case_tag == "case3_convex",
        )
        return theorem, sel
    if position == "above":
        if th.Q3 is None:
            trace.add(theorem, "upper_window", "Q3 undefined at s=0", [], False)
        else:
            trace.add(
                theorem,
                "upper_window",
                "Q2 < Q < Q3: {:.6g} < {:.6g} < {:.6g}",
                [q2, Q, th.Q3],
                Q < th.Q3,
            )
        return theorem, None
    # Q below Q1, so the lower-window row tests its lower bound only; it
    # needs the comparison ratio a.
    if th.a is None:
        trace.add(theorem, "lower_window", "comparison ratio a undefined (s=0 or p=q)", [], False)
        return theorem, None
    if th.a <= 1.0:
        lower = inst.N * ((1.0 - th.a) * th.Q1**2 + th.R) / (4.0 * (inst.q - 1.0))
        template = "a <= 1 branch: N((1-a)Q1^2+R)/(4(q-1)) < Q < Q1: {:.6g} < {:.6g} < {:.6g}"
    else:
        lower = inst.N * th.R / (4.0 * (inst.q - 1.0))
        template = "a > 1 branch: NR/(4(q-1)) < Q < Q1: {:.6g} < {:.6g} < {:.6g}"
    trace.add(theorem, "lower_window", template, [lower, Q, q1], lower < Q)
    return theorem, None


def _classify_product(
    inst: ProblemInstance, trace: _Trace, optimal_search: bool
) -> tuple[ProductThresholds, str | None, BSelection | None, ExponentBundle | None]:
    th = product_thresholds(inst)
    trace.extend(PRODUCT_SHARED, product_shared_rows(inst, th))
    case_theorem, window_selection = _product_case_rows(inst, th, trace, optimal_search)
    _ishii_lions_rows(inst, trace)
    selection = bundle = None
    if case_theorem is not None and trace.all_pass(case_theorem):
        selection = window_selection or select_b_product(inst)
        trace.add(
            case_theorem,
            "selection_feasible",
            "constructive b-selection: {}",
            [selection.case_tag],
            selection.feasible,
        )
        if selection.feasible:
            bundle = exponent_bundle(inst, selection.b_star)
    return th, case_theorem, selection, bundle


def _classify_sum(
    inst: ProblemInstance, trace: _Trace
) -> tuple[SumThresholds, BSelection | None, ExponentBundle | None]:
    th = sum_thresholds(inst)
    p, q, s, m = inst.p, inst.q, inst.s, inst.m
    liou = "thm_sum_liouville"
    trace.add(liou, "M_positive", "M > 0: {:.6g}", [inst.M], inst.M > 0.0)
    trace.extend(liou, sum_liouville_rows(inst, th))

    growth = "thm_sum_growth"
    trace.add(growth, "M_positive", "M > 0: {:.6g}", [inst.M], inst.M > 0.0)
    trace.add(growth, "m_p_gap", "m-p+2 > 0: {:.6g}", [m - p + 2.0], m - p + 2.0 > 0.0)
    s_lo_g = max(q - 1.0, 1.0)
    trace.add(growth, "s_large", "s > max(q-1, 1): {:.6g} > {:.6g}", [s, s_lo_g], s > s_lo_g)
    m_lo = max(q * s / (s + 1.0), 2.0 * s)
    trace.add(growth, "m_large", "m > max(qs/(s+1), 2s): {:.6g} > {:.6g}", [m, m_lo], m > m_lo)

    selection = bundle = None
    if trace.all_pass(liou):
        selection = sum_selection(inst)
        trace.add(
            liou,
            "selection_feasible",
            "constructive tau-selection: {}",
            [selection.case_tag],
            selection.feasible,
        )
        if selection.feasible:
            bundle = sum_exponent_bundle(inst, selection.t_star)
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
    candidates: list[str] = []

    if inst.kind == "hamilton_jacobi":
        _classify_hj(inst, trace)
        candidates = ["thm_HJ", "thm_IL"]
    elif inst.kind == "product":
        product_th, case_theorem, selection, bundle = _classify_product(
            inst, trace, optimal_search
        )
        candidates = ([case_theorem] if case_theorem else []) + ["thm_IL"]
    else:
        sums_th, selection, bundle = _classify_sum(inst, trace)
        candidates = ["thm_sum_liouville", "thm_sum_growth"]

    matches = [theorem for theorem in candidates if trace.all_pass(theorem)]

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

    return RegimeDecision(
        inst=inst,
        theorem=theorem,
        matches=tuple(matches),
        conditions=tuple(trace.rows),
        liouville=liouville,
        estimate_exponent=estimate,
        estimate_target=target,
        exponents=exponents,
        product=product_th,
        sums=sums_th,
        selection=selection,
    )


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
