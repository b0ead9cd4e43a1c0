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
    _file,
    _Trace,
    product_shared_rows,
    select_b_product,
    small_s_row,
    sum_liouville_rows,
    sum_selection,
    window_position,
)
from .thresholds import ProductThresholds, product_thresholds, sum_thresholds

PRODUCT_SHARED = "product_shared"

GRAD_U = "|grad u|"
GRAD_U_POWER = "|grad u^(1/b)|"


class RegimeDecision(NamedTuple):
    inst: ProblemInstance
    theorem: str
    matches: tuple[str, ...]
    conditions: tuple[TheoremCondition, ...]
    liouville: bool
    estimate_exponent: float | None
    estimate_target: str | None
    exponents: ExponentBundle | None
    selection: BSelection | None = None

    def conditions_for(self, theorem: str) -> tuple[TheoremCondition, ...]:
        """Conditions owned by a theorem (product cases share their common block)."""
        owners = {theorem, PRODUCT_SHARED} if theorem.startswith("thm_product_") else {theorem}
        return tuple(c for c in self.conditions if c.theorem in owners)

    def as_dict(self, table) -> dict:
        """The report row.  Each condition becomes its index in `table`.

        `table` (a `report.ConditionTable`) numbers the distinct conditions
        of a whole report; the report writes them once, as its
        `conditions` entries.
        The row leaves out `inst` (the report's echoed parameter map gives
        it back), every None and an empty `matches`; the exponents and
        selection records are written through their own `as_dict`.
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
        for key in ("exponents", "selection"):
            if (record := getattr(self, key)) is not None:
                row[key] = record.as_dict()
        return row


def _ishii_lions_rows(inst: ProblemInstance, trace: _Trace) -> None:
    template = "m > q (gradient-dominated reaction, bounded solutions): {:.6g} > {:.6g}"
    _file(trace, "thm_IL", ("m_gt_q", template, (inst.m, inst.q), inst.m > inst.q))


def _classify_hj(inst: ProblemInstance, trace: _Trace) -> None:
    _file(trace, "thm_HJ", ("superlinear_gradient", "m > p-1: {:.6g} > {:.6g}",
                            (inst.m, inst.p - 1.0), inst.m > inst.p - 1.0))
    _ishii_lions_rows(inst, trace)


def _product_case_rows(
    inst: ProblemInstance, th: ProductThresholds, shared: list[Row], trace: _Trace,
    optimal_search: bool,
) -> tuple[str | None, BSelection | None]:
    """File the rows of the Q-position-selected case, whose running verdict
    starts from the shared block's; return its theorem name and the
    selection its window_numeric row ran (optimal search only)."""
    if not th.discriminant_ok:
        return None, None
    Q, q1, q2 = th.Q, th.Q1, th.Q2
    position = window_position(th)
    theorem = {"boundary": "thm_product_B", "inside": "thm_product_A"}.get(position, "thm_product_C")
    trace.verdict[theorem] = trace.verdict[PRODUCT_SHARED]
    if position == "boundary":
        _file(trace, theorem, ("boundary_window", "Q in {{Q1, Q2}}: Q = {:.6g}", (Q,), True),
              small_s_row(inst))
        return theorem, None
    if position == "inside":
        _file(trace, theorem,
              ("open_window", "Q1 < Q < Q2: {:.6g} < {:.6g} < {:.6g}", (q1, Q, q2), True))
        return theorem, None
    _file(
        trace, theorem, small_s_row(inst),
        ("m_le_q", "m <= q: {:.6g} <= {:.6g}", (inst.m, inst.q), inst.m <= inst.q),
        ("q_lt_p", "q < p: {:.6g} < {:.6g}", (inst.q, inst.p), inst.q < inst.p),
        ("p_lt_m_plus_1", "p < m+1: {:.6g} < {:.6g}", (inst.p, inst.m + 1.0),
         inst.p < inst.m + 1.0),
    )
    if optimal_search:
        sel = select_b_product(inst, th, shared)
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
) -> tuple[str | None, BSelection | None, ExponentBundle | None]:
    th = product_thresholds(inst)
    shared = product_shared_rows(inst, th)
    _file(trace, PRODUCT_SHARED, *shared)
    case_theorem, window_selection = _product_case_rows(inst, th, shared, trace, optimal_search)
    _ishii_lions_rows(inst, trace)
    selection = bundle = None
    if case_theorem is not None and trace.verdict[case_theorem]:
        selection = window_selection or select_b_product(inst, th, shared)
        _file(trace, case_theorem, ("selection_feasible", "constructive b-selection: {}",
                                    (selection.case_tag,), selection.feasible))
        if selection.feasible:
            bundle = exponent_bundle(inst, selection.b_star)
    return case_theorem, selection, bundle


def _classify_sum(
    inst: ProblemInstance, trace: _Trace
) -> tuple[BSelection | None, ExponentBundle | None]:
    p, q, s, m = inst.p, inst.q, inst.s, inst.m
    liou = "thm_sum_liouville"
    M_positive = ("M_positive", "M > 0: {:.6g}", (inst.M,), inst.M > 0.0)
    rows = sum_liouville_rows(inst, sum_thresholds(inst))
    _file(trace, liou, M_positive, *rows)

    s_lo_g = max(q - 1.0, 1.0)
    m_lo = max(q * s / (s + 1.0), 2.0 * s)
    _file(
        trace, "thm_sum_growth", M_positive,
        ("m_p_gap", "m-p+2 > 0: {:.6g}", (m - p + 2.0,), m - p + 2.0 > 0.0),
        ("s_large", "s > max(q-1, 1): {:.6g} > {:.6g}", (s, s_lo_g), s > s_lo_g),
        ("m_large", "m > max(qs/(s+1), 2s): {:.6g} > {:.6g}", (m, m_lo), m > m_lo),
    )

    selection = bundle = None
    if trace.verdict[liou]:
        selection = sum_selection(inst, rows)
        _file(trace, liou, ("selection_feasible", "constructive tau-selection: {}",
                            (selection.case_tag,), selection.feasible))
        if selection.feasible:
            bundle = exponent_bundle(inst._replace(m=0.0), selection.b_star)
    return selection, bundle


def classify(inst: ProblemInstance, optimal_search: bool = False) -> RegimeDecision:
    """Classify an instance against every applicable theorem.

    Returns the full condition trace; non-matching instances come back
    with theorem='none'.  With optimal_search=True the convex-case
    window membership is delegated to the numeric feasibility of the
    majorant instead of the stated (non-optimal) closed-form bounds.
    """
    trace = _Trace()
    selection = bundle = None

    if inst.kind == "hamilton_jacobi":
        _classify_hj(inst, trace)
        candidates = ["thm_HJ", "thm_IL"]
    elif inst.kind == "product":
        case_theorem, selection, bundle = _classify_product(inst, trace, optimal_search)
        candidates = ([case_theorem] if case_theorem else []) + ["thm_IL"]
    else:
        selection, bundle = _classify_sum(inst, trace)
        candidates = ["thm_sum_liouville", "thm_sum_growth"]

    matches = [theorem for theorem in candidates if trace.verdict[theorem]]

    theorem = matches[0] if matches else "none"
    liouville = theorem not in ("none", "thm_sum_growth")

    # Only a feasible selection gives a bundle, and its theorem (the winning
    # product case or thm_sum_liouville) then leads the matches.
    estimate = target = None
    if bundle is not None:
        estimate, target = 2.0 / bundle.gamma, GRAD_U_POWER
    elif theorem == "thm_HJ":
        estimate, target = 1.0 / (inst.m - inst.p + 1.0), GRAD_U
    elif theorem == "thm_sum_growth":
        estimate, target = 1.0 / (inst.m - inst.p + 2.0), GRAD_U

    return RegimeDecision(inst, theorem, tuple(matches), tuple(trace.rows), liouville, estimate,
                          target, bundle, selection)


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
