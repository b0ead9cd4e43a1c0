"""Constructive selection of the change-of-variable power b.

The product reaction splits into three cases by the position of the
combined exponent Q relative to the window [Q1, Q2]:

  case 1  (Q strictly inside):  L1 < 0, take t on a doubling schedule
          until L(t) <= -1 with a positive gamma;
  case 2  (Q on the boundary):  L1 = 0 and, under the small-s side
          condition, L2 < 0, so the same doubling schedule applies;
  case 3  (Q outside):          L1 > 0, the quadratic is strictly convex
          with vertex t* = -L2/(2 L1); feasibility is the discriminant
          condition 4 L1 L3 < L2^2 and kappa = -L(t*).

The sum reaction always selects a large tau once its leading
coefficient is negative; only that coefficient is available in closed
form, so the certificate is the coefficient sign plus the b > 1 and
beta2 > 0 conditions.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AdmissibilityError
from .exponents import (
    admissible_floor,
    b_from_t,
    beta1,
    beta2,
    beta2_large_b_limit,
    gamma_exponent,
    sum_beta2,
)
from .instance import ProblemInstance
from .thresholds import ProductThresholds, SumThresholds, product_thresholds, sum_thresholds
from .trinomial import product_trinomial, sum_leading_coefficient

DOUBLING_CAP = 2.0**60


class TheoremCondition(NamedTuple):
    """One hypothesis row: `template.format(*values)` is its rendering.

    classify files its rows under the theorem they belong to, a selection
    trace under "selection".  Classify reports store the values and an
    index into their `condition_templates` table; selection traces store
    the rendering.
    """

    theorem: str
    label: str
    template: str
    values: list
    passed: bool

    @property
    def rendering(self) -> str:
        return self.template.format(*self.values)


class BSelection(NamedTuple):
    """Selected (t*, b*, kappa) with its trace; selection works at epsilon = 0."""

    case_tag: str
    t_star: float | None
    b_star: float | None
    kappa: float | None
    trace: tuple[TheoremCondition, ...]

    @property
    def feasible(self) -> bool:
        return self.case_tag != "infeasible"

    def as_dict(self) -> dict:
        return {
            "case_tag": self.case_tag,
            "t_star": self.t_star,
            "b_star": self.b_star,
            "kappa": self.kappa,
            "trace": [{"label": c.label, "rendering": c.rendering, "passed": c.passed}
                      for c in self.trace],
        }


def _check(label: str, template: str, values: list, passed) -> TheoremCondition:
    return TheoremCondition("selection", label, template, values, bool(passed))


def _infeasible(trace: list[TheoremCondition]) -> BSelection:
    return BSelection("infeasible", None, None, None, tuple(trace))


def small_s_threshold(inst: ProblemInstance) -> float:
    """Side condition bound (q-1)/(p-1 + N(p-q)/2); equivalent to L2 < 0."""
    return (inst.q - 1.0) / (inst.p - 1.0 + inst.N * (inst.p - inst.q) / 2.0)


# Hypothesis rows shared with classify are plain (label, template, values,
# passed) tuples in report order; each caller files them under its theorem.
Row = tuple[str, str, list, bool]


def small_s_row(inst: ProblemInstance) -> Row:
    """Small-s side condition of theorems B and C (selection case 2)."""
    s_thr = small_s_threshold(inst)
    return ("small_s", "s < (q-1)/(p-1+N(p-q)/2): {:.6g} < {:.6g}", [inst.s, s_thr], inst.s < s_thr)


def product_shared_rows(inst: ProblemInstance, th: ProductThresholds) -> list[Row]:
    """The five hypotheses every product theorem (A, B, C) and the selection share."""
    Q = th.Q
    lim = beta2_large_b_limit(inst)
    return [
        ("s_positive", "s > 0: {:.6g}", [inst.s], inst.s > 0.0),
        ("Q_positive", "m+s-q+1 > 0: {:.6g}", [Q], Q > 0.0),
        ("beta2_limit_positive", "1 - (p-q)(1+s)/Q > 0: {:.6g}", [lim], lim > 0.0),
        (
            "superlinear_reaction",
            "m+s > p-1: {:.6g} > {:.6g}",
            [inst.m + inst.s, inst.p - 1.0],
            inst.m + inst.s > inst.p - 1.0,
        ),
        (
            "discriminant",
            "4(q-1)^2 >= N^2 R: {:.6g} >= {:.6g}",
            [4.0 * (inst.q - 1.0) ** 2, inst.N**2 * th.R],
            th.discriminant_ok,
        ),
    ]


def sum_liouville_rows(inst: ProblemInstance, th: SumThresholds) -> list[Row]:
    """Gap, delta, s-window, beta2-limit and m-window rows of the sum Liouville theorem."""
    N, p, q, s, m = inst.N, inst.p, inst.q, inst.s, inst.m
    if th.s_minus is None:
        s_window = ("s_window", "s-window undefined (delta_pq <= 0)", [], False)
    else:
        s_lo = max(th.s_minus, p - 1.0)
        s_window = (
            "s_window",
            "max(s_minus, p-1) < s < s_plus: {:.6g} < {:.6g} < {:.6g}",
            [s_lo, s, th.s_plus],
            s_lo < s < th.s_plus,
        )
    lim = beta2_large_b_limit(inst._replace(m=0.0))
    return [
        ("gap", "N(p-q) < 2(q-1): {:.6g} < {:.6g}", [N * (p - q), 2.0 * (q - 1.0)], th.gap_ok),
        ("delta_positive", "delta_pq = {:.6g} > 0", [th.delta_pq], th.delta_pq > 0.0),
        s_window,
        ("beta2_limit_positive", "1 - (p-q)(1+s)/(s-q+1) > 0: {:.6g}", [lim], lim > 0.0),
        ("m_window", "0 < m <= (N+2)(q-1)/N: {:.6g} <= {:.6g}", [m, th.m_max], 0.0 < m <= th.m_max),
    ]


def window_position(th: ProductThresholds) -> str:
    """Position of Q against [Q1, Q2]: "boundary", "inside", "above" or "below".

    The one place Q is compared with the window roots (exact floating
    comparison, so boundary instances are those that hit a root exactly).
    Requires the discriminant condition, so that Q1 and Q2 exist.
    """
    Q, q1, q2 = th.Q, th.Q1, th.Q2
    if Q == q1 or Q == q2:
        return "boundary"
    if q1 < Q < q2:
        return "inside"
    return "above" if Q > q2 else "below"


def _doubling_search(inst: ProblemInstance, coeffs, floor: float, trace: list[TheoremCondition]):
    """First t in {1, 2, 4, ...} with L(t) <= -1, b above the floor and gamma > 0."""
    t = 1.0
    while t <= DOUBLING_CAP:
        value = coeffs.value(t)
        b = b_from_t(inst, t)
        if value <= -1.0 and b > floor and b > 0.0 and gamma_exponent(inst, b) > 0.0:
            trace.append(_check(
                "doubling_accept", "t={:.6g}: L(t)={:.6g} <= -1, b={:.6g}, gamma={:.6g} > 0",
                [t, value, b, gamma_exponent(inst, b)], True,
            ))
            return t, b
        t *= 2.0
    trace.append(_check("doubling_accept", "no t <= 2^60 met L(t) <= -1 with gamma > 0", [], False))
    return None


def select_b_product(inst: ProblemInstance) -> BSelection:
    """Constructively select (t*, b*, kappa) for the product reaction.

    Dispatches on the position of Q relative to [Q1, Q2] (boundary
    instances use exact floating comparison and route to case 2).  Emits
    the full inequality trace; infeasible instances name the failing
    check.
    """
    if inst.kind != "product":
        raise AdmissibilityError("b-selection requires kind='product'")
    th = product_thresholds(inst)
    trace = [_check(*row) for row in product_shared_rows(inst, th)]
    if not all(c.passed for c in trace):
        return _infeasible(trace)
    coeffs = product_trinomial(inst, epsilon=0.0)
    floor = admissible_floor(inst)
    Q, q1, q2 = th.Q, th.Q1, th.Q2
    position = window_position(th)

    if position == "boundary":
        trace.append(_check("case", "Q on window boundary: Q={:.6g}", [Q], True))
        side = _check(*small_s_row(inst))
        trace.append(side)
        if not side.passed:
            return _infeasible(trace)
        trace.append(_check("L2_negative", "L2 = {:.6g} < 0", [coeffs.L2], coeffs.L2 < 0.0))
        if not coeffs.L2 < 0.0:
            return _infeasible(trace)
        found = _doubling_search(inst, coeffs, floor, trace)
        if found is None:
            return _infeasible(trace)
        t, b = found
        return BSelection("case2_L1zero", t, b, 1.0, tuple(trace))

    if position == "inside":
        trace.append(_check("case", "Q1 < Q < Q2: {:.6g} < {:.6g} < {:.6g}", [q1, Q, q2], True))
        trace.append(_check("L1_negative", "L1 = {:.6g} < 0", [coeffs.L1], coeffs.L1 < 0.0))
        found = _doubling_search(inst, coeffs, floor, trace)
        if found is None:
            return _infeasible(trace)
        t, b = found
        return BSelection("case1_L1neg", t, b, 1.0, tuple(trace))

    # Q outside [Q1, Q2]: strictly convex quadratic.
    trace.append(_check("case", "Q outside [Q1, Q2]: Q={:.6g}", [Q], True))
    trace.append(_check("L1_positive", "L1 = {:.6g} > 0", [coeffs.L1], coeffs.L1 > 0.0))
    if not coeffs.L1 > 0.0:
        return _infeasible(trace)
    trace.append(_check(
        "L2_negative", "L2 = {:.6g} < 0 (equivalent to s < {:.6g})",
        [coeffs.L2, small_s_threshold(inst)], coeffs.L2 < 0.0,
    ))
    if not coeffs.L2 < 0.0:
        return _infeasible(trace)
    disc_ok = 4.0 * coeffs.L1 * coeffs.L3 < coeffs.L2 * coeffs.L2
    trace.append(_check(
        "vertex_discriminant", "4 L1 L3 < L2^2: {:.6g} < {:.6g}",
        [4.0 * coeffs.L1 * coeffs.L3, coeffs.L2**2], disc_ok,
    ))
    if not disc_ok:
        return _infeasible(trace)
    t_star = -coeffs.L2 / (2.0 * coeffs.L1)
    kappa = -coeffs.value(t_star)
    b_star = b_from_t(inst, t_star)
    trace.append(_check("b_floor", "b* = {:.6g} > {:.6g}", [b_star, floor], b_star > floor))
    if not b_star > floor:
        return _infeasible(trace)
    gamma = gamma_exponent(inst, b_star)
    if b_star <= 1.0:
        template = "gamma = {:.6g} > 0; b* <= 1: gamma = min(1, beta1) with beta1({:.6g}) = {:.6g}"
        branch_value = beta1(inst, b_star)
    else:
        template = (
            "gamma = {:.6g} > 0; b* > 1: gamma = min(1, beta2) with beta2({:.6g}) = {:.6g}"
            " (beta1 increasing in b for m <= q; beta2 monotone via its Moebius form)"
        )
        branch_value = beta2(inst, b_star)
    trace.append(_check("gamma_positive", template, [gamma, b_star, branch_value], gamma > 0.0))
    if not gamma > 0.0:
        return _infeasible(trace)
    return BSelection("case3_convex", t_star, b_star, kappa, tuple(trace))


def sum_selection(inst: ProblemInstance) -> BSelection:
    """Select tau (hence b > 1) for the sum reaction.

    Verifies the closed-form hypotheses, the negativity of the leading
    quadratic coefficient, and picks the first tau in {1, 2, 4, ...}
    with b = (tau-q+1)/(s-q+1) > 1 and beta2(b) > 0.
    """
    if inst.kind != "sum":
        raise AdmissibilityError("tau-selection requires kind='sum'")
    th = sum_thresholds(inst)
    rows = sum_liouville_rows(inst, th)
    if not (th.gap_ok and th.delta_pq > 0.0):
        rows = rows[:2]  # the s-window and what follows are not reported
    trace = [_check(*row) for row in rows]
    if not all(c.passed for c in trace):
        return _infeasible(trace)
    lead = sum_leading_coefficient(inst)
    trace.append(_check("leading_coefficient", "leading tau^2 coefficient = {:.6g} < 0", [lead],
                        lead < 0.0))
    if not lead < 0.0:
        return _infeasible(trace)
    gradient_free = inst._replace(m=0.0)
    tau = 1.0
    while tau <= DOUBLING_CAP:
        if tau > inst.s:
            b = b_from_t(gradient_free, tau)
            bvalue = sum_beta2(inst, b)
            if b > 1.0 and bvalue > 0.0:
                trace.append(_check("tau_accept", "tau={:.6g}: b={:.6g} > 1, beta2={:.6g} > 0",
                                    [tau, b, bvalue], True))
                return BSelection("sum_large_tau", tau, b, 1.0, tuple(trace))
        tau *= 2.0
    trace.append(_check("tau_accept", "no tau <= 2^60 gave b > 1 with beta2 > 0", [], False))
    return _infeasible(trace)
