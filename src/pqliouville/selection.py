"""Constructive selection of the change-of-variable power b.

The product reaction splits into three cases by the position of the
combined exponent Q relative to the window [Q1, Q2]:

  case 1  (Q strictly inside):  L1 < 0, take the first power of two t
          with L(t) <= -1, b above the floor and a positive gamma;
  case 2  (Q on the boundary):  L1 = 0 and, under the small-s side
          condition, L2 < 0, so the same search applies;
  case 3  (Q outside):          L1 > 0, the quadratic is strictly convex
          with vertex t* = -L2/(2 L1); feasibility is the discriminant
          condition 4 L1 L3 < L2^2 and kappa = -L(t*).

The sum reaction always selects a large tau once its leading
coefficient is negative; only that coefficient is available in closed
form, so the certificate is the coefficient sign plus the b > 1 and
beta2 > 0 conditions.

A selection is a sequence of check blocks, each filed into its trace
whole; it ends infeasible right after the first block that holds a
failing row, so it is feasible exactly when every trace row passed.
`_Trace` and `_file` are package-internal, shared with classify on
purpose: they are the one builder of hypothesis rows for both.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import NamedTuple

from .errors import AdmissibilityError
from .exponents import (
    admissible_floor,
    b_from_t,
    beta1,
    beta2,
    beta2_large_b_limit,
    gamma_exponent,
)
from .instance import ProblemInstance
from .thresholds import ProductThresholds, SumThresholds, product_thresholds, sum_thresholds
from .trinomial import product_trinomial, sum_leading_coefficient

class TheoremCondition(NamedTuple):
    """One hypothesis row: `template.format(*values)` is its rendering.

    classify files its rows under the theorem they belong to, a selection
    trace under "selection".  `values` is a tuple, so a condition is
    hashable and serves as its own key in a report's condition table.
    Classify reports store each distinct condition once, in their
    `conditions` table, and rows index it; selection traces store the
    rendering.
    """

    theorem: str
    label: str
    template: str
    values: tuple
    passed: bool

    @property
    def rendering(self) -> str:
        return self.template.format(*self.values)


# Hypothesis rows shared with classify are plain (label, template, values,
# passed) tuples in report order, values a tuple; each caller files them
# under its theorem.
Row = tuple[str, str, tuple, bool]


class _Trace:
    """Filed rows, in filing order, and a running verdict per theorem:
    whether every row filed under it so far passed."""

    __slots__ = ("rows", "verdict")

    def __init__(self):
        self.rows: list[TheoremCondition] = []
        self.verdict: dict[str, bool] = {}


def _file(trace: _Trace, theorem: str, *entries: Row) -> None:
    """File (label, template, values, passed) entries as rows under one theorem:
    the one maker of TheoremCondition rows, for classify and selections alike."""
    append = trace.rows.append
    verdict = trace.verdict.get(theorem, True)
    for label, template, values, passed in entries:
        passed = bool(passed)
        # tuple.__new__ skips the NamedTuple's Python-level __new__, the
        # larger part of a row's cost.
        append(tuple.__new__(TheoremCondition, (theorem, label, template, values, passed)))
        verdict = verdict and passed
    trace.verdict[theorem] = verdict


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


def small_s_threshold(inst: ProblemInstance) -> float:
    """Side condition bound (q-1)/(p-1 + N(p-q)/2); equivalent to L2 < 0."""
    return (inst.q - 1.0) / (inst.p - 1.0 + inst.N * (inst.p - inst.q) / 2.0)


def small_s_row(inst: ProblemInstance) -> Row:
    """Small-s side condition of theorems B and C (selection case 2)."""
    s_thr = small_s_threshold(inst)
    return ("small_s", "s < (q-1)/(p-1+N(p-q)/2): {:.6g} < {:.6g}", (inst.s, s_thr), inst.s < s_thr)


def product_shared_rows(inst: ProblemInstance, th: ProductThresholds) -> list[Row]:
    """The five hypotheses every product theorem (A, B, C) and the selection share."""
    Q = th.Q
    lim = beta2_large_b_limit(inst)
    return [
        ("s_positive", "s > 0: {:.6g}", (inst.s,), inst.s > 0.0),
        ("Q_positive", "m+s-q+1 > 0: {:.6g}", (Q,), Q > 0.0),
        ("beta2_limit_positive", "1 - (p-q)(1+s)/Q > 0: {:.6g}", (lim,), lim > 0.0),
        (
            "superlinear_reaction",
            "m+s > p-1: {:.6g} > {:.6g}",
            (inst.m + inst.s, inst.p - 1.0),
            inst.m + inst.s > inst.p - 1.0,
        ),
        (
            "discriminant",
            "4(q-1)^2 >= N^2 R: {:.6g} >= {:.6g}",
            (4.0 * (inst.q - 1.0) ** 2, inst.N**2 * th.R),
            th.discriminant_ok,
        ),
    ]


def sum_liouville_rows(inst: ProblemInstance, th: SumThresholds) -> list[Row]:
    """Gap, delta, s-window, beta2-limit and m-window rows of the sum Liouville theorem."""
    N, p, q, s, m = inst.N, inst.p, inst.q, inst.s, inst.m
    if th.s_minus is None:
        s_window = ("s_window", "s-window undefined (delta_pq <= 0)", (), False)
    else:
        s_lo = max(th.s_minus, p - 1.0)
        s_window = (
            "s_window",
            "max(s_minus, p-1) < s < s_plus: {:.6g} < {:.6g} < {:.6g}",
            (s_lo, s, th.s_plus),
            s_lo < s < th.s_plus,
        )
    lim = beta2_large_b_limit(inst._replace(m=0.0))
    return [
        ("gap", "N(p-q) < 2(q-1): {:.6g} < {:.6g}", (N * (p - q), 2.0 * (q - 1.0)), th.gap_ok),
        ("delta_positive", "delta_pq = {:.6g} > 0", (th.delta_pq,), th.delta_pq > 0.0),
        s_window,
        ("beta2_limit_positive", "1 - (p-q)(1+s)/(s-q+1) > 0: {:.6g}", (lim,), lim > 0.0),
        ("m_window", "0 < m <= (N+2)(q-1)/N: {:.6g} <= {:.6g}", (m, th.m_max), 0.0 < m <= th.m_max),
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


def _first_power_of_two(accept: Callable[[float], bool]) -> float | None:
    """First t in {1, 2, 4, ..., 2^60} with accept(t), or None."""
    return next(filter(accept, (2.0**k for k in range(61))), None)


def _run(blocks: Generator[list[Row], None, tuple]) -> BSelection:
    """File each block whole under "selection"; once that verdict goes false,
    stop (infeasible) without resuming the generator.  A generator that runs
    out returns (case_tag, t, b, kappa)."""
    trace = _Trace()
    while True:
        try:
            block = next(blocks)
        except StopIteration as done:
            return BSelection(*done.value, tuple(trace.rows))
        _file(trace, "selection", *block)
        if not trace.verdict["selection"]:
            return BSelection("infeasible", None, None, None, tuple(trace.rows))


def select_b_product(
    inst: ProblemInstance, th: ProductThresholds | None = None, shared: list[Row] | None = None
) -> BSelection:
    """Constructively select (t*, b*, kappa) for the product reaction.

    Dispatches on the position of Q relative to [Q1, Q2] (boundary
    instances use exact floating comparison and route to case 2).  The
    five shared rows form one block, every later check a block of one
    row; the selection stops after the first block with a failing row,
    so case 1 stops when L1 >= 0.  `th` and `shared` are the instance's
    `product_thresholds` and `product_shared_rows`, built when not given.
    """
    if inst.kind != "product":
        raise AdmissibilityError("b-selection requires kind='product'")
    return _run(_product_blocks(inst, th or product_thresholds(inst), shared))


def _product_blocks(inst: ProblemInstance, th: ProductThresholds, shared: list[Row] | None):
    yield shared or product_shared_rows(inst, th)
    coeffs = product_trinomial(inst, epsilon=0.0)
    floor = admissible_floor(inst)
    position = window_position(th)

    if position in ("above", "below"):  # strictly convex quadratic
        yield [("case", "Q outside [Q1, Q2]: Q={:.6g}", (th.Q,), True)]
        yield [("L1_positive", "L1 = {:.6g} > 0", (coeffs.L1,), coeffs.L1 > 0.0)]
        yield [("L2_negative", "L2 = {:.6g} < 0 (equivalent to s < {:.6g})",
                (coeffs.L2, small_s_threshold(inst)), coeffs.L2 < 0.0)]
        yield [("vertex_discriminant", "4 L1 L3 < L2^2: {:.6g} < {:.6g}",
                (4.0 * coeffs.L1 * coeffs.L3, coeffs.L2**2),
                4.0 * coeffs.L1 * coeffs.L3 < coeffs.L2 * coeffs.L2)]
        t_star = -coeffs.L2 / (2.0 * coeffs.L1)
        b_star = b_from_t(inst, t_star)
        yield [("b_floor", "b* = {:.6g} > {:.6g}", (b_star, floor), b_star > floor)]
        # Only above the floor: below it bQ + q - m can be 0.
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
        yield [("gamma_positive", template, (gamma, b_star, branch_value), gamma > 0.0)]
        return "case3_convex", t_star, b_star, -coeffs.value(t_star)

    if position == "boundary":
        tag = "case2_L1zero"
        yield [("case", "Q on window boundary: Q={:.6g}", (th.Q,), True)]
        yield [small_s_row(inst)]
        yield [("L2_negative", "L2 = {:.6g} < 0", (coeffs.L2,), coeffs.L2 < 0.0)]
    else:
        tag = "case1_L1neg"
        yield [("case", "Q1 < Q < Q2: {:.6g} < {:.6g} < {:.6g}", (th.Q1, th.Q, th.Q2), True)]
        yield [("L1_negative", "L1 = {:.6g} < 0", (coeffs.L1,), coeffs.L1 < 0.0)]

    def accept(t):
        b = b_from_t(inst, t)
        return coeffs.value(t) <= -1.0 and b > floor and gamma_exponent(inst, b) > 0.0

    t = _first_power_of_two(accept)
    if t is None:
        yield [("doubling_accept", "no t <= 2^60 met L(t) <= -1 with gamma > 0", (), False)]
    b = b_from_t(inst, t)
    yield [("doubling_accept", "t={:.6g}: L(t)={:.6g} <= -1, b={:.6g}, gamma={:.6g} > 0",
            (t, coeffs.value(t), b, gamma_exponent(inst, b)), True)]
    return tag, t, b, 1.0


def sum_selection(inst: ProblemInstance, rows: list[Row] | None = None) -> BSelection:
    """Select tau (hence b > 1) for the sum reaction.

    Check blocks, the first with a failing row ending the selection: the
    gap and delta rows, the rest of the sum window, the sign of the leading
    quadratic coefficient, then the first power of two tau > s with
    b = (tau-q+1)/(s-q+1) > 1 and beta2(b) > 0.  `rows` is the instance's
    `sum_liouville_rows`, built when not given.
    """
    if inst.kind != "sum":
        raise AdmissibilityError("tau-selection requires kind='sum'")
    return _run(_sum_blocks(inst, rows or sum_liouville_rows(inst, sum_thresholds(inst))))


def _sum_blocks(inst: ProblemInstance, rows: list[Row]):
    yield rows[:2]  # gap and delta: without them the s-window is not reported
    yield rows[2:]
    lead = sum_leading_coefficient(inst)
    yield [("leading_coefficient", "leading tau^2 coefficient = {:.6g} < 0", (lead,), lead < 0.0)]
    gradient_free = inst._replace(m=0.0)

    def accept(tau):
        return tau > inst.s and (b := b_from_t(gradient_free, tau)) > 1.0 and beta2(gradient_free, b) > 0.0

    tau = _first_power_of_two(accept)
    if tau is None:
        yield [("tau_accept", "no tau <= 2^60 gave b > 1 with beta2 > 0", (), False)]
    b = b_from_t(gradient_free, tau)
    yield [("tau_accept", "tau={:.6g}: b={:.6g} > 1, beta2={:.6g} > 0", (tau, b, beta2(gradient_free, b)), True)]
    return "sum_large_tau", tau, b, 1.0
