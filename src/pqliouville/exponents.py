"""Exponent bookkeeping for the power change of variable u = v^b.

The auxiliary power b and the induced exponent t = (b-1)(m-q+1) + b s
are mutually inverse through b = (t + m - q + 1)/Q with Q = m+s-q+1.
The decay exponents beta1 (used for b in (0,1]) and beta2 (for b > 1)
feed the final gradient-bound exponent gamma.

The sum reaction u^s + M|grad u|^m uses these exponents at m = 0
(`inst._replace(m=0.0)`), except `sum_beta2`: it equals beta2 at m = 0
only algebraically and rounds differently (in 11,424 of 19,200 cases of
bench/inputs/sum_grid.par x b in {1.5, 2, 3.7, 10, 1000}), so it stays
to keep the sum reports' bytes.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AdmissibilityError
from .instance import ProblemInstance


def positive_combined_exponent(inst: ProblemInstance) -> float:
    """Q = m+s-q+1, which the change of variable and the trinomial divide by."""
    Q = inst.combined_exponent
    if Q <= 0.0:
        raise AdmissibilityError("degenerate combined exponent (m+s-q+1 must be positive)")
    return Q


def admissible_floor(inst: ProblemInstance) -> float:
    """Lower admissibility bound for b: max{0, (m-q+1)/Q}."""
    return max(0.0, (inst.m - inst.q + 1.0) / positive_combined_exponent(inst))


def t_from_b(inst: ProblemInstance, b: float) -> float:
    return (b - 1.0) * (inst.m - inst.q + 1.0) + b * inst.s


def b_from_t(inst: ProblemInstance, t: float) -> float:
    return (t + inst.m - inst.q + 1.0) / positive_combined_exponent(inst)


def beta1(inst: ProblemInstance, b: float) -> float:
    """First decay exponent bQ/(bQ + q - m) - (p - q)."""
    bq = b * inst.combined_exponent
    return bq / (bq + inst.q - inst.m) - (inst.p - inst.q)


def beta2(inst: ProblemInstance, b: float) -> float:
    """Second decay exponent; equals beta1 plus the correction
    (b-1)(p-q)(m-q)/(bQ + q - m), which vanishes at p = q or m = q."""
    p, q, m = inst.p, inst.q, inst.m
    return (b - 1.0) * (p - q) * (m - q) / (b * inst.combined_exponent + q - m) + beta1(inst, b)


def beta2_large_b_limit(inst: ProblemInstance) -> float:
    """Limit of beta2 as b -> infinity: 1 - (p-q)(1+s)/Q, -inf when Q = m+s-q+1 = 0."""
    Q = inst.combined_exponent
    return 1.0 - (inst.p - inst.q) * (1.0 + inst.s) / Q if Q != 0.0 else float("-inf")


def gamma_exponent(inst: ProblemInstance, b: float) -> float:
    """Gradient-bound exponent: min{1, beta1} for b in (0,1], min{1, beta2} for b > 1.

    This is the literal indicator-function evaluation: the branch not
    selected contributes exactly zero.
    """
    if b <= 1.0:
        return min(1.0, beta1(inst, b))
    return min(1.0, beta2(inst, b))


def _theta(b: float, gap: float, t: float) -> float | None:
    """(2(b-1) gap + 2)/(t+1) with gap = p-q, or None outside (0, 2)."""
    theta = (2.0 * (b - 1.0) * gap + 2.0) / (t + 1.0)
    return theta if 0.0 < theta < 2.0 else None


def theta_exponent(inst: ProblemInstance, b: float) -> float | None:
    """Interpolation power theta, only emitted when it lands in (0, 2).

    For b <= 1 the numerator is 2: the gap term is dropped (exactly, as
    (b-1)*0 + 2 = 2 in floating point).
    """
    return _theta(b, inst.p - inst.q if b > 1.0 else 0.0, t_from_b(inst, b))


class ExponentBundle(NamedTuple):
    b: float
    t: float
    beta1: float
    beta2: float
    gamma: float
    theta: float | None

    def as_dict(self) -> dict:
        return self._asdict()


def exponent_bundle(inst: ProblemInstance, b: float) -> ExponentBundle:
    """All change-of-variable exponents at a given admissible b.

    Requires Q = m+s-q+1 > 0 and b strictly above the admissible floor
    max{0, (m-q+1)/Q}; this guarantees t > 0 and a positive denominator
    bQ + q - m = t + 1 in beta1/beta2.
    """
    floor = admissible_floor(inst)
    if not b > floor:
        raise AdmissibilityError("b below admissible floor (b>0 bound)")
    return ExponentBundle(
        b=b,
        t=t_from_b(inst, b),
        beta1=beta1(inst, b),
        beta2=beta2(inst, b),
        gamma=gamma_exponent(inst, b),
        theta=theta_exponent(inst, b),
    )


def sum_beta2(inst: ProblemInstance, b: float) -> float:
    """Decay exponent for the sum reaction at power b:
    1 - q((b-1)(p-q) + 1)/(b(s-q+1) + q) - p + q.

    Algebraically beta2 at m = 0, but it rounds differently (module docstring).
    """
    p, q, s = inst.p, inst.q, inst.s
    return 1.0 - q * ((b - 1.0) * (p - q) + 1.0) / (b * (s - q + 1.0) + q) - p + q


def sum_exponent_bundle(inst: ProblemInstance, tau: float) -> ExponentBundle:
    """Exponents for the sum reaction in terms of tau = b(s-q+1) + q - 1.

    Requires s > q - 1 and tau > s so that b = (tau-q+1)/(s-q+1) > 1.
    """
    if not inst.s > inst.q - 1.0:
        raise AdmissibilityError("sum exponents require s > q - 1")
    gradient_free = inst._replace(m=0.0)
    b = b_from_t(gradient_free, tau)
    if not b > 1.0:
        raise AdmissibilityError("sum exponents require tau > s (so that b > 1)")
    bta2 = sum_beta2(inst, b)
    return ExponentBundle(
        b=b,
        t=tau,
        beta1=beta1(gradient_free, b),
        beta2=bta2,
        gamma=min(1.0, bta2),
        theta=_theta(b, inst.p - inst.q, tau),
    )
