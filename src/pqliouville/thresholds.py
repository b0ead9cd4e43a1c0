"""Threshold quantities entering the classification of the reaction regimes.

All quantities are literal evaluations of closed-form expressions in
(N, p, q, s, m).  Thresholds that are undefined for the given parameters
(division by s at s = 0, or a nonpositive discriminant) are represented
as absent values (None), never as sentinel numbers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AdmissibilityError
from .instance import ProblemInstance


def operator_gap(N: int, p: float, q: float) -> float:
    """Inhomogeneity measure (p-q)*(p-q + 4(p-1)/N); zero exactly at p = q."""
    return (p - q) * (p - q + 4.0 * (p - 1.0) / N)


class ProductThresholds(NamedTuple):
    """Derived thresholds for the product reaction u^s |grad u|^m.

    Q is the combined exponent m+s-q+1.  When the discriminant condition
    4(q-1)^2 >= N^2 R holds, Q1 <= Q2 are the roots of
    Q^2 - (4(q-1)/N) Q + R, so Q1+Q2 = 4(q-1)/N and Q1*Q2 = R.  Q3
    extends the admissible window above Q2 and `a` decides which of the
    two lower-window formulas applies; both need s > 0 (and `a` needs
    p > q).
    """

    R: float
    Q: float
    discriminant_ok: bool
    Q1: float | None = None
    Q2: float | None = None
    Q3: float | None = None
    a: float | None = None

    def as_dict(self) -> dict:
        """The report dict: the defined thresholds (absent ones are left out)."""
        return {key: value for key, value in zip(self._fields, self) if value is not None}


def product_thresholds(inst: ProblemInstance) -> ProductThresholds:
    """Evaluate every product-regime threshold for the instance.

    The s-dependent quantities Q3 and `a` are left absent at s = 0, and
    `a` is additionally absent at p = q (its denominator 4(p-1)Q1 + NsR
    vanishes there).
    """
    if inst.kind != "product":
        raise AdmissibilityError("product thresholds require kind='product'")
    N, p, q, s = inst.N, inst.p, inst.q, inst.s
    R = operator_gap(N, p, q)
    Q = inst.combined_exponent
    disc = 4.0 * (q - 1.0) ** 2 - N * N * R
    if disc < 0.0:
        return ProductThresholds(R=R, Q=Q, discriminant_ok=False)
    root = math.sqrt(disc) / N
    mid = 2.0 * (q - 1.0) / N
    q1, q2 = mid - root, mid + root
    q3 = a = None
    if s > 0.0:
        num = 2.0 * (q - 1.0) / N - s * (2.0 * (p - 1.0) / N + (p - q))
        scale = s * (s * R / q2 + 4.0 * (p - 1.0) / N)
        # scale underflows to 0 only for subnormal s; Q3 -> +inf as s -> 0+.
        q3 = q2 + num * num / scale if scale > 0.0 else math.inf
        denom_a = N * s * R + 4.0 * (p - 1.0) * q1
        if denom_a > 0.0:
            a = (N / s) * num * num / denom_a
    return ProductThresholds(R=R, Q=Q, discriminant_ok=True, Q1=q1, Q2=q2, Q3=q3, a=a)


class SumThresholds(NamedTuple):
    """Derived thresholds for the sum reaction u^s + M |grad u|^m.

    delta_pq = (N+2)^2 (q-1)^2 - N(N+4)(p-1)^2 - 4N(p-q)^2 must be
    positive for the admissible s-window (s_minus, s_plus) to exist.
    m_max = (N+2)(q-1)/N caps the gradient power, and gap_ok records
    N(p-q) < 2(q-1).
    """

    delta_pq: float
    m_max: float
    gap_ok: bool
    s_minus: float | None = None
    s_plus: float | None = None

    def as_dict(self) -> dict:
        """The report dict: the defined thresholds (absent ones are left out)."""
        return {key: value for key, value in zip(self._fields, self) if value is not None}


def sum_thresholds(inst: ProblemInstance) -> SumThresholds:
    """Evaluate every sum-regime threshold for the instance."""
    if inst.kind != "sum":
        raise AdmissibilityError("sum thresholds require kind='sum'")
    N, p, q = inst.N, inst.p, inst.q
    delta = (
        (N + 2.0) ** 2 * (q - 1.0) ** 2
        - N * (N + 4.0) * (p - 1.0) ** 2
        - 4.0 * N * (p - q) ** 2
    )
    m_max = (N + 2.0) * (q - 1.0) / N
    gap_ok = N * (p - q) < 2.0 * (q - 1.0)
    if delta <= 0.0:
        return SumThresholds(delta_pq=delta, m_max=m_max, gap_ok=gap_ok)
    root = math.sqrt(delta)
    s_minus = ((N + 2.0) * (q - 1.0) - root) / N
    s_plus = ((N + 2.0) * (q - 1.0) + root) / N
    return SumThresholds(
        delta_pq=delta, m_max=m_max, gap_ok=gap_ok, s_minus=s_minus, s_plus=s_plus
    )
