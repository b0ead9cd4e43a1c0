"""Deterministic quadratic majorant whose negativity certifies the gradient bound.

The product reaction leads to a quadratic L(t) = L1 t^2 + L2 t + L3 in
the auxiliary exponent t; finding t with L(t) <= -kappa < 0 is the core
feasibility step.  The epsilon-bearing coefficients majorise the exact
(solution-dependent) quadratic uniformly; epsilon = 0 is the selection
default and epsilon-robustness is tested separately.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AdmissibilityError
from .exponents import positive_combined_exponent
from .instance import ProblemInstance
from .thresholds import operator_gap

# The oracle's grid cap, for search-b's --oracle-points and the reports plot-data reads.
MAX_ORACLE_POINTS = 10_000_000


class TrinomialCoeffs(NamedTuple):
    """Coefficients of L(t) = L1 t^2 + L2 t + L3 (source: product or sum)."""

    L1: float
    L2: float
    L3: float
    epsilon: float
    source: str

    def value(self, t):
        """Evaluate L(t); exact composition of the stored coefficients."""
        return (self.L1 * t + self.L2) * t + self.L3

    def as_dict(self) -> dict:
        return self._asdict()


def product_trinomial(inst: ProblemInstance, epsilon: float = 0.0) -> TrinomialCoeffs:
    """Coefficients of the product-reaction quadratic at a given epsilon.

    With Q = m+s-q+1 and R the operator gap:

      L1 = 1 - 4(q-1)/(NQ) + R/Q^2 + eps*12(p-1)^2/(N Q^2)
      L2 = (2s/Q)(2(p-1)/N + p-q) - 4(q-1)/(NQ)
           + eps*(12/Q)[(p-1) - (2s/Q)(q-1)^2/N + (2s/Q)(p-q)^2]
      L3 = (s/Q)^2 R + 4(p-1)s/(NQ)
           + 4 eps [(3s/Q)((s/Q)(p-1)^2/N - (q-1)) + (1/N - 3 eps)]

    At epsilon = 0, L1 factors as (Q - Q1)(Q - Q2)/Q^2.
    """
    if epsilon < 0.0:
        raise AdmissibilityError("epsilon must be nonnegative")
    Q = positive_combined_exponent(inst)
    N, p, q, s = inst.N, inst.p, inst.q, inst.s
    R = operator_gap(N, p, q)
    sq = s / Q
    L1 = 1.0 - 4.0 * (q - 1.0) / (N * Q) + R / (Q * Q)
    L1 += epsilon * 12.0 * (p - 1.0) ** 2 / (N * Q * Q)
    L2 = 2.0 * sq * (2.0 * (p - 1.0) / N + (p - q)) - 4.0 * (q - 1.0) / (N * Q)
    L2 += epsilon * (12.0 / Q) * (
        (p - 1.0) - 2.0 * sq * (q - 1.0) ** 2 / N + 2.0 * sq * (p - q) ** 2
    )
    L3 = sq * sq * R + 4.0 * (p - 1.0) * sq / N
    L3 += 4.0 * epsilon * (3.0 * sq * (sq * (p - 1.0) ** 2 / N - (q - 1.0)) + (1.0 / N - 3.0 * epsilon))
    return TrinomialCoeffs(L1=L1, L2=L2, L3=L3, epsilon=epsilon, source="product")


def sum_leading_coefficient(inst: ProblemInstance) -> float:
    """Leading tau^2 coefficient majorant for the sum-reaction quadratic:
    s^2 - 2s(N+2)(q-1)/N + [(N+4)(p-1)^2 + 4(p-q)^2]/N.

    Negative exactly when s lies strictly between the sum thresholds
    s_minus and s_plus.
    """
    N, p, q, s = inst.N, inst.p, inst.q, inst.s
    return (
        s * s
        - 2.0 * s * (N + 2.0) * (q - 1.0) / N
        + ((N + 4.0) * (p - 1.0) ** 2 + 4.0 * (p - q) ** 2) / N
    )


def verify_negativity(coeffs: TrinomialCoeffs, t_max: float, grid_points: int) -> tuple[float, float]:
    """Grid-search oracle: minimiser of L over [0, t_max].

    Returns (t_min, value_min) over a uniform grid; ties resolve to the
    smaller t.  Used only to validate the constructive selection, never
    to produce it.
    """
    import numpy as np

    t, values = oracle_curve(coeffs, t_max, grid_points)
    i = int(np.argmin(values))
    return float(t[i]), float(values[i])


def oracle_curve(coeffs: TrinomialCoeffs, t_max: float, grid_points: int):
    """The oracle's uniform grid on [0, t_max] and L on it: (t, values).

    Checks what search-b and plot-data both pass in: a finite t_max > 0
    and an int grid_points in [1000, MAX_ORACLE_POINTS].
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise AdmissibilityError(f"oracle t_max must be finite and positive, got {t_max!r}")
    if isinstance(grid_points, bool) or not isinstance(grid_points, int):
        raise AdmissibilityError(f"oracle grid_points must be an int, got {grid_points!r}")
    if not 1000 <= grid_points <= MAX_ORACLE_POINTS:
        raise AdmissibilityError(f"oracle grid_points must lie in [1000, {MAX_ORACLE_POINTS:,}]")

    import numpy as np

    t = np.linspace(0.0, t_max, grid_points)
    return t, coeffs.value(t)
