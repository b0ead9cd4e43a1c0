"""Parameter window for the doubling-of-variables rigidity argument.

For reactions dominated by g(u)|grad u|^m with m > q, the argument
needs a Hoelder exponent gamma in (0, 1) satisfying

    m - 1 - (1-gamma)(q-1) > (q-1) gamma   and
    0 < gamma - 1 + 1/(m+1-q) < gamma,

together with a modulus delta(r) vanishing at infinity, with
delta(r) r^gamma -> infinity and delta(r) r^(gamma-1+1/(m+1-q)) -> 0.
Restricted to the power family delta(r) = r^(-alpha) the three limits
give an explicit alpha interval per gamma.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AdmissibilityError


class ILWindow(NamedTuple):
    feasible: bool
    gamma_lo: float | None
    gamma_hi: float | None
    alpha_bounds: tuple[tuple[float, tuple[float, float]], ...]

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "gamma_lo": self.gamma_lo,
            "gamma_hi": self.gamma_hi,
            "alpha_bounds": [
                {"gamma": g, "alpha_lo": lo, "alpha_hi": hi}
                for g, (lo, hi) in self.alpha_bounds
            ],
        }


def il_gamma_lo(q: float, m: float) -> float:
    """Closed-form lower end of the feasible gamma window: 1 - 1/(m+1-q)."""
    return 1.0 - 1.0 / (m + 1.0 - q)


def il_alpha_window(q: float, m: float, gamma: float) -> tuple[float, float]:
    """Admissible decay powers for delta(r) = r^(-alpha) at a given gamma:
    (max{0, gamma - 1 + 1/(m+1-q)}, gamma)."""
    lo = max(0.0, gamma - 1.0 + 1.0 / (m + 1.0 - q))
    return lo, gamma


def il_parameter_window(q: float, m: float, gamma_samples: int = 9) -> ILWindow:
    """Feasible (gamma, alpha) window; empty whenever m <= q.

    The alpha bounds are tabulated on an evenly spaced interior grid of
    the gamma window (gamma_samples points).
    """
    if not (math.isfinite(q) and math.isfinite(m)):
        raise AdmissibilityError("q and m must be finite")
    if q <= 1.0:
        raise AdmissibilityError("q must exceed 1")
    if m <= 0.0:
        raise AdmissibilityError("m must be positive")
    if m <= q:
        return ILWindow(feasible=False, gamma_lo=None, gamma_hi=None, alpha_bounds=())
    lo = il_gamma_lo(q, m)
    gammas = [
        lo + (k + 1) * (1.0 - lo) / (gamma_samples + 1) for k in range(gamma_samples)
    ]
    bounds = tuple((g, il_alpha_window(q, m, g)) for g in gammas)
    return ILWindow(feasible=True, gamma_lo=lo, gamma_hi=1.0, alpha_bounds=bounds)
