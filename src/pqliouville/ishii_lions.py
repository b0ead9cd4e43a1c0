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
from .instance import MAX_FIELD


class ILWindow(NamedTuple):
    """The (gamma, alpha) window in closed form.

    gamma_lo < gamma < gamma_hi = 1, and at each such gamma the decay
    power of r^(-alpha) lies in (gamma - gamma_lo, gamma), the interval
    il_alpha_window gives.  gamma_lo and gamma_hi are None when the
    window is empty (m <= q).
    """

    feasible: bool
    gamma_lo: float | None
    gamma_hi: float | None

    def as_dict(self) -> dict:
        return self._asdict()


def _check(q: float, m: float, window: bool = True) -> None:
    """Refuse q and m outside the window's domain; with `window`, also m <= q,
    where the window is empty.  With q and m at most MAX_FIELD,
    1/(m+1-q) >= 1e-15 exceeds an ulp of 1, so gamma_lo < 1."""
    if not (math.isfinite(q) and math.isfinite(m)):
        raise AdmissibilityError("q and m must be finite")
    if max(q, m) > MAX_FIELD:
        raise AdmissibilityError(f"q and m must be at most {MAX_FIELD:g}")
    if q <= 1.0:
        raise AdmissibilityError("q must exceed 1")
    if m <= 0.0:
        raise AdmissibilityError("m must be positive")
    if window and m <= q:
        raise AdmissibilityError("the window is empty unless m > q")


def il_gamma_lo(q: float, m: float) -> float:
    """Closed-form lower end of the feasible gamma window: 1 - 1/(m+1-q)."""
    _check(q, m)
    return 1.0 - 1.0 / (m + 1.0 - q)


def il_alpha_window(q: float, m: float, gamma: float) -> tuple[float, float]:
    """Admissible decay powers for delta(r) = r^(-alpha) at a given gamma:
    (max{0, gamma - 1 + 1/(m+1-q)}, gamma)."""
    _check(q, m)
    lo = max(0.0, gamma - 1.0 + 1.0 / (m + 1.0 - q))
    return lo, gamma


def il_parameter_window(q: float, m: float) -> ILWindow:
    """Feasible (gamma, alpha) window; empty whenever m <= q."""
    _check(q, m, window=False)
    if m <= q:
        return ILWindow(feasible=False, gamma_lo=None, gamma_hi=None)
    return ILWindow(feasible=True, gamma_lo=il_gamma_lo(q, m), gamma_hi=1.0)
