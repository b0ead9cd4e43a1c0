"""Problem data for gradient-reaction (p,q)-Laplacian equations."""

from __future__ import annotations

import math
from typing import NamedTuple

KINDS = ("hamilton_jacobi", "product", "sum")
# The largest accepted field.  Below 2^53 the 1 in p - 1, q - 1 and
# m + s - q + 1 is not lost to rounding, and no closed form overflows; from
# about 1e154 on, (q - 1.0) ** 2 raises OverflowError and Q3 at such an s is
# inf/inf.
MAX_FIELD = 1e15


class _ProblemFields(NamedTuple):
    N: int
    p: float
    q: float
    kind: str
    s: float = 0.0
    m: float = 0.0
    M: float = 0.0


class ProblemInstance(_ProblemFields):
    """One equation -Delta_p u - Delta_q u = f(u, grad u) on a domain in R^N.

    The reaction kind selects f:

    ==================  ==========================
    hamilton_jacobi     f = |grad u|^m
    product             f = u^s |grad u|^m
    sum                 f = u^s + M |grad u|^m
    ==================  ==========================

    Requires p >= q > 1, an integer N >= 2 and finite N, p, q, s, m and
    M of at most MAX_FIELD.  q = p is admitted as the single-operator
    reduction mode.  For the Hamilton-Jacobi kind the fields s and M are
    ignored and normalised to 0.  The constructor validates, then stores N
    as an int and p, q, s, m and M as floats, so every value computed from
    them is a float; `_replace` and `_make` build the tuple directly and
    skip both.
    """

    __slots__ = ()

    def __new__(cls, N, p, q, kind, s=0.0, m=0.0, M=0.0):
        if kind not in KINDS:
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        try:
            finite = all(map(math.isfinite, (N, p, q, s, m, M)))
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise ValueError("N, p, q, s, m and M must be finite")
        if max(N, p, q, s, m, M) > MAX_FIELD:
            raise ValueError(f"N, p, q, s, m and M must be at most {MAX_FIELD:g}")
        if N != int(N) or N < 2:
            raise ValueError("N must be an integer >= 2")
        if not (1.0 < q <= p):
            raise ValueError("exponents must satisfy p >= q > 1")
        if s < 0 or m < 0 or M < 0:
            raise ValueError("s, m and M must be nonnegative")
        if kind == "hamilton_jacobi":
            s = M = 0.0
        return tuple.__new__(cls, (int(N), float(p), float(q), kind, float(s), float(m), float(M)))

    @property
    def combined_exponent(self) -> float:
        """Net reaction-vs-operator exponent m + s - q + 1."""
        return self.m + self.s - self.q + 1.0

    def as_dict(self) -> dict:
        return self._asdict()
