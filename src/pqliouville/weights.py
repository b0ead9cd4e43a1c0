"""Auxiliary coefficient functions of the change of variable u = v^b.

With w = |b|^(p-q) v^((b-1)(p-q)) z^((p-q)/2) and z = |grad v|^2:

    A = 1 + w,   D = q-2 + (p-2) w,   E = q-1 + (p-1) w,

so that E + (p-q) = (p-1) A and D + (p-q) = (p-2) A, and D/A, E/A are
weighted averages of (q-2, p-2) and (q-1, p-1) respectively.  The
derived combinations Gamma, Xi, Upsilon inherit the explicit interval
bounds used to majorise the variable-coefficient quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AuxWeights:
    A: float
    D: float
    E: float
    frakA: float
    Gamma: float
    Xi: float
    Upsilon: float


def _coefficients(b: float, v, z, p: float, q: float):
    """A, D and E at (b, v, z), without checking v > 0 or z > 0.

    The change-of-variable check calls this directly, because it masks
    nodes with a degenerate gradient only after evaluating them.
    """
    w = abs(b) ** (p - q) * v ** ((b - 1.0) * (p - q)) * z ** ((p - q) / 2.0)
    return 1.0 + w, q - 2.0 + (p - 2.0) * w, q - 1.0 + (p - 1.0) * w


def aux_weights(b: float, v, z, p: float, q: float, N: int) -> AuxWeights:
    """Evaluate all seven weight quantities at (b, v, z).

    Accepts scalars or numpy arrays for v and z (both must be strictly
    positive).
    """
    import numpy as np

    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (v > 0).all() or not (z > 0).all():
        raise ValueError("aux weights require v > 0 and z > 0")
    A, D, E = _coefficients(b, v, z, p, q)
    frakA = (A - 1.0) / A
    Gamma = (2.0 / N) * (E / A) + (p - q) * frakA
    Xi = (E / A) ** 2 / N - (p - q) ** 2 * frakA / A
    Upsilon = (p - q) ** 2 * frakA**2 + (4.0 / N) * (p - 1.0) * (p - q) * frakA
    if v.ndim == 0:
        return AuxWeights(*(float(x) for x in (A, D, E, frakA, Gamma, Xi, Upsilon)))
    return AuxWeights(A=A, D=D, E=E, frakA=frakA, Gamma=Gamma, Xi=Xi, Upsilon=Upsilon)
