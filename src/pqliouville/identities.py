"""Numerical verification of the differential identities behind the method.

Each check compares two independently assembled discrete quantities on
the common valid interior and reports a normalised error against a
spacing-aware tolerance (default 25 h^2).  Pass/fail never silently
loosens: the tolerance used is recorded in the report.

The change of variable u = v^b has the weights A = 1 + w, D = q-2 + (p-2) w
and E = q-1 + (p-1) w, with w = |b|^(p-q) v^((b-1)(p-q)) z^((p-q)/2) and
z = |grad v|^2.  As E + (p-q) = (p-1) A and D + (p-q) = (p-2) A, D/A and
E/A average (q-2, p-2) and (q-1, p-1); Gamma, Xi and Upsilon inherit the
interval bounds that majorise the variable-coefficient quadratic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import FieldError
from .fields import ManufacturedField
from .operators import (
    GridField,
    blocked_result,
    fits_one_block,
    gradient_dot,
    laplacian,
    map_plane_blocks,
    map_planes,
    nan_extremes,
    p_laplacian,
    pq_laplacian,
    sample_function,
)

DEFAULT_TOLERANCE_FACTOR = 25.0


class IdentityReport(NamedTuple):
    max_abs_error: float
    rel_error: float
    passed: bool
    tolerance_used: float
    observed_order: float | None = None

    def as_dict(self) -> dict:
        return self._asdict()


class AuxWeights(NamedTuple):
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


def default_tolerance(h: float) -> float:
    return DEFAULT_TOLERANCE_FACTOR * h * h


def refinement_order(report_h: IdentityReport, report_h2: IdentityReport) -> float | None:
    """Observed order from errors at spacings h and h/2.

    None when either error is exactly 0: the identity then holds to
    rounding on that grid and no order is observable.
    """
    if report_h.rel_error == 0.0 or report_h2.rel_error == 0.0:
        return None
    return math.log2(report_h.rel_error / report_h2.rel_error)


def _report(err: float, scale: float, tolerance: float) -> IdentityReport:
    rel = err / scale if scale > 0.0 else 0.0
    return IdentityReport(
        max_abs_error=float(err),
        rel_error=float(rel),
        passed=bool(rel <= tolerance),
        tolerance_used=float(tolerance),
    )


def change_of_variable_check(
    v: GridField, b: float, p: float, q: float, tolerance: float | None = None
) -> IdentityReport:
    """Check the expansion of Delta_p(v^b) + Delta_q(v^b) in terms of v.

    The left side applies the flux-form operator to u = v^b directly;
    the right side assembles

        b |b|^(q-2) v^((b-1)(q-1)) [ z^(q/2-1) A lap(v)
            + (b-1) E z^(q/2) / v + (D/2) z^((q-4)/2) <grad z, grad v> ]

    from the derivatives of v and z = |grad v|^2 that the field caches
    (`v.grad_sq`, `v.lap`, `v.grad_sq_dot_grad`), so every other check
    on the same field reuses them.  Nodes with a degenerate gradient are
    excluded; more than 10% exclusions aborts.
    """
    if b == 0.0:
        raise FieldError("change of variable requires b != 0")
    if not all(map_planes(lambda x: (x > 0.0).all(), v.values)):
        raise FieldError("change of variable requires v > 0")
    h = v.spacing
    tol = default_tolerance(h) if tolerance is None else tolerance

    # Both sides are compared on the ring-2 interior, so the right side
    # is assembled there only, block by block, and each block is compared
    # as soon as it is made: it is elementwise, so node values match, and
    # max and count are exact whatever the blocks.  u = v^b lives only
    # for the operator call.
    inner = tuple(slice(2, -2) for _ in range(v.ndim))
    u = blocked_result(lambda sl, out: _power(v.values[sl], b, out), v.values)
    lhs = pq_laplacian(GridField(values=u, spacing=h), p, q).values[inner]
    del u

    z = v.grad_sq[inner]
    z_floor = 1e-12 * float(nan_extremes(z)[1])
    if not fits_one_block(z):
        # The blocks run on pool threads, which must not compute the
        # cached derivatives: take them here, on the caller's thread.
        v.lap, v.grad_sq_dot_grad
    counts, errs, scales = zip(*map_plane_blocks(
        lambda i0, i1: _compare_block(v, lhs, inner, slice(i0, i1), b, p, q, z_floor),
        0, len(z), z[0].size))
    if (1.0 - sum(counts) / z.size) > 0.10:
        raise FieldError("test field violates |grad v|>0")
    return _report(max(errs), max(max(scales), 1e-300), tol)


def _power(x: np.ndarray, b: float, out: np.ndarray | None) -> np.ndarray:
    """x ** b, into out when given (** is not np.power: it has fast paths for some b)."""
    if out is None:
        return x**b
    out[...] = x**b
    return out


def _compare_block(v: GridField, lhs, inner, sl: slice, b, p, q, z_floor: float):
    """(valid nodes, max |lhs - rhs|, max |lhs|) over planes `sl` of the ring-2 interior.

    A node is valid where both sides are finite and z exceeds z_floor.
    """
    rhs = _change_of_variable_rhs(v, inner, sl, b, p, q)
    lhs = lhs[sl]
    valid = np.isfinite(lhs) & np.isfinite(rhs) & (v.grad_sq[inner][sl] > z_floor)
    diff = np.abs(np.subtract(lhs, rhs, out=rhs), out=rhs)
    err = float(np.max(diff, where=valid, initial=0.0))
    scale = float(np.max(np.abs(lhs, out=rhs), where=valid, initial=0.0))
    return int(np.count_nonzero(valid)), err, scale


def _change_of_variable_rhs(v: GridField, inner, sl: slice, b, p, q) -> np.ndarray:
    """Planes `sl` of the right side on the `inner` nodes of v.

    The cached derivatives are read inside the expression, so on a
    one-block grid they are first computed after the first temporaries,
    as whole-array code did.  Computed before them, they left the
    temporaries on top of the heap, where the allocator gave them back
    and faulted them in again on every check: three times the page
    faults of `verify-identities --resolution 129`.
    """
    vv, z = v.values[inner][sl], v.grad_sq[inner][sl]
    with np.errstate(invalid="ignore", divide="ignore"):
        A, D, E = _coefficients(b, vv, z, p, q)
        return (b * abs(b) ** (q - 2.0) * vv ** ((b - 1.0) * (q - 1.0))) * (
            z ** (q / 2.0 - 1.0) * A * v.lap[inner][sl]
            + (b - 1.0) * E * z ** (q / 2.0) / vv
            + 0.5 * D * z ** ((q - 4.0) / 2.0) * v.grad_sq_dot_grad[inner][sl]
        )


def bochner_check(v: GridField, N_param: int, tolerance: float | None = None) -> IdentityReport:
    """Check (1/2) lap(z) >= (1/N)(lap v)^2 + <grad lap v, grad v> with z = |grad v|^2.

    An inequality check: rel_error is the normalised violation
    max(0, -min slack)/scale, so passed keeps its rel_error <= tolerance
    meaning.
    """
    h = v.spacing
    tol = default_tolerance(h) if tolerance is None else tolerance
    lap_v = v.lap
    lhs = 0.5 * laplacian(v.grad_sq, h)
    rhs = lap_v * lap_v / N_param + gradient_dot(lap_v, v.values, h)
    inner = tuple(slice(2, -2) for _ in range(v.ndim))
    lhs_i, rhs_i = lhs[inner], rhs[inner]
    valid = np.isfinite(lhs_i) & np.isfinite(rhs_i)
    slack = lhs_i[valid] - rhs_i[valid]
    violation = max(0.0, -float(np.min(slack)))
    scale = max(
        float(np.max(np.abs(lhs_i[valid]))), float(np.max(np.abs(rhs_i[valid]))), 1e-300
    )
    return _report(violation, scale, tol)


def scaling_check(
    field: ManufacturedField,
    k: float,
    alpha: float,
    p: float,
    n: int = 65,
    dim: int = 2,
    tolerance: float | None = None,
) -> IdentityReport:
    """Check Delta_p[k^alpha u(k .)](x) = k^(alpha(p-1)+p) (Delta_p u)(k x).

    The analytic field is sampled twice: once dilated into the x grid
    and once on the k-scaled grid, so the right side is evaluated at
    exactly the nodes k x.
    """
    if k <= 0.0:
        raise FieldError("scaling factor k must be positive")

    def dilated(*coords):
        return k**alpha * field.fn(*(k * c for c in coords))

    w = sample_function(dilated, field.lo, field.hi, n, dim)
    tol = default_tolerance(w.spacing) if tolerance is None else tolerance
    scaled = field.sample_scaled(k, n, dim)
    eps = 1e-12
    lhs = p_laplacian(w, p, eps).values
    rhs = k ** (alpha * (p - 1.0) + p) * p_laplacian(scaled, p, eps).values
    inner = tuple(slice(1, -1) for _ in range(dim))
    err = float(np.max(np.abs(lhs[inner] - rhs[inner])))
    scale = max(float(np.max(np.abs(rhs[inner]))), 1e-300)
    return _report(err, scale, tol)
