"""Numerical verification of the differential identities behind the method.

Each check compares two independently assembled discrete quantities on
the common valid interior and reports a normalised error against a
spacing-aware tolerance (default 25 h^2).  Pass/fail never silently
loosens: the tolerance used is recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FieldError
from .fields import ManufacturedField
from .grid import GridField, sample_function
from .operators import dot_arrays, gradient_components, laplacian, p_laplacian, pq_laplacian
from .weights import _coefficients

DEFAULT_TOLERANCE_FACTOR = 25.0


@dataclass(frozen=True)
class IdentityReport:
    max_abs_error: float
    rel_error: float
    passed: bool
    tolerance_used: float
    observed_order: float | None = None
    constant: float | None = None

    def as_dict(self) -> dict:
        return {
            "max_abs_error": self.max_abs_error,
            "rel_error": self.rel_error,
            "passed": self.passed,
            "tolerance_used": self.tolerance_used,
            "observed_order": self.observed_order,
            "constant": self.constant,
        }


def default_tolerance(h: float, factor: float = DEFAULT_TOLERANCE_FACTOR) -> float:
    return factor * h * h


def refinement_order(report_h: IdentityReport, report_h2: IdentityReport) -> float | None:
    """Observed order from errors at spacings h and h/2.

    None when either error is exactly 0: the identity then holds to
    rounding on that grid and no order is observable.
    """
    if report_h.rel_error == 0.0 or report_h2.rel_error == 0.0:
        return None
    return math.log2(report_h.rel_error / report_h2.rel_error)


def attach_order(report: IdentityReport, order: float | None) -> IdentityReport:
    return replace(report, observed_order=order)


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

    from finite differences of v and z = |grad v|^2, shared with every
    other check on the same field through `v.derivatives`.  Nodes with a
    degenerate gradient are excluded; more than 10% exclusions aborts.
    """
    if b == 0.0:
        raise FieldError("change of variable requires b != 0")
    if not (v.values > 0.0).all():
        raise FieldError("change of variable requires v > 0")
    h = v.spacing
    tol = default_tolerance(h) if tolerance is None else tolerance

    # Both sides are compared on the ring-2 interior, so the right side
    # is assembled there only; it is elementwise, so node values match.
    inner = tuple(slice(2, -2) for _ in range(v.ndim))
    u = GridField(values=v.values**b, spacing=h, origin=v.origin)
    lhs = pq_laplacian(u, p, q).values[inner]

    derivs = v.derivatives
    vv, z = v.values[inner], derivs.grad_sq[inner]
    with np.errstate(invalid="ignore", divide="ignore"):
        A, D, E = _coefficients(b, vv, z, p, q)
        rhs = (
            b
            * abs(b) ** (q - 2.0)
            * vv ** ((b - 1.0) * (q - 1.0))
            * (
                z ** (q / 2.0 - 1.0) * A * derivs.lap[inner]
                + (b - 1.0) * E * z ** (q / 2.0) / vv
                + 0.5 * D * z ** ((q - 4.0) / 2.0) * derivs.grad_sq_dot_grad[inner]
            )
        )

    z_floor = 1e-12 * float(np.nanmax(z))
    valid = np.isfinite(lhs) & np.isfinite(rhs) & (z > z_floor)
    if valid.size == 0 or (1.0 - valid.mean()) > 0.10:
        raise FieldError("test field violates |grad v|>0")
    err = float(np.max(np.abs(lhs[valid] - rhs[valid])))
    scale = float(np.max(np.abs(lhs[valid])))
    return _report(err, max(scale, 1e-300), tol)


def bochner_check(v: GridField, N_param: int, tolerance: float | None = None) -> IdentityReport:
    """Check (1/2) lap(z) >= (1/N)(lap v)^2 + <grad lap v, grad v> with z = |grad v|^2.

    An inequality check: rel_error is the normalised violation
    max(0, -min slack)/scale, so passed keeps its rel_error <= tolerance
    meaning.
    """
    h = v.spacing
    tol = default_tolerance(h) if tolerance is None else tolerance
    derivs = v.derivatives
    lap_v = derivs.lap
    lhs = 0.5 * laplacian(derivs.grad_sq, h)
    rhs = lap_v * lap_v / N_param + dot_arrays(gradient_components(lap_v, h), derivs.grads)
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
    lhs = p_laplacian(w, p, reg_eps=eps).values
    rhs = k ** (alpha * (p - 1.0) + p) * p_laplacian(scaled, p, reg_eps=eps).values
    inner = tuple(slice(1, -1) for _ in range(dim))
    err = float(np.max(np.abs(lhs[inner] - rhs[inner])))
    scale = max(float(np.max(np.abs(rhs[inner]))), 1e-300)
    return _report(err, scale, tol)
