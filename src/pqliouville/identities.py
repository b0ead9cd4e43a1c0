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

import functools
import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import FieldError
from .fields import ManufacturedField
# The checks run on the block kernels and call neither pq_laplacian nor
# p_laplacian.  Both names stay importable here, where bench/tracing.py
# wraps them, until the tracer stops patching (ROADMAP item 18).
from .operators import (  # noqa: F401
    GridField,
    _auto_eps,
    _dot_planes,
    _flux_block,
    _laplacian_block,
    map_plane_blocks,
    map_planes,
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

    The left side applies pq_laplacian's flux-form operator to u = v^b
    directly; the right side assembles

        b |b|^(q-2) v^((b-1)(q-1)) [ z^(q/2-1) A lap(v)
            + (b-1) E z^(q/2) / v + (D/2) z^((q-4)/2) <grad z, grad v> ]

    from z = |grad v|^2.  Both are compared on the ring-2 interior.  Nodes
    with a degenerate gradient are excluded; more than 10% exclusions
    aborts.  The batch of one case of `change_of_variable_checks`.
    """
    return change_of_variable_checks(v, [(b, p, q, tolerance)])[0]


def change_of_variable_checks(
    v: GridField, cases: Iterable[tuple[float, float, float, float | None]]
) -> list[IdentityReport]:
    """change_of_variable_check(v, b, p, q, tolerance) for each (b, p, q, tolerance) case.

    Two passes over blocks of ring-2 interior planes: the first finds
    the largest z = |grad v|^2, whose 1e-12 multiple is the floor below
    which a node counts as degenerate; the second runs every case, so
    each block builds z, lap v and <grad z, grad v> once for all of
    them.  No whole-grid array but v is held.  Every node gets the
    operations of the whole-array check, so the reports are
    bit-identical to it.  A case with b = 0, then one with a b, p or q
    that is not finite, then a v that is not positive, refuses the
    batch; then each case in turn refuses it where its flux is not
    finite on the ring-1 interior or more than 10% of its nodes are
    excluded.
    """
    h = v.spacing
    cases = [(b, p, q, default_tolerance(h) if tol is None else tol) for b, p, q, tol in cases]
    if any(b == 0.0 for b, *_ in cases):
        raise FieldError("change of variable requires b != 0")
    if not all(math.isfinite(x) for case in cases for x in case[:3]):
        raise FieldError("b, p and q must be finite")
    if not all(map_planes(lambda x: (x > 0.0).all(), v.values)):
        raise FieldError("change of variable requires v > 0")
    # u = v^b is regularised as pq_laplacian regularises it.
    eps = [_auto_eps(v.values, h, lambda x, b=b: x**b) for b, *_ in cases]
    n0, rows = len(v.values), _rows(v.ndim, 2)
    nodes = math.prod(n - 4 for n in v.values.shape[1:])

    def z_max(i0: int, i1: int) -> np.float64:
        # fmax ignores NaN, as nanmax does.
        return np.fmax.reduce(_dot_planes(v.values, v.values, h, i0, i1)[rows], axis=None)

    z_floor = 1e-12 * float(np.nanmax(map_plane_blocks(z_max, 2, n0 - 2, nodes)))
    parts = map_plane_blocks(lambda i0, i1: _check_block(v, i0, i1, cases, eps, z_floor),
                             2, n0 - 2, nodes)
    reports = []
    for (b, p, q, tol), e, per_block in zip(cases, eps, zip(*parts)):
        finite, counts, errs, scales = zip(*per_block)
        # The blocks' fluxes cover planes 2 .. n-3; planes 1 and n-2 are
        # the rest of the ring-1 interior.
        edges = (_flux_block(v.values[i - 1:i + 2] ** b, h, (p, q), e) for i in (1, n0 - 2))
        if not (all(finite) and all(np.isfinite(flux).all() for flux in edges)):
            raise FieldError("field not smooth enough at spacing h")
        if (1.0 - sum(counts) / ((n0 - 4) * nodes)) > 0.10:
            raise FieldError("test field violates |grad v|>0")
        reports.append(_report(max(errs), max(max(scales), 1e-300), tol))
    return reports


def _rows(ndim: int, k: int) -> tuple[slice, ...]:
    """Every plane of a block, less k layers at both ends of every other axis."""
    return (slice(None),) + (slice(k, -k),) * (ndim - 1)


def _check_block(v: GridField, i0: int, i1: int, cases, eps, z_floor: float) -> list[tuple]:
    """For each case, over planes [i0, i1) of the ring-2 interior: whether
    the flux is finite on its ring-1 rows, the valid nodes, max |lhs - rhs|
    and max |lhs|.

    A node is valid where both sides are finite and z = |grad v|^2
    exceeds z_floor.  z is built on the block and one halo plane either
    side, which <grad z, grad v> reads.  Each case's temporaries are
    dropped before the next case starts.
    """
    h, d = v.spacing, v.ndim
    rows, ring2 = _rows(d, 2), _rows(d, 1)
    z_halo = _dot_planes(v.values, v.values, h, i0 - 1, i1 + 1)
    vv, z = v.values[i0:i1][rows], z_halo[1:-1][rows]

    @functools.cache
    def lap_v() -> np.ndarray:
        return _laplacian_block(v.values[i0 - 1:i1 + 1], h)[ring2]

    @functools.cache
    def dot_zv() -> np.ndarray:
        return _dot_planes(z_halo, v.values[i0 - 1:i1 + 1], h, 1, i1 - i0 + 1)[rows]

    def compare(b, p, q, eps) -> tuple:
        flux = _flux_block(v.values[i0 - 1:i1 + 1] ** b, h, (p, q), eps)
        finite = bool(np.isfinite(flux).all())
        lhs = flux[ring2]
        rhs = _right_side(vv, z, b, p, q, lap_v, dot_zv)
        valid = np.isfinite(lhs) & np.isfinite(rhs) & (z > z_floor)
        diff = np.abs(np.subtract(lhs, rhs, out=rhs), out=rhs)
        err = float(np.max(diff, where=valid, initial=0.0))
        scale = float(np.max(np.abs(lhs, out=rhs), where=valid, initial=0.0))
        return finite, int(np.count_nonzero(valid)), err, scale

    return [compare(b, p, q, e) for (b, p, q, _), e in zip(cases, eps)]


def _right_side(vv, z, b, p, q, lap_v, dot_zv) -> np.ndarray:
    """The right side at nodes with values vv and z = |grad v|^2.

    lap_v() and dot_zv() give lap v and <grad z, grad v> there; they are
    called inside the expression, so the first case makes them after its
    first temporaries, as whole-array code did.  Made before them, they
    left each case's temporaries on top of the heap, where the allocator
    gave them back and faulted them in again on every case: 29k minor
    faults for the 257^2 batch of `verify-identities --resolution 129`
    against 3k.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        A, D, E = _coefficients(b, vv, z, p, q)
        return (b * abs(b) ** (q - 2.0) * vv ** ((b - 1.0) * (q - 1.0))) * (
            z ** (q / 2.0 - 1.0) * A * lap_v()
            + (b - 1.0) * E * z ** (q / 2.0) / vv
            + 0.5 * D * z ** ((q - 4.0) / 2.0) * dot_zv()
        )


def bochner_check(v: GridField, N_param: int, tolerance: float | None = None) -> IdentityReport:
    """Check (1/2) lap(z) >= (1/N)(lap v)^2 + <grad lap v, grad v> with z = |grad v|^2.

    An inequality check: rel_error is the normalised violation
    max(0, -min slack)/scale, so passed keeps its rel_error <= tolerance
    meaning.  It holds for every integer N at least the grid dimension;
    any other N_param is refused, and so is a field with no node where
    both sides are finite.  One pass over blocks of ring-2 interior
    planes compares the sides, so no whole-grid array but v is held;
    every node gets the operations of the whole-array check, so the
    report is bit-identical to it.
    """
    if isinstance(N_param, bool) or not isinstance(N_param, int) or N_param < v.ndim:
        raise FieldError(f"N must be an integer at least the grid dimension {v.ndim}, "
                         f"not {N_param!r}")
    h = v.spacing
    tol = default_tolerance(h) if tolerance is None else tolerance
    n0 = len(v.values)
    parts = map_plane_blocks(lambda i0, i1: _bochner_block(v, N_param, i0, i1), 2, n0 - 2,
                             math.prod(n - 4 for n in v.values.shape[1:]))
    counts, slacks, lhs_max, rhs_max = zip(*parts)
    if not sum(counts):
        raise FieldError("field not smooth enough at spacing h")
    violation = max(0.0, -float(min(slacks)))
    return _report(violation, max(float(max(lhs_max)), float(max(rhs_max)), 1e-300), tol)


def _bochner_block(v: GridField, N: int, i0: int, i1: int) -> tuple:
    """Over planes [i0, i1) of the ring-2 interior, at the nodes where both
    sides are finite: their count, the least slack lhs - rhs, max |lhs|
    and max |rhs|.

    lap z reads z on one halo plane either side, and <grad lap v, grad v>
    reads lap v there, which reads v on two.
    """
    h, d = v.spacing, v.ndim
    ring2 = _rows(d, 1)
    lhs = 0.5 * _laplacian_block(_dot_planes(v.values, v.values, h, i0 - 1, i1 + 1), h)[ring2]
    lap = _laplacian_block(v.values[i0 - 2:i1 + 2], h)
    rhs = _dot_planes(lap, v.values[i0 - 1:i1 + 1][ring2], h, 1, i1 - i0 + 1)[ring2]
    sq = lap[1:-1][ring2]
    rhs = np.add(sq * sq / N, rhs, out=rhs)
    valid = np.isfinite(lhs) & np.isfinite(rhs)
    slack = np.subtract(lhs, rhs, out=np.empty_like(lhs), where=valid)
    return (int(np.count_nonzero(valid)), np.min(slack, where=valid, initial=np.inf),
            np.max(np.abs(lhs), where=valid, initial=0.0),
            np.max(np.abs(rhs), where=valid, initial=0.0))


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
    exactly the nodes k x.  Both p-fluxes are regularised at 1e-12.  One
    pass over blocks of ring-1 interior planes builds each sample's flux
    on the block and keeps only max |lhs - rhs| and max |rhs|, so no
    whole-grid array but the two samples is held; every node gets the
    operations of the whole-array check, so the report is bit-identical
    to it.  A flux that is not finite refuses the field; the factor is
    applied only after that test, so a right side that overflows gives
    a report.
    """
    if k <= 0.0:
        raise FieldError("scaling factor k must be positive")

    def dilated(*coords):
        return k**alpha * field.fn(*(k * c for c in coords))

    w = sample_function(dilated, field.lo, field.hi, n, dim)
    tol = default_tolerance(w.spacing) if tolerance is None else tolerance
    scaled = field.sample_scaled(k, n, dim)
    factor = k ** (alpha * (p - 1.0) + p)

    def compare(i0: int, i1: int) -> tuple:
        lhs = _flux_block(w.values[i0 - 1:i1 + 1], w.spacing, (p,), 1e-12)
        rhs = _flux_block(scaled.values[i0 - 1:i1 + 1], scaled.spacing, (p,), 1e-12)
        finite = bool(np.isfinite(lhs).all() and np.isfinite(rhs).all())
        rhs *= factor
        return finite, np.max(np.abs(lhs - rhs)), np.max(np.abs(rhs))

    finite, errs, scales = zip(*map_plane_blocks(compare, 1, n - 1, n ** (dim - 1)))
    if not all(finite):
        raise FieldError("field not smooth enough at spacing h")
    return _report(float(np.max(errs)), max(float(np.max(scales)), 1e-300), tol)
