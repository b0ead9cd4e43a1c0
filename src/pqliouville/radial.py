"""Radial two-point boundary-value solver for -Delta_p u - Delta_q u = f(u, u').

In radial coordinates the equation is the conservation law

    -(r^(N-1) Phi(u'))' = r^(N-1) f(u, |u'|),
    Phi(t) = (|t|^(p-2) + |t|^(q-2)) t,

discretised with conservative finite volumes on a uniform node grid
(fluxes on half-grid faces) and solved by damped Newton at the
regularisation reg_eps.  The Jacobian is exact: the flux derivative and
the closed-form partials of the built-in reactions.  An `rhs_override`
is a source in r alone, so it adds nothing to the Jacobian.

The solve is one loop over stages, each one damped Newton on one mesh at
one data factor (nested iteration; Briggs, Henson & McCormick, A
Multigrid Tutorial, 2000).  The stages climb a ladder of cell counts:
mesh_levels(mesh_n) halves mesh_n, rounding up, until it is at most
COARSE_MESH_N.  The first cell count solves from the data: with
continuation in the data when they are large (the ratio between data
stages doubles after each converged stage and halves after a refused
trial), or in one stage in w = log u.  Each finer cell count
interpolates the iterate and runs one stage, which then takes a few
steps whatever the mesh (the mesh-independence principle of Allgower,
Boehmer, Potra & Rheinboldt, 1986).  A failed stage ends its ladder;
after a failed ladder of several cell counts a second one, mesh_n alone,
starts over from the data.

Only a stage at the full data on mesh_n can be reported, so only it is
solved tight (Deuflhard, Newton Methods for Nonlinear Problems, 2004:
nested iteration and error-oriented termination).  Every other stage
stops at the scaled residual max(tol, STAGE_TOL).  A full-data stage on
mesh_n stops when its residual is <= tol and its last full Newton
correction is <= STEP_TOL * max(1, max|x|) (scaled by tol / NEWTON_TOL):
at the discrete solution, not where the residual first crosses tol.
Once its residual is <= tol, a later failure returns that iterate as
converged.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Callable, NamedTuple

import numpy as np

from .classify import RegimeDecision, estimate_rate
from .errors import AdmissibilityError
from .instance import ProblemInstance

NEWTON_TOL = 1e-10
MAX_NEWTON = 50
# the stop rule of solve_radial: the residual of an intermediate solve, and the
# last solve's relative Newton correction at tol = NEWTON_TOL
STAGE_TOL = 1e-3
STEP_TOL = 1e-8
TRIAL_NEWTON = 10
MAX_DAMPS = 40
DATA_CONTINUATION_START = 8.0
COARSE_MESH_N = 256
# scipy's compiled LAPACK wrappers, relative to the scipy package folder
FLAPACK = os.path.join("linalg", "_flapack")
# The residual's round-off floor grows like n, so the default NEWTON_TOL is out
# of reach on fine meshes: the smooth sum case N = 3, p = 2.5, q = 2, s = 1.5,
# m = M = 1 with data 1 and 2 on [1, 2] reaches 4.8e-11 at 65,536 cells and
# stops at 1.0e-10 at 131,072.
MAX_MESH_N = 65_536


def _check_annulus(r0: float, r1: float) -> None:
    """The radii a solve and a solve-radial report row need: finite 0 < r0 < r1."""
    if not 0.0 < r0 < r1 < math.inf:
        raise AdmissibilityError(f"annulus requires finite 0 < r0 < r1, got r0={r0!r}, r1={r1!r}")


@dataclass
class RadialProblem:
    inst: ProblemInstance
    r0: float
    r1: float
    u_at_r0: float
    u_at_r1: float
    mesh_n: int = 256
    reg_eps: float = 1e-8
    # a source f(r, u, du) that depends on r alone; Newton takes its u and du derivatives as 0
    rhs_override: Callable | None = None
    log_transform: bool = False

    def __post_init__(self):
        _check_annulus(self.r0, self.r1)
        try:
            self.r1 ** (self.inst.N - 1)  # the largest radial weight; one that underflows is fine
        except OverflowError:
            raise AdmissibilityError(
                f"radial weight r1^(N-1) overflows a float: N={self.inst.N}, r1={self.r1!r}") from None
        if not (math.isfinite(self.u_at_r0) and math.isfinite(self.u_at_r1)):
            raise AdmissibilityError("u0 and u1 must be finite")
        if not 64 <= self.mesh_n <= MAX_MESH_N:
            raise AdmissibilityError(f"mesh_n must lie in [64, {MAX_MESH_N:,}]")
        if not 0.0 < self.reg_eps <= 1e-2:
            raise AdmissibilityError("reg_eps must lie in (0, 1e-2]")
        if self.log_transform and not (self.u_at_r0 > 0.0 and self.u_at_r1 > 0.0):
            raise AdmissibilityError("log transform requires positive boundary data")


@dataclass
class RadialSolution:
    r: np.ndarray
    u: np.ndarray
    residual_norm: float
    newton_iters: int
    continuation_steps: int
    converged: bool
    failure: str | None = None

    @property
    def r_half(self) -> np.ndarray:
        return 0.5 * (self.r[:-1] + self.r[1:])

    @property
    def wall_distance(self) -> np.ndarray:
        """Distance from r_half to the nearer wall, min(r - r0, r1 - r)."""
        rh = self.r_half
        return np.minimum(rh - self.r[0], self.r[-1] - rh)

    @property
    def du(self) -> np.ndarray:
        """Face slopes (u[i+1] - u[i]) / h, at r_half."""
        return np.diff(self.u) / (self.r[1] - self.r[0])

    @classmethod
    def from_row(cls, row: dict) -> RadialSolution:
        """The solution of a solve-radial report row, on the mesh rebuilt from its r0, r1 and u.

        Rows store no r or du; plot-data rebuilds them here.
        """
        r0, r1 = row["radial"]["r0"], row["radial"]["r1"]
        _check_annulus(r0, r1)
        u = np.array(row["u"])
        return cls(
            r=radial_mesh(r0, r1, len(u) - 1), u=u,
            residual_norm=row["residual_norm"], newton_iters=row["newton_iters"],
            continuation_steps=row["continuation_steps"], converged=row["converged"],
            failure=row["failure"],
        )


class BlowupFit(NamedTuple):
    fitted_exponent: float
    fitted_C: float
    window: tuple[float, float]
    r_squared: float

    def as_dict(self) -> dict:
        return self._asdict()


def _flux_powers(t, p: float, q: float, eps: float):
    """The pieces of the flux and of its derivative at slopes t: t^2 + eps^2,
    its powers (p-2)/2 and (q-2)/2, and the mask where t^2 + eps^2 = 0
    (None when eps^2 > 0 rules that out).  Callers hold np.errstate: a
    negative power of 0 is inf."""
    t2e = t * t + eps * eps
    zero = t2e == 0.0 if eps * eps == 0.0 else None
    return t2e, np.power(t2e, (p - 2.0) / 2.0), np.power(t2e, (q - 2.0) / 2.0), zero


def _flux_value(t, powers):
    _, pow_p, pow_q, zero = powers
    out = (pow_p + pow_q) * t
    return out if zero is None else np.where(zero, 0.0, out)


def _flux_slope(t, powers, p: float, q: float):
    t2e, pow_p, pow_q, zero = powers
    out = pow_p * (1.0 + (p - 2.0) * t * t / t2e) + pow_q * (1.0 + (q - 2.0) * t * t / t2e)
    if zero is None:
        return out
    limit = sum(r - 1.0 if r == 2.0 else (0.0 if r > 2.0 else np.inf) for r in (p, q))
    return np.where(zero, limit, out)


def flux(t, p: float, q: float, eps: float):
    """Regularised combined flux ((t^2+eps^2)^((p-2)/2) + (t^2+eps^2)^((q-2)/2)) t.

    Continuous through t = 0 even at eps = 0 (the limit value 0 is used
    there, which matters for the singular branch q < 2).
    """
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _flux_value(t_arr, _flux_powers(t_arr, p, q, eps))
    return float(out) if np.ndim(t) == 0 else out


def flux_derivative(t, p: float, q: float, eps: float):
    """Derivative of `flux` in t; where t^2 + eps^2 = 0, the t -> 0 limit of
    sum_(r in {p, q}) (r-1)|t|^(r-2): r-1 for r = 2, 0 for r > 2, inf for r < 2."""
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _flux_slope(t_arr, _flux_powers(t_arr, p, q, eps), p, q)
    return float(out) if np.ndim(t) == 0 else out


def reaction_function(inst: ProblemInstance) -> tuple[Callable, Callable]:
    """The instance's nonlinearity f(r, u, du), vectorised, and its exact
    partials (df/du, df/d(du)) at (u, du).

    Every kind reaches du through |du|^m, whose derivative m |du|^(m-1)
    sign(du) is taken as 0 at du = 0: the symmetric difference's value
    there, where m < 1 would otherwise give 0 * inf.
    """
    kind, s, m, M = inst.kind, inst.s, inst.m, inst.M
    if kind == "hamilton_jacobi":
        f = lambda r, u, du: np.abs(du) ** m
    elif kind == "product":
        f = lambda r, u, du: u**s * np.abs(du) ** m
    else:
        f = lambda r, u, du: u**s + M * np.abs(du) ** m

    def partials(u, du):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.abs(du)
            f_slope = np.where(du == 0.0, 0.0, m * g ** (m - 1.0) * np.sign(du))
            if kind == "hamilton_jacobi":
                return 0.0, f_slope
            if kind == "product":
                return s * u ** (s - 1.0) * g**m, u**s * f_slope
            return s * u ** (s - 1.0), M * f_slope

    return f, partials


def _radial_weights(r, n_exp):
    """r^(N-1) at the faces and at the interior nodes, computed once per mesh."""
    return (0.5 * (r[:-1] + r[1:])) ** (n_exp - 1), r[1:-1] ** (n_exp - 1)


def _assemble(u, r, h, weights, reaction, p, q, eps):
    """Residual, its scale, and the pieces `_jacobian_bands` needs: the face
    slopes, their flux powers, and u and the centred slope at the interior
    nodes.  Non-finite values (e.g. fractional powers of a negative iterate)
    are tolerated here; the damped line search rejects such steps.
    """
    w_face, w_node = weights
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        du_face = (u[1:] - u[:-1]) / h
        du_c = (u[2:] - u[:-2]) / (2.0 * h)
        u_in = u[1:-1]
        powers = _flux_powers(du_face, p, q, eps)
        flx = w_face * _flux_value(du_face, powers)
        src = w_node * reaction[0](r[1:-1], u_in, du_c)
        res = (flx[1:] - flx[:-1]) / h + src
        scale = 1.0 + np.abs(flx).max() / h + np.abs(src).max()
    return res, scale, (du_face, powers, u_in, du_c)


def _scaled_norm(res, scale) -> float:
    # Python floats: inf / inf is nan here, not a RuntimeWarning.  An
    # overflowed scale is a failed residual too, not a finite one read as 0.
    value = float(np.abs(res).max()) / float(scale)
    return value if math.isfinite(value) and math.isfinite(scale) else math.inf


def _jacobian_bands(pieces, r, h, weights, reaction, p, q):
    """Tridiagonal Jacobian of `_assemble`'s residual, in the solve_banded
    (1, 1) layout: ab[1 + i - j, j] = dres_i/du_j.

    Exact: a face slope s has ds/du_i = -1/h and ds/du_(i+1) = 1/h, and the
    reaction's partials come with it (`reaction_function`).  A reaction
    without partials (`rhs_override`, a source in r alone) adds nothing.
    """
    du_face, powers, u_in, du_c = pieces
    w_face, w_node = weights
    partials = reaction[1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dphi = w_face * _flux_slope(du_face, powers, p, q) / (h * h)
        ab = np.zeros((3, u_in.size))
        ab[0, 1:] = dphi[1:-1]
        ab[1, :] = -(dphi[1:] + dphi[:-1])
        ab[2, :-1] = dphi[1:-1]
        if partials is not None:
            f_u, f_d = partials(u_in, du_c)
            # the centred slope at node i involves u_(i+1) (+1/2h) and u_(i-1) (-1/2h)
            side = w_node * f_d / (2.0 * h)
            ab[0, 1:] += side[:-1]
            ab[1, :] += w_node * f_u
            ab[2, :-1] -= side[1:]
    return ab


def _log_jacobian_bands(pieces, *args):
    """`_jacobian_bands` in the unknown w = log u: du_j/dw_j = u_j scales
    column j of the bands (pieces[2] is u at the interior nodes)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _jacobian_bands(pieces, *args) * pieces[2]


@functools.cache
def _dgtsv():
    """LAPACK's tridiagonal solver dgtsv, loaded without importing scipy.linalg.

    The package import costs far more than a solve, so scipy's extension
    module FLAPACK is loaded by file; find_spec locates scipy without
    importing it.  The function is the one scipy.linalg.lapack.dgtsv names:
    CPython keeps one copy of the module per file.  Where the file is
    missing or does not load, the public import is used.
    """
    spec = importlib.util.find_spec("scipy")
    folders = (spec and spec.submodule_search_locations) or ()
    paths = [os.path.join(folder, FLAPACK + suffix)
             for folder in folders for suffix in EXTENSION_SUFFIXES]
    for path in filter(os.path.isfile, paths):
        module_spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        try:
            module = importlib.util.module_from_spec(module_spec)
            module_spec.loader.exec_module(module)
        except ImportError:
            continue
        return module.dgtsv
    from scipy.linalg.lapack import dgtsv

    return dgtsv


def _damped_newton(residual, jacobian, x, tol, max_iter=MAX_NEWTON, step_tol=None):
    """Damped Newton on the interior entries of x, boundary entries fixed.

    residual(x) returns (res, scale, pieces); jacobian(pieces) turns
    them into the banded Jacobian, solved by LAPACK's tridiagonal dgtsv
    (`_dgtsv`, which does not import scipy.linalg).
    At most max_iter steps.  Without step_tol the iteration stops at the
    first scaled residual <= tol.  With step_tol it goes on until the
    last correction was a full (lambda = 1) step of at most
    step_tol * max(1, max|x|); that test only extends the iteration, so
    once the residual is <= tol any later failure (a singular Jacobian, a
    refused line search, the budget) returns the iterate as converged.
    Returns the best iterate, its scaled residual norm, the iteration
    count and a failure tag ('jacobian_singular', 'newton_stalled') or
    None exactly when the residual is <= tol.
    """
    dgtsv = _dgtsv()
    res, scale, pieces = residual(x)
    norm = _scaled_norm(res, scale)
    iters = 0
    settled = step_tol is None
    failure = "newton_stalled"
    while (norm > tol or not settled) and iters < max_iter:
        ab = jacobian(pieces)
        # norm is inf exactly when res has a non-finite entry or its scale overflowed
        if norm == math.inf or not np.isfinite(ab).all():
            failure = "jacobian_singular"
            break
        *_, step, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], -res, True, True, True, True)
        if info != 0 or not np.isfinite(step).all():
            failure = "jacobian_singular"
            break
        lam = 1.0
        for _ in range(MAX_DAMPS):
            x_try = x.copy()
            x_try[1:-1] += lam * step
            res, scale, pieces = residual(x_try)
            norm_try = _scaled_norm(res, scale)
            if norm_try <= (1.0 - 1e-4 * lam) * norm or norm_try <= tol:
                break
            lam *= 0.5
        else:
            break
        x, norm = x_try, norm_try
        iters += 1
        if step_tol is not None:
            settled = lam == 1.0 and np.abs(step).max() <= step_tol * max(1.0, np.abs(x).max())
    return x, norm, iters, None if norm <= tol else failure


def _first_data_factor(prob: RadialProblem) -> float:
    """Largest power-of-two factor 2^-k (k >= 0) that brings both data to at
    most DATA_CONTINUATION_START in magnitude."""
    mag = max(abs(prob.u_at_r0), abs(prob.u_at_r1))
    if mag <= DATA_CONTINUATION_START:
        return 1.0
    return 2.0 ** -math.ceil(math.log2(mag / DATA_CONTINUATION_START))


def radial_mesh(r0: float, r1: float, cells: int) -> np.ndarray:
    """The uniform node radii of a solve: cells + 1 nodes from r0 to r1."""
    return np.linspace(r0, r1, cells + 1)


def mesh_levels(mesh_n: int) -> list[int]:
    """The cell counts a solve runs through, coarse to fine: mesh_n halved
    (rounding up) until it is at most COARSE_MESH_N."""
    levels = [mesh_n]
    while levels[-1] > COARSE_MESH_N:
        levels.append((levels[-1] + 1) // 2)
    return levels[::-1]


def solve_radial(prob: RadialProblem, tol: float = NEWTON_TOL) -> RadialSolution:
    """Damped-Newton finite-volume solve at `reg_eps`, in one loop over stages.

    A stage is one damped Newton on one mesh, from x * ratio at the data
    factor factor * ratio.  The stages climb a ladder of cell counts,
    `mesh_levels(mesh_n)`.  On its first cell count a ladder starts at
    ratio 1 from a start linear in the unknown, scaled by
    `_first_data_factor`.  A stage that converges below the full data
    multiplies the factor by the ratio and doubles the ratio (capped at
    the full data).  A stage at a ratio above 2 is a trial of TRIAL_NEWTON
    iterations, retried at half the ratio if it fails; any other stage
    gets MAX_NEWTON, and its failure ends the ladder.  After a stage
    converges at the full data, the next cell count runs one stage from
    the iterate interpolated onto its nodes (every mesh ends at r0 and
    r1, so the boundary entries stay exact).  When a ladder of more than
    one cell count fails, a second ladder, mesh_n alone, starts over from
    the data.  With `log_transform` the unknown is w = log u, with
    u = exp(w) pinned to the exact data at both ends: Newton takes another
    path to the same discrete solution, from the full data.

    A stage below the full data or on a coarser mesh stops at the scaled
    residual max(tol, STAGE_TOL).  One at the full data on mesh_n goes on
    until its residual is <= tol and its last full (lambda = 1) Newton
    correction is <= STEP_TOL * (tol / NEWTON_TOL) * max(1, max|x|); once
    the residual is <= tol, a later failure still converges.
    `continuation_steps` counts the stages on each ladder's first cell
    count, refused trials included, and `newton_iters` the iterations of
    every stage.  `converged` means residual_norm <= tol.  Returns
    converged=False with the best iterate (and a failure tag of
    'newton_stalled' or 'jacobian_singular') instead of raising when the
    iteration cannot reach the tolerance.
    """
    inst = prob.inst
    reaction = (prob.rhs_override, None) if prob.rhs_override is not None else reaction_function(inst)
    lo, hi = prob.u_at_r0, prob.u_at_r1
    if prob.log_transform:
        def to_u(w):
            with np.errstate(over="ignore"):
                u = np.exp(w)
            u[0], u[-1] = lo, hi  # the exact data, not exp(log(data))
            return u

        bands, x_lo, x_hi, first_factor = _log_jacobian_bands, math.log(lo), math.log(hi), 1.0
    else:
        to_u, bands = (lambda u: u), _jacobian_bands
        x_lo, x_hi, first_factor = lo, hi, _first_data_factor(prob)

    levels = mesh_levels(prob.mesh_n)
    r, iters, stages = None, 0, 0
    # the second ladder, mesh_n alone, runs only when the first one fails
    for ladder in [levels, [prob.mesh_n]] if len(levels) > 1 else [levels]:
        for cells in ladder:
            r_coarse, r = r, radial_mesh(prob.r0, prob.r1, cells)
            args = (r, r[1] - r[0], _radial_weights(r, inst.N), reaction, inst.p, inst.q)
            residual = lambda x: _assemble(to_u(x), *args, prob.reg_eps)
            jacobian = lambda pieces: bands(pieces, *args)
            if cells == ladder[0]:
                # x carries the boundary data; rescaling by a power of two keeps it exact
                x = (x_lo + (x_hi - x_lo) * (r - r[0]) / (r[-1] - r[0])) * first_factor
                factor = first_factor
            else:
                x = np.interp(r, r_coarse, x)
            ratio = 1.0
            while True:
                last = cells == prob.mesh_n and factor * ratio == 1.0
                x_try, norm, k, failure = _damped_newton(
                    residual, jacobian, x * ratio, tol if last else max(tol, STAGE_TOL),
                    TRIAL_NEWTON if ratio > 2.0 else MAX_NEWTON,
                    STEP_TOL * tol / NEWTON_TOL if last else None)
                iters += k
                stages += cells == ladder[0]
                if failure is None:
                    x, factor = x_try, factor * ratio
                    if factor == 1.0:
                        break
                    ratio = min(2.0 * ratio, 1.0 / factor)
                elif ratio > 2.0:
                    ratio /= 2.0
                else:
                    x = x_try
                    break
            if failure is not None:
                break
        if failure is None:
            break
    return RadialSolution(
        r=r, u=to_u(x), residual_norm=norm,
        newton_iters=iters, continuation_steps=stages,
        converged=failure is None, failure=failure,
    )


def gradient_vs_distance(sol: RadialSolution) -> np.ndarray:
    """Pairs (distance to the steeper wall, |du|) at half-grid nodes, ascending in d.

    The steeper wall is the one whose end face has the larger |du|, r0 on
    a tie.  Only the half of the faces nearer it is kept, so a one-sided
    blow-up profile is not mixed with the flat side of the annulus.
    """
    if not sol.converged:
        raise AdmissibilityError("gradient profile requires a converged solution")
    g = np.abs(sol.du)
    rh = sol.r_half
    to_r0, to_r1 = rh - sol.r[0], sol.r[-1] - rh
    d, other = (to_r0, to_r1) if g[0] >= g[-1] else (to_r1, to_r0)
    keep = d <= other
    d, g = d[keep], g[keep]
    order = np.argsort(d, kind="stable")
    return np.column_stack([d[order], g[order]])


def default_fit_window(sol: RadialSolution) -> tuple[float, float]:
    h = sol.r[1] - sol.r[0]
    return 4.0 * h, 0.1 * (sol.r[-1] - sol.r[0])


def fit_blowup_exponent(profile: np.ndarray, window: tuple[float, float]) -> BlowupFit:
    """Log-log least squares of |du| against d over the window.

    fitted_exponent is minus the slope; requires at least 8 positive
    profile points inside the window.
    """
    d_min, d_max = window
    if not 0.0 < d_min < d_max:
        raise AdmissibilityError("fit window must satisfy 0 < d_min < d_max")
    d = profile[:, 0]
    g = profile[:, 1]
    sel = (d >= d_min) & (d <= d_max) & (g > 0.0)
    if int(sel.sum()) < 8:
        raise AdmissibilityError("window underpopulated")
    x = np.log(d[sel])
    y = np.log(g[sel])
    slope, intercept = np.polyfit(x, y, 1)
    y_hat = slope * x + intercept
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return BlowupFit(
        fitted_exponent=float(-slope),
        fitted_C=float(np.exp(intercept)),
        window=(d_min, d_max),
        r_squared=r2,
    )


def estimate_consistency(sol: RadialSolution, decision: RegimeDecision) -> float:
    """Smallest C with |grad| <= C (1 + d^(-rate)) over the solved profile.

    The bound is an existence-of-C statement, so there is nothing to
    pass or fail: C is returned for cross-run monitoring.  Unlike
    gradient_vs_distance it keeps the faces near both walls, since the
    a priori bound is in the distance to the boundary, whichever wall is
    nearer.  For power-target regimes the profile is transformed to
    |d(u^(1/b))/dr|.
    """
    rate, target = estimate_rate(decision)
    if not sol.converged:
        raise AdmissibilityError("estimate consistency requires a converged solution")
    d = sol.wall_distance
    g = np.abs(sol.du)
    if target != "|grad u|":
        b = decision.exponents.b
        u_face = 0.5 * (sol.u[:-1] + sol.u[1:])
        if np.any(u_face <= 0.0):
            raise AdmissibilityError("power-target consistency requires positive u")
        g = (1.0 / b) * u_face ** (1.0 / b - 1.0) * g
    return float(np.max(g / (1.0 + d ** (-rate))))


def manufactured_source(n_dim: int, p: float, q: float, du_fn, d2u_fn) -> Callable:
    """Exact source for a manufactured radial profile:
    f(r) = -[(N-1)/r Phi(u') + Phi'(u') u'']."""

    def f(r, u, du):
        t = du_fn(r)
        return -((n_dim - 1.0) / r * flux(t, p, q, 0.0) + flux_derivative(t, p, q, 0.0) * d2u_fn(r))

    return f
