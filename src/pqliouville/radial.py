"""Radial two-point boundary-value solver for -Delta_p u - Delta_q u = f(u, u').

In radial coordinates the equation is the conservation law

    -(r^(N-1) Phi(u'))' = r^(N-1) f(u, |u'|),
    Phi(t) = (|t|^(p-2) + |t|^(q-2)) t,

discretised with conservative finite volumes on a uniform node grid
(fluxes on half-grid faces) and solved by damped Newton at the
regularisation reg_eps, with continuation in the boundary data when it
is large: the ratio between data stages doubles after each converged
stage and halves after a refused trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classify import RegimeDecision, estimate_rate
from .errors import AdmissibilityError
from .instance import ProblemInstance

NEWTON_TOL = 1e-10
MAX_NEWTON = 50
TRIAL_NEWTON = 10
MAX_DAMPS = 40
DATA_CONTINUATION_START = 8.0
# A converged solve costs about 270 B a cell (mesh_n = 524,288: 160 MB peak RSS).
MAX_MESH_N = 1_000_000


@dataclass
class RadialProblem:
    inst: ProblemInstance
    r0: float
    r1: float
    u_at_r0: float
    u_at_r1: float
    mesh_n: int = 256
    reg_eps: float = 1e-8
    rhs_override: Callable | None = None
    log_transform: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r0, self.r1, self.u_at_r0, self.u_at_r1))):
            raise AdmissibilityError("r0, r1, u0 and u1 must be finite")
        if not 0.0 < self.r0 < self.r1:
            raise AdmissibilityError("annulus requires 0 < r0 < r1")
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
    problem: RadialProblem = field(repr=False, default=None)

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


@dataclass(frozen=True)
class BlowupFit:
    fitted_exponent: float
    fitted_C: float
    window: tuple[float, float]
    r_squared: float

    def as_dict(self) -> dict:
        return {
            "fitted_exponent": self.fitted_exponent,
            "fitted_C": self.fitted_C,
            "window": list(self.window),
            "r_squared": self.r_squared,
        }


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


def reaction_function(inst: ProblemInstance) -> Callable:
    """Vectorised f(r, u, du) for the instance's nonlinearity."""
    kind, s, m, M = inst.kind, inst.s, inst.m, inst.M
    if kind == "hamilton_jacobi":
        return lambda r, u, du: np.abs(du) ** m
    if kind == "product":
        return lambda r, u, du: u**s * np.abs(du) ** m
    return lambda r, u, du: u**s + M * np.abs(du) ** m


def _radial_weights(r, n_exp):
    """r^(N-1) at the faces and at the interior nodes, computed once per mesh."""
    return (0.5 * (r[:-1] + r[1:])) ** (n_exp - 1), r[1:-1] ** (n_exp - 1)


def _assemble(x, r, h, weights, f, p, q, eps, log=False):
    """Residual, its scale, and the pieces `_jacobian_bands` needs.

    The unknown x is u, or w = log u when `log` is set (face and centred
    slopes then follow the chain rule du = u dw).  The pieces are the
    face slopes, their flux powers, the face factors exp((w_i+w_(i+1))/2)
    (None for x = u), and u and the centred slope at the interior nodes.
    Non-finite values (e.g. fractional powers of a negative iterate) are
    tolerated here; the damped line search rejects such steps.
    """
    w_face, w_node = weights
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        du_face = (x[1:] - x[:-1]) / h
        du_c = (x[2:] - x[:-2]) / (2.0 * h)
        u_in = x[1:-1]
        e_face = None
        if log:
            e_face = np.exp(0.5 * (x[:-1] + x[1:]))
            du_face = e_face * du_face
            u_in = np.exp(u_in)
            du_c = u_in * du_c
        powers = _flux_powers(du_face, p, q, eps)
        flx = w_face * _flux_value(du_face, powers)
        src = w_node * f(r[1:-1], u_in, du_c)
        res = (flx[1:] - flx[:-1]) / h + src
        scale = 1.0 + np.abs(flx).max() / h + np.abs(src).max()
    return res, scale, (du_face, powers, e_face, u_in, du_c)


def _scaled_norm(res, scale) -> float:
    # Python floats: inf / inf is nan here, not a RuntimeWarning
    value = float(np.abs(res).max()) / float(scale)
    return value if math.isfinite(value) else math.inf


def _jacobian_bands(pieces, r, h, weights, f, p, q):
    """Tridiagonal Jacobian of `_assemble`'s residual, in the solve_banded
    (1, 1) layout: ab[1 + i - j, j] = dres_i/dx_j.

    The flux part is exact.  For x = u a face slope s has ds/dx_i = -1/h
    and ds/dx_(i+1) = 1/h.  For x = w = log u it is s = e (w_(i+1)-w_i)/h
    with e = exp((w_i+w_(i+1))/2), so ds/dw_i = s/2 - e/h and
    ds/dw_(i+1) = s/2 + e/h; the reaction rows then carry f_u u and
    f_d dd/dw, where the centred slope d = u (w_(i+1)-w_(i-1))/(2h).
    The reaction's u and u' derivatives are central differences, so
    `rhs_override` is handled like the built-in reactions.
    """
    du_face, powers, e_face, u_in, du_c = pieces
    w_face, w_node = weights
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dphi = w_face * _flux_slope(du_face, powers, p, q)
        r_in = r[1:-1]
        delta_u = 1e-7 * (1.0 + np.abs(u_in))
        f_u = (f(r_in, u_in + delta_u, du_c) - f(r_in, u_in - delta_u, du_c)) / (2.0 * delta_u)
        delta_d = 1e-7 * (1.0 + np.abs(du_c))
        f_d = (f(r_in, u_in, du_c + delta_d) - f(r_in, u_in, du_c - delta_d)) / (2.0 * delta_d)
        if e_face is None:
            # h ds/dx_(i+1) and -h ds/dx_i are both 1
            right = left = dphi
            diag = w_node * f_u
        else:
            half = 0.5 * h * du_face
            right = dphi * (e_face + half)
            left = dphi * (e_face - half)
            diag = w_node * (f_u * u_in + f_d * du_c)
            f_d = f_d * u_in
        # the centred slope at node i involves x_(i+1) (+1/2h) and x_(i-1) (-1/2h)
        side = w_node * f_d / (2.0 * h)
        ab = np.zeros((3, u_in.size))
        ab[0, 1:] = right[1:-1] / (h * h) + side[:-1]
        ab[1, :] = -(left[1:] + right[:-1]) / (h * h) + diag
        ab[2, :-1] = left[1:-1] / (h * h) - side[1:]
    return ab


def _damped_newton(residual, jacobian, x, tol, max_iter=MAX_NEWTON):
    """Damped Newton on the interior entries of x, boundary entries fixed.

    residual(x) returns (res, scale, pieces); jacobian(pieces) turns
    them into the banded Jacobian, solved by LAPACK's tridiagonal dgtsv.
    At most max_iter steps.  Returns the best iterate, its scaled
    residual norm, the iteration count and a failure tag
    ('jacobian_singular', 'newton_stalled') or None.
    """
    from scipy.linalg.lapack import dgtsv

    res, scale, pieces = residual(x)
    norm = _scaled_norm(res, scale)
    iters = 0
    while norm > tol and iters < max_iter:
        ab = jacobian(pieces)
        # res has a non-finite entry exactly when norm is inf
        if norm == math.inf or not np.isfinite(ab).all():
            return x, norm, iters, "jacobian_singular"
        *_, step, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], -res, True, True, True, True)
        if info != 0 or not np.isfinite(step).all():
            return x, norm, iters, "jacobian_singular"
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
            return x, norm, iters, "newton_stalled"
        x, norm = x_try, norm_try
        iters += 1
    return x, norm, iters, None if norm <= tol else "newton_stalled"


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


def solve_radial(prob: RadialProblem, tol: float = NEWTON_TOL) -> RadialSolution:
    """Damped-Newton finite-volume solve at `reg_eps`.

    The direct path continues in the boundary data when it is large.
    After each converged stage the ratio to the next one doubles (x2,
    x4, ..., capped at the full data); a trial at a ratio above 2 gets
    TRIAL_NEWTON iterations and, if it fails, is retried from the last
    converged iterate at half the ratio.  A stage at ratio 2 gets
    MAX_NEWTON iterations, and its failure ends the solve.
    `continuation_steps` counts every attempted stage and `newton_iters`
    every iteration, refused trials included.  With `log_transform` the
    unknown is w = log u, solved in one stage; both unknowns share the
    chain-rule Jacobian of `_jacobian_bands`.  Returns converged=False
    with the best iterate (and a failure tag of 'newton_stalled' or
    'jacobian_singular') instead of raising when the iteration cannot
    reach the tolerance.
    """
    r = radial_mesh(prob.r0, prob.r1, prob.mesh_n)
    h = r[1] - r[0]
    inst = prob.inst
    f = prob.rhs_override if prob.rhs_override is not None else reaction_function(inst)
    args = (r, h, _radial_weights(r, inst.N), f, inst.p, inst.q)
    residual = lambda x: _assemble(x, *args, prob.reg_eps, log=prob.log_transform)
    jacobian = lambda pieces: _jacobian_bands(pieces, *args)
    lo, hi = prob.u_at_r0, prob.u_at_r1
    if prob.log_transform:
        lo, hi = math.log(lo), math.log(hi)
        factor = 1.0
    else:
        factor = _first_data_factor(prob)
    # x carries the boundary data; rescaling by a power of two keeps it exact
    x = (lo + (hi - lo) * (r - r[0]) / (r[-1] - r[0])) * factor
    x, norm, newton_total, failure = _damped_newton(residual, jacobian, x, tol)
    stages, ratio = 1, 2.0
    while failure is None and factor < 1.0:
        ratio = min(ratio, 1.0 / factor)
        budget = MAX_NEWTON if ratio == 2.0 else TRIAL_NEWTON
        x_try, norm_try, iters, failure = _damped_newton(residual, jacobian, x * ratio, tol, budget)
        newton_total += iters
        stages += 1
        if failure is None:
            x, norm, factor, ratio = x_try, norm_try, factor * ratio, 2.0 * ratio
        elif ratio > 2.0:
            failure, ratio = None, ratio / 2.0
        else:
            x, norm = x_try, norm_try
    u = np.exp(x) if prob.log_transform else x
    return RadialSolution(
        r=r, u=u, residual_norm=norm,
        newton_iters=newton_total, continuation_steps=stages,
        converged=failure is None, failure=failure, problem=prob,
    )


def unregularized_residual(sol: RadialSolution) -> tuple[np.ndarray, np.ndarray]:
    """Scaled pointwise residual with eps = 0, and a node mask restricted to
    where both adjacent face derivatives exceed 10 reg_eps."""
    prob = sol.problem
    inst = prob.inst
    r, u = sol.r, sol.u
    h = r[1] - r[0]
    f_raw = prob.rhs_override if prob.rhs_override is not None else reaction_function(inst)
    res, scale, (du_face, *_) = _assemble(u, r, h, _radial_weights(r, inst.N), f_raw,
                                          inst.p, inst.q, 0.0)
    good_face = np.abs(du_face) > 10.0 * prob.reg_eps
    mask = good_face[:-1] & good_face[1:]
    return np.abs(res) / scale, mask


def gradient_vs_distance(sol: RadialSolution, side: str = "both") -> np.ndarray:
    """Pairs (distance to the nearer wall, |du|) at half-grid nodes, ascending in d.

    side='inner' keeps only the half of the annulus next to r0, where
    that distance is r - r0 (one-sided blow-up studies need an unmixed
    profile).
    """
    if not sol.converged:
        raise AdmissibilityError("gradient profile requires a converged solution")
    d, g = sol.wall_distance, np.abs(sol.du)
    if side == "inner":
        rh = sol.r_half
        keep = rh - sol.r[0] <= sol.r[-1] - rh
        d, g = d[keep], g[keep]
    elif side != "both":
        raise AdmissibilityError("side must be 'both' or 'inner'")
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
    pass or fail: C is returned for cross-run monitoring.  For
    power-target regimes the profile is transformed to |d(u^(1/b))/dr|.
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
