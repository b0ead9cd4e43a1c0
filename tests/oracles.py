"""Independent oracles and randomized samplers used across the test suite.

Everything here deliberately avoids the code paths it is used to check:
the radial oracle integrates the first-integral form with quadrature and
root finding, the unregularised residual writes the finite-volume
equations out from `flux` at eps = 0 instead of calling the solver's
assembly, the BVP reference solves the radial equation as a first-order
system by collocation (scipy's solve_bvp), the reference Jacobian
differences the residual it belongs to, the operator reference is a
hand-derived analytic expansion, the whole-array stencils and identity
checks are the straightforward NaN-ring forms the blocked operators must
reproduce bit for bit, the affine field is written out by hand, the epsilon sensitivity
bounds the epsilon terms of the product trinomial term by term, and the
parameter-window oracle brackets the feasibility predicate by bisection,
the Bernstein bounds and the sum exponent are the paper's formulas
written out, the schema-6 view recomputes a row's threshold records from
the echoed parameter map, and the schema-5 view re-expands a report's
condition table row by row.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, solve_bvp
from scipy.optimize import brentq

from pqliouville import FieldError, ProblemInstance, product_thresholds, product_trinomial, sum_thresholds
from pqliouville.exponents import positive_combined_exponent
from pqliouville.params import expand_instances
from pqliouville.radial import flux, reaction_function
from pqliouville.selection import small_s_threshold


# ---------------------------------------------------------------------------
# analytic reference for the (p,q)-operator on u = sin(x1) cos(x2)
# ---------------------------------------------------------------------------

def pq_reference_sin_cos(x, y, p, q):
    """div(|grad u|^(p-2) grad u) + div(|grad u|^(q-2) grad u) for
    u = sin(x) cos(y), from the expansion
    |grad u|^(s-2) lap(u) + (s-2)|grad u|^(s-4) <D2u grad u, grad u>."""
    u = np.sin(x) * np.cos(y)
    ux = np.cos(x) * np.cos(y)
    uy = -np.sin(x) * np.sin(y)
    uxx = -u
    uyy = -u
    uxy = -np.cos(x) * np.sin(y)
    z = ux * ux + uy * uy
    quad = uxx * ux * ux + 2.0 * uxy * ux * uy + uyy * uy * uy
    lap = -2.0 * u
    out = np.zeros_like(u)
    for s in (p, q):
        out = out + z ** ((s - 2.0) / 2.0) * lap + (s - 2.0) * z ** ((s - 4.0) / 2.0) * quad
    return out


# ---------------------------------------------------------------------------
# whole-array reference stencils (full NaN-ring temporaries, no blocking)
# ---------------------------------------------------------------------------

def _ring_interior(ndim):
    return tuple(slice(1, -1) for _ in range(ndim))


def _ring_shift(ndim, axis, lo, hi):
    sl = [slice(1, -1)] * ndim
    sl[axis] = slice(1 + lo, (-1 + hi) or None)
    return tuple(sl)


def reference_gradient_components(values, h):
    """Centred first derivatives, NaN on each component's own end layers."""
    d = values.ndim
    out = []
    for axis in range(d):
        g = np.full_like(values, np.nan)
        mid = [slice(None)] * d
        hi = [slice(None)] * d
        lo = [slice(None)] * d
        mid[axis] = slice(1, -1)
        hi[axis] = slice(2, None)
        lo[axis] = slice(0, -2)
        g[tuple(mid)] = (values[tuple(hi)] - values[tuple(lo)]) / (2.0 * h)
        out.append(g)
    return out


def reference_laplacian(values, h):
    """5-/7-point Laplacian summed over whole interior arrays; NaN ring."""
    d = values.ndim
    out = np.full_like(values, np.nan)
    inner = _ring_interior(d)
    acc = np.zeros_like(values[inner])
    for axis in range(d):
        acc += (
            values[_ring_shift(d, axis, 1, 1)]
            - 2.0 * values[inner]
            + values[_ring_shift(d, axis, -1, -1)]
        )
    out[inner] = acc / (h * h)
    return out


def _face_average(arr, axis):
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (arr[tuple(lo)] + arr[tuple(hi)])


def reference_flux_divergence(values, h, powers, reg_eps):
    """div(sum_s (|grad u|^2 + eps^2)^((s-2)/2) grad u) from full face arrays."""
    d = values.ndim
    centred = reference_gradient_components(values, h)
    out = np.full_like(values, np.nan)
    inner = _ring_interior(d)
    acc = np.zeros_like(values[inner])
    eps2 = reg_eps * reg_eps
    for axis in range(d):
        dn = np.diff(values, axis=axis) / h
        z_face = dn * dn
        for other in range(d):
            if other == axis:
                continue
            tang = _face_average(centred[other], axis)
            z_face = z_face + tang * tang
        weight = np.zeros_like(z_face)
        for s in powers:
            weight = weight + np.power(z_face + eps2, (s - 2.0) / 2.0)
        flux_ = weight * dn
        div = np.diff(flux_, axis=axis) / h
        sl = [slice(1, -1)] * d
        sl[axis] = slice(None)
        acc += div[tuple(sl)]
    out[inner] = acc
    return out


def reference_dot(a, b):
    """sum_k a[k] * b[k] over whole arrays, added in k order."""
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out = out + x * y
    return out


def reference_change_of_variable_sides(values, h, b, p, q):
    """Both sides of the change-of-variable identity and z = |grad v|^2 on
    the ring-2 interior, from whole-array stencils and one whole-array
    right side."""
    grads = reference_gradient_components(values, h)
    z_full = reference_dot(grads, grads)
    u = values**b
    eps = 1e-10 * max(1.0, float(np.nanmax(u) - np.nanmin(u)) / h)
    inner = tuple(slice(2, -2) for _ in range(values.ndim))
    lhs = reference_flux_divergence(u, h, (p, q), eps)[inner]
    v, z = values[inner], z_full[inner]
    lap = reference_laplacian(values, h)[inner]
    dzv = reference_dot(reference_gradient_components(z_full, h), grads)[inner]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = abs(b) ** (p - q) * v ** ((b - 1.0) * (p - q)) * z ** ((p - q) / 2.0)
        A, D, E = 1.0 + w, q - 2.0 + (p - 2.0) * w, q - 1.0 + (p - 1.0) * w
        rhs = (
            b * abs(b) ** (q - 2.0) * v ** ((b - 1.0) * (q - 1.0))
            * (z ** (q / 2.0 - 1.0) * A * lap
               + (b - 1.0) * E * z ** (q / 2.0) / v
               + 0.5 * D * z ** ((q - 4.0) / 2.0) * dzv)
        )
    return lhs, rhs, z


def reference_change_of_variable_check(values, h, b, p, q, tolerance):
    """The change-of-variable check on the reference sides, as the tuple
    of IdentityReport's fields; FieldError when more than 10% of the
    nodes are excluded."""
    lhs, rhs, z = reference_change_of_variable_sides(values, h, b, p, q)
    valid = np.isfinite(lhs) & np.isfinite(rhs) & (z > 1e-12 * float(np.nanmax(z)))
    if (1.0 - valid.mean()) > 0.10:
        raise FieldError("test field violates |grad v|>0")
    err = float(np.max(np.abs(lhs[valid] - rhs[valid])))
    scale = max(float(np.max(np.abs(lhs[valid]))), 1e-300)
    rel = err / scale
    return err, rel, rel <= tolerance, tolerance, None


def reference_bochner_check(values, h, N, tolerance):
    """The Bochner check from whole-array stencils, as the tuple of
    IdentityReport's fields."""
    grads = reference_gradient_components(values, h)
    lap = reference_laplacian(values, h)
    lhs = 0.5 * reference_laplacian(reference_dot(grads, grads), h)
    rhs = lap * lap / N + reference_dot(reference_gradient_components(lap, h), grads)
    inner = tuple(slice(2, -2) for _ in range(values.ndim))
    lhs, rhs = lhs[inner], rhs[inner]
    valid = np.isfinite(lhs) & np.isfinite(rhs)
    violation = max(0.0, -float(np.min(lhs[valid] - rhs[valid])))
    scale = max(float(np.max(np.abs(lhs[valid]))), float(np.max(np.abs(rhs[valid]))), 1e-300)
    rel = violation / scale
    return violation, rel, rel <= tolerance, tolerance, None


# ---------------------------------------------------------------------------
# semi-analytic constant-source radial profile (quadrature + root finding)
# ---------------------------------------------------------------------------

def inverse_flux(values, p, q):
    """Pointwise inverse of the strictly increasing odd map
    t -> (|t|^(p-2) + |t|^(q-2)) t, by bracketing and array bisection."""
    values = np.asarray(values, dtype=float)
    mag = np.abs(values)
    lo = np.zeros_like(mag)
    hi = np.maximum(np.maximum(mag ** (1.0 / (p - 1.0)), mag ** (1.0 / (q - 1.0))), 1e-12)
    while np.any(short := flux(hi, p, q, 0.0) < mag):
        hi = np.where(short, 2.0 * hi, hi)
    while np.any(hi - lo > 1e-15 + 8.9e-16 * hi):
        mid = 0.5 * (lo + hi)
        below = flux(mid, p, q, 0.0) < mag
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sign(values) * 0.5 * (lo + hi)


def constant_rhs_profile(N, p, q, r0, r1, u0, u1, c, r_nodes, refine=32):
    """Exact-flux solution of -(r^(N-1) Phi(u'))' = r^(N-1) c with Dirichlet data.

    The first integral gives Phi(u'(r)) = -(c/N) r + K r^(1-N); the free
    constant K is found by shooting on the right boundary value, with
    the profile integral done on a refine-times finer grid.
    """
    n_fine = (len(r_nodes) - 1) * refine + 1
    rf = np.linspace(r0, r1, n_fine)

    def profile(K):
        g = -(c / N) * rf + K * rf ** (1.0 - N)
        dup = inverse_flux(g, p, q)
        u = u0 + cumulative_trapezoid(dup, rf, initial=0.0)
        return u

    def mismatch(K):
        return profile(K)[-1] - u1

    lo, hi = -1.0, 1.0
    while mismatch(lo) > 0.0:
        lo *= 2.0
    while mismatch(hi) < 0.0:
        hi *= 2.0
    K = brentq(mismatch, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return profile(K)[::refine]


def unregularized_residual(prob, sol):
    """Scaled pointwise residual of sol's finite-volume equations at eps = 0,
    and a node mask restricted to where both adjacent face slopes exceed
    10 reg_eps."""
    inst = prob.inst
    r, u = sol.r, sol.u
    h = r[1] - r[0]
    f = prob.rhs_override if prob.rhs_override is not None else reaction_function(inst)[0]
    du_face = np.diff(u) / h
    flx = (0.5 * (r[:-1] + r[1:])) ** (inst.N - 1) * flux(du_face, inst.p, inst.q, 0.0)
    src = r[1:-1] ** (inst.N - 1) * f(r[1:-1], u[1:-1], (u[2:] - u[:-2]) / (2.0 * h))
    res = np.diff(flx) / h + src
    scale = 1.0 + np.abs(flx).max() / h + np.abs(src).max()
    good_face = np.abs(du_face) > 10.0 * prob.reg_eps
    return np.abs(res) / scale, good_face[:-1] & good_face[1:]


# ---------------------------------------------------------------------------
# collocation reference for a radial problem (scipy.integrate.solve_bvp)
# ---------------------------------------------------------------------------

def bvp_reference(prob, start, tol=1e-6, max_nodes=100_000):
    """The radial problem solved as a first-order system by collocation.

    With v = u', the equation -(r^(N-1) Phi(v))' = r^(N-1) f(u, |v|) is
    v' = -((N-1)/r Phi(v) + f(u, |v|)) / Phi'(v), with Phi regularised at
    the problem's reg_eps.  Phi, Phi' and f are written out here from the
    instance, not taken from the solver.  `start` is a solution whose
    nodes, u and centred slopes seed the collocation mesh.  Returns
    scipy's result; its .sol(r)[0] is u.
    """
    inst = prob.inst
    N, p, q, eps2 = inst.N, inst.p, inst.q, prob.reg_eps**2

    def phi_and_slope(v):
        t2 = v * v + eps2
        a, b = t2 ** ((p - 2.0) / 2.0), t2 ** ((q - 2.0) / 2.0)
        return (a + b) * v, a * (1.0 + (p - 2.0) * v * v / t2) + b * (1.0 + (q - 2.0) * v * v / t2)

    def reaction(u, v):
        g = np.abs(v) ** inst.m
        if inst.kind == "hamilton_jacobi":
            return g
        if inst.kind == "product":
            return u**inst.s * g
        return u**inst.s + inst.M * g

    def rhs(r, y):
        u, v = y
        phi, slope = phi_and_slope(v)
        return np.vstack([v, -((N - 1.0) / r * phi + reaction(u, v)) / slope])

    def bc(ya, yb):
        return np.array([ya[0] - prob.u_at_r0, yb[0] - prob.u_at_r1])

    r, u = start.r, start.u
    v = np.gradient(u, r)
    return solve_bvp(rhs, bc, r, np.vstack([u, v]), tol=tol, max_nodes=max_nodes)


# ---------------------------------------------------------------------------
# affine field: every centred second difference of it is exactly zero
# ---------------------------------------------------------------------------

def affine_field(slopes, offset: float = 0.0):
    """offset + sum_i slopes[i] x_i, as a function of the grid coordinates."""
    def fn(*coords):
        out = np.full_like(coords[0], offset)
        for a, c in zip(slopes, coords):
            out = out + a * c
        return out

    return fn


# ---------------------------------------------------------------------------
# first-order epsilon envelope of the product trinomial
# ---------------------------------------------------------------------------

def epsilon_sensitivity(inst: ProblemInstance) -> tuple[float, float, float]:
    """Explicit bounds K with |Li(eps) - Li(0)| <= K*eps for eps in [0, 1]."""
    Q = positive_combined_exponent(inst)
    N, p, q, s = inst.N, inst.p, inst.q, inst.s
    sq = s / Q
    k1 = 12.0 * (p - 1.0) ** 2 / (N * Q * Q)
    k2 = (12.0 / Q) * ((p - 1.0) + 2.0 * sq * (q - 1.0) ** 2 / N + 2.0 * sq * (p - q) ** 2)
    k3 = 4.0 * (3.0 * sq * (sq * (p - 1.0) ** 2 / N + (q - 1.0)) + 1.0 / N + 3.0)
    return k1, k2, k3


# ---------------------------------------------------------------------------
# extremes of the Bernstein weights
# ---------------------------------------------------------------------------

class BernsteinBounds(NamedTuple):
    gamma_lo: object
    gamma_hi: object
    upsilon_hi: object
    xi_hi: object


def bernstein_bounds(N, p, q) -> BernsteinBounds:
    """The interval bounds of the aux weights over every b, v and z:
    Gamma in [2(q-1)/N, 2(p-1)/N + (p-q)], Upsilon in [0, R] with R the
    operator gap (p-q)(p-q + 4(p-1)/N), and Xi <= (p-1)^2/N.

    Generic in the number type: floats, numpy arrays or sympy symbols.
    """
    return BernsteinBounds(
        gamma_lo=2 * (q - 1) / N,
        gamma_hi=2 * (p - 1) / N + (p - q),
        upsilon_hi=(p - q) * (p - q + 4 * (p - 1) / N),
        xi_hi=(p - 1) ** 2 / N,
    )


# ---------------------------------------------------------------------------
# the sum reaction's decay exponent, as the paper writes it
# ---------------------------------------------------------------------------

def sum_beta2_reference(p, q, s, b):
    """1 - q((b-1)(p-q) + 1)/(b(s-q+1) + q) - p + q, the sum reaction's
    second decay exponent at power b > 1.

    Generic in the number type: floats give the formula's own float
    evaluation, `fractions.Fraction`s its exact value, sympy symbols its
    closed form.
    """
    return 1 - q * ((b - 1) * (p - q) + 1) / (b * (s - q + 1) + q) - p + q


# ---------------------------------------------------------------------------
# forward-difference Jacobian of a three-point residual
# ---------------------------------------------------------------------------

def colour_bands(residual, x):
    """Jacobian of residual(x), the interior residual of a three-point
    scheme, in the interior entries of x, by three-colour forward
    differencing; solve_banded (1, 1) layout, ab[1 + i - j, j] = dres_i/dx_j.

    Unknowns three apart never touch the same residual row, so one
    perturbed evaluation per colour fills a third of the columns.
    """
    res = residual(x)
    n_int = res.size
    ab = np.zeros((3, n_int))
    delta = 1e-8 * (1.0 + np.abs(x[1:-1]))
    for colour in range(3):
        cols = np.arange(colour, n_int, 3)
        x_pert = x.copy()
        x_pert[cols + 1] += delta[cols]
        diff = residual(x_pert) - res
        for off in (-1, 0, 1):
            # ab[1 + i - j, j] = dres_i / dx_(j+1) with i = j + off
            j = cols[(cols + off >= 0) & (cols + off < n_int)]
            ab[1 + off, j] = diff[j + off] / delta[j]
    return ab


# ---------------------------------------------------------------------------
# bisection oracle for the rigidity-window lower endpoint
# ---------------------------------------------------------------------------

def il_gamma_feasible(q, m, gamma):
    k = m + 1.0 - q
    if k == 0.0:
        return False
    first = m - 1.0 - (1.0 - gamma) * (q - 1.0) > (q - 1.0) * gamma
    ratio = ((gamma - 1.0) * k + 1.0) / k
    return first and 0.0 < ratio < gamma


def il_gamma_lo_bisection(q, m, iters=80):
    """Infimum of the feasible gamma set in (0,1), or None when empty."""
    hi = 1.0 - 1e-12
    if not il_gamma_feasible(q, m, hi):
        return None
    lo = 1e-12
    if il_gamma_feasible(q, m, lo):
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if il_gamma_feasible(q, m, mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# randomized instance samplers
# ---------------------------------------------------------------------------

def _delta_max(N, q):
    """Largest p-q with 4(q-1)^2 >= N^2 (p-q)(p-q + 4(p-1)/N)."""
    a = 1.0 + 4.0 / N
    b = 4.0 * (q - 1.0) / N
    c = -4.0 * (q - 1.0) ** 2 / (N * N)
    return (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def sample_admissible_product(rng) -> ProblemInstance:
    """Random product instance with combined exponent bounded away from
    the degenerate edge (Q -> 0 amplifies every 1/Q quantity without any
    theorem admitting such instances) and a nonnegative threshold
    discriminant."""
    while True:
        N = int(rng.integers(2, 6))
        q = 1.2 + 1.8 * rng.random()
        delta = rng.random() * 0.95 * _delta_max(N, q)
        if rng.random() < 0.1:
            delta = 0.0
        p = q + delta
        s = 0.05 + 2.0 * rng.random()
        m = 3.0 * rng.random()
        inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=s, m=m)
        if inst.combined_exponent > 0.2:
            return inst


def sample_admissible_pair(rng) -> tuple[ProblemInstance, float]:
    """(instance, b) with b strictly above the admissibility floor."""
    from pqliouville import admissible_floor

    inst = sample_admissible_product(rng)
    floor = admissible_floor(inst)
    if rng.random() < 0.5:
        b = floor + 0.02 + rng.random() * max(1.0 - floor, 0.1)
    else:
        b = floor + 0.5 + 4.0 * rng.random()
    return inst, b


def sample_theorem14_instance(rng, max_tries=500) -> ProblemInstance:
    """Random instance passing the product-regime hypotheses (case A or C)."""
    from pqliouville import classify

    for _ in range(max_tries):
        N = int(rng.integers(2, 6))
        q = 1.2 + 1.8 * rng.random()
        delta = rng.random() * 0.9 * _delta_max(N, q)
        p = q + delta
        inst = None
        if rng.random() < 0.85:
            th = product_thresholds(ProblemInstance(N=N, p=p, q=q, kind="product", s=0.5, m=1.0))
            Q = th.Q1 + (0.05 + 0.9 * rng.random()) * (th.Q2 - th.Q1)
            s_max = Q + q - 1.0
            if s_max <= 0.02:
                continue
            s = 0.01 + rng.random() * min(2.0, s_max - 0.01)
            m = Q + q - 1.0 - s
            if m < 0.0:
                continue
            inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=s, m=m)
        else:
            if delta <= 0.0 or p - 1.0 >= q:
                continue
            m = p - 1.0 + rng.random() * (q - (p - 1.0))
            pre = ProblemInstance(N=N, p=p, q=q, kind="product", s=0.1, m=m)
            s = (0.05 + 0.9 * rng.random()) * small_s_threshold(pre)
            inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=s, m=m)
        decision = classify(inst)
        if decision.theorem.startswith("thm_product_") and decision.liouville:
            return inst
    raise RuntimeError("sampler failed to find a qualifying instance")


def sample_case3_discriminant_fail(rng, max_tries=500) -> ProblemInstance:
    """Random instance with a convex majorant (L1 > 0, L2 < 0) whose
    vertex is nonnegative (4 L1 L3 >= L2^2)."""
    for _ in range(max_tries):
        N = int(rng.integers(2, 6))
        q = 1.2 + 1.8 * rng.random()
        delta = rng.random() * 0.9 * _delta_max(N, q)
        p = q + delta
        probe = ProblemInstance(N=N, p=p, q=q, kind="product", s=0.1, m=1.0)
        s = (0.05 + 0.9 * rng.random()) * small_s_threshold(probe)
        th = product_thresholds(ProblemInstance(N=N, p=p, q=q, kind="product", s=s, m=1.0))
        if th.Q3 is None:
            continue
        Q = (1.3 + 2.0 * rng.random()) * max(th.Q3, th.Q2 + 0.2)
        m = Q + q - 1.0 - s
        if m < 0.0:
            continue
        inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=s, m=m)
        co = product_trinomial(inst, 0.0)
        scale = abs(co.L2) ** 2 + abs(4.0 * co.L1 * co.L3)
        if co.L1 > 0.0 and co.L2 < 0.0 and 4.0 * co.L1 * co.L3 - co.L2**2 >= 1e-9 * scale:
            return inst
    raise RuntimeError("sampler failed to find a discriminant-failing instance")


# ---------------------------------------------------------------------------
# hypothesis strategies: instances on and beside the exact window boundaries
# ---------------------------------------------------------------------------

def _grid_or_float(grid, lo, hi):
    # decimal grid values reach the exact window boundaries, floats the rest
    return st.one_of(st.sampled_from(grid), st.floats(lo, hi))


@st.composite
def instances(draw, kind):
    p = draw(_grid_or_float((1.5, 2.0, 2.2, 2.5, 3.0), 1.05, 4.0))
    q = draw(st.one_of(st.just(p), _grid_or_float((1.5, 1.9, 2.0, 2.24), 1.01, p)))
    return ProblemInstance(
        N=draw(st.integers(2, 5)),
        p=p,
        q=min(q, p),
        kind=kind,
        s=draw(_grid_or_float((0.0, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0), 0.0, 3.0)),
        m=draw(_grid_or_float((0.0, 0.5, 1.5, 2.0, 2.5, 3.0), 0.0, 6.0)),
        M=1.0,
    )


@st.composite
def near_window_root(draw):
    """A product instance whose m lies a few ulps from m+s-q+1 = Q1 or Q2,
    where the float routing and the sign of L1 can disagree."""
    N = draw(st.integers(2, 4))
    q = draw(st.floats(1.1, 3.0))
    p = draw(st.one_of(st.just(q), st.floats(q, q + 0.5)))
    th = product_thresholds(ProblemInstance(N=N, p=p, q=q, kind="product", s=0.5, m=1.0))
    assume(th.discriminant_ok)
    s = draw(st.floats(0.01, 2.0))
    m = draw(st.sampled_from((th.Q1, th.Q2))) + q - 1.0 - s
    direction = draw(st.sampled_from((-math.inf, math.inf)))
    for _ in range(draw(st.integers(0, 3))):
        m = math.nextafter(m, direction)
    assume(m >= 0.0)
    return ProblemInstance(N=N, p=p, q=q, kind="product", s=s, m=m)


# ---------------------------------------------------------------------------
# schema-6 and schema-5 views of a report
# ---------------------------------------------------------------------------

def _report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _defined(record) -> dict:
    """A threshold record as schema 6 wrote it: its fields less the null ones."""
    return {field: value for field, value in record._asdict().items() if value is not None}


def schema6_view(text: str | bytes) -> bytes:
    """The bytes schema 6 wrote for the run that wrote this report.

    Schema 6 wrote each product row of a classify or sweep report with a
    `product_thresholds` dict and each sum row with a `sum_thresholds`
    dict: the record's fields, less those that are null.  Schema 7 leaves
    both out, and the view computes them again for row `i` from instance
    `i` of `expand_instances(config_echo["params"])`.  Any other report
    differs only in `schema`.
    """
    report = json.loads(text)
    report["schema"] = 6
    echo = report["config_echo"]
    if echo["command"] in ("classify", "sweep"):
        for inst, row in zip(expand_instances(echo["params"]), report["results"], strict=True):
            if inst.kind == "product":
                row["product_thresholds"] = _defined(product_thresholds(inst))
            elif inst.kind == "sum":
                row["sum_thresholds"] = _defined(sum_thresholds(inst))
    return _report_bytes(report)


def schema5_view(text: str | bytes) -> bytes:
    """The bytes schema 5 wrote for the run that wrote this report.

    Schema 6 lists each distinct condition once, as `[theorem, label,
    template, passed, values]` in the top-level `conditions` table, and a
    row's `conditions` are indices into it.  Schema 5 wrote each condition
    in its row as `[template_index, passed, values]`, the index into a
    top-level `condition_templates` list of `[theorem, label, template]` in
    first-use order.  A report without a condition table differs only in
    `schema`.  Read a schema-7 report through `schema6_view` first.
    Parsing and writing again give the same bytes: every float a report
    holds is written as its repr, which reads back to itself.
    """
    report = json.loads(text)
    report["schema"] = 5
    table = report.pop("conditions", None)
    if table is not None:
        templates: dict[tuple, int] = {}
        for row in report["results"]:
            expanded = []
            for index in row["conditions"]:
                theorem, label, template, passed, values = table[index]
                key = theorem, label, template
                expanded.append([templates.setdefault(key, len(templates)), passed, values])
            row["conditions"] = expanded
        report["condition_templates"] = [list(key) for key in templates]
    return _report_bytes(report)
