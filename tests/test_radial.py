import json
import warnings

import numpy as np
import pytest

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    RadialProblem,
    RadialSolution,
    classify,
    default_fit_window,
    estimate_consistency,
    fit_blowup_exponent,
    gradient_vs_distance,
    manufactured_source,
    solve_radial,
)
from pqliouville import radial
from pqliouville.cli import main
from pqliouville.radial import (
    MAX_MESH_N,
    _assemble,
    _jacobian_bands,
    _log_jacobian_bands,
    _radial_weights,
    flux_derivative,
    mesh_levels,
    reaction_function,
)
from oracles import bvp_reference, colour_bands, constant_rhs_profile, unregularized_residual


LANE = ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=1.0, m=0.0)
HJ_Q2 = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)


def constant_rhs(c):
    return lambda r, u, du: np.full_like(r, c)


def mms_pieces(amplitude=0.2, r0=1.0, r1=2.0):
    L = r1 - r0
    freq = np.pi / L

    def u(r):
        return 2.0 + (r - r0) + amplitude * np.sin(freq * (r - r0))

    def du(r):
        return 1.0 + amplitude * freq * np.cos(freq * (r - r0))

    def d2u(r):
        return -amplitude * freq * freq * np.sin(freq * (r - r0))

    return u, du, d2u


class TestSolver:
    def test_linear_poisson_limit(self):
        # p=q=2: -2 lap u = c; on an annulus u = -c r^2/8 + A ln r + B
        c, r0, r1 = 2.0, 0.05, 1.0
        prob = RadialProblem(LANE, r0, r1, 0.0, 0.0, mesh_n=256, reg_eps=1e-8,
                             rhs_override=constant_rhs(c))
        sol = solve_radial(prob)
        assert sol.converged
        assert sol.residual_norm <= 1e-10
        mat = np.array([[np.log(r0), 1.0], [np.log(r1), 1.0]])
        coef = np.linalg.solve(mat, [c * r0**2 / 8.0, c * r1**2 / 8.0])
        exact = -c * sol.r**2 / 8.0 + coef[0] * np.log(sol.r) + coef[1]
        h = sol.r[1] - sol.r[0]
        assert np.max(np.abs(sol.u - exact)) <= 25.0 * h * h

    @pytest.mark.parametrize("p,q,N", [(2.5, 1.5, 2), (3.0, 2.0, 3)])
    def test_constant_rhs_oracle(self, p, q, N):
        inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=1.0, m=0.0)
        prob = RadialProblem(inst, 1.0, 2.0, 0.0, 1.0, mesh_n=128, reg_eps=1e-10,
                             rhs_override=constant_rhs(2.0))
        sol = solve_radial(prob)
        assert sol.converged
        oracle = constant_rhs_profile(N, p, q, 1.0, 2.0, 0.0, 1.0, 2.0, sol.r)
        h = sol.r[1] - sol.r[0]
        rel = np.max(np.abs(sol.u - oracle)) / np.max(np.abs(oracle))
        assert rel <= 10.0 * h * h

    @pytest.mark.parametrize("p,q,N", [(2.5, 1.5, 3), (3.0, 2.0, 2)])
    def test_manufactured_convergence_order(self, p, q, N):
        u, du, d2u = mms_pieces()
        f = manufactured_source(N, p, q, du, d2u)
        inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=1.0, m=0.0)
        errs = []
        for n in (128, 256):
            prob = RadialProblem(inst, 1.0, 2.0, u(1.0), u(2.0), mesh_n=n,
                                 reg_eps=1e-10, rhs_override=f)
            sol = solve_radial(prob)
            assert sol.converged
            errs.append(np.max(np.abs(sol.u - u(sol.r))))
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_sign_changing_slope_on_singular_branch(self):
        # zero data at both ends: u' changes sign and the q < 2 flux is
        # singular there; the solve needs no continuation stage
        inst = ProblemInstance(N=2, p=2.5, q=1.5, kind="product", s=1.0, m=0.0)
        prob = RadialProblem(inst, 1.0, 2.0, 0.0, 0.0, mesh_n=512, reg_eps=1e-10,
                             rhs_override=constant_rhs(2.0))
        sol = solve_radial(prob)
        assert sol.converged
        assert sol.continuation_steps == 1
        assert np.any(sol.du > 0.0) and np.any(sol.du < 0.0)
        oracle = constant_rhs_profile(2, 2.5, 1.5, 1.0, 2.0, 0.0, 0.0, 2.0, sol.r)
        h = sol.r[1] - sol.r[0]
        rel = np.max(np.abs(sol.u - oracle)) / np.max(np.abs(oracle))
        assert rel <= 10.0 * h * h

    def test_large_data_needs_data_continuation(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        prob = RadialProblem(inst, 1.0, 2.0, -40960.0, 0.0, mesh_n=4096, reg_eps=1e-8)
        sol = solve_radial(prob)
        assert sol.converged
        assert sol.residual_norm <= 1e-10
        assert sol.continuation_steps > 1

    def test_residual_certificate(self):
        inst = ProblemInstance(N=2, p=2.5, q=1.5, kind="product", s=1.0, m=0.0)
        prob = RadialProblem(inst, 1.0, 2.0, 0.0, 1.0, mesh_n=128, reg_eps=1e-10,
                             rhs_override=constant_rhs(2.0))
        sol = solve_radial(prob)
        res, mask = unregularized_residual(prob, sol)
        assert mask.any()
        assert np.max(res[mask]) <= 10.0 * 1e-10

    def test_failure_returns_best_iterate(self):
        # u^s with boundary data forcing negative u: residuals go NaN and
        # the damped iteration reports a stall instead of raising
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=0.5, m=0.0)
        prob = RadialProblem(inst, 1.0, 2.0, -1.0, -1.0, mesh_n=64, reg_eps=1e-6)
        sol = solve_radial(prob)
        assert not sol.converged
        assert sol.failure in ("newton_stalled", "jacobian_singular")
        assert sol.u.shape == sol.r.shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reaction_is_jacobian_singular(self, bad):
        def f(r, u, du):
            return np.where(np.abs(r - 1.5) < 0.01, bad, 1.0)

        prob = RadialProblem(LANE, 1.0, 2.0, 0.0, 1.0, mesh_n=64, reg_eps=1e-8,
                             rhs_override=f)
        sol = solve_radial(prob)
        assert not sol.converged
        assert sol.failure == "jacobian_singular"
        assert sol.newton_iters == 0
        # the best iterate is the starting profile
        assert np.array_equal(sol.u, (sol.r - 1.0))

    def test_singular_tridiagonal_system_is_jacobian_singular(self):
        # p, q > 2 at zero slope with eps^2 underflowing to 0: the flux
        # derivative is exactly 0 and a constant source adds nothing, so
        # the Jacobian is the zero matrix
        inst = ProblemInstance(N=2, p=3.0, q=2.5, kind="product", s=1.0, m=0.0)
        prob = RadialProblem(inst, 1.0, 2.0, 1.0, 1.0, mesh_n=64, reg_eps=1e-200,
                             rhs_override=constant_rhs(1.0))
        sol = solve_radial(prob)
        assert not sol.converged
        assert sol.failure == "jacobian_singular"
        assert np.array_equal(sol.u, np.ones_like(sol.r))

    @pytest.mark.parametrize("mesh_n", [64, 1024])
    def test_log_transform_matches_plain_solution(self, mesh_n):
        inst = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=0.5)
        plain = solve_radial(
            RadialProblem(inst, 1.0, 2.0, 1.0, 2.0, mesh_n=mesh_n, reg_eps=1e-8)
        )
        logged = solve_radial(
            RadialProblem(inst, 1.0, 2.0, 1.0, 2.0, mesh_n=mesh_n, reg_eps=1e-8,
                          log_transform=True)
        )
        assert plain.converged and logged.converged
        # one discretisation solved in u or in w = log u: the solutions
        # agree to the Newton tolerance, not to the truncation error
        assert np.max(np.abs(plain.u - logged.u)) <= 1e-9 * np.max(np.abs(plain.u))
        assert np.all(logged.u > 0.0)

    def test_log_transform_converges_where_direct_newton_stalls(self):
        # Newton in u from the data on this mesh ends newton_stalled after
        # MAX_NEWTON steps (coarse to fine it converges); in w = log u it
        # converges on the same residual
        inst = ProblemInstance(N=2, p=2.2, q=2.0, kind="sum", s=3.0, m=2.0, M=1.0)
        sol = solve_radial(RadialProblem(inst, 1.0, 2.0, 2.0, 1.0, mesh_n=1024, reg_eps=1e-8,
                                         log_transform=True))
        assert sol.converged and sol.residual_norm <= 1e-10
        assert sol.u[0] == 2.0 and sol.u[-1] == 1.0

    def test_problem_validation(self):
        with pytest.raises(AdmissibilityError):
            RadialProblem(LANE, -1.0, 2.0, 0.0, 0.0)
        with pytest.raises(AdmissibilityError):
            RadialProblem(LANE, 1.0, 2.0, 0.0, 0.0, mesh_n=10)
        with pytest.raises(AdmissibilityError):
            RadialProblem(LANE, 1.0, 2.0, 0.0, 0.0, reg_eps=0.5)
        with pytest.raises(AdmissibilityError):
            RadialProblem(LANE, 1.0, 2.0, -1.0, 1.0, log_transform=True)


# the parent's HJ iteration counts on this catalogue bound the new ones;
# the two m = 2.5, u0 = -40960 cases are refusals at n = 256
CONTINUATION_CATALOGUE = [
    (1.5, 1.5, -640.0, 22), (1.5, 1.5, -40960.0, 34),
    (1.5, 2.5, -640.0, 36), (1.5, 2.5, -40960.0, None),
    (2.0, 1.5, -640.0, 22), (2.0, 1.5, -40960.0, 34),
    (2.0, 2.5, -640.0, 36), (2.0, 2.5, -40960.0, None),
]


class TestContinuation:
    def test_benchmark_hj_problem(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        prob = RadialProblem(inst, 1.0, 2.0, -4096.0, 0.0, mesh_n=256, reg_eps=1e-8)
        sol = solve_radial(prob)
        assert sol.converged
        assert sol.newton_iters <= 30
        assert sol.continuation_steps <= 5

    @pytest.mark.parametrize("q,m,u0,max_iters", CONTINUATION_CATALOGUE)
    def test_catalogue_converges_as_before(self, q, m, u0, max_iters):
        inst = ProblemInstance(N=2, p=3.0, q=q, kind="hamilton_jacobi", m=m)
        sol = solve_radial(RadialProblem(inst, 1.0, 2.0, u0, 0.0, mesh_n=256, reg_eps=1e-8))
        assert sol.converged == (max_iters is not None)
        if sol.converged:
            assert sol.newton_iters <= max_iters
        else:
            assert sol.failure == "newton_stalled"


# the smooth sum case whose iteration count grew with the mesh under
# one-mesh Newton (newton_stalled from n = 65,536 on)
SMOOTH_SUM = ProblemInstance(N=3, p=2.5, q=2.0, kind="sum", s=1.5, m=1.0, M=1.0)
HJ_Q2 = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
LOG_PRODUCT = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=0.5)


def newton_calls(monkeypatch):
    """(cells, iterations, failure) of every damped Newton a solve runs."""
    calls, newton = [], radial._damped_newton

    def recording(residual, jacobian, x, tol, max_iter=radial.MAX_NEWTON):
        out = newton(residual, jacobian, x, tol, max_iter)
        calls.append((x.size - 1, out[2], out[3]))
        return out

    monkeypatch.setattr(radial, "_damped_newton", recording)
    return calls


class TestCoarseToFine:
    def test_levels_halve_down_to_the_coarse_mesh(self):
        assert mesh_levels(64) == [64]
        assert mesh_levels(256) == [256]
        assert mesh_levels(257) == [129, 257]
        assert mesh_levels(1000) == [250, 500, 1000]
        assert mesh_levels(4096) == [256, 512, 1024, 2048, 4096]

    def test_smooth_sum_converges_up_to_the_mesh_cap(self):
        assert MAX_MESH_N == 65536
        sol = solve_radial(RadialProblem(SMOOTH_SUM, 1.0, 2.0, 1.0, 2.0, mesh_n=MAX_MESH_N))
        assert sol.converged and sol.residual_norm <= 1e-10
        assert sol.u[0] == 1.0 and sol.u[-1] == 2.0
        assert sol.newton_iters <= 30

    @pytest.mark.parametrize("inst,u0,u1,mesh_n,log", [
        (SMOOTH_SUM, 1.0, 2.0, 16384, False),
        (HJ_Q2, -4096.0, 0.0, 4096, False),
        (LOG_PRODUCT, 1.0, 2.0, 4096, True),
    ], ids=["sum", "hj_q2", "log_product"])
    def test_each_finer_level_takes_few_steps(self, monkeypatch, inst, u0, u1, mesh_n, log):
        calls = newton_calls(monkeypatch)
        sol = solve_radial(RadialProblem(inst, 1.0, 2.0, u0, u1, mesh_n=mesh_n, log_transform=log))
        assert sol.converged and sol.residual_norm <= 1e-10
        levels = mesh_levels(mesh_n)
        finer = [(cells, iters) for cells, iters, _ in calls if cells != levels[0]]
        assert [cells for cells, _ in finer] == levels[1:]
        assert all(iters <= 5 for _, iters in finer)
        assert sol.newton_iters == sum(iters for _, iters, _ in calls)

    @pytest.mark.parametrize("u0,mesh_n", [(-40960.0, 4096), (-20480.0, 2048)])
    def test_failed_coarse_solve_starts_over_on_the_target_mesh(self, monkeypatch, u0, mesh_n):
        calls = newton_calls(monkeypatch)
        sol = solve_radial(RadialProblem(HJ_Q2, 1.0, 2.0, u0, 0.0, mesh_n=mesh_n))
        assert sol.converged and sol.residual_norm <= 1e-10
        coarse = [failure for cells, _, failure in calls if cells == 256]
        assert coarse[-1] == "newton_stalled"
        # no intermediate level runs: the restart is on mesh_n alone
        assert {cells for cells, _, _ in calls} == {256, mesh_n}
        assert sol.continuation_steps == len(calls)

    @pytest.mark.parametrize("inst,u0,u1,log", [
        (HJ_Q2, -4096.0, 0.0, False),
        (ProblemInstance(N=2, p=3.0, q=1.5, kind="hamilton_jacobi", m=2.5), -4096.0, 0.0, False),
        (LOG_PRODUCT, 1.0, 2.0, True),
        (SMOOTH_SUM, 1.0, 2.0, False),
    ], ids=["hj_q2", "hj_q1.5", "log_product", "sum"])
    def test_second_order_against_a_collocation_oracle(self, inst, u0, u1, log):
        # solve_bvp on the first-order system shares no code with the
        # finite-volume solver.  The solves run at newton_tol 1e-11: at the
        # default 1e-10 the n = 4096 log_product solve stops at a residual
        # of 6e-11, whose error (1.0e-9) is above the truncation error
        # (2.1e-10) that the order measures.
        sols = [solve_radial(RadialProblem(inst, 1.0, 2.0, u0, u1, mesh_n=n, log_transform=log),
                             tol=1e-11)
                for n in (256, 1024, 4096)]
        assert all(sol.converged for sol in sols)
        reference = bvp_reference(RadialProblem(inst, 1.0, 2.0, u0, u1), sols[1])
        assert reference.status == 0
        errors = [np.max(np.abs(sol.u - reference.sol(sol.r)[0])) for sol in sols]
        orders = np.log(np.array(errors[:-1]) / errors[1:]) / np.log(4.0)
        assert np.all((1.7 <= orders) & (orders <= 2.3)), (errors, orders)


JACOBIAN_CASES = [
    pytest.param("sum", 3.0, 2.0, 2, id="3.0-2.0-2"),
    pytest.param("sum", 2.5, 1.5, 3, id="2.5-1.5-3"),
    pytest.param("sum", 2.2, 2.0, 2, id="2.2-2.0-2"),
    pytest.param("product", 3.0, 2.0, 2, id="product-3.0-2.0-2"),
    pytest.param("product", 2.5, 1.5, 3, id="product-2.5-1.5-3"),
    pytest.param("hamilton_jacobi", 3.0, 2.0, 2, id="hamilton_jacobi-3.0-2.0-2"),
    pytest.param("hamilton_jacobi", 2.5, 1.5, 3, id="hamilton_jacobi-2.5-1.5-3"),
]


class TestJacobian:
    @pytest.mark.parametrize("log", [False, True], ids=["direct", "log"])
    @pytest.mark.parametrize("kind,p,q,N", JACOBIAN_CASES)
    def test_bands_match_forward_differences(self, kind, p, q, N, log):
        # sum and product reactions have both f_u and f_d, HJ only f_d; the
        # iterate is positive with slopes in [0.37, 1.63].  The log case
        # checks the bands solve_radial uses in w = log u against
        # residual(exp w).
        inst = ProblemInstance(N=N, p=p, q=q, kind=kind, s=1.5, m=1.5, M=1.0)
        r = np.linspace(1.0, 2.0, 65)
        u = 1.0 + r + 0.1 * np.sin(2.0 * np.pi * r)
        args = (r, r[1] - r[0], _radial_weights(r, N), reaction_function(inst), p, q)
        bands = (_log_jacobian_bands if log else _jacobian_bands)(
            _assemble(u, *args, 1e-8)[2], *args)
        to_u = np.exp if log else (lambda y: y)
        reference = colour_bands(lambda y: _assemble(to_u(y), *args, 1e-8)[0],
                                 np.log(u) if log else u)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(bands, reference, rtol=1e-5, atol=1e-7 * scale)

    @pytest.mark.parametrize("kind", ["hamilton_jacobi", "product", "sum"])
    def test_zero_slope_partial_with_m_below_one(self, kind):
        # m |du|^(m-1) sign(du) is 0 * inf at du = 0 for m < 1; the partial
        # takes the symmetric difference's value there, 0, with no warning
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind=kind, s=1.5, m=0.5, M=1.0)
        f, partials = reaction_function(inst)
        u, du = np.full(3, 2.0), np.array([-1e-3, 0.0, 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f_u, f_d = partials(u, du)
        delta = 1e-9
        symmetric = (f(None, u, du + delta) - f(None, u, du - delta)) / (2.0 * delta)
        assert f_d[1] == symmetric[1] == 0.0
        assert np.all(np.isfinite(f_u)) and np.all(np.isfinite(f_d))
        assert f_d[0] == -f_d[2] != 0.0

    def test_zero_slope_start_with_m_below_one_converges(self):
        # equal data start Newton from a constant: every centred slope is 0,
        # so a nan partial there would end the solve as jacobian_singular
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="sum", s=1.5, m=0.5, M=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_radial(RadialProblem(inst, 1.0, 2.0, 1.0, 1.0, mesh_n=64))
        assert sol.converged and sol.residual_norm <= 1e-10
        assert sol.newton_iters > 0


class TestFluxDerivative:
    @pytest.mark.parametrize("p,q,limit", [
        (2.0, 2.0, 2.0), (3.0, 2.0, 1.0), (3.0, 2.5, 0.0), (2.5, 1.5, np.inf),
    ])
    def test_zero_slope_limit_without_regularization(self, p, q, limit):
        assert flux_derivative(0.0, p, q, 0.0) == limit
        values = flux_derivative(np.array([0.0, 1.0]), p, q, 0.0)
        assert values[0] == limit
        assert values[1] == pytest.approx(p + q - 2.0)


class TestProfiles:
    def test_constant_solution_profile(self):
        prob = RadialProblem(LANE, 1.0, 2.0, 3.0, 3.0, mesh_n=64, reg_eps=1e-8,
                             rhs_override=constant_rhs(0.0))
        sol = solve_radial(prob)
        profile = gradient_vs_distance(sol)
        assert np.max(profile[:, 1]) <= 1e-12
        assert np.all(np.diff(profile[:, 0]) >= 0.0)

    @pytest.mark.parametrize("u0, u1, wall", [(-4096.0, 0.0, 0), (0.0, -4096.0, -1)],
                             ids=["steep-r0", "steep-r1"])
    def test_profile_reads_the_steeper_wall(self, u0, u1, wall):
        sol = solve_radial(RadialProblem(HJ_Q2, 1.0, 2.0, u0, u1, mesh_n=1024))
        assert sol.converged
        rh = sol.r_half
        to_wall = rh - sol.r[0] if wall == 0 else sol.r[-1] - rh
        near = to_wall <= sol.wall_distance
        profile = gradient_vs_distance(sol)
        # half the faces, those nearer that wall, at their distance to it
        assert 2 * len(profile) == len(rh)
        assert np.array_equal(profile[:, 0], np.sort(to_wall[near]))
        assert np.array_equal(profile[:, 1], np.abs(sol.du)[near][np.argsort(to_wall[near])])
        assert profile[0, 1] == abs(sol.du[wall])

    def test_profile_tie_goes_to_r0(self):
        # equal end slopes, different halves; dyadic steps keep du exact
        du = np.ones(64)
        du[0] = du[-1] = 4.0
        du[-2] = 2.0
        r = np.linspace(1.0, 2.0, 65)
        sol = RadialSolution(r=r, u=np.concatenate([[0.0], np.cumsum(du / 64.0)]),
                             residual_norm=0.0, newton_iters=0, continuation_steps=0,
                             converged=True)
        assert np.array_equal(sol.du, du)
        profile = gradient_vs_distance(sol)
        assert np.array_equal(profile[:, 0], sol.r_half[:32] - 1.0)
        assert np.array_equal(profile[:, 1], du[:32])

    @pytest.mark.parametrize("q, mesh_n", [("2", 4096), ("1.5", 4096), ("2", 1024)],
                             ids=["2", "1.5", "2-mesh_n-1024"])
    def test_cli_fit_is_the_library_fit(self, q, mesh_n, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["solve-radial", "--kind", "hamilton_jacobi", "--N", "2", "--p", "3",
                     "--q", q, "--m", "2.5", "--r0", "1", "--r1", "2", "--u0", "-4096",
                     "--u1", "0", "--mesh-n", str(mesh_n), "--fit", "--out", str(out)]) == 0
        [row] = json.loads(out.read_text())["results"]
        inst = ProblemInstance(N=2, p=3.0, q=float(q), kind="hamilton_jacobi", m=2.5)
        sol = solve_radial(RadialProblem(inst, 1.0, 2.0, -4096.0, 0.0, mesh_n=mesh_n))
        fit = fit_blowup_exponent(gradient_vs_distance(sol), default_fit_window(sol))
        assert row["fit"] == json.loads(json.dumps(fit.as_dict()))
        # a clean one-wall power law at every mesh
        assert fit.r_squared > 0.95 and 1.5 < fit.fitted_exponent < 1.9
        if mesh_n == 4096:
            assert fit.fitted_exponent == pytest.approx(1.6186, abs=1e-3)

    def test_fit_exact_power_law(self):
        d = np.geomspace(1e-3, 1e-1, 40)
        profile = np.column_stack([d, 3.0 * d**-2.0])
        fit = fit_blowup_exponent(profile, (1e-3, 1e-1))
        assert fit.fitted_exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.fitted_C == pytest.approx(3.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_fit_perturbed_power_law(self):
        d = np.geomspace(1e-3, 1e-1, 200)
        g = d**-2.0 * (1.0 + 0.01 * np.sin(1.0 / d))
        fit = fit_blowup_exponent(np.column_stack([d, g]), (1e-3, 1e-1))
        assert abs(fit.fitted_exponent - 2.0) / 2.0 <= 0.02

    def test_fit_window_underpopulated(self):
        d = np.geomspace(1e-3, 1e-1, 40)
        profile = np.column_stack([d, d**-1.0])
        with pytest.raises(AdmissibilityError, match="window underpopulated"):
            fit_blowup_exponent(profile, (1e-6, 2e-6))


class TestEstimateConsistency:
    def test_constant_solution_gives_zero(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        prob = RadialProblem(inst, 1.0, 2.0, 3.0, 3.0, mesh_n=64, reg_eps=1e-8,
                             rhs_override=constant_rhs(0.0))
        sol = solve_radial(prob)
        decision = classify(inst)
        assert estimate_consistency(sol, decision) == pytest.approx(0.0, abs=1e-12)

    def test_hj_constant_stable_under_refinement(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        decision = classify(inst)
        constants = []
        for mesh in (512, 1024):
            prob = RadialProblem(inst, 1.0, 2.0, -4096.0, 0.0, mesh_n=mesh,
                                 reg_eps=1e-8)
            sol = solve_radial(prob)
            assert sol.converged
            constants.append(estimate_consistency(sol, decision))
        assert abs(constants[1] - constants[0]) <= 0.2 * constants[0]

    def test_sum_growth_regime_constant(self):
        inst = ProblemInstance(N=2, p=2.5, q=2.0, kind="sum", s=1.5, m=3.5, M=1.0)
        decision = classify(inst)
        assert decision.theorem == "thm_sum_growth"
        prob = RadialProblem(inst, 1.0, 2.0, 2.0, 1.0, mesh_n=128, reg_eps=1e-8)
        sol = solve_radial(prob)
        assert sol.converged
        constant = estimate_consistency(sol, decision)
        assert isinstance(constant, float)
        assert np.isfinite(constant) and constant > 0.0

    def test_power_target_bounds_the_gradient_of_u_to_the_1_over_b(self):
        # thm_product_A bounds |grad u^(1/b)|, with b* = 10/3 and rate 2.5 here.
        inst = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)
        decision = classify(inst)
        assert (decision.theorem, decision.estimate_target) == ("thm_product_A",
                                                                 "|grad u^(1/b)|")
        b, rate = decision.exponents.b, decision.estimate_exponent
        assert (b, rate) == (pytest.approx(10.0 / 3.0), pytest.approx(2.5))
        sol = solve_radial(RadialProblem(inst, 1.0, 2.0, 1.0, 2.0, mesh_n=256))
        assert sol.converged
        # The face slope of v = u^(1/b) itself: the chain rule at the face
        # midpoint, which estimate_consistency uses, agrees to O(h^2).
        r_half = 0.5 * (sol.r[:-1] + sol.r[1:])
        d = np.minimum(r_half - sol.r[0], sol.r[-1] - r_half)
        dv = np.abs(np.diff(sol.u ** (1.0 / b)) / np.diff(sol.r))
        constant = estimate_consistency(sol, decision)
        assert constant == pytest.approx(np.max(dv / (1.0 + d ** -rate)), rel=1e-5)
        assert constant == pytest.approx(0.0289, rel=1e-2)

    def test_power_target_refuses_nonpositive_u(self):
        decision = classify(ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0))
        sol = RadialSolution(r=np.linspace(1.0, 2.0, 5), u=np.array([-1.0, -0.5, 0.0, 0.5, 1.0]),
                             residual_norm=0.0, newton_iters=0, continuation_steps=0,
                             converged=True)
        with pytest.raises(AdmissibilityError, match="power-target consistency requires positive u"):
            estimate_consistency(sol, decision)

    def test_default_window(self):
        prob = RadialProblem(LANE, 1.0, 2.0, 0.0, 1.0, mesh_n=100, reg_eps=1e-8,
                             rhs_override=constant_rhs(1.0))
        sol = solve_radial(prob)
        lo, hi = default_fit_window(sol)
        assert lo == pytest.approx(4.0 / 100.0)
        assert hi == pytest.approx(0.1)
