import numpy as np
import pytest

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    RadialProblem,
    classify,
    default_fit_window,
    estimate_consistency,
    fit_blowup_exponent,
    gradient_vs_distance,
    manufactured_source,
    solve_radial,
    unregularized_residual,
)
from pqliouville.radial import (
    _assemble,
    _jacobian_bands,
    _radial_weights,
    flux_derivative,
    reaction_function,
)
from oracles import colour_bands, constant_rhs_profile


LANE = ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=1.0, m=0.0)


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
        res, mask = unregularized_residual(sol)
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
        # the two discretizations differ at the truncation level
        h = plain.r[1] - plain.r[0]
        assert np.max(np.abs(plain.u - logged.u)) <= 25.0 * h * h
        assert np.all(logged.u > 0.0)

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


class TestJacobian:
    @pytest.mark.parametrize("log", [False, True], ids=["direct", "log"])
    @pytest.mark.parametrize("p,q,N", [(3.0, 2.0, 2), (2.5, 1.5, 3), (2.2, 2.0, 2)])
    def test_bands_match_forward_differences(self, p, q, N, log):
        # a sum reaction has both f_u and f_d; the iterate is positive
        # with slopes in [0.37, 1.63]
        inst = ProblemInstance(N=N, p=p, q=q, kind="sum", s=1.5, m=1.5, M=1.0)
        r = np.linspace(1.0, 2.0, 65)
        u = 1.0 + r + 0.1 * np.sin(2.0 * np.pi * r)
        x = np.log(u) if log else u
        args = (r, r[1] - r[0], _radial_weights(r, N), reaction_function(inst), p, q)
        residual = lambda y: _assemble(y, *args, 1e-8, log=log)
        bands = _jacobian_bands(residual(x)[2], *args)
        reference = colour_bands(lambda y: residual(y)[0], x)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(bands, reference, rtol=1e-5, atol=1e-7 * scale)


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

    def test_sides(self):
        prob = RadialProblem(LANE, 1.0, 2.0, 0.0, 1.0, mesh_n=64, reg_eps=1e-8,
                             rhs_override=constant_rhs(1.0))
        sol = solve_radial(prob)
        inner = gradient_vs_distance(sol, side="inner")
        both = gradient_vs_distance(sol)
        rh = sol.r_half
        near_inner = rh - sol.r[0] <= sol.r[-1] - rh
        # 'inner' keeps the faces nearer r0, at their distance r - r0
        assert 2 * len(inner) == len(both)
        assert np.array_equal(inner[:, 0], (rh - sol.r[0])[near_inner])
        assert np.array_equal(both[:, 0], np.sort(np.minimum(rh - sol.r[0], sol.r[-1] - rh)))
        for side in ("outer", "sideways"):
            with pytest.raises(AdmissibilityError):
                gradient_vs_distance(sol, side=side)

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

    def test_default_window(self):
        prob = RadialProblem(LANE, 1.0, 2.0, 0.0, 1.0, mesh_n=100, reg_eps=1e-8,
                             rhs_override=constant_rhs(1.0))
        sol = solve_radial(prob)
        lo, hi = default_fit_window(sol)
        assert lo == pytest.approx(4.0 / 100.0)
        assert hi == pytest.approx(0.1)
