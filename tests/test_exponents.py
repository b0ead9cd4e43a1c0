from types import SimpleNamespace

import pytest
import sympy

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    admissible_floor,
    b_from_t,
    beta1,
    beta2,
    beta2_large_b_limit,
    exponent_bundle,
    gamma_exponent,
    sum_beta2,
    sum_exponent_bundle,
    t_from_b,
    theta_exponent,
)
from pqliouville.exponents import _beta2, beta2_limit
from oracles import sample_admissible_pair, sample_admissible_product


EXAMPLE = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)


class TestRoundTrip:
    def test_random_pairs(self, rng):
        for _ in range(2000):
            inst, b = sample_admissible_pair(rng)
            t = t_from_b(inst, b)
            assert b_from_t(inst, t) == pytest.approx(b, abs=1e-12 * (1.0 + abs(b)))
            assert t_from_b(inst, b_from_t(inst, t)) == pytest.approx(
                t, abs=1e-12 * (1.0 + abs(t))
            )

    def test_t_positive_above_floor(self, rng):
        for _ in range(500):
            inst, b = sample_admissible_pair(rng)
            assert t_from_b(inst, b) > 0.0


class TestBetaExponents:
    def test_correction_identity(self, rng):
        for _ in range(2000):
            inst, b = sample_admissible_pair(rng)
            Q = inst.combined_exponent
            corr = (b - 1.0) * (inst.p - inst.q) * (inst.m - inst.q) / (
                b * Q + inst.q - inst.m
            )
            assert beta2(inst, b) == pytest.approx(
                beta1(inst, b) + corr, abs=1e-12 * (1.0 + abs(beta2(inst, b)))
            )

    def test_large_b_limit_example(self):
        limit = beta2_large_b_limit(EXAMPLE)
        assert limit == pytest.approx(0.8, abs=1e-14)
        assert abs(beta2(EXAMPLE, 1e6) - limit) <= 1e-4

    def test_large_b_limit_random(self, rng):
        for _ in range(300):
            inst = sample_admissible_product(rng)
            assert abs(beta2(inst, 1e6) - beta2_large_b_limit(inst)) <= 1e-4 * (
                1.0 + abs(beta2_large_b_limit(inst))
            )

    def test_large_b_limits_symbolic(self):
        # b -> infinity of the product beta2 and of the sum beta2 (m = 0)
        sym = SimpleNamespace(**dict(zip("pqsmb", sympy.symbols("p q s m b", positive=True))))
        product_limit = sympy.limit(_beta2(sym.p, sym.q, sym.s, sym.m, sym.b), sym.b, sympy.oo)
        sum_limit = sympy.limit(sum_beta2(sym, sym.b), sym.b, sympy.oo)
        for limit, m in ((product_limit, sym.m), (sum_limit, 0)):
            closed = beta2_limit(sym.p, sym.q, sym.s, m)
            assert sympy.simplify(sympy.nsimplify(limit - closed, rational=True)) == 0

    def test_limit_is_minus_infinity_at_zero_denominator(self):
        # 0.3 - 1.3 + 1 rounds to exactly 0, although 0.3 != 1.3 - 1 in floats
        assert beta2_limit(1.3, 1.3, 0.3, 0.0) == float("-inf")
        inst = ProblemInstance(N=2, p=2.5, q=2.0, kind="product", s=0.5, m=0.5)
        assert beta2_large_b_limit(inst) == float("-inf")

    def test_beta1_at_floor_is_m_plus_1_minus_p(self, rng):
        # evaluated exactly at b = (m-q+1)/Q the first exponent collapses
        for _ in range(300):
            inst = sample_admissible_product(rng)
            if inst.m - inst.q + 1.0 <= 0.0:
                continue
            floor = (inst.m - inst.q + 1.0) / inst.combined_exponent
            assert beta1(inst, floor) == pytest.approx(
                inst.m + 1.0 - inst.p, abs=1e-10
            )

    def test_correction_vanishes_at_p_eq_q(self, rng):
        for _ in range(300):
            inst = sample_admissible_product(rng)
            flat = ProblemInstance(
                N=inst.N, p=inst.q, q=inst.q, kind="product", s=inst.s, m=inst.m
            )
            b = admissible_floor(flat) + 0.7
            assert beta2(flat, b) == beta1(flat, b)


class TestGammaTheta:
    def test_branch_semantics(self, rng):
        for _ in range(1000):
            inst, b = sample_admissible_pair(rng)
            g = gamma_exponent(inst, b)
            if b <= 1.0:
                assert g == min(1.0, beta1(inst, b))
            else:
                assert g == min(1.0, beta2(inst, b))

    def test_theta_window(self, rng):
        for _ in range(1000):
            inst, b = sample_admissible_pair(rng)
            theta = theta_exponent(inst, b)
            if theta is not None:
                assert 0.0 < theta < 2.0
            t = t_from_b(inst, b)
            if b <= 1.0:
                expected = 2.0 / (t + 1.0)
            else:
                expected = (2.0 * (b - 1.0) * (inst.p - inst.q) + 2.0) / (t + 1.0)
            if 0.0 < expected < 2.0:
                assert theta == expected


class TestBundle:
    def test_bundle_fields(self):
        bundle = exponent_bundle(EXAMPLE, 2.0)
        assert bundle.t == t_from_b(EXAMPLE, 2.0)
        assert bundle.gamma == gamma_exponent(EXAMPLE, 2.0)
        assert bundle.theta == theta_exponent(EXAMPLE, 2.0)

    def test_floor_guard(self):
        floor = admissible_floor(EXAMPLE)
        with pytest.raises(AdmissibilityError, match="b below admissible floor"):
            exponent_bundle(EXAMPLE, floor)

    def test_degenerate_combined_exponent(self):
        degenerate = ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=0.5, m=0.5)
        assert degenerate.combined_exponent == 0.0
        with pytest.raises(AdmissibilityError, match="degenerate combined exponent"):
            admissible_floor(degenerate)


class TestSumExponents:
    def test_matches_gradient_free_reduction(self, rng):
        # the literal sum formula equals the product beta2 with m = 0
        for _ in range(1000):
            N = int(rng.integers(2, 6))
            q = 1.2 + 1.5 * rng.random()
            p = q + 0.4 * rng.random()
            s = q - 1.0 + 0.2 + 2.0 * rng.random()
            b = 1.0 + 4.0 * rng.random()
            inst = ProblemInstance(N=N, p=p, q=q, kind="sum", s=s, m=1.0, M=1.0)
            assert sum_beta2(inst, b) == pytest.approx(
                _beta2(p, q, s, 0.0, b), abs=1e-12
            )

    def test_limit_example(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        assert sum_beta2(inst, 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_bundle_requires_tau_above_s(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        bundle = sum_exponent_bundle(inst, 4.0)
        assert bundle.b == pytest.approx(3.0)
        assert bundle.gamma == min(1.0, bundle.beta2)
        with pytest.raises(AdmissibilityError):
            sum_exponent_bundle(inst, 1.0)
