import functools
import sys
from fractions import Fraction
from pathlib import Path
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
    classify,
    exponent_bundle,
    gamma_exponent,
    t_from_b,
    theta_exponent,
)
from pqliouville.params import expand_instances, parse_params
from oracles import sample_admissible_pair, sample_admissible_product, sum_beta2_reference


EXAMPLE = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)
SUM_GRID = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "sum_grid.par"


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
        p, q, s, m, b = sympy.symbols("p q s m b", positive=True)

        def symbolic(power):
            return SimpleNamespace(p=p, q=q, s=s, m=power, combined_exponent=power + s - q + 1.0)

        product_limit = sympy.limit(beta2(symbolic(m), b), b, sympy.oo)
        sum_limit = sympy.limit(beta2(symbolic(0), b), b, sympy.oo)
        for limit, inst in ((product_limit, symbolic(m)), (sum_limit, symbolic(0))):
            closed = beta2_large_b_limit(inst)
            assert sympy.simplify(sympy.nsimplify(limit - closed, rational=True)) == 0

    def test_limit_is_minus_infinity_at_zero_denominator(self):
        # 0.3 - 1.3 + 1 rounds to exactly 0, although 0.3 != 1.3 - 1 in floats
        flat = ProblemInstance(N=2, p=1.3, q=1.3, kind="sum", s=0.3, m=0.7, M=1.0)
        assert beta2_large_b_limit(flat._replace(m=0.0)) == float("-inf")
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


@functools.cache
def sum_grid_decisions():
    """classify() of every instance of the benchmark sum grid that selects a b."""
    decisions = (classify(inst) for inst in expand_instances(parse_params(SUM_GRID.read_text())))
    return [decision for decision in decisions if decision.exponents is not None]


class TestSumExponents:
    """The sum reaction takes its exponents from the product ones at m = 0;
    `oracles.sum_beta2_reference` writes its beta2 out as the paper does."""

    def test_matches_gradient_free_reduction(self, rng):
        p, q, s, b = sympy.symbols("p q s b", positive=True)
        gradient_free = SimpleNamespace(p=p, q=q, s=s, m=0, combined_exponent=s - q + 1)
        difference = beta2(gradient_free, b) - sum_beta2_reference(p, q, s, b)
        assert sympy.simplify(sympy.nsimplify(difference, rational=True)) == 0

        def errors(inst, b):
            """Distances of beta2 at m = 0 and of the formula's float
            evaluation from the formula's exact value, in units of eps
            times the size of its terms."""
            p, q, s = inst.p, inst.q, inst.s
            exact = sum_beta2_reference(*map(Fraction, (p, q, s, b)))
            scale = sys.float_info.epsilon * (1.0 + p + q + abs(exact - 1 + p - q))
            return (float(abs(Fraction(beta2(inst._replace(m=0.0), b)) - exact)) / scale,
                    float(abs(Fraction(sum_beta2_reference(p, q, s, b)) - exact)) / scale)

        # at every b the sum grid selects, beta2 at m = 0 is never the farther
        for decision in sum_grid_decisions():
            ours, literal = errors(decision.inst, decision.exponents.b)
            assert ours <= literal <= 4.0

        # at random b and at every tau = 2^k the selection could accept, it
        # is within a few eps and is closer more often than it is farther
        closer = farther = 0
        for _ in range(300):
            q = 1.2 + 1.5 * rng.random()
            inst = ProblemInstance(N=int(rng.integers(2, 6)), p=q + 0.4 * rng.random(), q=q,
                                   kind="sum", s=q - 0.8 + 2.0 * rng.random(), m=1.0, M=1.0)
            powers = [b_from_t(inst._replace(m=0.0), 2.0**k) for k in range(1, 40)]
            for b in [1.0 + 4.0 * rng.random()] + [b for b in powers if b > 1.0]:
                ours, literal = errors(inst, b)
                assert ours <= 4.0
                closer += ours < literal
                farther += ours > literal
        assert closer > farther

    def test_limit_example(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        assert beta2(inst._replace(m=0.0), 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_bundle_is_the_product_bundle_at_m_zero(self):
        # the tau search accepts only tau > s, so b > 1 and the bundle takes the beta2 branch
        assert sum_grid_decisions()
        for decision in sum_grid_decisions():
            inst, selection = decision.inst, decision.selection
            assert selection.t_star > inst.s and selection.b_star > 1.0
            bundle = exponent_bundle(inst._replace(m=0.0), selection.b_star)
            assert decision.exponents == bundle
            assert bundle.gamma == min(1.0, bundle.beta2)
            assert decision.estimate_exponent == 2.0 / bundle.gamma
        # tau = 4 on the worked example gives b = 3 and t = tau back; tau = 1 gives b = 0
        gradient_free = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=0.0, M=1.0)
        bundle = exponent_bundle(gradient_free, b_from_t(gradient_free, 4.0))
        assert bundle.b == 3.0 and bundle.t == 4.0
        with pytest.raises(AdmissibilityError, match="b below admissible floor"):
            exponent_bundle(gradient_free, b_from_t(gradient_free, 1.0))
