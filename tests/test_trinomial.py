import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    TrinomialCoeffs,
    operator_gap,
    product_thresholds,
    product_trinomial,
    small_s_threshold,
    sum_leading_coefficient,
    sum_thresholds,
    verify_negativity,
)
from pqliouville.trinomial import MAX_ORACLE_POINTS, oracle_curve
from oracles import bernstein_bounds, epsilon_sensitivity, instances, sample_admissible_product


EXAMPLE = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)


class TestProductCoefficients:
    def test_worked_example_leading(self):
        co = product_trinomial(EXAMPLE, 0.0)
        # factorized route: (Q - Q1)(Q - Q2)/Q^2, exact algebra -0.23/2.25
        assert co.L1 == pytest.approx(-0.23 / 2.25, rel=1e-12)
        assert co.L1 < 0.0  # case-1 territory

    def test_leading_factorization_random(self, rng):
        for _ in range(2000):
            inst = sample_admissible_product(rng)
            th = product_thresholds(inst)
            co = product_trinomial(inst, 0.0)
            factored = (th.Q - th.Q1) * (th.Q - th.Q2) / (th.Q * th.Q)
            assert abs(co.L1 - factored) <= 1e-12 * (1.0 + abs(factored))

    def test_single_operator_reduction(self, rng):
        # R = 0 kills the gap terms: L1 = 1 - 4(q-1)/(NQ), L3 = 4(p-1)s/(NQ)
        for _ in range(200):
            inst = sample_admissible_product(rng)
            flat = ProblemInstance(
                N=inst.N, p=inst.q, q=inst.q, kind="product", s=inst.s, m=inst.m
            )
            if flat.combined_exponent <= 0.0:
                continue
            co = product_trinomial(flat, 0.0)
            N, q, s, Q = flat.N, flat.q, flat.s, flat.combined_exponent
            assert co.L1 == pytest.approx(1.0 - 4.0 * (q - 1.0) / (N * Q), rel=1e-12)
            assert co.L3 == pytest.approx(4.0 * (q - 1.0) * s / (N * Q), rel=1e-12)

    def test_epsilon_continuity(self, rng):
        for _ in range(500):
            inst = sample_admissible_product(rng)
            base = product_trinomial(inst, 0.0)
            k1, k2, k3 = epsilon_sensitivity(inst)
            for eps in (1e-6, 1e-4):
                pert = product_trinomial(inst, eps)
                slack = 1.0 + 1e-9
                for dk, kk, b in (
                    (pert.L1 - base.L1, k1, base.L1),
                    (pert.L2 - base.L2, k2, base.L2),
                    (pert.L3 - base.L3, k3, base.L3),
                ):
                    assert abs(dk) <= kk * eps * slack + 8e-16 * (1.0 + abs(b))

    def test_value_is_exact_composition(self):
        co = TrinomialCoeffs(L1=2.0, L2=-3.0, L3=0.25, epsilon=0.0, source="product")
        t = 1.5
        assert co.value(t) == (co.L1 * t + co.L2) * t + co.L3
        assert co.value(np.array([0.0, 1.0]))[0] == co.L3

    def test_guards(self):
        with pytest.raises(AdmissibilityError, match="degenerate combined exponent"):
            product_trinomial(
                ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=0.5, m=0.5), 0.0
            )
        with pytest.raises(AdmissibilityError):
            product_trinomial(EXAMPLE, -1e-3)


class TestSumLeadingCoefficient:
    def test_roots_match_s_window_at_p_eq_q(self):
        for N in (2, 3, 5):
            for p in (1.5, 2.0, 3.0):
                th = sum_thresholds(
                    ProblemInstance(N=N, p=p, q=p, kind="sum", s=1.0, m=1.0, M=1.0)
                )
                for s, expect_neg in (
                    (0.5 * (th.s_minus + th.s_plus), True),
                    (th.s_minus - 0.1, False),
                    (th.s_plus + 0.1, False),
                ):
                    if s <= 0.0:
                        continue
                    inst = ProblemInstance(N=N, p=p, q=p, kind="sum", s=s, m=1.0, M=1.0)
                    assert (sum_leading_coefficient(inst) < 0.0) == expect_neg

    def test_vertex_value_matches_roots(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        assert sum_leading_coefficient(inst) == pytest.approx(-1.0, rel=1e-14)


def vanishes(expr) -> bool:
    """The float coefficients the code writes are exact rationals; expr simplifies to 0."""
    return sympy.simplify(sympy.nsimplify(expr, rational=True)) == 0


class TestSymbolicWindows:
    """The closed forms, run on symbols, equal the window polynomials whose
    signs route the product and sum theorems."""

    N, p, q, s, Q = sympy.symbols("N p q s Q", positive=True)

    def test_product_leading_coefficient_is_the_q_window_polynomial(self):
        N, p, q, s, Q = self.N, self.p, self.q, self.s, self.Q
        co = product_trinomial(SimpleNamespace(N=N, p=p, q=q, s=s, combined_exponent=Q), 0)
        assert vanishes(co.L1 * Q**2 - (Q**2 - 4 * (q - 1) * Q / N + operator_gap(N, p, q)))

    def test_sum_leading_coefficient_factors_over_the_s_window(self):
        N, p, q, s = self.N, self.p, self.q, self.s
        # delta_pq as in sum_thresholds
        delta = (N + 2) ** 2 * (q - 1) ** 2 - N * (N + 4) * (p - 1) ** 2 - 4 * N * (p - q) ** 2
        s_minus, s_plus = (((N + 2) * (q - 1) + sign * sympy.sqrt(delta)) / N for sign in (-1, 1))
        leading = sum_leading_coefficient(SimpleNamespace(N=N, p=p, q=q, s=s))
        assert vanishes(leading - (s - s_minus) * (s - s_plus))

    R = sympy.Symbol("R", real=True)

    def q_window_polynomial(self):
        return self.Q**2 - 4 * (self.q - 1) * self.Q / self.N + self.R

    def test_product_thresholds_are_the_roots_of_the_q_window_polynomial(self):
        N, q, R, Q = self.N, self.q, self.R, self.Q
        poly = self.q_window_polynomial()
        # Q1 and Q2 as in product_thresholds
        root = sympy.sqrt(4 * (q - 1) ** 2 - N**2 * R) / N
        q1, q2 = 2 * (q - 1) / N - root, 2 * (q - 1) / N + root
        assert sympy.expand(poly.subs(Q, q1)) == 0 and sympy.expand(poly.subs(Q, q2)) == 0
        assert sympy.expand((Q - q1) * (Q - q2) - poly) == 0

    def test_the_roots_are_real_exactly_when_the_discriminant_test_holds(self):
        # A real quadratic has real roots iff its discriminant is >= 0, and
        # here the discriminant is 4(q-1)^2 - N^2 R times the positive 4/N^2.
        N, q, R, Q = self.N, self.q, self.R, self.Q
        disc = sympy.discriminant(self.q_window_polynomial(), Q)
        assert sympy.simplify(disc - 4 * (4 * (q - 1) ** 2 - N**2 * R) / N**2) == 0

    @settings(max_examples=60, deadline=None)
    @given(instances("product"))
    def test_product_thresholds_match_sympy_roots(self, inst):
        th = product_thresholds(inst)
        exact = {self.N: inst.N, self.q: sympy.Rational(inst.q), self.R: sympy.Rational(th.R)}
        disc = 4 * (exact[self.q] - 1) ** 2 - inst.N**2 * exact[self.R]
        # Within rounding of a double root the float sign may differ from the
        # exact one: that is the exact-sign routing ROADMAP item 4 leaves open.
        assume(abs(disc) > 1e-9 * (inst.q - 1.0) ** 2)
        roots = sympy.roots(self.q_window_polynomial().subs(exact), self.Q, multiple=True)
        assert th.discriminant_ok == all(r.is_real for r in roots) == (disc > 0)
        if th.discriminant_ok:
            expected = sorted(float(r) for r in roots)
            assert [th.Q1, th.Q2] == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestBernsteinBounds:
    """At eps = 0 the product quadratic, the small-s threshold, Q3 and the
    sum cap m_max are written in the extremes of the Bernstein weights
    that `tests/test_weights.py` samples, `oracles.bernstein_bounds`."""

    N, p, q, s, Q = sympy.symbols("N p q s Q", positive=True)

    def test_trinomial_coefficients(self):
        N, p, q, s, Q = self.N, self.p, self.q, self.s, self.Q
        lo, hi, upsilon, _ = bernstein_bounds(N, p, q)
        co = product_trinomial(SimpleNamespace(N=N, p=p, q=q, s=s, combined_exponent=Q), 0)
        assert vanishes(upsilon - operator_gap(N, p, q))
        assert vanishes(co.L1 - (1 - 2 * lo / Q + upsilon / Q**2))
        assert vanishes(co.L2 - (2 * (s / Q) * hi - 2 * lo / Q))
        assert vanishes(co.L3 - ((s / Q) ** 2 * upsilon + 2 * (s / Q) * (hi - (p - q))))

    def test_small_s_threshold(self):
        lo, hi, _, _ = bernstein_bounds(self.N, self.p, self.q)
        assert vanishes(small_s_threshold(SimpleNamespace(N=self.N, p=self.p, q=self.q)) - lo / hi)

    def test_q3_numerator_and_sum_cap(self, rng):
        # Both threshold functions branch on the sign of an expression in
        # N, p and q, so those are sampled floats; s stays a symbol, and
        # Q3 - Q2 comes out as a multiple of (Gamma_lo - s Gamma_hi)^2 over a scale.
        s = self.s
        for _ in range(50):
            inst = sample_admissible_product(rng)
            N, p, q = inst.N, inst.p, inst.q
            lo, hi, _, _ = bernstein_bounds(N, p, q)
            symbolic = SimpleNamespace(kind="product", N=N, p=p, q=q, s=s,
                                       combined_exponent=inst.combined_exponent)
            th = product_thresholds(symbolic)
            numerator, _ = sympy.fraction(sympy.together(th.Q3 - th.Q2))
            ours = sympy.Poly(numerator, s).all_coeffs()
            square = sympy.Poly((lo - s * hi) ** 2, s).all_coeffs()
            assert len(ours) == len(square) == 3
            assert [float(c) for c in ours] == pytest.approx(
                [float(c * ours[0] / square[0]) for c in square], rel=1e-13)
            m_max = sum_thresholds(inst._replace(kind="sum")).m_max
            assert m_max == pytest.approx((q - 1) + lo, rel=1e-15)


class TestGridOracle:
    def test_convex_vertex_location(self):
        co = TrinomialCoeffs(L1=1.0, L2=-3.0, L3=1.0, epsilon=0.0, source="product")
        t_min, value_min = verify_negativity(co, t_max=10.0, grid_points=100_000)
        step = 10.0 / (100_000 - 1)
        assert abs(t_min - 1.5) <= step
        assert value_min == pytest.approx(co.value(1.5), abs=1e-8)

    def test_concave_tail(self):
        co = TrinomialCoeffs(L1=-0.5, L2=1.0, L3=2.0, epsilon=0.0, source="product")
        mins = []
        for t_max in (10.0, 20.0, 40.0):
            t_min, value_min = verify_negativity(co, t_max=t_max, grid_points=5000)
            assert t_min == pytest.approx(t_max)
            mins.append(value_min)
        assert mins[0] > mins[1] > mins[2]

    def test_worked_example_reaches_minus_one(self):
        co = product_trinomial(EXAMPLE, 0.0)
        _, value_min = verify_negativity(co, t_max=1e3, grid_points=100_000)
        assert value_min <= -1.0

    def test_guards(self):
        co = product_trinomial(EXAMPLE, 0.0)
        with pytest.raises(AdmissibilityError):
            verify_negativity(co, t_max=0.0, grid_points=100_000)
        with pytest.raises(AdmissibilityError):
            verify_negativity(co, t_max=1.0, grid_points=10)
        # plot-data passes report fields straight in; the cap case is refused before any grid
        for t_max, points in ((math.nan, 2048), (math.inf, 2048), (1.0, True), (1.0, 2048.0),
                              (1.0, MAX_ORACLE_POINTS + 1)):
            with pytest.raises(AdmissibilityError):
                oracle_curve(co, t_max, points)
