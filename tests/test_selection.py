import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    TheoremCondition,
    TrinomialCoeffs,
    beta2,
    product_trinomial,
    select_b_product,
    sum_selection,
    verify_negativity,
)
from oracles import (
    epsilon_sensitivity,
    instances,
    near_window_root,
    sample_case3_discriminant_fail,
    sample_theorem14_instance,
)


EXAMPLE = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)
# Q is 1 ulp below Q2, so it routes inside the window, yet L1 evaluates to 0.
ONE_ULP_BELOW_Q2 = ProblemInstance(N=3, p=2.159947555903314, q=2.159947555903314, kind="product",
                                   s=0.5175873612214492, m=2.1889569358862833)


class TestProductSelection:
    def test_worked_example_case1(self):
        sel = select_b_product(EXAMPLE)
        assert sel.case_tag == "case1_L1neg"
        assert sel.kappa >= 1.0
        assert np.isfinite(sel.b_star)
        assert beta2(EXAMPLE, sel.b_star) > 0.0
        co = product_trinomial(EXAMPLE, 0.0)
        assert co.value(sel.t_star) <= -1.0
        # trace rows are the classify row type, filed under "selection"
        assert all(isinstance(c, TheoremCondition) and c.theorem == "selection"
                   for c in sel.trace)

    def test_boundary_case2_exact_equality(self):
        # p=q, N=2: Q2 = 4(q-1)/N = 2 and m+s-q+1 hits it exactly in floats
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=0.5, m=2.5)
        assert inst.combined_exponent == 2.0
        sel = select_b_product(inst)
        assert sel.case_tag == "case2_L1zero"
        assert sel.kappa == 1.0
        co = product_trinomial(inst, 0.0)
        assert co.L1 == 0.0
        assert co.value(sel.t_star) <= -1.0

    def test_lane_emden_boundary_instance_infeasible(self):
        # m=0, s=1, p=q=2 sits on several strict-inequality boundaries
        # (Q = 0 = Q1, m+s = p-1, s equal to the small-s threshold).
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="product", s=1.0, m=0.0)
        sel = select_b_product(inst)
        assert sel.case_tag == "infeasible"
        failing = [c.label for c in sel.trace if not c.passed]
        assert failing  # the blocking inequality is named

    def test_case3_vertex(self):
        inst = ProblemInstance(N=2, p=2.61, q=2.24, kind="product", s=0.06, m=1.7)
        sel = select_b_product(inst)
        assert sel.case_tag == "case3_convex"
        co = product_trinomial(inst, 0.0)
        assert sel.t_star == pytest.approx(-co.L2 / (2.0 * co.L1), rel=1e-13)
        assert sel.t_star > 0.0
        floor = (inst.m - inst.q + 1.0) / inst.combined_exponent
        assert sel.b_star > floor
        assert sel.kappa == pytest.approx(-co.value(sel.t_star), rel=1e-13)
        # vertex against the grid oracle
        t_grid, v_grid = verify_negativity(co, 2.0 * sel.t_star, 100_000)
        step = 2.0 * sel.t_star / (100_000 - 1)
        assert abs(t_grid - sel.t_star) <= 2.0 * step
        assert v_grid <= -sel.kappa / 2.0

    def test_oracle_agreement_random(self, rng):
        for _ in range(150):
            inst = sample_theorem14_instance(rng)
            sel = select_b_product(inst)
            assert sel.feasible
            co = product_trinomial(inst, 0.0)
            _, value_min = verify_negativity(co, 2.0 * max(sel.t_star, 1.0), 20_000)
            assert value_min <= -sel.kappa / 2.0

    def test_infeasible_case3_grid_floor(self, rng):
        for _ in range(100):
            inst = sample_case3_discriminant_fail(rng)
            sel = select_b_product(inst)
            assert sel.case_tag == "infeasible"
            assert any(c.label == "vertex_discriminant" and not c.passed for c in sel.trace)
            co = product_trinomial(inst, 0.0)
            t_wide = max(10.0, 4.0 * abs(co.L2) / (2.0 * co.L1))
            _, value_min = verify_negativity(co, t_wide, 100_000)
            assert value_min >= -1e-9

    def test_epsilon_robustness(self, rng):
        # case tags agree for small epsilon; kappa moves by <1% at 1e-6,
        # and stays within the explicit first-order envelope at 1e-4
        # (the 1% figure is not scale-free for far-out convex vertices).
        for _ in range(50):
            inst = sample_theorem14_instance(rng)
            base = select_b_product(inst)
            for eps in (1e-6, 1e-4):
                co = product_trinomial(inst, eps)
                if base.case_tag == "case3_convex":
                    assert co.L1 > 0.0 and co.L2 < 0.0
                    t_star = -co.L2 / (2.0 * co.L1)
                    kappa = -co.value(t_star)
                    k1, k2, k3 = epsilon_sensitivity(inst)
                    envelope = eps * (k1 * t_star**2 + k2 * t_star + k3)
                    if eps <= 1e-6 or envelope <= 5e-3 * base.kappa:
                        assert kappa == pytest.approx(base.kappa, rel=1e-2)
                    else:
                        assert abs(kappa - base.kappa) <= 1.01 * envelope
                else:
                    assert co.value(base.t_star) <= -0.99

    def test_epsilon_robustness_canonical_case3(self):
        inst = ProblemInstance(N=2, p=2.61, q=2.24, kind="product", s=0.06, m=1.7)
        base = select_b_product(inst)
        assert base.case_tag == "case3_convex"
        for eps in (1e-6, 1e-4):
            co = product_trinomial(inst, eps)
            t_star = -co.L2 / (2.0 * co.L1)
            assert -co.value(t_star) == pytest.approx(base.kappa, rel=1e-2)

    def test_kind_guard(self):
        with pytest.raises(AdmissibilityError):
            select_b_product(
                ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
            )


class TestStopRule:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_window_root(), instances("product"), instances("sum")))
    @example(ONE_ULP_BELOW_Q2)
    def test_feasible_exactly_when_every_row_passed(self, inst):
        sel = select_b_product(inst) if inst.kind == "product" else sum_selection(inst)
        assert sel.feasible == all(c.passed for c in sel.trace)


class TestDiscriminantEquivalence:
    def test_sign_agreement_random_coefficients(self, rng):
        # convex trinomials with a vertex at positive t: the sign of
        # 4 L1 L3 - L2^2 matches the sign of the grid minimum
        checked = 0
        while checked < 10_000:
            L1 = 0.05 + 2.0 * rng.random()
            L2 = -(0.05 + 2.0 * rng.random())
            L3 = -2.0 + 4.0 * rng.random()
            disc = 4.0 * L1 * L3 - L2 * L2
            scale = abs(disc) + L2 * L2
            if abs(disc) < 1e-8 * scale:
                continue
            co = TrinomialCoeffs(L1=L1, L2=L2, L3=L3, epsilon=0.0, source="product")
            vertex = -L2 / (2.0 * L1)
            _, value_min = verify_negativity(co, 2.0 * vertex, 2000)
            tol = abs(disc) / (8.0 * L1)
            assert (disc > 0.0) == (value_min > -tol) or np.sign(disc) == np.sign(
                value_min
            )
            checked += 1


class TestSumSelection:
    def test_worked_example(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        sel = sum_selection(inst)
        assert sel.case_tag == "sum_large_tau"
        assert sel.b_star > 1.0
        assert sel.kappa == 1.0
        assert beta2(inst._replace(m=0.0), sel.b_star) > 0.0

    def test_negative_discriminant_named(self):
        inst = ProblemInstance(N=2, p=2.5, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        sel = sum_selection(inst)
        assert sel.case_tag == "infeasible"
        assert any(c.label == "delta_positive" and not c.passed for c in sel.trace)

    def test_m_window_named(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=2.5, M=1.0)
        sel = sum_selection(inst)
        assert sel.case_tag == "infeasible"
        assert any(c.label == "m_window" and not c.passed for c in sel.trace)

    def test_leading_coefficient_negative_inside_window(self):
        inst = ProblemInstance(N=3, p=2.0, q=2.0, kind="sum", s=1.5, m=1.0, M=1.0)
        sel = sum_selection(inst)
        assert sel.feasible
        assert any(c.label == "leading_coefficient" and c.passed for c in sel.trace)
