import math

import pytest

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    operator_gap,
    product_thresholds,
    sum_thresholds,
)
from oracles import sample_admissible_product


def make(kind="product", **kw):
    base = dict(N=2, p=2.2, q=2.0, s=0.5, m=2.0)
    base.update(kw)
    return ProblemInstance(kind=kind, **base)


class TestProductThresholds:
    def test_worked_example(self):
        th = product_thresholds(make())
        assert th.R == pytest.approx(0.52, abs=1e-12)
        assert th.Q == pytest.approx(1.5, abs=1e-12)
        assert th.discriminant_ok
        # independent evaluation: Q1,2 = 2(q-1)/N -/+ sqrt(4(q-1)^2/N^2 - R)
        root = math.sqrt(1.0 - 0.52)
        assert th.Q1 == pytest.approx(1.0 - root, rel=1e-13)
        assert th.Q2 == pytest.approx(1.0 + root, rel=1e-13)
        assert th.Q1 == pytest.approx(0.30718, abs=5e-6)
        assert th.Q2 == pytest.approx(1.69282, abs=5e-6)

    def test_single_operator_reduction(self):
        # Q1=0, Q2=4(p-1)/N, Q3=(p-1)(1+s)^2/(Ns), R=0
        for p in (1.5, 2.0, 3.0, 5.0):
            for N in (2, 3, 5):
                for s in (0.5, 1.0, 2.0):
                    th = product_thresholds(make(N=N, p=p, q=p, s=s, m=0.5))
                    assert th.R == 0.0
                    assert abs(th.Q1) <= 1e-14
                    assert th.Q2 == pytest.approx(4.0 * (p - 1.0) / N, rel=1e-14)
                    assert th.Q3 == pytest.approx(
                        (p - 1.0) * (1.0 + s) ** 2 / (N * s), rel=1e-14
                    )
                    assert th.a is None  # comparison ratio degenerates at p=q

    def test_discriminant_failure(self):
        th = product_thresholds(make(p=3.0, q=2.0))
        assert th.R == pytest.approx(5.0, rel=1e-14)
        assert not th.discriminant_ok  # 4 < 20
        assert th.Q1 is None and th.Q2 is None and th.Q3 is None and th.a is None

    def test_undefined_at_s_zero(self):
        th = product_thresholds(make(s=0.0))
        assert th.Q3 is None and th.a is None
        assert th.Q1 is not None

    def test_root_algebra_random(self, rng):
        for _ in range(2000):
            inst = sample_admissible_product(rng)
            th = product_thresholds(inst)
            assert th.Q1 <= th.Q2
            target = 4.0 * (inst.q - 1.0) / inst.N
            assert abs(th.Q1 + th.Q2 - target) <= 1e-12 * (1.0 + abs(th.Q2))
            assert abs(th.Q1 * th.Q2 - th.R) <= 1e-12 * (1.0 + th.R)

    def test_kind_guard(self):
        with pytest.raises(AdmissibilityError):
            product_thresholds(make(kind="sum", M=1.0))

    def test_operator_gap_vanishes_only_at_p_eq_q(self):
        assert operator_gap(3, 2.0, 2.0) == 0.0
        assert operator_gap(3, 2.5, 2.0) > 0.0


class TestSumThresholds:
    def make_sum(self, **kw):
        base = dict(N=2, p=2.0, q=2.0, s=1.0, m=1.0, M=1.0)
        base.update(kw)
        return ProblemInstance(kind="sum", **base)

    def test_single_operator_reduction(self):
        for p in (1.5, 2.0, 3.0, 5.0):
            for N in (2, 3, 5):
                th = sum_thresholds(self.make_sum(N=N, p=p, q=p))
                assert th.delta_pq == pytest.approx(4.0 * (p - 1.0) ** 2, rel=1e-14)
                assert th.s_minus == pytest.approx(p - 1.0, rel=1e-14)
                assert th.s_plus == pytest.approx((N + 4.0) * (p - 1.0) / N, rel=1e-14)
                assert th.m_max == pytest.approx((N + 2.0) * (p - 1.0) / N, rel=1e-14)

    def test_worked_examples(self):
        th = sum_thresholds(self.make_sum(N=2))
        assert (th.delta_pq, th.s_minus, th.s_plus, th.m_max) == (4.0, 1.0, 3.0, 2.0)
        th3 = sum_thresholds(self.make_sum(N=3))
        assert th3.s_plus == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert th3.m_max == pytest.approx(5.0 / 3.0, rel=1e-14)

    def test_negative_discriminant_leaves_window_unset(self):
        th = sum_thresholds(self.make_sum(N=2, p=2.5, q=2.0))
        assert th.delta_pq < 0.0
        assert th.s_minus is None and th.s_plus is None
        assert th.gap_ok  # N(p-q)=1 < 2

    def test_window_ordering_random(self, rng):
        for _ in range(2000):
            N = int(rng.integers(2, 6))
            q = 1.2 + 2.0 * rng.random()
            p = q + 0.5 * rng.random()
            th = sum_thresholds(self.make_sum(N=N, p=p, q=q))
            if th.delta_pq > 0.0:
                assert th.s_minus < th.s_plus

    def test_kind_guard(self):
        with pytest.raises(AdmissibilityError):
            sum_thresholds(make())
