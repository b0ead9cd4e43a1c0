import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqliouville import (
    AdmissibilityError,
    ProblemInstance,
    classify,
    estimate_rate,
    product_thresholds,
    select_b_product,
    sum_selection,
)
from pqliouville.params import expand_instances, parse_params
from pqliouville.selection import product_shared_rows
from oracles import (
    instances,
    near_window_root,
    sample_admissible_product,
    sample_theorem14_instance,
)

PRODUCT_GRID = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "product_grid.par"


def product(**kw):
    base = dict(N=2, p=2.2, q=2.0, s=0.5, m=2.0)
    base.update(kw)
    return ProblemInstance(kind="product", **base)


class TestWorkedExamples:
    def test_product_case_a(self):
        decision = classify(product())
        assert decision.theorem == "thm_product_A"
        assert decision.liouville
        assert decision.estimate_target == "|grad u^(1/b)|"
        assert decision.estimate_exponent == pytest.approx(
            2.0 / decision.exponents.gamma
        )
        # Q = 1.5 sits inside the window reported by the trace
        assert any(
            c.label == "open_window" and c.passed for c in decision.conditions
        )

    def test_subnormal_s_leaves_q3_unbounded(self):
        # s * (4(p-1)/N) underflows to 0 here; Q3's s -> 0+ limit is +inf
        inst = product(p=1.25, q=1.25, s=5e-324, m=0.0)
        assert product_thresholds(inst).Q3 == math.inf
        assert classify(inst).theorem
        assert select_b_product(inst).case_tag

    def test_hamilton_jacobi(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        decision = classify(inst)
        assert decision.theorem == "thm_HJ"
        assert decision.liouville
        assert decision.estimate_exponent == pytest.approx(2.0)
        assert decision.estimate_target == "|grad u|"
        # the rigidity theorem also applies (m > q) and is reported
        assert "thm_IL" in decision.matches

    def test_sum_growth(self):
        inst = ProblemInstance(N=2, p=2.5, q=2.0, kind="sum", s=1.5, m=3.5, M=1.0)
        decision = classify(inst)
        assert decision.theorem == "thm_sum_growth"
        assert not decision.liouville  # growth bound only
        assert decision.estimate_exponent == pytest.approx(1.0 / 3.0)
        assert decision.estimate_target == "|grad u|"

    def test_saturated_gamma_gives_rate_two(self):
        # p=q with m > q pushes beta above 1, so gamma clamps to 1 and
        # the dist-power is exactly 2
        inst = ProblemInstance(N=2, p=3.0, q=3.0, kind="product", s=0.5, m=3.5)
        decision = classify(inst)
        assert decision.liouville
        assert decision.exponents.gamma == 1.0
        assert decision.estimate_exponent == 2.0
        assert decision.estimate_target == "|grad u^(1/b)|"

    def test_sum_liouville(self):
        inst = ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0)
        decision = classify(inst)
        assert decision.theorem == "thm_sum_liouville"
        assert decision.liouville
        assert decision.estimate_exponent == pytest.approx(2.0 / decision.exponents.gamma)

    def test_rigidity_requires_strict_gradient_power(self):
        # m = q fails the strict inequality of the bounded-solution theorem
        inst = product(m=2.0, q=2.0)
        decision = classify(inst)
        row = [c for c in decision.conditions if c.theorem == "thm_IL"]
        assert len(row) == 1 and not row[0].passed

    def test_rigidity_wins_when_product_window_fails(self):
        # discriminant fails (p - q too large) but m > q
        inst = product(p=3.0, m=2.5)
        decision = classify(inst)
        assert decision.theorem == "thm_IL"
        assert decision.liouville
        with pytest.raises(AdmissibilityError, match="no estimate available"):
            estimate_rate(decision)

    def test_hj_outranks_rigidity_for_its_own_kind(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        decision = classify(inst)
        assert decision.matches[0] == "thm_HJ"

    def test_rigidity_only_hj_range(self):
        # q < m <= p-1: the dedicated gradient bound fails, rigidity holds
        inst = ProblemInstance(N=2, p=3.5, q=2.0, kind="hamilton_jacobi", m=2.3)
        decision = classify(inst)
        assert decision.theorem == "thm_IL"
        assert decision.liouville

    def test_sum_with_zero_beta2_limit_denominator(self):
        # s - q + 1 rounds to exactly 0 although s != q - 1 in floats
        inst = ProblemInstance(N=2, p=1.3, q=1.3, kind="sum", s=0.3, m=0.2, M=1.0)
        decision = classify(inst)
        assert decision.theorem == "none"
        row = [c for c in decision.conditions if c.label == "beta2_limit_positive"]
        assert len(row) == 1 and not row[0].passed and row[0].rendering.endswith("-inf")

    def test_none_with_full_trace(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=1.5)
        decision = classify(inst)
        assert decision.theorem == "none"
        assert not decision.liouville
        assert decision.estimate_exponent is None
        assert decision.conditions  # trace retained
        with pytest.raises(AdmissibilityError):
            estimate_rate(decision)


# Q is 1 ulp below Q2: it routes to case 1, where L1 evaluates to 0.
PRODUCT_L1_ZERO = product(N=3, p=2.159947555903314, q=2.159947555903314, s=0.5175873612214492,
                          m=2.1889569358862833)
# The theorems each kind is tested against, strongest first.
PRECEDENCE = {
    "hamilton_jacobi": ("thm_HJ", "thm_IL"),
    "product": ("thm_product_A", "thm_product_B", "thm_product_C", "thm_IL"),
    "sum": ("thm_sum_liouville", "thm_sum_growth"),
}


class TestMatchesFollowTheRows:
    """A theorem matches exactly when it filed rows of its own and every row
    it owns passed; matches come in precedence order."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(*map(instances, PRECEDENCE), near_window_root()), st.booleans())
    @example(PRODUCT_L1_ZERO, False)
    @example(PRODUCT_L1_ZERO, True)
    @example(product(p=2.0, q=2.0, m=2.5), False)  # Q = Q2 exactly
    @example(product(p=2.0, q=2.0, m=2.5), True)
    @example(product(p=2.61, q=2.24, s=0.06, m=1.7), True)  # numeric case C
    @example(ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0), False)
    def test_matches_are_the_all_passed_candidates(self, inst, optimal_search):
        decision = classify(inst, optimal_search=optimal_search)
        filed = {c.theorem for c in decision.conditions}
        expected = [theorem for theorem in PRECEDENCE[inst.kind] if theorem in filed
                    and all(c.passed for c in decision.conditions_for(theorem))]
        assert list(decision.matches) == expected
        assert decision.theorem == (expected[0] if expected else "none")


class TestOptimalSearch:
    def test_sharper_numeric_region(self):
        # below the stated (non-optimal) lower window but numerically feasible
        inst = product(p=2.61, q=2.24, s=0.06, m=1.7)
        stated = classify(inst, optimal_search=False)
        numeric = classify(inst, optimal_search=True)
        assert stated.theorem == "none"
        assert numeric.theorem == "thm_product_C"
        assert numeric.liouville

    def test_stated_window_implies_numeric(self, rng):
        for _ in range(60):
            inst = sample_theorem14_instance(rng)
            stated = classify(inst, optimal_search=False)
            if stated.theorem == "thm_product_C":
                numeric = classify(inst, optimal_search=True)
                assert numeric.theorem == "thm_product_C"
                assert numeric.liouville


class TestMonotoneHypotheses:
    def test_liouville_requires_all_conditions(self, rng):
        # randomized instances across kinds: liouville=true only with a
        # fully passing condition block for the matched theorem
        for _ in range(800):
            kind = ("product", "sum", "hamilton_jacobi")[int(rng.integers(0, 3))]
            N = int(rng.integers(2, 6))
            q = 1.2 + 2.0 * rng.random()
            p = q + rng.random()
            inst = ProblemInstance(
                N=N,
                p=p,
                q=q,
                kind=kind,
                s=2.5 * rng.random(),
                m=3.5 * rng.random(),
                M=rng.random(),
            )
            decision = classify(inst)
            if decision.liouville:
                assert decision.theorem not in ("none", "thm_sum_growth")
                owned = decision.conditions_for(decision.theorem)
                assert owned and all(c.passed for c in owned)
            if decision.theorem == "none":
                assert not decision.liouville

    def test_matched_product_reports_selection(self, rng):
        for _ in range(100):
            inst = sample_theorem14_instance(rng)
            decision = classify(inst)
            assert decision.selection is not None and decision.selection.feasible
            assert decision.exponents is not None
            assert decision.exponents.gamma > 0.0

    def test_estimate_rate_roundtrip(self, rng):
        for _ in range(100):
            inst = sample_admissible_product(rng)
            decision = classify(inst)
            if decision.estimate_exponent is not None:
                rate = estimate_rate(decision)
                assert rate.rate == decision.estimate_exponent
                assert rate.target == decision.estimate_target


def _rows(conditions):
    return [(c.label, c.rendering, c.passed) for c in conditions]


CASE_THEOREM = {
    "Q on window boundary": "thm_product_B",
    "Q1 < Q < Q2": "thm_product_A",
    "Q outside [Q1, Q2]": "thm_product_C",
}


class TestSelectionAgreement:
    """Classify and the constructive selection report the same hypothesis rows."""

    @settings(max_examples=100, deadline=None)
    @given(instances("product"))
    @example(product())  # inside the window
    @example(product(p=2.0, q=2.0, m=2.5))  # Q = Q2 exactly
    @example(product(p=2.61, q=2.24, s=0.06, m=1.7))  # below Q1
    def test_product_shared_rows(self, inst):
        decision = classify(inst)
        selection = select_b_product(inst)
        shared = _rows(c for c in decision.conditions if c.theorem == "product_shared")
        assert shared == _rows(selection.trace[:5])

    @settings(max_examples=100, deadline=None)
    @given(instances("product"))
    @example(product())
    @example(product(p=2.0, q=2.0, m=2.5))
    @example(product(p=2.61, q=2.24, s=0.06, m=1.7))
    def test_product_case_theorem(self, inst):
        decision = classify(inst)
        selection = select_b_product(inst)
        if len(selection.trace) <= 5:
            return  # a shared hypothesis failed before the case split
        case = selection.trace[5]
        assert case.label == "case"
        expected = [v for k, v in CASE_THEOREM.items() if case.rendering.startswith(k)]
        cases = {c.theorem for c in decision.conditions if c.theorem.startswith("thm_product_")}
        assert cases == set(expected)

    @settings(max_examples=100, deadline=None)
    @given(instances("sum"))
    @example(ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", s=2.0, m=1.5, M=1.0))
    def test_sum_liouville_rows(self, inst):
        decision = classify(inst)
        selection = sum_selection(inst)
        liouville = [c for c in decision.conditions if c.theorem == "thm_sum_liouville"]
        labels = [c.label for c in liouville]
        rows = _rows(liouville[labels.index("gap"):labels.index("m_window") + 1])
        if rows[0][2] and rows[1][2]:
            assert rows == _rows(selection.trace[:5])
        else:
            assert rows[:2] == _rows(selection.trace)

    @pytest.mark.parametrize("optimal", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(instances("product"), instances("sum"), near_window_root()))
    @example(product(p=2.0, q=2.0, m=2.5))  # Q = Q2 exactly
    def test_kept_selection_is_the_standalone_one(self, optimal, inst):
        """The selection classify keeps from the rows it filed is the one a
        library caller gets, and the decision has exponents exactly when
        that selection is feasible."""
        decision = classify(inst, optimal_search=optimal)
        kept = decision.selection
        if kept is not None:
            assert kept == (select_b_product(inst) if inst.kind == "product" else sum_selection(inst))
        assert (decision.exponents is not None) == (kept is not None and kept.feasible)


def test_optimal_search_selects_once_per_instance(monkeypatch):
    """The window_numeric row's selection is the one a passing theorem C keeps."""
    module = sys.modules["pqliouville.classify"]  # pqliouville.classify is the function
    calls = []

    def counted(inst, th, shared):
        calls.append(inst)
        assert th == product_thresholds(inst)
        assert shared == product_shared_rows(inst, th)
        return select_b_product(inst, th, shared)

    monkeypatch.setattr(module, "select_b_product", counted)
    reused = 0
    for inst in expand_instances(parse_params(PRODUCT_GRID.read_text())):
        calls.clear()
        decision = classify(inst, optimal_search=True)
        assert calls in ([], [inst])
        labels = {c.label for c in decision.conditions_for("thm_product_C")}
        if {"window_numeric", "selection_feasible"} <= labels:
            reused += 1
            assert decision.selection == select_b_product(inst)
    assert reused > 0


@pytest.mark.parametrize("optimal", [False, True])
def test_thresholds_computed_once_per_instance(monkeypatch, optimal):
    """classify hands the threshold record and the hypothesis rows it built
    to the selection: each is built once per instance of its kind."""
    calls = {}

    def counted(name, function):
        return lambda inst, *rest: calls.setdefault(name, []).append(inst) or function(inst, *rest)

    for module in (sys.modules["pqliouville.classify"], sys.modules["pqliouville.selection"]):
        for name in ("product_thresholds", "sum_thresholds", "product_shared_rows",
                     "sum_liouville_rows"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for grid, built in ((PRODUCT_GRID, ("product_thresholds", "product_shared_rows")),
                        (PRODUCT_GRID.with_name("sum_grid.par"),
                         ("sum_thresholds", "sum_liouville_rows"))):
        selected = 0
        for inst in expand_instances(parse_params(grid.read_text())):
            calls.clear()
            selected += classify(inst, optimal_search=optimal).selection is not None
            assert calls == {name: [inst] for name in built}
        assert selected > 0
