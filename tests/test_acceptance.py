"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime; the
single exploratory criterion (near-boundary rate saturation) downgrades
to a warning with the profile attached, as specified.
"""

import json
import time
import warnings

import numpy as np
import pytest

from pqliouville import (
    CATALOG,
    ProblemInstance,
    beta1,
    beta2,
    beta2_large_b_limit,
    b_from_t,
    bochner_check,
    change_of_variable_check,
    default_fit_window,
    fit_blowup_exponent,
    gamma_exponent,
    gradient_vs_distance,
    il_gamma_lo,
    manufactured_source,
    product_thresholds,
    product_trinomial,
    refinement_order,
    scaling_check,
    select_b_product,
    solve_radial,
    sum_thresholds,
    t_from_b,
    verify_negativity,
    RadialProblem,
)
from pqliouville.cli import main as cli_main
from oracles import (
    constant_rhs_profile,
    il_gamma_lo_bisection,
    sample_admissible_pair,
    sample_admissible_product,
    sample_case3_discriminant_fail,
    sample_theorem14_instance,
)


def report_line(name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")


def test_single_operator_reductions():
    started = time.perf_counter()
    ok = True
    try:
        for p in (1.5, 2.0, 3.0, 5.0):
            for N in (2, 3, 5):
                for s in (0.5, 1.0, 2.0):
                    prod = product_thresholds(
                        ProblemInstance(N=N, p=p, q=p, kind="product", s=s, m=0.5)
                    )
                    assert prod.R == pytest.approx(0.0, abs=1e-12)
                    assert prod.Q1 == pytest.approx(0.0, abs=1e-12)
                    assert prod.Q2 == pytest.approx(4.0 * (p - 1.0) / N, rel=1e-12)
                    assert prod.Q3 == pytest.approx(
                        (p - 1.0) * (1.0 + s) ** 2 / (N * s), rel=1e-12
                    )
                    summ = sum_thresholds(
                        ProblemInstance(N=N, p=p, q=p, kind="sum", s=s, m=0.5, M=1.0)
                    )
                    assert summ.delta_pq == pytest.approx(4.0 * (p - 1.0) ** 2, rel=1e-12)
                    assert summ.s_minus == pytest.approx(p - 1.0, rel=1e-12)
                    assert summ.s_plus == pytest.approx((N + 4.0) * (p - 1.0) / N, rel=1e-12)
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("p=q reductions", ok and elapsed < 1.0, elapsed, 1.0)
    assert elapsed < 1.0


def test_threshold_algebra(rng):
    started = time.perf_counter()
    ok = True
    try:
        for _ in range(10_000):
            inst = sample_admissible_product(rng)
            th = product_thresholds(inst)
            target = 4.0 * (inst.q - 1.0) / inst.N
            assert abs(th.Q1 + th.Q2 - target) <= 1e-12 * (1.0 + abs(th.Q2))
            assert abs(th.Q1 * th.Q2 - th.R) <= 1e-12 * (1.0 + th.R)
            co = product_trinomial(inst, 0.0)
            factored = (th.Q - th.Q1) * (th.Q - th.Q2) / (th.Q * th.Q)
            assert abs(co.L1 - factored) <= 1e-12 * (1.0 + abs(factored))
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("threshold algebra", ok and elapsed < 5.0, elapsed, 5.0)
    assert elapsed < 5.0


def test_constructive_vs_oracle(rng):
    started = time.perf_counter()
    ok = True
    try:
        for _ in range(1000):
            inst = sample_theorem14_instance(rng)
            sel = select_b_product(inst)
            assert sel.feasible, f"selection infeasible for {inst}"
            co = product_trinomial(inst, 0.0)
            _, value_min = verify_negativity(co, 2.0 * max(sel.t_star, 1.0), 20_000)
            assert value_min <= -sel.kappa / 2.0
        for _ in range(1000):
            inst = sample_case3_discriminant_fail(rng)
            co = product_trinomial(inst, 0.0)
            t_wide = max(10.0, 4.0 * abs(co.L2) / (2.0 * co.L1))
            _, value_min = verify_negativity(co, t_wide, 20_000)
            assert value_min >= -1e-9
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("constructive vs oracle", ok and elapsed < 60.0, elapsed, 60.0)
    assert elapsed < 60.0


def test_exponent_identities(rng):
    started = time.perf_counter()
    ok = True
    example = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)
    try:
        assert abs(beta2(example, 1e6) - beta2_large_b_limit(example)) <= 1e-4
        assert beta2_large_b_limit(example) == pytest.approx(0.8, abs=1e-14)
        for _ in range(10_000):
            inst, b = sample_admissible_pair(rng)
            t = t_from_b(inst, b)
            assert abs(b_from_t(inst, t) - b) <= 1e-12 * (1.0 + abs(b))
            corr = (b - 1.0) * (inst.p - inst.q) * (inst.m - inst.q) / (
                b * inst.combined_exponent + inst.q - inst.m
            )
            b2 = beta2(inst, b)
            assert abs(b2 - beta1(inst, b) - corr) <= 1e-12 * (1.0 + abs(b2))
            assert abs(beta2(inst, 1e6) - beta2_large_b_limit(inst)) <= 1e-4 * (
                1.0 + abs(beta2_large_b_limit(inst))
            )
            g = gamma_exponent(inst, b)
            expected = min(1.0, beta1(inst, b)) if b <= 1.0 else min(1.0, b2)
            assert g == expected
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("exponent identities", ok and elapsed < 5.0, elapsed, 5.0)
    assert elapsed < 5.0


def test_rigidity_window():
    started = time.perf_counter()
    ok = True
    try:
        for q in np.linspace(1.1, 3.5, 15):
            for m in np.linspace(0.3, 6.0, 15):
                oracle = il_gamma_lo_bisection(q, m)
                if m <= q:
                    assert oracle is None
                else:
                    assert abs(oracle - il_gamma_lo(q, m)) <= 1e-12
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("rigidity window", ok and elapsed < 1.0, elapsed, 1.0)
    assert elapsed < 1.0


def test_identity_suite():
    started = time.perf_counter()
    ok = True
    field = CATALOG["offset_sine"]
    try:
        for b in (0.5, 1.0, 2.0, 5.0):
            for p in (2.2, 3.0):
                for q in (1.5, 2.0):
                    coarse = change_of_variable_check(field.sample(65), b, p, q)
                    fine = change_of_variable_check(field.sample(129), b, p, q)
                    assert coarse.passed and fine.passed, (b, p, q)
                    order = refinement_order(coarse, fine)
                    report = fine._replace(observed_order=order)
                    assert 1.7 <= report.observed_order <= 2.3, (b, p, q, order)
        for name in ("saddle", "offset_sine", "sine_product"):
            rep = bochner_check(CATALOG[name].sample(129), 2)
            assert rep.passed, name
        for fname, k, alpha, p in (
            ("radial_square", 2.0, 1.0, 2.0),
            ("sine_x1", 0.5, 2.0, 3.0),
        ):
            rep = scaling_check(CATALOG[fname], k, alpha, p, n=65)
            assert rep.passed and rep.rel_error <= rep.tolerance_used
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("identity suite", ok and elapsed < 120.0, elapsed, 120.0)
    assert elapsed < 120.0


def _mms_ratio(inst, u, du, d2u):
    f = manufactured_source(inst.N, inst.p, inst.q, du, d2u)
    errs = []
    for n in (128, 256):
        prob = RadialProblem(inst, 1.0, 2.0, u(1.0), u(2.0), mesh_n=n,
                             reg_eps=1e-10, rhs_override=f)
        sol = solve_radial(prob)
        assert sol.converged
        errs.append(float(np.max(np.abs(sol.u - u(sol.r)))))
    return errs[0] / errs[1]


def test_radial_solver():
    started = time.perf_counter()
    ok = True
    warn_text = None
    try:
        # manufactured-solution convergence for the problem catalog
        amplitude, freq = 0.2, np.pi

        def u(r):
            return 2.0 + (r - 1.0) + amplitude * np.sin(freq * (r - 1.0))

        def du(r):
            return 1.0 + amplitude * freq * np.cos(freq * (r - 1.0))

        def d2u(r):
            return -amplitude * freq * freq * np.sin(freq * (r - 1.0))

        for p, q, N in ((2.0, 2.0, 2), (2.5, 1.5, 2), (3.0, 2.0, 3), (2.5, 2.0, 3)):
            inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=1.0, m=0.0)
            ratio = _mms_ratio(inst, u, du, d2u)
            assert 3.2 <= ratio <= 4.8, (p, q, N, ratio)

        # constant-source semi-analytic oracle across the exponent grid
        for p in (2.0, 2.5, 3.0):
            for q in (1.5, 2.0):
                for N in (2, 3):
                    inst = ProblemInstance(N=N, p=p, q=q, kind="product", s=1.0, m=0.0)
                    prob = RadialProblem(
                        inst, 1.0, 2.0, 0.0, 1.0, mesh_n=128, reg_eps=1e-10,
                        rhs_override=lambda r, uu, dd: np.full_like(r, 2.0),
                    )
                    sol = solve_radial(prob)
                    assert sol.converged
                    oracle = constant_rhs_profile(N, p, q, 1.0, 2.0, 0.0, 1.0, 2.0, sol.r)
                    h = sol.r[1] - sol.r[0]
                    rel = np.max(np.abs(sol.u - oracle)) / np.max(np.abs(oracle))
                    assert rel <= 10.0 * h * h, (p, q, N, rel)

        # exploratory: near-boundary rate saturation for the gradient reaction
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
        mesh = 2048
        prob = RadialProblem(inst, 1.0, 2.0, -10.0 * mesh, 0.0, mesh_n=mesh, reg_eps=1e-8)
        sol = solve_radial(prob)
        assert sol.converged
        profile = gradient_vs_distance(sol)
        # |du| grows monotonically toward the steep boundary
        window_g = profile[profile[:, 0] <= 0.1, 1]
        assert np.all(np.diff(window_g) <= 0.0)
        # the higher-order flux dominates where the gradient is large
        big = np.abs(sol.du) >= 10.0
        frac = np.abs(sol.du[big]) ** (inst.q - 1.0) / (
            np.abs(sol.du[big]) ** (inst.p - 1.0) + np.abs(sol.du[big]) ** (inst.q - 1.0)
        )
        assert np.all(frac <= np.abs(sol.du[big]) ** (inst.q - inst.p) * (1.0 + 1e-12))
        fit = fit_blowup_exponent(profile, default_fit_window(sol))
        predicted = 1.0 / (inst.m - inst.p + 1.0)
        deviation = abs(fit.fitted_exponent - predicted) / predicted
        if deviation > 0.15:
            head = ", ".join(f"({d:.4g}, {g:.4g})" for d, g in profile[:6])
            warn_text = (
                f"exploratory rate criterion outside the 15% band: fitted "
                f"{fit.fitted_exponent:.4f} vs predicted {predicted:.4f} "
                f"(r^2={fit.r_squared:.4f}); profile head: {head}"
            )
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("radial solver", ok and elapsed < 600.0, elapsed, 600.0)
        if warn_text:
            warnings.warn(warn_text)
    assert elapsed < 600.0


def test_report_determinism(tmp_path):
    started = time.perf_counter()
    ok = True
    try:
        par = tmp_path / "sweep.par"
        par.write_text(
            "kind = product\nN = 2 3\np = 1.5 2 3\nq = p\ns = 0.5 1\nm = 0\n"
        )
        blobs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = cli_main([
                "sweep", "--params", str(par), "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        json.loads(blobs[0])  # well-formed
    except AssertionError:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - started
        report_line("report determinism", ok, elapsed, 30.0)
