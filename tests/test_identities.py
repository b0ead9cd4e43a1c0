import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pqliouville import (
    CATALOG,
    FieldError,
    IdentityReport,
    bochner_check,
    change_of_variable_check,
    change_of_variable_checks,
    grid_field,
    refinement_order,
    scaling_check,
)
from pqliouville.cli import _identity_suite
from pqliouville import identities, operators
from pqliouville.operators import grad_squared, sample_function
from oracles import affine_field, reference_dot, reference_gradient_components, reference_laplacian


class TestChangeOfVariable:
    def test_spot_checks_with_order(self):
        field = CATALOG["offset_sine"]
        for b, p, q in ((2.0, 2.5, 2.0), (0.5, 2.2, 1.5), (5.0, 3.0, 2.0)):
            coarse = change_of_variable_check(field.sample(65), b, p, q)
            fine = change_of_variable_check(field.sample(129), b, p, q)
            assert coarse.passed and fine.passed
            order = refinement_order(coarse, fine)
            assert 1.7 <= order <= 2.3
            report = fine._replace(observed_order=order)
            assert report.observed_order == order

    def test_identity_collapse_at_b_one_single_operator(self):
        # at p=q=2, b=1 both assemblies reduce to the same discrete
        # Laplacian and agree to machine precision
        report = change_of_variable_check(CATALOG["offset_sine"].sample(49), 1.0, 2.0, 2.0)
        assert report.rel_error <= 1e-12

    def test_classical_product_rule(self):
        # p=q=2, b=2: both sides equal 2(2 v lap v + 2 z)
        report = change_of_variable_check(CATALOG["offset_sine"].sample(65), 2.0, 2.0, 2.0)
        assert report.passed
        assert report.rel_error <= 1e-4

    def test_order_is_none_when_an_error_is_exactly_zero(self):
        # b=1, p=q=2: both sides are the same discrete Laplacian at every n
        field = CATALOG["offset_sine"]
        coarse = change_of_variable_check(field.sample(17), 1.0, 2.0, 2.0)
        fine = change_of_variable_check(field.sample(33), 1.0, 2.0, 2.0)
        assert coarse.rel_error == 0.0 and fine.rel_error == 0.0
        assert refinement_order(coarse, fine) is None
        assert fine._replace(observed_order=None).observed_order is None
        nonzero = IdentityReport(1e-3, 1e-3, True, 1.0)
        zero = IdentityReport(0.0, 0.0, True, 1.0)
        assert refinement_order(zero, nonzero) is None
        assert refinement_order(nonzero, zero) is None
        assert refinement_order(nonzero, IdentityReport(2.5e-4, 2.5e-4, True, 1.0)) == 2.0

    def test_degenerate_gradient_rejected(self):
        flat = grid_field(np.full((16, 16), 2.0), 1.0 / 15.0)
        with pytest.raises(FieldError, match="grad v"):
            change_of_variable_check(flat, 2.0, 2.5, 2.0)

    @pytest.mark.parametrize("b, p, q", [(np.nan, 3.0, 2.0), (2.0, np.inf, 2.0),
                                         (2.0, 3.0, -np.inf)])
    def test_non_finite_exponents_are_refused(self, b, p, q):
        # Refused up front, with no RuntimeWarning (an error under pytest)
        # and before any pass over v: a negative v is not reached.
        with pytest.raises(FieldError, match="b, p and q must be finite"):
            change_of_variable_check(CATALOG["offset_sine"].sample(17), b, p, q)
        negative = grid_field(-np.ones((9, 9)), 0.1)
        with pytest.raises(FieldError, match="b, p and q must be finite"):
            change_of_variable_checks(negative, [(2.0, 3.0, 2.0, None), (b, p, q, None)])
        # b = 0 is refused first.
        with pytest.raises(FieldError, match="b != 0"):
            change_of_variable_checks(negative, [(b, p, q, None), (0.0, 3.0, 2.0, None)])

    def test_positivity_and_b_guards(self):
        field = CATALOG["saddle"].sample(16)
        with pytest.raises(FieldError):
            change_of_variable_check(field, 2.0, 2.5, 2.0)
        with pytest.raises(FieldError):
            change_of_variable_check(CATALOG["offset_sine"].sample(16), 0.0, 2.5, 2.0)


class TestBochner:
    def test_quadratic_saddle_has_constant_slack(self):
        # v = x^2 - y^2: (1/2) lap z = |D2 v|^2 = 8 exactly, rhs = 0
        field = CATALOG["saddle"].sample(33)
        h = field.spacing
        grads = reference_gradient_components(field.values, h)
        lhs = 0.5 * reference_laplacian(reference_dot(grads, grads), h)
        lap_v = reference_laplacian(field.values, h)
        rhs = lap_v**2 / 2 + reference_dot(reference_gradient_components(lap_v, h), grads)
        inner = (slice(2, -2), slice(2, -2))
        assert lhs[inner] == pytest.approx(8.0, abs=1e-10)
        assert rhs[inner] == pytest.approx(0.0, abs=1e-10)
        report = bochner_check(field, 2)
        assert report.passed and report.rel_error == 0.0

    def test_affine_both_sides_vanish(self):
        field = sample_function(affine_field((2.0, -1.0), 5.0), 0.0, 1.0, 17)
        report = bochner_check(field, 2)
        assert report.passed
        assert report.max_abs_error == 0.0

    def test_sine_field_slack_floor(self):
        # discrete slack may dip below zero only at the O(h^2) level
        field = CATALOG["sine_product"].sample(129)
        report = bochner_check(field, 2)
        assert report.passed
        assert report.max_abs_error <= 1e-3

    def test_wrong_dimension_constant_fails_inequality(self):
        # using N much larger than the true dimension keeps the bound valid
        field = CATALOG["sine_product"].sample(65)
        report = bochner_check(field, 100)
        assert report.passed

    @pytest.mark.parametrize("N", [0, -1, 2.5, True])
    def test_dimension_constant_must_be_an_integer_at_least_the_dimension(self, N):
        # N = 0 divided by zero; -1, 2.5 and True passed with rel_error 0.
        field = CATALOG["offset_sine"].sample(17)
        with pytest.raises(FieldError, match=f"N must be an integer .* not {N!r}$"):
            bochner_check(field, N)

    def test_dimension_constant_at_least_the_grid_dimension(self):
        field = CATALOG["offset_sine"].sample(17, 3)
        with pytest.raises(FieldError, match="grid dimension 3, not 2"):
            bochner_check(field, 2)
        assert bochner_check(field, 3).passed

    def test_no_finite_node_is_refused(self):
        # z = |grad v|^2 overflows everywhere, so neither side is finite at any node.
        field = CATALOG["offset_sine"].sample(17)
        huge = grid_field(1e200 * field.values, field.spacing)
        with np.errstate(all="ignore"):  # a RuntimeWarning would fail the test
            with pytest.raises(FieldError, match="not smooth"):
                bochner_check(huge, 2)
            with pytest.raises(FieldError, match="not smooth"):
                change_of_variable_check(huge, 2.0, 3.0, 2.0)


class TestScaling:
    def test_quadratic_doubling(self):
        report = scaling_check(CATALOG["radial_square"], 2.0, 1.0, 2.0)
        assert report.passed
        assert report.rel_error <= 1e-10  # discrete identity is exact

    def test_sine_contraction_cubic(self):
        report = scaling_check(CATALOG["sine_x1"], 0.5, 2.0, 3.0)
        assert report.passed
        assert report.rel_error <= 1e-9

    def test_identity_scaling(self):
        report = scaling_check(CATALOG["sine_x1"], 1.0, 1.3, 2.4)
        assert report.rel_error == 0.0

    def test_k_guard(self):
        with pytest.raises(FieldError):
            scaling_check(CATALOG["sine_x1"], -1.0, 1.0, 2.0)


class TestSharedDerivatives:
    def test_check_derivatives_match_the_operators(self, monkeypatch):
        field = CATALOG["offset_sine"].sample(17, 3)
        v, h = field.values, field.spacing
        grads = reference_gradient_components(v, h)
        z = grad_squared(v, h)
        assert np.array_equal(z, reference_dot(grads, grads), equal_nan=True)
        lap = reference_laplacian(v, h)
        # The checks build their derivatives block by block, never whole-grid.
        for name in ("gradient_dot", "laplacian", "flux_divergence"):
            assert not hasattr(identities, name) and not hasattr(operators, name)
        dots, laps = [], []

        # Copies: a check may reuse a derivative's memory once it has read it.
        def kept_dot(a, b, h, i0, i1, out=None, _original=identities._dot_planes):
            dots.append(_original(a, b, h, i0, i1, out))
            return dots[-1].copy()

        def kept_lap(planes, h, _original=identities._laplacian_block):
            laps.append(_original(planes, h))
            return laps[-1].copy()

        monkeypatch.setattr(identities, "_dot_planes", kept_dot)
        monkeypatch.setattr(identities, "_laplacian_block", kept_lap)
        change_of_variable_check(field, 2.0, 3.0, 2.0)
        bochner_check(field, 3)
        # One block of ring-2 planes [2, 15), each derivative on the planes it
        # is read on: the batch's z for its floor, z with halo planes, lap v and
        # <grad z, grad v>; then Bochner's z with halo planes, lap z, lap v with
        # halo planes and <grad lap v, grad v>.
        ring = (slice(None), slice(1, -1), slice(1, -1))
        expected_dots = [z[2:15], z[1:16], reference_dot(reference_gradient_components(z, h), grads)[2:15],
                         z[1:16], reference_dot(reference_gradient_components(lap, h), grads)[2:15][ring]]
        expected_laps = [lap[2:15][ring], reference_laplacian(z, h)[2:15][ring], lap[1:16][ring]]
        for built, expected in ((dots, expected_dots), (laps, expected_laps)):
            assert len(built) == len(expected)
            for ours, ref in zip(built, expected):
                assert np.array_equal(ours, ref, equal_nan=True)

    def test_each_derivative_is_computed_once_per_field(self, monkeypatch):
        calls = []
        for name in ("_laplacian_block", "_dot_planes"):
            def counted(*args, _name=name, _original=getattr(identities, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(identities, name, counted)
        cases = [(2.0, 3.0, 2.0, None), (0.5, 2.2, 1.5, None), (5.0, 3.0, 1.5, None)]
        # One block, and blocks on the pool.
        for block_nodes, blocks in ((operators._BLOCK_NODES, 1), (250, 3)):
            monkeypatch.setattr(operators, "_BLOCK_NODES", block_nodes)
            field = CATALOG["offset_sine"].sample(33)
            assert len(operators.map_plane_blocks(lambda i0, i1: None, 2, 31, 29)) == blocks
            for check in (lambda: change_of_variable_check(field, 2.0, 3.0, 2.0),
                          lambda: change_of_variable_checks(field, cases)):
                calls.clear()
                check()
                # z twice a block (the floor pass, then with halo planes); lap v
                # and <grad z, grad v> once a block and batch, whatever the
                # number of cases.
                assert sorted(calls) == ["_dot_planes"] * 3 * blocks + ["_laplacian_block"] * blocks
            calls.clear()
            bochner_check(field, 2)
            # z and <grad lap v, grad v>, lap z and lap v, each once a block.
            assert sorted(calls) == ["_dot_planes"] * 2 * blocks + ["_laplacian_block"] * 2 * blocks

    def test_suite_rows_equal_independent_checks(self):
        n_coarse, factor = 17, 25.0
        n_fine = 2 * (n_coarse - 1) + 1
        rows, _ = _identity_suite(n_coarse, factor)
        assert len(rows) == 16 + 3 + 2
        for row in rows:
            params = row["params"]
            if row["check"] == "change_of_variable":
                b, p, q = params["b"], params["p"], params["q"]
                field = CATALOG["offset_sine"]
                coarse = change_of_variable_check(
                    field.sample(n_coarse), b, p, q, tolerance=factor / (n_coarse - 1) ** 2
                )
                fine = change_of_variable_check(
                    field.sample(n_fine), b, p, q, tolerance=factor / (n_fine - 1) ** 2
                )
                expected = fine._replace(observed_order=refinement_order(coarse, fine))
            elif row["check"] == "bochner":
                expected = bochner_check(
                    CATALOG[params["field"]].sample(n_fine), 2, tolerance=factor / (n_fine - 1) ** 2
                )
            else:
                f = CATALOG[params["field"]]
                expected = scaling_check(
                    f, params["k"], params["alpha"], params["p"], n=n_coarse,
                    tolerance=factor * ((f.hi - f.lo) / (n_coarse - 1)) ** 2,
                )
            assert row["report"] == expected.as_dict(), row


# One n^3 check in a fresh interpreter on one CPU (so one pool thread and
# one block's temporaries at a time): the tracemalloc peak of the check, in
# field sizes.  Whole-grid gradients and comparison copies took 11.6 at 65^3;
# whole-grid u, flux, lap v and <grad z, grad v> took 6.29 at 65^3 and 4.62
# at 97^3; a whole-grid z and blocks of 1<<16 nodes took 5.85 and 2.28.
PEAK_PROBE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import json, tracemalloc
from pqliouville import CATALOG, change_of_variable_check
field = CATALOG["offset_sine"].sample(int(sys.argv[1]), 3)
tracemalloc.start()
change_of_variable_check(field, 2.0, 3.0, 2.0)
print(json.dumps(tracemalloc.get_traced_memory()[1] / field.values.nbytes))
"""

# The identity suite at coarse resolution n, the same way, after importing
# the modules it loads: its tracemalloc peak in fine-field sizes.
SUITE_PROBE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import json, tracemalloc
from pqliouville import cli
cli._bind_heavy("fields", "identities")
n = int(sys.argv[1])
tracemalloc.start()
cli._identity_suite(n, 25.0)
print(json.dumps(tracemalloc.get_traced_memory()[1] / (8 * (2 * n - 1) ** 2)))
"""


# Sampling an n^3 catalogue field the same way: the tracemalloc peak of
# sample() in field sizes.
SAMPLE_PROBE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import json, tracemalloc
from pqliouville import CATALOG
n = int(sys.argv[1])
tracemalloc.start()
field = CATALOG["offset_sine"].sample(n, 3)
print(json.dumps(tracemalloc.get_traced_memory()[1] / field.values.nbytes))
"""


def probe_peak(probe: str, n: int) -> float:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe, str(n)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_check_peak_memory_is_bounded():
    # Blocks of 9 planes with z on two halo planes: 2.14.
    assert probe_peak(PEAK_PROBE, 65) <= 3.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_check_peak_memory_at_the_benchmark_grid():
    # The benchmark's 97^3 check holds no whole-grid array but v, which the
    # probe does not count, and one block of 4 planes at a time: 0.66.
    assert probe_peak(PEAK_PROBE, 97) <= 1.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_sample_peak_memory_is_bounded():
    # The output and one block's temporaries: 1.15.  One call on the whole
    # open axes made a whole-grid temporary beside the output: 2.03.
    assert probe_peak(SAMPLE_PROBE, 97) <= 1.4


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_suite_peak_memory_is_bounded():
    # The 513^2 fine grids of verify-identities --resolution 257: no check
    # keeps a derivative for a later one, and the blocked Bochner check sets
    # the peak at 3.44.  The bound leaves 20% margin.  Whole-grid scaling
    # checks, run while the suite still held its fields, peaked at 4.57; the
    # whole-grid Bochner check at 8.63, and fields that kept z and lap v for
    # the suite at 11.88.
    assert probe_peak(SUITE_PROBE, 257) <= 4.1


class TestWeightKernel:
    def test_check_and_aux_weights_share_one_kernel(self):
        from pqliouville.identities import _coefficients, aux_weights

        v = np.array([0.5, 1.0, 2.0])
        z = np.array([0.0, 0.3, 4.0])
        A, D, E = _coefficients(2.0, v, z, 3.0, 2.0)  # no positivity check
        assert np.array_equal(A, 1.0 + 2.0 * v * np.sqrt(z))
        weights = aux_weights(2.0, v[1:], z[1:], 3.0, 2.0, 2)
        for ours, ref in zip((A, D, E), (weights.A, weights.D, weights.E)):
            assert np.array_equal(ours[1:], ref)
