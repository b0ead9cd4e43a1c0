import dataclasses
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
from pqliouville.operators import (
    GridField,
    grad_squared,
    gradient_dot,
    laplacian,
    sample_function,
)
from oracles import affine_field, reference_dot, reference_gradient_components


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
        z = grad_squared(field.values, h)
        lhs = 0.5 * laplacian(z, h)
        lap_v = laplacian(field.values, h)
        rhs = lap_v**2 / 2 + gradient_dot(lap_v, field.values, h)
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


# The derivatives the identity checks read, each cached on its field.
DERIVATIVES = ("grad_sq", "lap")


class TestSharedDerivatives:
    def test_cached_derivatives_match_the_operators(self):
        field = CATALOG["offset_sine"].sample(17, 3)
        v, h = field.values, field.spacing
        grads = reference_gradient_components(v, h)
        z = grad_squared(v, h)
        assert np.array_equal(z, reference_dot(grads, grads), equal_nan=True)
        assert np.array_equal(field.grad_sq, z, equal_nan=True)
        assert np.array_equal(field.lap, laplacian(v, h), equal_nan=True)

    def test_each_derivative_is_computed_once_per_field(self, monkeypatch):
        calls = []
        for module, name in ((operators, "laplacian"), (operators, "gradient_dot"),
                             (identities, "_laplacian_block"), (identities, "_dot_planes")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cases = [(2.0, 3.0, 2.0, None), (0.5, 2.2, 1.5, None), (5.0, 3.0, 1.5, None)]
        # One block, and blocks on the pool (the check then takes z before
        # the blocks run).
        for block_nodes, blocks in ((operators._BLOCK_NODES, 1), (250, 3)):
            monkeypatch.setattr(operators, "_BLOCK_NODES", block_nodes)
            field = CATALOG["offset_sine"].sample(33)
            assert len(operators.map_plane_blocks(lambda i0, i1: None, 2, 31, 29)) == blocks
            calls.clear()
            for _ in range(2):
                change_of_variable_check(field, 2.0, 3.0, 2.0)
                change_of_variable_checks(field, cases)
            # z once for the field; lap v and <grad z, grad v> once a block
            # and batch, whatever the number of cases; no whole-grid lap.
            assert sorted(calls) == (["_dot_planes"] * 4 * blocks + ["_laplacian_block"] * 4 * blocks
                                     + ["gradient_dot"])
            assert set(vars(field)) & set(DERIVATIVES) == {"grad_sq"}
            calls.clear()
            for _ in range(2):
                bochner_check(field, 2)
            assert calls == ["laplacian"]
            first = [getattr(field, name) for name in DERIVATIVES]
            change_of_variable_check(field, 2.0, 3.0, 2.0)
            bochner_check(field, 2)
            assert all(getattr(field, name) is ours for name, ours in zip(DERIVATIVES, first))
            assert calls == ["laplacian"] + ["_laplacian_block", "_dot_planes"] * blocks

    def test_cached_derivatives_are_read_only(self):
        field = CATALOG["offset_sine"].sample(17, 3)
        for arr in (field.grad_sq, field.lap):
            with pytest.raises(ValueError, match="read-only"):
                arr[2, 2, 2] = 0.0
        for name in DERIVATIVES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(field, name, None)

    def test_changed_values_do_not_reuse_cached_derivatives(self):
        field = CATALOG["offset_sine"].sample(33)
        before = change_of_variable_check(field, 2.0, 3.0, 2.0), bochner_check(field, 2)
        assert set(DERIVATIVES) <= set(vars(field))
        for other in (
            dataclasses.replace(field, values=field.values * 1.5),
            GridField(values=field.values + 0.25, spacing=field.spacing),
        ):
            assert not set(DERIVATIVES) & set(vars(other))
            fresh = GridField(values=other.values.copy(), spacing=other.spacing)
            assert change_of_variable_check(other, 2.0, 3.0, 2.0) == change_of_variable_check(
                fresh, 2.0, 3.0, 2.0
            )
            assert bochner_check(other, 2) == bochner_check(fresh, 2)
            assert not np.array_equal(other.grad_sq, field.grad_sq)
            assert not np.array_equal(other.lap, field.lap)
        assert (change_of_variable_check(field, 2.0, 3.0, 2.0), bochner_check(field, 2)) == before

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
# at 97^3.
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


def check_peak(n: int) -> float:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PEAK_PROBE, str(n)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_check_peak_memory_is_bounded():
    # Three blocks of 21 planes: the blocks' temporaries dominate.
    assert check_peak(65) <= 6.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_check_peak_memory_at_the_benchmark_grid():
    # The benchmark's 97^3 check: z = |grad v|^2 and a few small blocks.
    assert check_peak(97) <= 3.0


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
