import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from pqliouville import (
    CATALOG,
    FieldError,
    IdentityReport,
    change_of_variable_check,
    grid_field,
    laplacian,
    pq_laplacian,
    sample_function,
)
from pqliouville import operators
from pqliouville.identities import _change_of_variable_rhs
from pqliouville.operators import dot_arrays, flux_divergence, gradient_components
from oracles import (
    affine_field,
    pq_reference_sin_cos,
    reference_change_of_variable_check,
    reference_change_of_variable_sides,
    reference_dot,
    reference_flux_divergence,
    reference_gradient_components,
    reference_laplacian,
)


def interior(values, k=1):
    return values[tuple(slice(k, -k) for _ in range(values.ndim))]


class TestFluxForm:
    def test_affine_is_annihilated(self):
        field = sample_function(affine_field((1.0, 2.0), 3.0), 0.0, 1.0, 33)
        for p, q in ((2.0, 2.0), (3.0, 2.0), (2.5, 2.5)):
            out = pq_laplacian(field, p, q)
            assert np.max(np.abs(interior(out.values))) <= 1e-10

    def test_parabolic_bowl_reduces_to_twice_laplacian(self):
        out = pq_laplacian(CATALOG["parabolic_bowl"].sample(33), 2.0, 2.0)
        assert interior(out.values) == pytest.approx(8.0, abs=1e-11)

    def test_matches_five_point_stencil(self):
        field = CATALOG["offset_sine"].sample(49)
        ours = pq_laplacian(field, 2.0, 2.0).values
        reference = 2.0 * laplacian(field.values, field.spacing)
        assert np.max(np.abs(interior(ours) - interior(reference))) <= 1e-12

    def test_matches_seven_point_stencil_3d(self):
        def fn(x, y, z):
            return np.sin(x) * np.cos(y) + 0.5 * z * z

        field = sample_function(fn, 0.0, 1.0, 13, dim=3)
        ours = pq_laplacian(field, 2.0, 2.0).values
        reference = 2.0 * laplacian(field.values, field.spacing)
        assert np.max(np.abs(interior(ours) - interior(reference))) <= 1e-12

    def test_analytic_reference_convergence(self):
        p, q = 3.0, 2.0
        errs = []
        spec = CATALOG["sine_product"]
        for n in (65, 129):
            field = spec.sample(n)
            out = pq_laplacian(field, p, q).values
            axis = spec.lo + field.spacing * np.arange(n)
            x, y = np.meshgrid(axis, axis, indexing="ij")
            ref = pq_reference_sin_cos(x, y, p, q)
            err = np.max(np.abs(interior(out) - interior(ref)))
            errs.append(err / np.max(np.abs(interior(ref))))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_boundary_ring_unset(self):
        out = pq_laplacian(CATALOG["offset_sine"].sample(17), 2.5, 2.0)
        assert np.isnan(out.values[0]).all() and np.isnan(out.values[-1]).all()
        assert np.isnan(out.values[:, 0]).all() and np.isnan(out.values[:, -1]).all()
        assert np.isfinite(interior(out.values)).all()


def _stencil_inputs():
    """Smooth and rough fields in 2-d and 3-d, cubic and not."""
    rng = np.random.default_rng(7)
    return [
        CATALOG["offset_sine"].sample(33),
        CATALOG["offset_sine"].sample(49, 3),
        grid_field(rng.random((23, 19)) + 0.5, 0.1),
        grid_field(rng.random((13, 11, 9)) + 0.5, 0.1),
    ]


# Block sizes: the default, one plane per block, and blocks that do not
# divide the interior evenly.
@pytest.fixture(params=[operators._BLOCK_NODES, 1, 250])
def block_nodes(request, monkeypatch):
    monkeypatch.setattr(operators, "_BLOCK_NODES", request.param)
    return request.param


class TestBlockedStencils:
    """The blocked, trimmed kernels reproduce the whole-array forms bit for bit."""

    @pytest.mark.parametrize("powers", [(2.0, 2.0), (3.0, 2.0), (2.2, 1.5), (2.5,)])
    def test_flux_divergence_matches_reference(self, block_nodes, powers):
        for field in _stencil_inputs():
            eps = operators._auto_eps(field.values, field.spacing)
            ours = flux_divergence(field.values, field.spacing, powers, eps)
            ref = reference_flux_divergence(field.values, field.spacing, powers, eps)
            assert np.array_equal(ours, ref, equal_nan=True)

    @pytest.mark.parametrize("powers", [(2.0, 2.0), (3.0, 2.0), (2.5, 4.0)])
    def test_flux_divergence_zero_eps_matches_reference(self, block_nodes, powers):
        for field in _stencil_inputs():
            ours = flux_divergence(field.values, field.spacing, powers, 0.0)
            ref = reference_flux_divergence(field.values, field.spacing, powers, 0.0)
            assert np.array_equal(ours, ref, equal_nan=True)

    def test_laplacian_and_gradients_match_reference(self, block_nodes):
        for field in _stencil_inputs():
            v, h = field.values, field.spacing
            assert np.array_equal(laplacian(v, h), reference_laplacian(v, h), equal_nan=True)
            for ours, ref in zip(gradient_components(v, h), reference_gradient_components(v, h)):
                assert np.array_equal(ours, ref, equal_nan=True)

    def test_dot_and_cached_derivatives_match_reference(self, block_nodes):
        for field in _stencil_inputs():
            v, h = field.values, field.spacing
            grads = reference_gradient_components(v, h)
            z = reference_dot(grads, grads)
            dzv = reference_dot(reference_gradient_components(z, h), grads)
            assert np.array_equal(dot_arrays(grads, grads), z, equal_nan=True)
            assert np.array_equal(field.grad_sq, z, equal_nan=True)
            assert np.array_equal(field.grad_sq_dot_grad, dzv, equal_nan=True)

    @pytest.mark.parametrize("b, p, q", [(2.0, 3.0, 2.0), (0.5, 2.2, 1.5), (5.0, 3.0, 1.5),
                                         (0.7, 2.5, 1.8)])
    def test_change_of_variable_check_matches_reference(self, block_nodes, b, p, q):
        for field in _stencil_inputs():
            v, h = field.values, field.spacing
            ours = change_of_variable_check(field, b, p, q, tolerance=1e-3)
            assert ours == IdentityReport(*reference_change_of_variable_check(v, h, b, p, q, 1e-3))
            # The check above cached the derivatives the blocks read.
            inner = (slice(2, -2),) * field.ndim
            rhs = operators.blocked_result(
                lambda sl, out: _change_of_variable_rhs(field, inner, sl, b, p, q, out),
                field.grad_sq[inner])
            _, ref, _ = reference_change_of_variable_sides(v, h, b, p, q)
            assert np.array_equal(rhs, ref, equal_nan=True)

    def test_blocks_run_under_the_callers_errstate(self, block_nodes):
        # A constant field has zero face gradients: 0 ** (negative) at eps = 0.
        values = np.ones((9, 7, 7))
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            flux_divergence(values, 0.1, (1.5,), 0.0)
        with np.errstate(all="ignore"):  # a RuntimeWarning would fail the test
            assert np.isnan(flux_divergence(values, 0.1, (1.5,), 0.0)[1:-1, 1:-1, 1:-1]).all()

    def test_default_blocks_split_a_3d_grid(self):
        # The 3-d input above runs on the pool at the default block size too.
        values = CATALOG["offset_sine"].sample(49, 3).values
        assert not operators.fits_one_block(values)
        assert not operators.fits_one_block(values[1:-1])

    def test_default_blocks_send_the_benchmark_grid_to_the_pool(self, monkeypatch):
        """A 97^3 grid splits into blocks that run on the pool; the 129^2
        and 257^2 grids of verify-identities --resolution 129 run inline."""
        calls = []
        executor = operators._executor

        def counted():
            calls.append(1)
            return executor()

        monkeypatch.setattr(operators, "_executor", counted)
        for n in (129, 257):
            assert operators.fits_one_block(np.empty((n, n)))
            laplacian(np.ones((n, n)), 0.1)
            gradient_components(np.ones((n, n)), 0.1)
        assert calls == []
        assert not operators.fits_one_block(np.empty((93, 93, 93)))
        laplacian(np.ones((97, 97, 97)), 0.1)
        assert calls == [1]


class TestSampling:
    @pytest.mark.parametrize("dim, n", [(2, 33), (3, 17)])
    def test_open_axes_match_dense_meshgrid(self, dim, n):
        for field in CATALOG.values():
            for lo, hi in ((field.lo, field.hi), (1.7 * field.lo, 1.7 * field.hi)):
                h = (hi - lo) / (n - 1)
                axes = [lo + h * np.arange(n) for _ in range(dim)]
                dense = field.fn(*np.meshgrid(*axes, indexing="ij"))
                sampled = sample_function(field.fn, lo, hi, n, dim)
                assert np.array_equal(sampled.values, dense), field.name

    def test_singleton_axes_are_broadcast(self):
        field = sample_function(lambda x, y, z: np.sin(x), 0.0, 1.0, 7, dim=3)
        x = (1.0 / 6.0) * np.arange(7)
        assert field.values.shape == (7, 7, 7)
        assert field.values.flags.c_contiguous and field.values.flags.writeable
        dense = np.sin(np.meshgrid(x, x, x, indexing="ij")[0])
        assert np.array_equal(field.values, dense)

    def test_catalog_samples_are_full_contiguous_and_writeable(self):
        for field in CATALOG.values():
            for dim in (2, 3):
                values = field.sample(9, dim).values
                assert values.shape == (9,) * dim
                assert values.flags.c_contiguous and values.flags.writeable


class TestGridField:
    def test_validators(self):
        with pytest.raises(FieldError):
            grid_field(np.zeros((4, 8)), 0.1)
        with pytest.raises(FieldError):
            grid_field(np.zeros(16), 0.1)
        with pytest.raises(FieldError):
            grid_field(np.zeros((8, 8)), -0.1)
        bad = np.zeros((8, 8))
        bad[3, 3] = np.nan
        with pytest.raises(FieldError):
            grid_field(bad, 0.1)


def _check_and_operator(field, b, p, q):
    return change_of_variable_check(field, b, p, q), pq_laplacian(field, p, q).values


def _same(ours, ref):
    return ours[0] == ref[0] and np.array_equal(ours[1], ref[1], equal_nan=True)


class TestConcurrentUse:
    """The kernels may be called from several threads at once."""

    JOBS = [(2.0, 3.0, 2.0), (0.5, 2.2, 1.5), (5.0, 3.0, 1.5), (1.0, 2.5, 2.0)]

    @pytest.mark.parametrize("shared", [True, False], ids=["one-field", "own-fields"])
    def test_user_threads_get_the_serial_results(self, monkeypatch, shared):
        # One plane per block, so every call maps many blocks over the pool.
        monkeypatch.setattr(operators, "_BLOCK_NODES", 250)
        spec = CATALOG["offset_sine"]
        serial = [_check_and_operator(spec.sample(17, 3), *job) for job in self.JOBS]
        field = spec.sample(17, 3)
        results = [[] for _ in self.JOBS]
        errors = []

        def work(i):
            try:
                for _ in range(5):
                    v = field if shared else spec.sample(17, 3)
                    results[i].append(_check_and_operator(v, *self.JOBS[i]))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(len(self.JOBS))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "deadlock: a thread did not finish"
        assert errors == []
        for ours, ref in zip(results, serial):
            assert len(ours) == 5 and all(_same(r, ref) for r in ours)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self):
        values = CATALOG["offset_sine"].sample(97, 3).values
        expected = laplacian(values, 0.1)  # the parent's pool now runs
        assert operators._pool is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(laplacian(values, 0.1), expected, equal_nan=True) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        if done == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the parent's pool")
        assert os.waitstatus_to_exitcode(done[1]) == 0
