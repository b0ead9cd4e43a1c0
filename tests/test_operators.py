import functools
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
    bochner_check,
    change_of_variable_check,
    change_of_variable_checks,
    grid_field,
    laplacian,
    pq_laplacian,
    sample_function,
)
from pqliouville import identities, operators
from pqliouville.identities import _check_block
from pqliouville.operators import flux_divergence, grad_squared, gradient_dot
from oracles import (
    affine_field,
    pq_reference_sin_cos,
    reference_bochner_check,
    reference_change_of_variable_check,
    reference_change_of_variable_sides,
    reference_dot,
    reference_flux_divergence,
    reference_gradient_components,
    reference_laplacian,
    whole_grid_bochner_check,
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


# Block sizes: the default, one plane per block, blocks that do not
# divide the interior evenly, and 1 << 16, which puts a 257^2 grid in one
# block.
@pytest.fixture(params=[operators._BLOCK_NODES, 1, 250, 1 << 16])
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
            # gradient_dot's blocks build their own gradient planes
            blocks = operators.map_plane_blocks(lambda i0, i1: operators._gradient_planes(v, h, i0, i1),
                                                0, len(v), v[0].size)
            for axis, ref in enumerate(reference_gradient_components(v, h)):
                ours = np.concatenate([block[axis] for block in blocks])
                assert np.array_equal(ours, ref, equal_nan=True)

    def test_dot_and_cached_derivatives_match_reference(self, block_nodes):
        for field in _stencil_inputs():
            v, h = field.values, field.spacing
            grads = reference_gradient_components(v, h)
            z = reference_dot(grads, grads)
            dzv = reference_dot(reference_gradient_components(z, h), grads)
            assert np.array_equal(gradient_dot(v, v, h), z, equal_nan=True)
            assert np.array_equal(grad_squared(v, h), z, equal_nan=True)
            assert np.array_equal(gradient_dot(grad_squared(v, h), v, h), dzv, equal_nan=True)

    @pytest.mark.parametrize("b, p, q", [(2.0, 3.0, 2.0), (0.5, 2.2, 1.5), (5.0, 3.0, 1.5),
                                         (0.7, 2.5, 1.8)])
    def test_change_of_variable_check_matches_reference(self, block_nodes, b, p, q):
        for field in _stencil_inputs():
            v, h = field.values, field.spacing
            ref = IdentityReport(*reference_change_of_variable_check(v, h, b, p, q, 1e-3))
            assert change_of_variable_check(field, b, p, q, tolerance=1e-3) == ref
            # In a batch, beside a case that shares its blocks.
            assert change_of_variable_checks(field, [(1.5, 2.5, 2.0, None), (b, p, q, 1e-3)])[1] == ref

    def test_per_block_z_check_matches_the_whole_grid_z_oracle(self, block_nodes):
        # Each block builds z = |grad v|^2 on its planes and one halo plane
        # either side, after a first pass for z's floor; the oracle holds z
        # whole.  The kinked field's floor excludes the nodes of its first
        # 10 interior planes, across block edges at small block sizes.
        fields = [_kinked_field(10), CATALOG["radial_square"].sample(33),
                  CATALOG["offset_sine"].sample(17, 3), CATALOG["sine_x1"].sample(17, 3)]
        for field in fields:
            expected = [IdentityReport(*reference_change_of_variable_check(
                field.values, field.spacing, *case)) for case in ORACLE_CASES]
            assert change_of_variable_checks(field, ORACLE_CASES) == expected

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
        assert operators._block_count(len(values), values[0].size) > 1
        assert operators._block_count(len(values) - 2, values[0].size) > 1

    def test_default_blocks_send_the_benchmark_grid_to_the_pool(self, monkeypatch):
        """A 97^3 grid and the 257^2 grids of verify-identities --resolution
        129 split into blocks that run on the pool; its 129^2 grids run inline."""
        calls = []
        executor = operators._executor

        def counted():
            calls.append(1)
            return executor()

        monkeypatch.setattr(operators, "_executor", counted)
        assert operators._block_count(129, 129) == 1
        laplacian(np.ones((129, 129)), 0.1)
        gradient_dot(np.ones((129, 129)), np.ones((129, 129)), 0.1)
        assert calls == []
        # The ring-2 planes of a 257^2 check, and a 257^2 Laplacian.
        assert operators._block_count(253, 253) == 2
        laplacian(np.ones((257, 257)), 0.1)
        assert calls == [1]
        assert operators._block_count(93, 93 * 93) > 1
        laplacian(np.ones((97, 97, 97)), 0.1)
        assert calls == [1, 1]


@pytest.fixture(params=[1, 3])
def pool_threads(request, monkeypatch):
    """A pool of this many threads in place of the module's own."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(request.param)
    monkeypatch.setattr(operators, "_pool", pool)
    yield request.param
    pool.shutdown()


def _blocks(arr):
    return operators.map_plane_blocks(lambda i0, i1: (i0, i1), 0, len(arr), arr[0].size)


class TestGradientDot:
    """gradient_dot builds each block's gradient planes itself; the
    derivatives and checks on it equal the whole-array forms bit for bit."""

    def test_matches_reference(self, block_nodes, pool_threads):
        short_last = False
        for field in _stencil_inputs():
            v, h = field.values, field.spacing
            blocks = _blocks(v)
            assert blocks[0][0] == 0 and blocks[-1][1] == len(v)
            if block_nodes == 1:
                assert all(i1 - i0 == 1 for i0, i1 in blocks)
            sizes = [i1 - i0 for i0, i1 in blocks]
            short_last |= sizes[-1] < sizes[0]
            grads = reference_gradient_components(v, h)
            z = reference_dot(grads, grads)
            lap = reference_laplacian(v, h)
            for ours, ref in (
                (gradient_dot(v, v, h), z),
                (grad_squared(v, h), z),
                (gradient_dot(grad_squared(v, h), v, h),
                 reference_dot(reference_gradient_components(z, h), grads)),
                (gradient_dot(lap, v, h), reference_dot(reference_gradient_components(lap, h), grads)),
            ):
                assert np.array_equal(ours, ref, equal_nan=True)
            for N in (v.ndim, v.ndim + 1):
                assert bochner_check(field, N, tolerance=1e-3) == IdentityReport(
                    *reference_bochner_check(v, h, N, 1e-3))
        # Some grid ends in a short block, except at one plane a block.
        assert short_last == (block_nodes != 1)


class TestBlockedBochner:
    """The Bochner check compares the sides block by block; counts, minima
    and maxima combine to the whole-grid check's report."""

    def test_matches_the_whole_grid_check(self, block_nodes):
        fields = _stencil_inputs() + [CATALOG[name].sample(n, dim) for name in ("saddle", "sine_product")
                                      for n, dim in ((33, 2), (17, 3))]
        # Planes 8-12 of a 33^2 field hold no node where both sides are finite.
        blown = CATALOG["offset_sine"].sample(33)
        blown.values[10] *= 1e160
        for field in fields + [blown]:
            v, h = field.values, field.spacing
            for N in (v.ndim, v.ndim + 1, 100):
                with np.errstate(all="ignore" if field is blown else "raise"):
                    ref = IdentityReport(*whole_grid_bochner_check(v, h, N, 1e-3))
                    assert bochner_check(field, N, tolerance=1e-3) == ref
                    assert ref == IdentityReport(*reference_bochner_check(v, h, N, 1e-3))

    def test_no_finite_node_is_refused_as_the_whole_grid_check(self, block_nodes):
        field = CATALOG["offset_sine"].sample(17, 3)
        huge = grid_field(1e200 * field.values, field.spacing)
        with np.errstate(all="ignore"):
            for check in (bochner_check, lambda f, N: whole_grid_bochner_check(f.values, f.spacing, N, 1.0)):
                with pytest.raises(FieldError, match="not smooth"):
                    check(huge, 3)


def _kinked_field(flat_planes):
    """v = 2 + ((i - i0) h)^3 for i > i0 on a 104^2 grid: the first
    `flat_planes` interior planes of the ring-2 interior have z = 0."""
    n, h = 104, 1.0 / 103
    i0 = flat_planes + 2
    ramp = (np.maximum(np.arange(n) - i0, 0) * h) ** 3
    return grid_field(np.broadcast_to(2.0 + ramp[:, None], (n, n)).copy(), h)


class TestFusedComparison:
    """The change-of-variable check compares each block as soon as its right
    side is made; counts and maxima combine to the whole-array comparison."""

    def test_blocks_equal_the_whole_array_comparison(self, monkeypatch):
        monkeypatch.setattr(operators, "_BLOCK_NODES", 250)
        cases = [(0.7, 2.5, 1.8, None), (2.0, 2.5, 2.0, None)]
        field = CATALOG["offset_sine"].sample(17, 3)
        v, h = field.values, field.spacing
        blocks = operators.map_plane_blocks(lambda j0, j1: (j0, j1), 2, 15, 13 * 13)
        assert len(blocks) > 2
        # A spike on the second block's first plane: at b = 2 its squared face
        # gradients overflow, so the flux around it is not finite; at b = 0.7 it is.
        i0, i1 = blocks[1]
        v[i0, 6, 6] = 1e80
        with np.errstate(all="ignore"):
            eps = [operators._auto_eps(v, h, lambda x, b=b: x**b) for b, *_ in cases]
            sides = [reference_change_of_variable_sides(v, h, b, p, q) for b, p, q, _ in cases]
            # A floor that also excludes half the nodes, where both sides are finite.
            z_floor = float(np.median(sides[0][2]))
            parts = operators.map_plane_blocks(
                lambda j0, j1: _check_block(field, j0, j1, cases, eps, z_floor), 2, 15, 13 * 13)
            fluxes = [reference_flux_divergence(v**b, h, (p, q), e)
                      for (b, p, q, _), e in zip(cases, eps)]
        finite = []
        for k, ((lhs, rhs, z), flux) in enumerate(zip(sides, fluxes)):
            valid = np.isfinite(lhs) & np.isfinite(rhs) & (z > z_floor)
            for (j0, j1), part in zip(blocks, parts):
                sl = slice(j0 - 2, j1 - 2)
                ok = valid[sl]
                assert part[k] == (
                    bool(np.isfinite(flux[j0:j1, 1:-1, 1:-1]).all()), int(np.count_nonzero(ok)),
                    float(np.max(np.abs(lhs[sl][ok] - rhs[sl][ok]), initial=0.0)),
                    float(np.max(np.abs(lhs[sl][ok]), initial=0.0)))
            finite.append([part[k][0] for part in parts])
        assert finite[0] == [True] * len(blocks)
        # The spike's plane and both its neighbours see it.
        assert finite[1] == [j1 < i0 or j0 > i0 + 1 for j0, j1 in blocks]

    def test_blocked_reductions_match_the_whole_array(self, block_nodes):
        values = np.random.default_rng(5).normal(size=(13, 11, 9))
        values[3:5] = np.nan  # whole blocks of NaN at small block sizes
        values[7, 2, 2] = np.inf
        assert operators.nan_extremes(values) == (np.nanmin(values), np.nanmax(values))
        with pytest.warns(RuntimeWarning, match="All-NaN"):
            assert np.isnan(operators.nan_extremes(np.full((9, 7), np.nan))).all()
        # One non-finite operator node, in one block, refuses the field.
        spiky = CATALOG["offset_sine"].sample(17, 3)
        spiky.values[11, 8, 8] = 1e300
        with np.errstate(all="ignore"), pytest.raises(FieldError, match="not smooth"):
            pq_laplacian(spiky, 3.0, 2.0)
        with pytest.raises(FieldError, match="v > 0"):
            change_of_variable_check(grid_field(np.where(values > 0, 1.0, -1.0), 0.1), 2.0, 3.0, 2.0)

    def test_refusal_edge_matches_the_whole_array_rule(self, block_nodes):
        # 10 of 100 interior planes excluded is 1 - 0.9 = 0.0999... <= 0.10
        # and passes; 11 excluded refuses.
        outcomes = []
        for flat in (10, 11):
            field = _kinked_field(flat)
            args = (2.0, 3.0, 2.0)
            try:
                ref = IdentityReport(*reference_change_of_variable_check(
                    field.values, field.spacing, *args, 1e-3))
            except FieldError:
                ref = None
            if ref is None:
                with pytest.raises(FieldError, match="violates"):
                    change_of_variable_check(field, *args, tolerance=1e-3)
            else:
                assert change_of_variable_check(field, *args, tolerance=1e-3) == ref
            outcomes.append(ref is None)
        assert outcomes == [False, True]


# Positive catalogue fields with a nonvanishing gradient, in 2-d and 3-d;
# the 65^3 grid splits into blocks at the default block size too.
ORACLE_FIELDS = [(name, n, dim) for name in ("offset_sine", "radial_square", "sine_x1")
                 for n, dim in ((33, 2), (17, 3))] + [("offset_sine", 65, 3)]
ORACLE_CASES = [(2.0, 3.0, 2.0, 1e-3), (0.5, 2.2, 1.5, 1e-3), (5.0, 3.0, 1.5, 1e-3),
                (0.7, 2.5, 1.8, 1e-3)]


@functools.cache
def _oracle_reports(name, n, dim):
    v = CATALOG[name].sample(n, dim)
    return [IdentityReport(*reference_change_of_variable_check(v.values, v.spacing, *case))
            for case in ORACLE_CASES]


def _spiked(dim, at):
    """offset_sine on 17^dim nodes with one node at 1e80 at index `at`."""
    field = CATALOG["offset_sine"].sample(17, dim)
    field.values[at] = 1e80
    return field



class TestStreamedCheck:
    """The batch and single-case entries give the oracle's reports and
    refuse a field as the whole-array check does, in its order."""

    @pytest.mark.parametrize("nodes", ["250", "default"])
    def test_reports_equal_the_oracle(self, monkeypatch, nodes, pool_threads):
        if nodes == "250":
            monkeypatch.setattr(operators, "_BLOCK_NODES", 250)
        for name, n, dim in ORACLE_FIELDS:
            expected = _oracle_reports(name, n, dim)
            field = CATALOG[name].sample(n, dim)
            assert change_of_variable_checks(field, ORACLE_CASES) == expected, (name, n, dim)
            for case, ref in zip(ORACLE_CASES, expected):
                assert change_of_variable_check(field, *case) == ref, (name, n, dim, case)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("where", ["plane 1", "plane n-2", "ring-1 row"])
    def test_flux_refusal_off_the_blocks(self, block_nodes, where, dim):
        # A spike on the boundary leaves the flux of u = v at p = 5 non-finite
        # only on nodes the ring-2 blocks do not cover: plane 1, plane n-2, or
        # a ring-1 row of the last axis.
        at = {"plane 1": (0,) + (8,) * (dim - 1), "plane n-2": (-1,) + (8,) * (dim - 1),
              "ring-1 row": (8,) * (dim - 1) + (0,)}[where]
        field = _spiked(dim, at)
        v, h = field.values, field.spacing
        with np.errstate(all="ignore"):
            flux = reference_flux_divergence(v, h, (5.0, 2.0), operators._auto_eps(v, h))
            lhs, _, _ = reference_change_of_variable_sides(v, h, 1.0, 5.0, 2.0)
            assert np.isfinite(lhs).all()
            assert not np.isfinite(interior(flux)).all()
            with pytest.raises(FieldError, match="not smooth"):
                pq_laplacian(field, 5.0, 2.0)
            with pytest.raises(FieldError, match="not smooth"):
                change_of_variable_check(field, 1.0, 5.0, 2.0)
            with pytest.raises(FieldError, match="not smooth"):
                change_of_variable_checks(field, [(1.0, 3.0, 2.0, None), (1.0, 5.0, 2.0, None)])
            # At p = 3 the spike's flux stays finite and the check reports.
            assert change_of_variable_check(field, 1.0, 3.0, 2.0).max_abs_error > 0.0

    def test_refusals_come_in_the_whole_array_order(self, block_nodes):
        # b != 0, then v > 0, then a finite flux, then at most 10% exclusions.
        negative = grid_field(-np.ones((9, 9)), 0.1)
        with pytest.raises(FieldError, match="b != 0"):
            change_of_variable_check(negative, 0.0, 3.0, 2.0)
        with pytest.raises(FieldError, match="v > 0"):
            change_of_variable_check(negative, 2.0, 3.0, 2.0)
        field = _kinked_field(11)
        with pytest.raises(FieldError, match="violates"):
            change_of_variable_check(field, 1.0, 5.0, 2.0)
        field.values[0, 50] = 1e80
        with np.errstate(all="ignore"):
            with pytest.raises(FieldError, match="not smooth"):
                change_of_variable_check(field, 1.0, 5.0, 2.0)
            # A batch refuses as its cases, run in turn, would first refuse,
            # after checking every b and then v.
            with pytest.raises(FieldError, match="violates"):
                change_of_variable_checks(field, [(1.0, 3.0, 2.0, None), (1.0, 5.0, 2.0, None)])
            with pytest.raises(FieldError, match="not smooth"):
                change_of_variable_checks(field, [(1.0, 5.0, 2.0, None), (1.0, 3.0, 2.0, None)])
            with pytest.raises(FieldError, match="b != 0"):
                change_of_variable_checks(field, [(1.0, 5.0, 2.0, None), (0.0, 3.0, 2.0, None)])
        with pytest.raises(FieldError, match="v > 0"):
            change_of_variable_checks(negative, [(2.0, 3.0, 2.0, None), (1.0, 3.0, 2.0, None)])


class TestSampling:
    def test_blocks_match_the_dense_broadcast(self, block_nodes):
        """Blocked sampling equals one call on the whole open axes, broadcast
        into the grid, whatever fn does with axis 0."""
        fns = [(field.fn, dim) for field in CATALOG.values() for dim in (2, 3)]
        fns += [(lambda x, y: np.cos(y), 2), (lambda x, y, z: np.sin(x), 3),
                (lambda x, y, z: np.float64(2.5), 3)]
        for fn, dim in fns:
            n, lo, hi = (33 if dim == 2 else 17), -0.3, 1.3
            axes = [lo + (hi - lo) / (n - 1) * np.arange(n) for _ in range(dim)]
            dense = np.empty((n,) * dim)
            dense[...] = fn(*np.meshgrid(*axes, indexing="ij", sparse=True))
            planes = []

            def counted(x, *rest, _fn=fn):
                planes.append(len(x))
                return _fn(x, *rest)

            sampled = sample_function(counted, lo, hi, n, dim)
            assert np.array_equal(sampled.values, dense)
            assert sum(planes) == n and len(planes) == operators._block_count(n, n ** (dim - 1))

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

    def test_a_check_does_not_wait_for_another_fields_derivatives(self, monkeypatch):
        # Thread A is held inside a block's z = |grad v|^2 of field a; thread B
        # checks field b meanwhile and must not wait for A.
        spec = CATALOG["offset_sine"]
        a, b = spec.sample(17), spec.sample(17)
        expected = change_of_variable_check(spec.sample(17), 2.0, 3.0, 2.0)
        inside, release = threading.Event(), threading.Event()
        original = identities._dot_planes

        def held(x, y, h, i0, i1, out=None):
            if x is a.values and y is a.values:
                inside.set()
                release.wait(60)
            return original(x, y, h, i0, i1, out)

        monkeypatch.setattr(identities, "_dot_planes", held)
        reports = {}

        def check(name, field):
            reports[name] = change_of_variable_check(field, 2.0, 3.0, 2.0)

        threads = {name: threading.Thread(target=check, args=(name, field), daemon=True)
                   for name, field in (("a", a), ("b", b))}
        threads["a"].start()
        try:
            assert inside.wait(60)
            threads["b"].start()
            threads["b"].join(timeout=10)
            assert not threads["b"].is_alive(), "b's check waited for a's derivatives"
        finally:
            release.set()
            for t in threads.values():
                if t.ident is not None:
                    t.join(timeout=60)
        assert reports == {"a": expected, "b": expected}

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
