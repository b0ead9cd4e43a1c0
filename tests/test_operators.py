import io

import numpy as np
import pytest

from pqliouville import (
    CATALOG,
    FieldError,
    from_bytes,
    grid_field,
    laplacian,
    pq_laplacian,
    read_binary,
    sample_function,
    to_bytes,
    write_binary,
)
from pqliouville import operators
from pqliouville.fields import affine_field
from pqliouville.grid import write_csv
from pqliouville.operators import flux_divergence, gradient_components
from oracles import (
    pq_reference_sin_cos,
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
        for n in (65, 129):
            field = CATALOG["sine_product"].sample(n)
            out = pq_laplacian(field, p, q).values
            x, y = field.coords()
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
        CATALOG["offset_sine"].sample(41, 3),
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

    def test_default_blocks_split_a_3d_grid(self):
        field = CATALOG["offset_sine"].sample(41, 3)
        assert operators._BLOCK_NODES // field.values[0].size < field.dims[0] - 2


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

    def test_bytes_round_trip(self):
        field = CATALOG["offset_sine"].sample(9)
        back = from_bytes(to_bytes(field))
        assert back.values == pytest.approx(field.values, abs=0.0)
        assert back.spacing == field.spacing
        assert back.origin == field.origin

    def test_binary_file_round_trip(self, tmp_path):
        field = sample_function(lambda x, y, z: x + 2 * y + 3 * z, 0.0, 1.0, 6, dim=3)
        path = tmp_path / "field.bin"
        write_binary(field, path)
        back = read_binary(path)
        assert back.values.shape == (6, 6, 6)
        assert np.array_equal(back.values, field.values)

    def test_csv_stream(self):
        field = CATALOG["offset_sine"].sample(5)
        buf = io.StringIO()
        write_csv(field, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# x1,x2,value"
        assert len(lines) == 1 + 25
