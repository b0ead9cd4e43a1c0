import numpy as np
import pytest

from pqliouville import aux_weights
from oracles import bernstein_bounds


class TestReductions:
    def test_single_operator(self):
        for p in (1.5, 2.0, 2.7):
            w = aux_weights(2.0, 1.3, 0.7, p, p, 2)
            assert w.A == 2.0
            assert w.E == 2.0 * (p - 1.0)
            assert w.D == 2.0 * (p - 2.0)

    def test_unit_inputs(self):
        # b=1, z=1 makes the weight term equal 1 regardless of v and p,q
        for v in (0.2, 1.0, 7.5):
            w = aux_weights(1.0, v, 1.0, 2.7, 1.6, 3)
            assert w.A == 2.0

class TestIdentitiesAndBounds:
    def _draw(self, rng, n):
        b = 0.2 + 4.0 * rng.random(n)
        v = 10.0 ** (rng.uniform(-2, 2, n))
        z = 10.0 ** (rng.uniform(-2, 2, n))
        q = 1.2 + 2.0 * rng.random(n)
        p = q + 1.5 * rng.random(n)
        N = rng.integers(2, 6, n)
        return b, v, z, p, q, N

    def test_linear_identities(self, rng):
        n = 100_000
        b, v, z, p, q, N = self._draw(rng, n)
        w = aux_weights(b, v, z, p, q, N)
        lhs_e = w.E + (p - q)
        rhs_e = (p - 1.0) * w.A
        assert np.all(np.abs(lhs_e - rhs_e) <= 1e-12 * (1.0 + np.abs(rhs_e)))
        lhs_d = w.D + (p - q)
        rhs_d = (p - 2.0) * w.A
        assert np.all(np.abs(lhs_d - rhs_d) <= 1e-12 * (1.0 + np.abs(rhs_d)))

    def test_interval_bounds(self, rng):
        n = 100_000
        b, v, z, p, q, N = self._draw(rng, n)
        w = aux_weights(b, v, z, p, q, N)
        tol = 1e-12
        assert np.all(w.A >= 1.0)
        # ratio chains (for q < 2 the lower D/A endpoint is negative; the
        # chain is tested without the nonnegativity clause)
        assert np.all(w.D / w.A >= q - 2.0 - tol)
        assert np.all(w.D / w.A <= p - 2.0 + tol)
        assert np.all(w.E / w.A >= q - 1.0 - tol)
        assert np.all(w.E / w.A <= p - 1.0 + tol)
        assert np.all((0.0 <= w.frakA) & (w.frakA < 1.0))
        bounds = bernstein_bounds(N, p, q)
        assert np.all(w.Gamma >= bounds.gamma_lo - tol)
        assert np.all(w.Gamma <= bounds.gamma_hi + tol)
        assert np.all(w.Xi <= bounds.xi_hi + tol)
        assert np.all((w.Upsilon >= -tol) & (w.Upsilon <= bounds.upsilon_hi + tol))

    def test_worked_point_bounds(self):
        p, q, N = 2.5, 2.0, 2
        w = aux_weights(2.0, 1.3, 0.7, p, q, N)
        assert q - 2.0 <= w.D / w.A <= p - 2.0
        assert q - 1.0 <= w.E / w.A <= p - 1.0
        bounds = bernstein_bounds(N, p, q)
        assert bounds.gamma_lo <= w.Gamma <= bounds.gamma_hi
        assert w.Xi <= bounds.xi_hi
        assert 0.0 <= w.Upsilon <= bounds.upsilon_hi

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            aux_weights(2.0, 0.0, 1.0, 2.5, 2.0, 2)
        with pytest.raises(ValueError):
            aux_weights(2.0, 1.0, -1.0, 2.5, 2.0, 2)
