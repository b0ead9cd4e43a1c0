"""Uniform isotropic grid fields: validated construction and sampling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import FieldError


@dataclass(frozen=True)
class GridField:
    values: np.ndarray
    spacing: float
    origin: tuple[float, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays (ij indexing), matching `values` in shape."""
        axes = [
            self.origin[k] + self.spacing * np.arange(n)
            for k, n in enumerate(self.dims)
        ]
        return list(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def derivatives(self):
        """Centred derivatives of `values` (operators.Derivatives), computed once per field.

        The cache belongs to this instance: a field built from other
        values, for example with dataclasses.replace, starts empty.
        Treat `values` as read-only once derivatives have been taken.
        """
        from .operators import Derivatives

        return Derivatives(self.values, self.spacing)


def grid_field(values: np.ndarray, spacing: float, origin=None) -> GridField:
    """Validated constructor: 2- or 3-d, all dims >= 5, finite values, h > 0."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (2, 3):
        raise FieldError("grid fields must be 2- or 3-dimensional")
    if min(values.shape) < 5:
        raise FieldError("all dims must be at least 5 (stencils need two interior layers)")
    if not spacing > 0.0:
        raise FieldError("spacing must be positive")
    if not np.isfinite(values).all():
        raise FieldError("field values must be finite")
    if origin is None:
        origin = (0.0,) * values.ndim
    return GridField(values=values, spacing=float(spacing), origin=tuple(float(x) for x in origin))


def sample_function(fn: Callable, lo: float, hi: float, n: int, dim: int = 2) -> GridField:
    """Sample fn(x1, ..., xd) at n nodes per axis on [lo, hi]^dim.

    fn receives open axes (np.meshgrid(..., indexing="ij", sparse=True)):
    xk has length n along axis k and length 1 along the others, so fn
    must combine its arguments by broadcasting, as numpy ufuncs and
    arithmetic do.  Each node still sees the same operations as on a
    dense grid, but transcendental functions run on n values per axis
    instead of n^dim.  The result, which may keep singleton axes (for
    example lambda x, y, z: np.sin(x)), is broadcast into one full,
    C-contiguous, writeable array.
    """
    h = (hi - lo) / (n - 1)
    axes = [lo + h * np.arange(n) for _ in range(dim)]
    values = np.empty((n,) * dim)
    values[...] = fn(*np.meshgrid(*axes, indexing="ij", sparse=True))
    return grid_field(values, h, (lo,) * dim)

