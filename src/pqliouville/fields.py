"""Catalog of manufactured test fields.

Every catalog field is smooth; the ones used for the change-of-variable
check are strictly positive with a nonvanishing gradient on their
window by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import GridField, sample_function


@dataclass(frozen=True)
class ManufacturedField:
    name: str
    fn: Callable
    lo: float
    hi: float

    def sample(self, n: int, dim: int = 2) -> GridField:
        return sample_function(self.fn, self.lo, self.hi, n, dim)

    def sample_scaled(self, k: float, n: int, dim: int = 2) -> GridField:
        """Sample on the k-dilated box [k lo, k hi] (spacing k h)."""
        return sample_function(self.fn, self.lo * k, self.hi * k, n, dim)


def _offset_sine(*coords):
    return 2.0 + 0.3 * _sine_product(*coords)


def _parabolic_bowl(*coords):
    out = np.zeros_like(coords[0])
    for c in coords:
        out = out + c * c
    return out


def _saddle(*coords):
    return coords[0] ** 2 - coords[1] ** 2


def _sine_product(*coords):
    out = np.sin(coords[0])
    for c in coords[1:]:
        out = out * np.cos(c)
    return out


def _sine_x1(*coords):
    return np.sin(coords[0])


OFFSET_SINE = ManufacturedField("offset_sine", _offset_sine, 0.0, 1.0)
PARABOLIC_BOWL = ManufacturedField("parabolic_bowl", _parabolic_bowl, 0.0, 1.0)
SADDLE = ManufacturedField("saddle", _saddle, -0.5, 0.5)
SINE_PRODUCT = ManufacturedField("sine_product", _sine_product, 0.0, 1.0)
SINE_X1 = ManufacturedField("sine_x1", _sine_x1, 0.25, 1.25)
RADIAL_SQUARE = ManufacturedField("radial_square", _parabolic_bowl, 0.25, 1.25)

CATALOG = {
    f.name: f
    for f in (OFFSET_SINE, PARABOLIC_BOWL, SADDLE, SINE_PRODUCT, SINE_X1, RADIAL_SQUARE)
}
