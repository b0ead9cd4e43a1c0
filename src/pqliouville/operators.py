"""Second-order finite-difference operators on uniform grid fields.

All node-centred stencils are valid one ring inside the boundary; the
boundary ring of every output is marked unset (NaN).  The divergence
form uses centred fluxes on half-grid faces with face-averaged
tangential gradients, so one canonical scheme backs every identity
check.

The ring stencils (`laplacian`, `flux_divergence`) fill their output in
blocks of planes along axis 0, each read with one halo plane on either
side, so a block's temporaries stay in cache instead of streaming
whole-grid arrays through memory at every elementwise step.  Face
quantities are built only on the tangential interior the divergence
keeps and updated in place; no full-size NaN-ring temporary is made.
Blocking and trimming change which nodes a temporary covers, never the
operations applied at a node, so the results are bit-identical to
whole-array evaluation.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .errors import FieldError
from .grid import GridField

AUTO_REG = "auto"

# Nodes per block of axis-0 planes in the ring stencils (0.5 MB per
# float64 temporary).
_BLOCK_NODES = 1 << 16


def _interior(ndim: int, k: int = 1) -> tuple[slice, ...]:
    return tuple(slice(k, -k) for _ in range(ndim))


def _along(ndim: int, axis: int, sl: slice, rest: slice = slice(None)) -> tuple[slice, ...]:
    """Index taking `sl` along `axis` and `rest` along every other axis."""
    out = [rest] * ndim
    out[axis] = sl
    return tuple(out)


def _ring_stencil(block_kernel, values: np.ndarray, *args) -> np.ndarray:
    """Output of a one-ring stencil, assembled block by block; NaN ring.

    block_kernel(block, *args, acc) adds the stencil of `block` into
    `acc`, the zero-initialised interior of the block's output.
    """
    d = values.ndim
    out = np.zeros_like(values)
    n0 = values.shape[0]
    step = max(1, _BLOCK_NODES // values[0].size)
    for i0 in range(1, n0 - 1, step):
        i1 = min(i0 + step, n0 - 1)
        block_kernel(values[i0 - 1:i1 + 1], *args, out[i0 - 1:i1 + 1][_interior(d)])
    for axis in range(d):
        out[_along(d, axis, slice(0, 1))] = np.nan
        out[_along(d, axis, slice(-1, None))] = np.nan
    return out


def gradient_components(values: np.ndarray, h: float) -> list[np.ndarray]:
    """Centred first derivatives along each axis.

    Each component is valid wherever its own axis is interior (NaN on
    that axis' end layers), so node-centred combinations are valid on
    the full interior ring while face averages keep their tangential
    reach.
    """
    d = values.ndim
    out = []
    for axis in range(d):
        g = np.empty_like(values)
        mid = g[_along(d, axis, slice(1, -1))]
        np.subtract(values[_along(d, axis, slice(2, None))],
                    values[_along(d, axis, slice(0, -2))], out=mid)
        mid /= 2.0 * h
        g[_along(d, axis, slice(0, 1))] = np.nan
        g[_along(d, axis, slice(-1, None))] = np.nan
        out.append(g)
    return out


def laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Standard 5-point (d=2) / 7-point (d=3) Laplacian; NaN ring."""
    return _ring_stencil(_laplacian_block, values, h)


def _laplacian_block(values: np.ndarray, h: float, acc: np.ndarray) -> None:
    d = values.ndim
    twice = 2.0 * values[_interior(d)]
    term = np.empty_like(twice)
    for axis in range(d):
        np.subtract(values[_along(d, axis, slice(2, None), slice(1, -1))], twice, out=term)
        term += values[_along(d, axis, slice(0, -2), slice(1, -1))]
        acc += term
    acc /= h * h


def dot_arrays(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> np.ndarray:
    out = a[0] * b[0]
    term = np.empty_like(out)
    for x, y in zip(a[1:], b[1:]):
        out += np.multiply(x, y, out=term)
    return out


def grad_squared(values: np.ndarray, h: float) -> np.ndarray:
    comps = gradient_components(values, h)
    return dot_arrays(comps, comps)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Derivatives:
    """Centred derivatives of one field's values, each computed on first use.

    `GridField.derivatives` holds one per field, so every check on the
    same field shares them; a field built from other values gets its own.
    The shared arrays are read-only.
    """

    def __init__(self, values: np.ndarray, h: float):
        self._values = values
        self._h = h

    @cached_property
    def grads(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(g) for g in gradient_components(self._values, self._h))

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """z = |grad v|^2."""
        return _read_only(dot_arrays(self.grads, self.grads))

    @cached_property
    def lap(self) -> np.ndarray:
        return _read_only(laplacian(self._values, self._h))

    @cached_property
    def grad_sq_dot_grad(self) -> np.ndarray:
        """<grad z, grad v>."""
        return _read_only(dot_arrays(gradient_components(self.grad_sq, self._h), self.grads))


def flux_divergence(
    values: np.ndarray, h: float, powers: tuple[float, ...], reg_eps: float
) -> np.ndarray:
    """div( sum_s |grad u|^(s-2) grad u ) with centred face fluxes; NaN ring.

    The face gradient combines the exact normal difference with the
    average of the two adjacent centred tangential gradients; the norm
    is regularised as (|grad u|^2 + reg_eps^2)^((s-2)/2).
    """
    exponents = [(s - 2.0) / 2.0 for s in powers]
    return _ring_stencil(_flux_block, values, h, exponents, reg_eps * reg_eps)


def _flux_block(
    values: np.ndarray, h: float, exponents: list[float], eps2: float, acc: np.ndarray
) -> None:
    d = values.ndim
    # Centred gradient along each axis, on that axis' interior only.
    centred = []
    for axis in range(d):
        g = np.subtract(values[_along(d, axis, slice(2, None))],
                        values[_along(d, axis, slice(0, -2))])
        g /= 2.0 * h
        centred.append(g)
    for axis in range(d):
        # Faces normal to `axis`, on the interior of every other axis.
        keep = _along(d, axis, slice(None), slice(1, -1))
        kept = values[keep]
        dn = np.subtract(kept[_along(d, axis, slice(1, None))], kept[_along(d, axis, slice(0, -1))])
        dn /= h
        z_face = dn * dn
        tang = np.empty_like(dn)
        for other in range(d):
            if other == axis:
                continue
            sl = list(keep)
            sl[other] = slice(None)
            c = centred[other][tuple(sl)]
            np.add(c[_along(d, axis, slice(0, -1))], c[_along(d, axis, slice(1, None))], out=tang)
            tang *= 0.5
            tang *= tang
            z_face += tang
        z_face += eps2
        weight = np.power(z_face, exponents[0])
        for e in exponents[1:]:
            weight += np.power(z_face, e, out=tang)
        weight *= dn
        div = np.subtract(weight[_along(d, axis, slice(1, None))], weight[_along(d, axis, slice(0, -1))],
                          out=tang[_along(d, axis, slice(1, None))])
        div /= h
        acc += div


def _auto_eps(values: np.ndarray, h: float) -> float:
    span = float(np.nanmax(values) - np.nanmin(values))
    return 1e-10 * max(1.0, span / h)


def pq_laplacian(field: GridField, p: float, q: float, reg_eps=AUTO_REG) -> GridField:
    """Discrete Delta_p u + Delta_q u on interior nodes; boundary ring unset.

    reg_eps='auto' picks 1e-10 times the field's gradient scale; pass an
    explicit float (0 is allowed for p, q >= 2 away from critical
    points) to pin the regularization.
    """
    eps = _auto_eps(field.values, field.spacing) if reg_eps == AUTO_REG else float(reg_eps)
    out = flux_divergence(field.values, field.spacing, (p, q), eps)
    if not np.isfinite(out[_interior(field.ndim)]).all():
        raise FieldError("field not smooth enough at spacing h")
    return GridField(values=out, spacing=field.spacing, origin=field.origin)


def p_laplacian(field: GridField, p: float, reg_eps=AUTO_REG) -> GridField:
    """Discrete Delta_p u alone (same scheme as pq_laplacian)."""
    eps = _auto_eps(field.values, field.spacing) if reg_eps == AUTO_REG else float(reg_eps)
    out = flux_divergence(field.values, field.spacing, (p,), eps)
    if not np.isfinite(out[_interior(field.ndim)]).all():
        raise FieldError("field not smooth enough at spacing h")
    return GridField(values=out, spacing=field.spacing, origin=field.origin)
