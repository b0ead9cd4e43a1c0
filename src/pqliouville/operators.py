"""Uniform grid fields and second-order finite-difference kernels on them.

All node-centred stencils are valid one ring inside the boundary.  The
divergence form uses centred fluxes on half-grid faces with
face-averaged tangential gradients, so one canonical scheme backs every
identity check.

The grid kernels work on blocks of axis-0 planes: `_flux_block` and
`_laplacian_block` give their stencil on the inner planes of a block
that carries one halo plane either side, on the ring-1 interior of the
other axes, and `_dot_planes` gives sum_k d_k a * d_k b on any planes,
building the gradient planes it reads.  Face quantities are built only
on the tangential interior the divergence keeps and updated in place.
The identity checks in `identities` build every derivative they read
from these kernels one block at a time, and hold no whole-grid array but
their samples.  `pq_laplacian`, `p_laplacian` and `grad_squared` assemble
whole grids from them.  One driver, `map_plane_blocks`, maps a kernel
over the blocks of a range of planes, and `sample_function` fills its
output through it too.  A block holds about `_BLOCK_NODES` nodes.

The block size sets each block's working set.  The change-of-variable
check's blocks are the largest: a 97^3 block of 4 planes peaks at 16
block-sized arrays (4.6 MiB), a 2-d block at 14 (3.5 MiB at 1 << 15
nodes), and a Bochner block at about half that.  1 << 15 nodes keeps a
block near the 4 MiB L2 cache of a core (2-CPU Xeon, numpy 2.4.6) and
splits the 257^2 grids of `verify-identities --resolution 129` in two;
1 << 16 doubled the working set and kept those grids on one CPU, and
1 << 14 spent more on halo planes than it saved.

Reductions go through `map_planes`, one result per block; max, min, all
and counts combine them into exactly the whole-array value.

A range that fits in one block runs inline.  A larger one is mapped over
a module-level thread pool, which numpy's elementwise loops keep busy
because they release the interpreter lock.  The pool is created on the
first multi-block call, with one thread per CPU this process may run on
(`worker_count`), and is dropped in a forked child; `retire_idle_pool`
shuts it down before the row driver forks, when no other thread runs.  A
block kernel never submits to the pool, so no worker waits on another
and nothing can deadlock; it runs under the caller's `np.errstate`,
which numpy keeps per thread.  Any number of threads may call the
kernels at once.

Blocking, trimming and threading change which nodes a temporary covers
and which thread computes them, never the operations applied at a node,
so the results are bit-identical to whole-array evaluation for any block
size and worker count.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import FieldError
from .report import worker_count

# About this many nodes per block of axis-0 planes (256 KiB per float64
# temporary); the module docstring says why.
_BLOCK_NODES = 1 << 15

_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(worker_count(), thread_name_prefix="pqliouville-block")
        return _pool


def retire_idle_pool() -> None:
    """Shut the pool down when its threads are the only other threads alive.

    The row driver forks only where one thread runs; the next multi-block
    call makes a new pool.
    """
    global _pool
    with _pool_lock:
        others = set(threading.enumerate()) - {threading.current_thread()}
        if _pool is not None and others <= _pool._threads:
            _pool.shutdown()
            _pool = None


def _block_count(planes: int, plane_nodes: int) -> int:
    """Blocks for `planes` planes: about _BLOCK_NODES nodes each, whole planes."""
    return max(1, min(planes, (planes * plane_nodes + _BLOCK_NODES // 2) // _BLOCK_NODES))


def map_plane_blocks(
    kernel: Callable[[int, int], object], lo: int, hi: int, plane_nodes: int
) -> list:
    """kernel(i0, i1) on consecutive blocks [i0, i1) that cover planes [lo, hi), in order.

    The range splits into as many blocks of about `_BLOCK_NODES` nodes as
    its size rounds to, at most one per plane, whose lengths differ by at
    most one plane.  One block runs inline; more go to the pool, each
    under the caller's np.errstate, and this returns their results when
    all are done, raising the first failure.  The kernel must write
    disjoint parts of its output per block and must not call back into
    this driver.
    """
    count = _block_count(hi - lo, plane_nodes)
    if count == 1:
        return [kernel(lo, hi)]
    cuts = [lo + (hi - lo) * j // count for j in range(count + 1)]
    errstate = dict(np.geterr(), call=np.geterrcall())

    def run(i0: int, i1: int):
        with np.errstate(**errstate):
            return kernel(i0, i1)

    return list(_executor().map(run, cuts[:-1], cuts[1:]))


def map_planes(fn: Callable[[np.ndarray], object], arr: np.ndarray) -> list:
    """[fn(block) for each block of arr's axis-0 planes], blocks as in map_plane_blocks.

    For reductions that do not depend on order (max, min, all, counts),
    combining the block results gives the whole-array result exactly.
    """
    return map_plane_blocks(lambda i0, i1: fn(arr[i0:i1]), 0, len(arr), arr[0].size)


def _interior(ndim: int) -> tuple[slice, ...]:
    return (slice(1, -1),) * ndim


def _along(ndim: int, axis: int, sl: slice, rest: slice = slice(None)) -> tuple[slice, ...]:
    """Index taking `sl` along `axis` and `rest` along every other axis."""
    out = [rest] * ndim
    out[axis] = sl
    return tuple(out)


def _gradient_planes(values: np.ndarray, h: float, i0: int, i1: int) -> list[np.ndarray]:
    """Planes [i0, i1) of every centred gradient component, each NaN on its own axis' end layers."""
    d, n0 = values.ndim, values.shape[0]
    out = [np.empty_like(values[i0:i1]) for _ in range(d)]
    # Along axis 0 the block reads one halo plane on either side.
    lo, hi = max(i0, 1), min(i1, n0 - 1)
    g = out[0][lo - i0:hi - i0]
    np.subtract(values[lo + 1:hi + 1], values[lo - 1:hi - 1], out=g)
    g /= 2.0 * h
    if i0 == 0:
        out[0][0] = np.nan
    if i1 == n0:
        out[0][-1] = np.nan
    block = values[i0:i1]
    for axis in range(1, d):
        g = out[axis]
        mid = g[_along(d, axis, slice(1, -1))]
        np.subtract(block[_along(d, axis, slice(2, None))],
                    block[_along(d, axis, slice(0, -2))], out=mid)
        mid /= 2.0 * h
        g[_along(d, axis, slice(0, 1))] = np.nan
        g[_along(d, axis, slice(-1, None))] = np.nan
    return out


def _dot_planes(
    a: np.ndarray, b: np.ndarray, h: float, i0: int, i1: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Planes [i0, i1) of sum_k d_k a * d_k b, added in k order, into out when given.

    The block builds the gradient planes it needs and drops them.  They
    are all made before the sum, so a new sum lands above them; made one
    component at a time, the sum held over the change-of-variable check's
    cases left too small a hole below it, and on a one-block grid every
    case's flux grew and trimmed the heap again: 7.8k minor faults a fine
    batch of `verify-identities --resolution 129` against 3.1k.
    """
    ga = _gradient_planes(a, h, i0, i1)
    gb = ga if b is a else _gradient_planes(b, h, i0, i1)
    acc = np.multiply(ga[0], gb[0], out=out)
    for x, y in zip(ga[1:], gb[1:]):
        acc += np.multiply(x, y, out=x)
    return acc


def _laplacian_block(planes: np.ndarray, h: float) -> np.ndarray:
    """Standard 5-point (d=2) / 7-point (d=3) Laplacian on planes[1:-1],
    on the ring-1 interior of the other axes."""
    d = planes.ndim
    twice = 2.0 * planes[_interior(d)]
    acc = np.zeros_like(twice)
    term = np.empty_like(twice)
    for axis in range(d):
        np.subtract(planes[_along(d, axis, slice(2, None), slice(1, -1))], twice, out=term)
        term += planes[_along(d, axis, slice(0, -2), slice(1, -1))]
        acc += term
    acc /= h * h
    return acc


def grad_squared(values: np.ndarray, h: float) -> np.ndarray:
    """|grad u|^2 from centred gradients, added in axis order; NaN on the boundary ring."""
    out = np.empty_like(values)
    map_plane_blocks(lambda i0, i1: _dot_planes(values, values, h, i0, i1, out[i0:i1]),
                     0, len(values), values[0].size)
    return out


class GridField(NamedTuple):
    """Values on a uniform isotropic grid whose nodes are `spacing` apart."""

    values: np.ndarray
    spacing: float

    @property
    def ndim(self) -> int:
        return self.values.ndim


def grid_field(values: np.ndarray, spacing: float) -> GridField:
    """Validated constructor: 2- or 3-d, all dims >= 5, finite values, h > 0."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (2, 3):
        raise FieldError("grid fields must be 2- or 3-dimensional")
    if min(values.shape) < 5:
        raise FieldError("all dims must be at least 5 (stencils need two interior layers)")
    if not spacing > 0.0:
        raise FieldError("spacing must be positive")
    if not all(map_planes(lambda x: np.isfinite(x).all(), values)):
        raise FieldError("field values must be finite")
    return GridField(values=values, spacing=float(spacing))


def sample_function(fn: Callable, lo: float, hi: float, n: int, dim: int = 2) -> GridField:
    """Sample fn(x1, ..., xd) at n nodes per axis on [lo, hi]^dim.

    fn receives open axes (np.meshgrid(..., indexing="ij", sparse=True)):
    xk has length n along axis k and length 1 along the others, so fn
    must combine its arguments by broadcasting, as numpy ufuncs and
    arithmetic do.  Each node still sees the same operations as on a
    dense grid, but transcendental functions run on n values per axis
    instead of n^dim.  The output is filled block by block of axis-0
    planes (map_plane_blocks): each call gets the block's slice of x1
    and the whole other axes, so fn may be called several times, from
    several threads at once, and no whole-grid temporary is made beside
    the output.  Each result, which may keep singleton axes (for example
    lambda x, y, z: np.sin(x) or lambda x, y: np.cos(y)), is broadcast
    into its block of one full, C-contiguous, writeable array.
    """
    h = (hi - lo) / (n - 1)
    axes = [lo + h * np.arange(n) for _ in range(dim)]
    first, *rest = np.meshgrid(*axes, indexing="ij", sparse=True)
    values = np.empty((n,) * dim)

    def fill(i0: int, i1: int) -> None:
        values[i0:i1] = fn(first[i0:i1], *rest)

    map_plane_blocks(fill, 0, n, n ** (dim - 1))
    return grid_field(values, h)


def _flux_block(
    planes: np.ndarray, h: float, powers: tuple[float, ...], reg_eps: float
) -> np.ndarray:
    """div( sum_s |grad u|^(s-2) grad u ) on planes[1:-1], on the ring-1
    interior of the other axes.

    Centred fluxes on half-grid faces: the face gradient combines the
    exact normal difference with the average of the two adjacent centred
    tangential gradients; the norm is regularised as
    (|grad u|^2 + reg_eps^2)^((s-2)/2).
    """
    d = planes.ndim
    exponents = [(s - 2.0) / 2.0 for s in powers]
    eps2 = reg_eps * reg_eps
    acc = np.zeros(tuple(n - 2 for n in planes.shape))
    # Centred gradient along each axis, on that axis' interior only.
    centred = []
    for axis in range(d):
        g = np.subtract(planes[_along(d, axis, slice(2, None))],
                        planes[_along(d, axis, slice(0, -2))])
        g /= 2.0 * h
        centred.append(g)
    for axis in range(d):
        # Faces normal to `axis`, on the interior of every other axis.
        keep = _along(d, axis, slice(None), slice(1, -1))
        kept = planes[keep]
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
    return acc


def nan_extremes(
    arr: np.ndarray, of: Callable[[np.ndarray], np.ndarray] | None = None
) -> tuple[np.float64, np.float64]:
    """(np.nanmin(x), np.nanmax(x)) in one blocked pass, x = arr or the elementwise of(arr).

    of is applied block by block, so of(arr) is never made whole.  fmin
    and fmax reduce each block as nanmin and nanmax do, without their
    all-NaN warning, which the final combination gives as they do.
    """

    def ends(x: np.ndarray):
        if of is not None:
            x = of(x)
        return np.fmin.reduce(x, axis=None), np.fmax.reduce(x, axis=None)

    ends = np.array(map_planes(ends, arr))
    return np.nanmin(ends[:, 0]), np.nanmax(ends[:, 1])


def _auto_eps(
    values: np.ndarray, h: float, of: Callable[[np.ndarray], np.ndarray] | None = None
) -> float:
    """pq_laplacian's flux regularisation for the field `values` (or of(values)) at spacing h."""
    lo, hi = nan_extremes(values, of)
    return 1e-10 * max(1.0, float(hi - lo) / h)


def _flux_operator(field: GridField, powers: tuple[float, ...], reg_eps: float) -> GridField:
    """_flux_block on the ring-1 interior, assembled block by block; NaN ring.

    A node where it is not finite refuses the field.
    """
    values, d = field.values, field.ndim
    out = np.full_like(values, np.nan)

    def fill(i0: int, i1: int) -> bool:
        flux = out[(slice(i0, i1),) + _interior(d - 1)]
        flux[...] = _flux_block(values[i0 - 1:i1 + 1], field.spacing, powers, reg_eps)
        return bool(np.isfinite(flux).all())

    if not all(map_plane_blocks(fill, 1, len(values) - 1, values[0].size)):
        raise FieldError("field not smooth enough at spacing h")
    return GridField(values=out, spacing=field.spacing)


def pq_laplacian(field: GridField, p: float, q: float) -> GridField:
    """Discrete Delta_p u + Delta_q u on interior nodes; boundary ring unset.

    The flux is regularised at 1e-10 times the field's gradient scale.
    """
    return _flux_operator(field, (p, q), _auto_eps(field.values, field.spacing))


def p_laplacian(field: GridField, p: float, reg_eps: float) -> GridField:
    """Discrete Delta_p u alone (same scheme as pq_laplacian), regularised at reg_eps."""
    return _flux_operator(field, (p,), reg_eps)
