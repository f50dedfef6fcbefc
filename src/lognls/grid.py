"""Uniform tensor grids on [-R, R]^dim with Dirichlet boundary.

A grid's only coordinate array is its 1d axis. A field is a plain 1d numpy
array with one value per node, raveled row-major from the open mesh
``np.ix_(axis, ..., axis)``, on which every whole-grid table is built (see
`sq_distance`). Boundary nodes are meant to carry the value 0 (homogeneous
Dirichlet); the operators here do not enforce that on their inputs but
return 0 on boundary rows.

Quadrature is the trapezoid rule induced by the uniform spacing: interior
weight h^dim, halved once per boundary-touching axis. The discrete gradient
energy used elsewhere is ``integrate(g, u * laplacian_apply(g, u))`` so that
stationarity of the discrete energy coincides with the discrete
Euler-Lagrange equation.

A `GridBox` is the box of nodes of a grid read as a grid of its own, whose
outermost nodes are its boundary; `laplacian_apply` and `integrate` take
either.
"""

from __future__ import annotations

import math
import zipfile
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidInput

__all__ = [
    "Grid",
    "GridBox",
    "build_grid",
    "check_radii",
    "conforming_radius",
    "sq_distance",
    "laplacian_apply",
    "integrate",
    "zero_extend",
    "save_field",
    "load_field",
]


def conforming_radius(target: float, h: float) -> float:
    """Smallest radius >= target that h divides evenly."""
    return math.ceil(target / h - 1e-12) * h


class Grid:
    """Uniform grid over [-R, R]^dim, not changed after construction.

    Its axis is its only coordinate array; node tables are built on the
    open mesh of the axes (`sq_distance`).

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    R : float
        Truncation radius (the domain is the cube of half-width R).
    h : float
        Uniform spacing.
    axis : numpy.ndarray
        The shared 1d coordinate array, shape (n,), running -R..R.
    interior_mask : numpy.ndarray
        Boolean per node, True iff strictly inside the domain.
    quad_weights : numpy.ndarray
        Trapezoid weight per node; sums to (2R)^dim.

    `build_grid` marks the three arrays read-only, since it hands one grid
    to every caller with the same (dim, R, h). Equality and hashing are by
    identity, so a grid keys the caches of the tables built on it.
    """

    def __init__(self, dim: int, R: float, h: float, axis: np.ndarray,
                 interior_mask: np.ndarray, quad_weights: np.ndarray):
        self.dim = dim
        self.R = R
        self.h = h
        self.axis = axis
        self.interior_mask = interior_mask
        self.quad_weights = quad_weights

    @property
    def n_axis(self) -> int:
        return self.axis.size

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n_axis,) * self.dim

    @cached_property
    def num_nodes(self) -> int:
        return self.n_axis**self.dim

    def check_field(self, u: np.ndarray) -> np.ndarray:
        """Validate that u is a field on this grid; returns it as float array."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.num_nodes,):
            raise InvalidInput(f"field has shape {u.shape}, expected ({self.num_nodes},)")
        return u

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Indices of the boundary nodes, where residuals are zeroed."""
        idx = np.flatnonzero(~self.interior_mask)
        idx.setflags(write=False)
        return idx

    @property
    def whole(self) -> "Grid":
        """The grid whose node tables this one reads: itself."""
        return self

    def restrict(self, table: np.ndarray) -> np.ndarray:
        """A table of `whole` (nodes along its last axis) on this grid's
        nodes: the table itself."""
        return table


class GridBox:
    """The nodes of a box of the grid `whole`, one slice of node indices per
    axis in `index`, read as a grid of their own.

    The box's outermost nodes, its frame, are its boundary: quadrature
    weight 0 and residual 0, while the stencil reads their values as
    Dirichlet data. `restrict` slices a table of the whole grid to the box
    once per table and holds the slice, so a box, which lives as long as
    one descent, adds no entry to a module cache. Its geometry (`dim`, `h`,
    `shape`, `num_nodes`) is fixed when it is built and held as plain
    attributes, which every `check_field` and `integrate` reads.
    """

    check_field = Grid.check_field

    def __init__(self, whole: Grid, index: tuple[slice, ...]):
        self.whole = whole
        self.index = index
        self.dim = whole.dim
        self.h = whole.h
        self.shape = tuple(sl.stop - sl.start for sl in index)
        self.num_nodes = math.prod(self.shape)
        self._restricted: dict = {}

    @cached_property
    def interior_mask(self) -> np.ndarray:
        inner = np.zeros(self.shape, dtype=bool)
        inner[(slice(1, -1),) * self.dim] = True
        return inner.ravel()

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.interior_mask)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        return self.take(self.whole.quad_weights) * self.interior_mask

    def take(self, u: np.ndarray) -> np.ndarray:
        """A copy of the box's values of a field on the whole grid."""
        return self.whole.check_field(u).reshape(self.whole.shape)[self.index].flatten()

    def embed(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write a field on the box into the box's nodes of the whole-grid
        field out, and return out."""
        out.reshape(self.whole.shape)[self.index] = values.reshape(self.shape)
        return out

    def restrict(self, table: np.ndarray) -> np.ndarray:
        """A read-only table of the whole grid (nodes along its last axis)
        on the box's nodes, sliced once per table."""
        hit = self._restricted.get(id(table))
        if hit is None:
            lead = table.shape[:-1]
            part = table.reshape(lead + self.whole.shape)[(Ellipsis,) + self.index]
            part = np.ascontiguousarray(part).reshape(lead + (-1,))
            part.setflags(write=False)
            # the table is held with its slice, so its id is not reused
            hit = self._restricted[id(table)] = (table, part)
        return hit[1]


def check_radii(h: float, radii) -> None:
    """Check, building no grid, that a grid of spacing h can be built at
    each radius, h > 0 dividing 2R to within 1e-9 relative with R/h >= 8,
    and a field carried across each step between consecutive radii, a
    whole number of nodes to within 1e-9."""
    if h <= 0.0:
        raise InvalidInput(f"spacing must be positive, got h={h}")
    for R in radii:
        m = 2.0 * R / h
        if abs(m - round(m)) > 1e-9 * abs(m):
            raise InvalidInput(f"2R/h = {m} is not an integer")
        if R / h < 8.0:
            raise InvalidInput(f"need R/h >= 8, got R={R}, h={h}")
    for a, b in zip(radii, radii[1:]):
        shift = (b - a) / h
        if abs(shift - round(shift)) > 1e-9:
            raise InvalidInput(f"node lattices do not align: (R_new - R_old)/h = {shift}")


@lru_cache(maxsize=32)
def build_grid(dim: int, R: float, h: float) -> Grid:
    """The uniform grid covering [-R, R]^dim with spacing h, at a radius
    `check_radii` admits. Built once per (dim, R, h) and process: every
    call with equal arguments returns the same grid, whose arrays are
    read-only, so every well, R stage and eps of a run shares one grid per
    radius and, with it, every table cached on that grid.
    """
    if dim not in (1, 2):
        raise InvalidInput(f"dim must be 1 or 2, got {dim}")
    check_radii(h, (R,))
    m_int = round(2.0 * R / h)

    axis = np.linspace(-R, R, m_int + 1)
    w1 = np.full(m_int + 1, h)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    inner1 = np.zeros(m_int + 1, dtype=bool)
    inner1[1:-1] = True

    weights, interior = w1, inner1
    if dim == 2:
        weights, interior = np.outer(w1, w1).ravel(), np.outer(inner1, inner1).ravel()
    for arr in (axis, weights, interior):
        arr.setflags(write=False)

    return Grid(dim=dim, R=float(R), h=float(h), axis=axis,
                interior_mask=interior, quad_weights=weights)


def sq_distance(axis: np.ndarray, center) -> np.ndarray:
    """|x - center|^2 at every node of the grid on the axis `axis`, one
    dimension per coordinate of center, summed on the open mesh of the
    axes; pass eps * g.axis for the scaled nodes."""
    return sum(np.ix_(*((axis - c) ** 2 for c in center))).ravel()


def laplacian_apply(g: Grid | GridBox, u: np.ndarray) -> np.ndarray:
    """Apply the negative discrete Laplacian, (-Δ_h u)_j, second order.

    Central five-point (three-point in 1d) stencil at interior nodes;
    boundary rows are returned as 0. On a box the frame's values are the
    stencil's Dirichlet data.

    Each axis is taken as a difference of neighbour differences,
    (u_i - u_{i-1}) - (u_{i+1} - u_i). For a smooth field the neighbour
    differences are exact in floating point, so the rounding error of a
    node is eps |u'| / h, not the eps |u| / h^2 of 2 u_i - u_{i-1} - u_{i+1};
    that error would otherwise dominate int(u Lu) and hence J.
    """
    u = g.check_field(u)
    h2 = g.h * g.h
    if g.dim == 1:
        d = u[1:] - u[:-1]
        out = np.zeros_like(u)
        inner = np.subtract(d[:-1], d[1:], out=out[1:-1])
        inner /= h2
        return out
    U = u.reshape(g.shape)
    dx = np.diff(U[:, 1:-1], axis=0)
    dy = np.diff(U[1:-1, :], axis=1)
    out = np.zeros_like(U)
    out[1:-1, 1:-1] = ((dx[:-1] - dx[1:]) + (dy[:, :-1] - dy[:, 1:])) / h2
    return out.ravel()


def integrate(g: Grid | GridBox, values: np.ndarray) -> float:
    """Trapezoid quadrature of per-node values over the domain.

    einsum keeps the sum in numpy's own loop: np.dot hands long vectors to
    a threaded BLAS, whose result then depends on the thread count.
    """
    values = g.check_field(values)
    return float(np.einsum("i,i->", g.quad_weights, values))


def zero_extend(u: np.ndarray, g_old: Grid, g_new: Grid) -> np.ndarray:
    """Embed a field into a larger same-spacing grid, padding with zeros."""
    u = g_old.check_field(u)
    if g_new.R < g_old.R - 1e-12 * g_old.R:
        raise InvalidInput(f"target radius {g_new.R} smaller than source {g_old.R}")
    if g_old.dim != g_new.dim:
        raise InvalidInput(f"dimensions differ: {g_old.dim} vs {g_new.dim}")
    if abs(g_old.h - g_new.h) > 1e-12 * g_old.h:
        raise InvalidInput(f"spacings differ: {g_old.h} vs {g_new.h}")
    check_radii(g_new.h, (g_old.R, g_new.R))
    k = round((g_new.R - g_old.R) / g_new.h)
    out = np.zeros(g_new.shape)
    out[(slice(k, k + g_old.n_axis),) * g_old.dim] = u.reshape(g_old.shape)
    return out.ravel()


def save_field(path, g: Grid, u: np.ndarray, eps: float) -> None:
    """Write a field as an uncompressed .npz: float64 ``u`` shaped g.shape and
    0-d ``R``, ``h``, ``eps``. Bare ZipInfos carry the fixed 1980-01-01 date,
    so the bytes depend only on the values; np.savez stamps the wall clock."""
    u = g.check_field(u).reshape(g.shape)
    with zipfile.ZipFile(path, "w") as zf:
        for key, value in (("u", u), ("R", g.R), ("h", g.h), ("eps", eps)):
            with zf.open(zipfile.ZipInfo(f"{key}.npy"), "w") as fh:
                np.lib.format.write_array(fh, np.asarray(value, dtype=np.float64))


def load_field(path) -> tuple[Grid, float, np.ndarray]:
    """Read a field file written by save_field; returns (grid, eps, values).

    The grid is that of the rescaled problem. The original-variable solution
    v(x) = u(x/eps) has the same values on the lattice eps times the grid's,
    ``build_grid(g.dim, eps * g.R, eps * g.h)``. Any other file, an earlier
    version's CSV dump included, raises InvalidInput."""
    with open(path, "rb") as fh:  # np.load leaks a file it opens on a corrupt zip
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise InvalidInput(f"{path} holds a bare array, not a field file")
            with data:
                values = {key: data[key] for key in data.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise InvalidInput(f"{path} is not a field .npz file: {exc}") from exc
    if values.keys() != {"u", "R", "h", "eps"} or not all(
            isinstance(v, np.ndarray) and v.dtype == np.float64 and (k == "u" or v.ndim == 0)
            for k, v in values.items()):
        raise InvalidInput(f"{path} must hold float64 u and 0-d R, h, eps: {sorted(values)}")
    u = values["u"]
    g = build_grid(u.ndim, float(values["R"]), float(values["h"]))
    if u.shape != g.shape:
        raise InvalidInput(f"field file u has shape {u.shape}, grid has {g.shape}")
    return g, float(values["eps"]), u.ravel()
