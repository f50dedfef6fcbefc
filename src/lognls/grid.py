"""Uniform tensor grids on [-R, R]^dim with Dirichlet boundary.

A field is a plain 1d numpy array with one value per node, in the row-major
order produced by ``meshgrid(..., indexing="ij")``. Boundary nodes are meant
to carry the value 0 (homogeneous Dirichlet); the operators here do not
enforce that on their inputs but return 0 on boundary rows.

Quadrature is the trapezoid rule induced by the uniform spacing: interior
weight h^dim, halved once per boundary-touching axis. The discrete gradient
energy used elsewhere is ``integrate(g, u * laplacian_apply(g, u))`` so that
stationarity of the discrete energy coincides with the discrete
Euler-Lagrange equation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainTooCoarse,
    GridMismatch,
    NonConformingSpacing,
    NonPositiveSpacing,
    ShrinkingDomain,
    SpacingMismatch,
)

__all__ = [
    "Grid",
    "build_grid",
    "conforming_radius",
    "laplacian_apply",
    "integrate",
    "zero_extend",
    "restrict",
    "save_field",
    "load_field",
]


def conforming_radius(target: float, h: float) -> float:
    """Smallest radius >= target that h divides evenly."""
    return math.ceil(target / h - 1e-12) * h


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid over [-R, R]^dim. Immutable after construction.

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
    nodes : numpy.ndarray
        All node coordinates, shape (num_nodes, dim), row-major.
    interior_mask : numpy.ndarray
        Boolean per node, True iff strictly inside the domain.
    quad_weights : numpy.ndarray
        Trapezoid weight per node; sums to (2R)^dim.
    """

    dim: int
    R: float
    h: float
    axis: np.ndarray
    nodes: np.ndarray
    interior_mask: np.ndarray
    quad_weights: np.ndarray

    @property
    def n_axis(self) -> int:
        return self.axis.size

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_axis,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.n_axis**self.dim

    def check_field(self, u: np.ndarray) -> np.ndarray:
        """Validate that u is a field on this grid; returns it as float array."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.num_nodes,):
            raise GridMismatch(
                f"field has shape {u.shape}, expected ({self.num_nodes},)"
            )
        return u

    def radii(self) -> np.ndarray:
        """Euclidean distance of every node from the origin."""
        return np.linalg.norm(self.nodes, axis=1)


def build_grid(dim: int, R: float, h: float) -> Grid:
    """Build the uniform grid covering [-R, R]^dim with spacing h.

    Requires R/h >= 8 and that h divides 2R to within 1e-9 relative.
    """
    if dim not in (1, 2):
        raise GridMismatch(f"dim must be 1 or 2, got {dim}")
    if h <= 0.0:
        raise NonPositiveSpacing(f"spacing must be positive, got h={h}")
    m = 2.0 * R / h
    m_int = round(m)
    if m_int >= 1 and abs(m - m_int) > 1e-9 * m:
        raise NonConformingSpacing(f"2R/h = {m} is not an integer")
    if R <= 0.0 or R / h < 8.0:
        raise DomainTooCoarse(f"need R/h >= 8, got R={R}, h={h}")

    axis = np.linspace(-R, R, m_int + 1)
    w1 = np.full(m_int + 1, h)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    inner1 = np.zeros(m_int + 1, dtype=bool)
    inner1[1:-1] = True

    if dim == 1:
        nodes = axis[:, None]
        weights = w1
        interior = inner1
    else:
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.outer(w1, w1).ravel()
        interior = np.outer(inner1, inner1).ravel()

    return Grid(
        dim=dim,
        R=float(R),
        h=float(h),
        axis=axis,
        nodes=nodes,
        interior_mask=interior,
        quad_weights=weights,
    )


def laplacian_apply(g: Grid, u: np.ndarray) -> np.ndarray:
    """Apply the negative discrete Laplacian, (-Δ_h u)_j, second order.

    Central five-point (three-point in 1d) stencil at interior nodes;
    boundary rows are returned as 0.

    Each axis is taken as a difference of neighbour differences,
    (u_i - u_{i-1}) - (u_{i+1} - u_i). For a smooth field the neighbour
    differences are exact in floating point, so the rounding error of a
    node is eps |u'| / h, not the eps |u| / h^2 of 2 u_i - u_{i-1} - u_{i+1};
    that error would otherwise dominate int(u Lu) and hence J.
    """
    u = g.check_field(u)
    h2 = g.h * g.h
    if g.dim == 1:
        d = np.diff(u)
        out = np.zeros_like(u)
        out[1:-1] = (d[:-1] - d[1:]) / h2
        return out
    n = g.n_axis
    U = u.reshape(n, n)
    dx = np.diff(U[:, 1:-1], axis=0)
    dy = np.diff(U[1:-1, :], axis=1)
    out = np.zeros_like(U)
    out[1:-1, 1:-1] = ((dx[:-1] - dx[1:]) + (dy[:, :-1] - dy[:, 1:])) / h2
    return out.ravel()


def integrate(g: Grid, values: np.ndarray) -> float:
    """Trapezoid quadrature of per-node values over the domain.

    einsum keeps the sum in numpy's own loop: np.dot hands long vectors to
    a threaded BLAS, whose result then depends on the thread count.
    """
    values = g.check_field(values)
    return float(np.einsum("i,i->", g.quad_weights, values))


def _embed_offset(g_old: Grid, g_new: Grid) -> int:
    """Index offset of g_old's first axis node inside g_new's axis."""
    if g_old.dim != g_new.dim:
        raise GridMismatch(
            f"dimensions differ: {g_old.dim} vs {g_new.dim}"
        )
    if abs(g_old.h - g_new.h) > 1e-12 * g_old.h:
        raise SpacingMismatch(f"spacings differ: {g_old.h} vs {g_new.h}")
    shift = (g_new.R - g_old.R) / g_new.h
    k = round(shift)
    if abs(shift - k) > 1e-9:
        raise SpacingMismatch(
            f"node lattices do not align: (R_new - R_old)/h = {shift}"
        )
    return k


def zero_extend(u: np.ndarray, g_old: Grid, g_new: Grid) -> np.ndarray:
    """Embed a field into a larger same-spacing grid, padding with zeros."""
    u = g_old.check_field(u)
    if g_new.R < g_old.R - 1e-12 * g_old.R:
        raise ShrinkingDomain(
            f"target radius {g_new.R} smaller than source {g_old.R}"
        )
    k = _embed_offset(g_old, g_new)
    n_old = g_old.n_axis
    if g_old.dim == 1:
        out = np.zeros(g_new.num_nodes)
        out[k : k + n_old] = u
        return out
    out = np.zeros((g_new.n_axis, g_new.n_axis))
    out[k : k + n_old, k : k + n_old] = u.reshape(n_old, n_old)
    return out.ravel()


def restrict(u: np.ndarray, g_old: Grid, g_new: Grid) -> np.ndarray:
    """Restrict a field to a smaller same-spacing grid (inverse of zero_extend)."""
    u = g_old.check_field(u)
    if g_new.R > g_old.R + 1e-12 * g_old.R:
        raise ShrinkingDomain(
            f"target radius {g_new.R} larger than source {g_old.R}; use zero_extend"
        )
    k = _embed_offset(g_new, g_old)
    n_new = g_new.n_axis
    if g_old.dim == 1:
        return u[k : k + n_new].copy()
    U = u.reshape(g_old.n_axis, g_old.n_axis)
    return U[k : k + n_new, k : k + n_new].ravel().copy()


def save_field(path, g: Grid, u: np.ndarray) -> None:
    """Write a field as CSV: header with dim,R,h then one row per node."""
    # the bytes of csv.writer's default dialect: \r\n line ends, and no
    # float repr needs quoting
    rows = np.column_stack([g.nodes, g.check_field(u)]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"dim,R,h\r\n{g.dim},{g.R!r},{g.h!r}\r\n")
        fh.write("x,value\r\n" if g.dim == 1 else "x,y,value\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def load_field(path) -> tuple[Grid, np.ndarray]:
    """Read a field CSV written by save_field; rebuilds the grid."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["dim", "R", "h"]:
            raise GridMismatch(f"unexpected field header {header}")
        dim_s, R_s, h_s = next(reader)[:3]
        g = build_grid(int(dim_s), float(R_s), float(h_s))
        next(reader)  # column names
        values = np.empty(g.num_nodes)
        for j, row in enumerate(reader):
            values[j] = float(row[-1])
        if j + 1 != g.num_nodes:
            raise GridMismatch(
                f"field file has {j + 1} rows, grid has {g.num_nodes} nodes"
            )
    return g, values
