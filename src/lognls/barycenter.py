"""Localization of a field's mass: the truncated, weighted barycenter.

    Q(u) = int( chi(eps x) g(eps x) u^2 ) / int( g(eps x) u^2 ),

where chi is the identity inside B_R0 and the radial projection R0 x/|x|
outside, and the weight g is 1 on B_R0 with exponential decay beyond. Both
act in the original (unscaled) coordinates, so Q is compared directly with
the well centers z_i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveEpsilon, ZeroField
from .grid import Grid, GridBox, sq_distance
from .potential import WellGeometry

__all__ = ["Region", "q_eps", "region_of", "chi_map", "g_weight"]

BOUNDARY_TOL = 1e-9


class Region(NamedTuple):
    """Classification of a barycenter against the well balls.

    kind is "interior", "boundary" or "outside"; well is the (0-based)
    matching well index or None; core marks |q - z_i| <= rho0/2.
    """

    kind: str
    well: int | None = None
    core: bool = False

    def is_interior(self, well: int | None = None) -> bool:
        return self.kind == "interior" and (well is None or self.well == well)


def chi_map(points: np.ndarray, R0: float) -> np.ndarray:
    """chi(x): identity on |x| <= R0, radial clamp R0 x/|x| beyond."""
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=-1, keepdims=True)
    scale = np.ones_like(r)
    far = r > R0
    scale[far] = R0 / r[far]
    return pts * scale


def g_weight(points: np.ndarray, R0: float) -> np.ndarray:
    """Radial weight: 1 on |x| <= R0, exp(-(|x| - R0)) beyond."""
    r = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
    return np.where(r <= R0, 1.0, np.exp(-(np.maximum(r, R0) - R0)))


@lru_cache(maxsize=64)
def _tables(R0: float, eps: float, g: Grid):
    """chi of the scaled nodes and the weighted quadrature weights of a
    whole grid, as `chi_map` and `g_weight` give them at points, from the
    radius on the open mesh of the axes; a box restricts them."""
    scaled = eps * g.axis
    # |eps x| raised to R0 inside B_R0, where chi is the identity and g is 1
    r = np.maximum(np.sqrt(sq_distance(scaled, np.zeros(g.dim))), R0)
    clamp = (R0 / r).reshape(g.shape)
    # (dim, n): each coordinate contiguous, contracted by einsum in q_eps
    chi = np.stack([(x * clamp).ravel() for x in np.ix_(*[scaled] * g.dim)])
    wq = g.quad_weights * np.exp(R0 - r)
    wq.setflags(write=False)
    chi.setflags(write=False)
    return chi, wq


def q_eps(u: np.ndarray, eps: float, R0: float, g: Grid | GridBox) -> np.ndarray:
    """Barycenter of u^2 under the chi/g truncation at radius R0 (chi's
    clamp, g's plateau); |result| <= R0. On a box it covers the box's
    nodes, its frame included."""
    if eps <= 0.0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    u = g.check_field(u)
    chi, wq = (g.restrict(t) for t in _tables(float(R0), float(eps), g.whole))
    density = wq * u * u
    denom = density.sum()
    if denom <= 0.0:
        raise ZeroField("barycenter undefined: g-weighted mass vanishes")
    return np.einsum("dn,n->d", chi, density) / denom


def region_of(q: np.ndarray, geometry: WellGeometry, wells: np.ndarray) -> Region:
    """Classify a point against the balls B_rho0(z_i).

    Boundary wins inside a 1e-9 band around |q - z_i| = rho0; the balls are
    pairwise disjoint so at most one well can match.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    wells = np.atleast_2d(np.asarray(wells, dtype=float))
    dists = np.linalg.norm(wells - q[None, :], axis=1)
    i = int(np.argmin(dists))
    d = float(dists[i])
    if abs(d - geometry.rho0) <= BOUNDARY_TOL:
        return Region(kind="boundary", well=i)
    if d < geometry.rho0:
        return Region(kind="interior", well=i, core=d <= 0.5 * geometry.rho0)
    return Region(kind="outside")
