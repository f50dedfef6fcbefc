"""Multi-well potentials with unit minimum and a finite limit at infinity.

The implemented family is an inverted max of Gaussians,

    V(x) = v_inf - (v_inf - 1) * max_i exp(-|x - z_i|^2 / w),

which attains min V = 1 exactly at the well centers z_i, satisfies
1 <= V(x) < v_inf everywhere, and tends to v_inf at infinity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateWells,
    FlatPotential,
    MissingOriginWell,
    NonPositiveEpsilon,
)
from .grid import Grid, sq_distance

__all__ = [
    "PotentialSpec",
    "WellGeometry",
    "make_multiwell",
    "default_geometry",
    "eval_scaled",
]


def _closest_pair(wells: np.ndarray) -> tuple[float, int, int]:
    """Smallest distance between two well centers and the first pair
    (i < j) attaining it; (inf, -1, -1) for a single well."""
    best = (math.inf, -1, -1)
    for i in range(wells.shape[0]):
        for j in range(i + 1, wells.shape[0]):
            d = float(np.linalg.norm(wells[i] - wells[j]))
            if d < best[0]:
                best = (d, i, j)
    return best


class PotentialSpec:
    """Inverted-Gaussian multi-well potential.

    wells has shape (l, dim); the first well must sit at the origin and
    v_inf must exceed the normalized minimum value 1. Equality and hashing
    are by identity, as it holds an array.
    """

    def __init__(self, wells: np.ndarray, v_inf: float, width: float):
        self.wells = wells
        self.v_inf = v_inf
        self.width = width

    @property
    def l(self) -> int:
        return self.wells.shape[0]

    @property
    def dim(self) -> int:
        return self.wells.shape[1]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate V at points of shape (m, dim) or (dim,)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        d2 = ((pts[:, None, :] - self.wells[None, :, :]) ** 2).sum(axis=2)
        bump = np.exp(-d2 / self.width).max(axis=1)
        vals = self.v_inf - (self.v_inf - 1.0) * bump
        return float(vals[0]) if single else vals


class WellGeometry(NamedTuple):
    """Localization radii: disjoint balls B_rho0(z_i) inside B_R0(0)."""

    rho0: float
    R0: float


def make_multiwell(wells, v_inf: float, width: float) -> PotentialSpec:
    """Construct the inverted-Gaussian potential with the given wells.

    wells: sequence of well centers; the first must be the origin.
    """
    W = np.asarray(wells, dtype=float)
    if W.ndim == 1:
        W = W[:, None]  # flat list of scalars means 1d well positions
    if (W.ndim != 2 or W.shape[0] < 1 or W.shape[1] not in (1, 2)
            or not np.isfinite(W).all()):
        raise MissingOriginWell("wells must be a nonempty list of finite 1d or 2d centers")
    if np.any(W[0] != 0.0):
        raise MissingOriginWell(f"first well must be the origin, got {W[0]}")
    # written so that a NaN fails each test
    if not 1.0 < v_inf < math.inf:
        raise FlatPotential(f"need a finite v_inf > 1 for a strict limit, got {v_inf}")
    if not 0.0 < width < math.inf:
        raise FlatPotential(f"need a finite width > 0, got {width}")
    dmin, i, j = _closest_pair(W)
    if dmin == 0.0:
        raise DuplicateWells(f"wells {i} and {j} coincide at {W[i]}")
    W.setflags(write=False)
    return PotentialSpec(wells=W, v_inf=float(v_inf), width=float(width))


def default_geometry(spec: PotentialSpec) -> WellGeometry:
    """rho0 = quarter of the smallest well separation (1 for a single well),
    R0 = twice max(1, farthest well distance). The balls B_rho0(z_i) are
    disjoint and lie inside B_R0: with two or more wells rho0 <= max|z|/4,
    since the first well is the origin."""
    W = spec.wells
    rho0 = 1.0 if spec.l == 1 else 0.25 * _closest_pair(W)[0]
    R0 = 2.0 * max(1.0, float(np.linalg.norm(W, axis=1).max()))
    return WellGeometry(rho0=rho0, R0=R0)


def eval_scaled(spec: PotentialSpec, eps: float, g: Grid) -> np.ndarray:
    """Tabulate V(eps * x) at every grid node, as `PotentialSpec.__call__`
    does at points, one well at a time on the open mesh of the axes."""
    if eps <= 0.0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    scaled = eps * g.axis
    bump = 0.0
    for z in spec.wells:
        bump = np.maximum(bump, np.exp(-sq_distance(scaled, z) / spec.width))
    return spec.v_inf - (spec.v_inf - 1.0) * bump
