"""The discrete energy functional and its companions.

For a field u on a grid with tabulated potential values V_j = V(eps * x_j),

    J(u) = 1/2 * int(|grad u|^2 + (V + 1) u^2) - 1/2 * int(u^2 log u^2),

with the convention 0 * log 0 = 0 node by node (the continuum integrand
extends continuously by 0, and in the discrete setting this is what makes
J smooth). The gradient (`Evaluation.gradient`) carries the quadrature
weights, so its plain dot product with v is the directional derivative of
J at u along v, and stationarity of the discrete J is exactly the discrete
weak form.

The ray scaling J(s u) = s^2 [J(u) - log(s) * int(u^2)] gives a closed-form
projection onto the Nehari set {J'(u)u = 0}: every ray through a nonzero
field crosses it exactly once, at

    s* = exp( [int(|grad u|^2 + V u^2) - int(u^2 log u^2)] / (2 int(u^2)) ).

Every quantity above is read from one evaluation record per field
(`energy`): the stencil Lu, the log term u log u^2 and the integrals
K = int(u Lu) + int(V u^2), E = int(u^2 log u^2), M = int(u^2), so that
J = (K + M - E)/2 and J'(u)u = K - E. The record of s*u follows from the
record of u without a new stencil, log or integral (`Evaluation.scaled`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidInput, ZeroField
from .grid import Grid, GridBox, integrate, laplacian_apply
from .potential import PotentialSpec, eval_scaled

__all__ = [
    "EnergyParams",
    "NehariResidual",
    "Evaluation",
    "energy",
    "nehari_scale",
    "nehari_residual",
    "log_sobolev_gap",
]

class EnergyParams:
    """Parameters of the discrete functional.

    potential is either a PotentialSpec (evaluated at eps * x) or a plain
    float for the constant-coefficient problem V = const. Equality and
    hashing are by identity: the params key the potential tables.
    """

    def __init__(self, eps: float, potential: Union[PotentialSpec, float]):
        if not 0.0 < eps < math.inf:
            raise InvalidInput(f"eps must be positive and finite, got {eps}")
        self.eps = eps
        self.potential = potential


class NehariResidual(NamedTuple):
    value: float        # |J'(u)u| / max(1, ||u||_eps^2)
    level_gap: float    # |J(u) - 1/2 int(u^2)|, the equivalent characterization


@lru_cache(maxsize=64)
def _potential_table(params: EnergyParams, g: Grid) -> np.ndarray:
    """Per-node potential values V(eps * x_j); cached per (params, whole
    grid) and restricted to a box by the box."""
    if isinstance(params.potential, PotentialSpec):
        vals = eval_scaled(params.potential, params.eps, g)
    else:
        vals = np.full(g.num_nodes, float(params.potential))
    vals.setflags(write=False)
    return vals


def _log_abs(u: np.ndarray) -> np.ndarray:
    """log|u|, with 0 where u = 0, so that u log|u| is 0 there."""
    out = np.abs(u)
    return np.log(out, out=out, where=out != 0.0)


def _u_log_u2(u: np.ndarray) -> np.ndarray:
    """u log u^2 = 2 u log|u| with 0 log 0 = 0, safe down to the smallest
    doubles (a subnormal product underflows gradually, without a warning)."""
    out = _log_abs(u)
    with np.errstate(under="ignore"):
        out *= u
    out *= 2.0
    return out


class Evaluation:
    """One pass over a field: the arrays and integrals that J, its gradient,
    the Nehari scale and the Nehari residual share.

    K = int(u Lu) + int(V u^2), E = int(u^2 log u^2), M = int(u^2). v is the
    potential table the record was taken with, and grid a grid or a box of
    one; the arrays are not copied.
    """

    def __init__(self, u: np.ndarray, Lu: np.ndarray, u_log_u2: np.ndarray,
                 K: float, E: float, M: float, v: np.ndarray, grid: Grid | GridBox):
        self.u = u
        self.Lu = Lu
        self.u_log_u2 = u_log_u2
        self.K = K
        self.E = E
        self.M = M
        self.v = v
        self.grid = grid

    @property
    def level(self) -> float:
        """J(u) = (K + M - E)/2."""
        return 0.5 * (self.K + self.M - self.E)

    def scaled(self, s: float) -> "Evaluation":
        """The record of s*u (s > 0), from L(su) = s Lu and
        (su) log (su)^2 = s (u log u^2 + u log s^2), with K, E and M in
        closed form: s^2 K, s^2 (E + M log s^2) and s^2 M."""
        log_s2 = 2.0 * math.log(s)
        u_log_u2 = self.u * log_s2
        u_log_u2 += self.u_log_u2
        u_log_u2 *= s
        s2 = s * s
        return Evaluation(
            u=s * self.u,
            Lu=s * self.Lu,
            u_log_u2=u_log_u2,
            K=s2 * self.K,
            E=s2 * (self.E + self.M * log_s2),
            M=s2 * self.M,
            v=self.v,
            grid=self.grid,
        )

    def residual(self) -> np.ndarray:
        """Euler-Lagrange residual Lu + V u - u log u^2, zero on boundary rows."""
        res = self.v * self.u
        res += self.Lu
        res -= self.u_log_u2
        res[self.grid.boundary_nodes] = 0.0
        return res

    def gradient(self) -> np.ndarray:
        """Weighted gradient of J: w_j [(-L u)_j + V_j u_j - u_j log u_j^2].

        Boundary rows are zero. The plain dot product against a direction v
        is the directional derivative d/dt J(u + t v) at t = 0.
        """
        return self.grid.quad_weights * self.residual()

    def nehari_residual(self) -> NehariResidual:
        """Normalized |J'(u)u| = |2 J(u) - int(u^2)| / max(1, ||u||_eps^2)
        and the level gap |J(u) - 1/2 int(u^2)|, with ||u||_eps^2 = K + M."""
        if self.M <= 0.0:
            raise ZeroField("Nehari residual undefined for the zero field")
        # J'(u)u = 2 J(u) - int(u^2)
        gap = abs(self.level - 0.5 * self.M)
        return NehariResidual(value=2.0 * gap / max(1.0, self.K + self.M),
                              level_gap=gap)


def energy(u: np.ndarray, params: EnergyParams, g: Grid | GridBox) -> Evaluation:
    """The evaluation record of J at a Dirichlet-compliant field on a grid
    or a box of one: one stencil, one log and the integrals K, E, M."""
    u = g.check_field(u)
    v = g.restrict(_potential_table(params, g.whole))
    Lu, u_log_u2 = laplacian_apply(g, u), _u_log_u2(u)
    uu = u * u
    tmp = u * Lu
    k_grad = integrate(g, tmp)
    return Evaluation(
        u=u,
        Lu=Lu,
        u_log_u2=u_log_u2,
        K=k_grad + integrate(g, np.multiply(v, uu, out=tmp)),
        E=integrate(g, np.multiply(u, u_log_u2, out=tmp)),
        M=integrate(g, uu),
        v=v,
        grid=g,
    )


def nehari_scale(rec: Evaluation) -> float:
    """The unique s > 0 placing s*u on the Nehari set, for the record of u.

    J'(su)(su) = s^2 [K - E - log(s^2) M] with K = int(|grad u|^2 + V u^2),
    E = int(u^2 log u^2), M = int(u^2); the root is s = exp((K - E)/(2M)).
    Returns inf when the exponent overflows (degenerate trial fields) and
    raises ZeroField when u is zero or s underflows to 0 (s*u would be the
    zero field, which is not on the Nehari set).
    """
    if rec.M <= 0.0:
        raise ZeroField("cannot project the zero field onto the Nehari set")
    arg = (rec.K - rec.E) / (2.0 * rec.M)
    if arg > 709.0:
        return math.inf
    s = math.exp(arg)
    if s == 0.0:
        raise ZeroField(f"Nehari scale exp({arg:.4g}) underflows to 0")
    return s


def nehari_residual(u: np.ndarray, params: EnergyParams, g: Grid) -> NehariResidual:
    """`Evaluation.nehari_residual` of the record of u."""
    return energy(u, params, g).nehari_residual()


# the log-Sobolev parameter a, with a^2/pi = 1/4
_LS_A = math.sqrt(math.pi) / 2.0


def log_sobolev_gap(rec: Evaluation) -> float:
    """RHS minus LHS of the logarithmic Sobolev inequality

        int(u^2 log u^2) <= (a^2/pi) |grad u|_2^2
                            + (log |u|_2^2 - N (1 + log a)) |u|_2^2

    at a = sqrt(pi)/2, i.e. a^2/pi = 1/4, for the record of u: E and M are
    the record's, and |grad u|_2^2 = int(u Lu) from its stencil. Nonnegative
    return value certifies the inequality for this field (up to quadrature
    error).
    """
    if rec.M <= 0.0:
        raise ZeroField("log-Sobolev gap undefined for the zero field")
    g, M = rec.grid, rec.M
    rhs = ((_LS_A * _LS_A / math.pi) * integrate(g, rec.u * rec.Lu)
           + (math.log(M) - g.dim * (1.0 + math.log(_LS_A))) * M)
    return rhs - rec.E
