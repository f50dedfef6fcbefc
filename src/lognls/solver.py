"""Localized Nehari minimization: seeding, descent, continuation in R.

One solution per potential well: seed well 1 with a translated Gausson at
z_1/eps, ramped to zero at the boundary of the truncated domain only, with
the closed-form width of the well's harmonic ground state, and each later
well with well 1's converged solution shifted by (z_i - z_1)/eps
(`_shifted_seed`), or with its own Gausson where well 1 did not converge
or the shifted seed's barycenter lies outside B_rho0(z_i); project onto
the Nehari set, then run monotone projected descent that rejects any step
whose barycenter leaves the ball B_rho0(z_i). Its direction is L-BFGS
with the initial inverse Hessian S(-L + c)^{-1}S: the shifted H^1 metric,
c = _H1_SHIFT, damped by S where the Hessian's multiplication part
exceeds c. Each trial is the fraction-to-boundary point
max(u - tau d, theta u), so every iterate stays nonnegative. The descent
runs on a box of the grid (`_descent_box`) that holds every node where
the starting field exceeds _BOX_FLOOR times its peak, plus a one-node
frame whose values are its Dirichlet data; off the box every iterate
stays one multiple of the start. The result is measured once on the
whole grid, and a stage converges only if that measurement does: a
descent that converged or stalled on its box only runs again on the box
doubled (`_grown_box`), until the stage converges on the whole grid or its
box is the whole grid. A well's solution is continued through an increasing
schedule of truncation radii, one stage per radius, until the level and
barycenter stabilize (`continue_in_R`).

The Gausson A exp(-|x|^2/2) with 2 log A = N + omega solves the
constant-coefficient problem -Lu + omega u = u log u^2 exactly and serves
as both seed and oracle.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np
from numpy.fft import fftfreq, irfftn, rfft, rfftfreq, rfftn

from .barycenter import Region, q_eps, region_of
from .energy import EnergyParams, Evaluation, energy, nehari_scale
from .errors import (
    ConfigError,
    InvalidInput,
    LogNLSError,
    SeedOutsideRegion,
    SolverFailure,
    ZeroField,
)
from .grid import (
    Grid,
    GridBox,
    build_grid,
    check_radii,
    conforming_radius,
    integrate,
    sq_distance,
    zero_extend,
)
from .potential import PotentialSpec

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "SolveResult",
    "WellFailure",
    "MultiplicityOutcome",
    "gausson",
    "seed_well",
    "minimize_localized",
    "continue_in_R",
    "check_run",
    "solve_multiplicity",
    "ground_level",
]

_J_SLACK = 32.0 * np.finfo(float).eps
_STALL = 4.0 * np.finfo(float).eps
# each trial step starts at _STEP_INIT and is shrunk by _BACKTRACK at most
# _MAX_HALVINGS times per iteration
_STEP_INIT = 1.0
_BACKTRACK = 0.5
_MAX_HALVINGS = 40
# L-BFGS pairs kept, two box fields each. Well iterations on the 1d double
# well, a 58,081-node 2d double well and the 1d eps sweep 0.4, 0.2, 0.1:
# m = 5: 17+17 / 15+14 / 124, m = 7: 14+14 / 13+14 / 106, m = 8: 14+14 /
# 13+13 / 100, and m = 10, 12 and 15 the same as 8, the least m of the
# plateau. Its 6 more box fields raise the 2d run's own peak memory from
# 52.5 to 53.7 MiB
_LBFGS_MEMORY = 8
# mass term c of the H^1 metric -L + c. Near a well solution the Hessian's
# multiplication part V - 2 - log u^2 grows like |x - z_i/eps|^2, the
# harmonic confinement of u log u^2, on a length scale of 1 in the rescaled
# variables whatever eps and h are; c fits the core, where that part is
# below c, and `_tail_damping` the rest. Well iterations on the same three
# runs with m = 5: c = 8: 41 / 30 / 147, 12: 34 / 26 / 132,
# 16: 37 / 30 / 129, 24: 34 / 31 / 162, 32: 46 / 33 / 164. 12 and 16 differ
# by at most 4 on each run and 16 is best on the sweep, so c stays 16
_H1_SHIFT = 16.0
# the box of the descent spans, on each axis, the nodes where
# u >= _BOX_FLOOR max u of the starting field: |y| <= 8.3 about a unit-width
# Gausson's centre. From the closed-form seed, on the 1d double well, the 1d
# sweep at eps = 0.4, 0.2, 0.1 and the 2d double well no box grows
# (`_grown_box`) for any floor from 1e-20 to 1e-15, and well iterations stay
# 14+14 / 23+23 / 18+18 / 14+14 / 13+13; at 1e-14 and 1e-12 (|y| <= 7.4)
# the first boxes of both wells at eps = 0.4 grow (27 and 28 iterations),
# and at 1e-10 every well's does. 1e-15 is the least floor without growth,
# and it lies above the rounding noise, about 1e-16 of the peak, that the
# Fourier shift of `_shifted_seed` leaves beyond the shifted well's box
_BOX_FLOOR = 1e-15
# theta of the fraction-to-boundary trial max(u - tau d, theta u) (Waechter &
# Biegler, Math. Program. 106, 2006), which keeps a positive iterate positive.
# Well iterations on the 1d double well, the 1d sweep at eps = 0.4 and 0.2
# and the 2d double well: 17+17 / 28+28 / 17+17 / 15+14, against 18+19 /
# 29+29 / 17+17 / 15+15 for u - tau d rectified near convergence and 18+18 /
# 29+29 / 17+17 / 15+14 for theta = 0.5; theta = 0, a projection, ends every
# well but those at eps = 0.2 `line_search_failed`
_BOUNDARY_FRACTION = 0.1
# keeps the seed and the zero-extended continuation start strictly positive
_SEED_FLOOR = 1e-200
# the clip of the seed's Gausson width b (`seed_well`)
_SEED_WIDTHS = (0.5, 4.0)


class SolveStatus(str, enum.Enum):
    CONVERGED = "converged"
    BOUNDARY_HIT = "boundary_hit"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILED = "line_search_failed"
    # converged on a box that is the whole grid, but not when measured on
    # the whole grid
    BOX_TOO_SMALL = "box_too_small"


class HistoryRow(NamedTuple):
    R: float
    iteration: int
    level: float
    nehari_res: float
    grad_norm: float
    barycenter: tuple
    step: float


class StageRecord(NamedTuple):
    """One R stage of one well (one `minimize_localized` call).

    status is how the stage ended; level, grad_norm, nehari_res and
    barycenter (a tuple of floats, () without a well) are its measurement
    on the whole grid, level_R_error the estimate of its level's change
    from R to R = inf (`_level_R_error`). trials counts the evaluated
    trial steps, backtracks the rejected ones (each shrinks the step by
    _BACKTRACK), region_blocked the rejected ones that kept J from rising
    but moved the barycenter out of its ball, precond_box the interior
    node count per axis of the box its last descent ran on (`_descent_box`,
    `_grown_box`; the frame around it not counted), which is also the box
    of its H^1 solve, and box_growths the number of times its box was
    doubled. The counts sum over the stage's descents.
    """

    R: float
    status: SolveStatus
    level: float
    grad_norm: float
    nehari_res: float
    barycenter: tuple
    level_R_error: float
    iterations: int
    trials: int
    backtracks: int
    region_blocked: int
    precond_box: list[int]
    box_growths: int


def _check_radii(h: float, radii: tuple[float, ...], what: str) -> None:
    """`check_radii` as a ConfigError that names numerics.h and what the
    radii are."""
    try:
        check_radii(h, radii)
    except InvalidInput as exc:
        raise ConfigError(f"numerics.h = {h} does not fit {what}: {exc}") from exc


class SolverConfig:
    """The solver's settings, each default held here once. R_schedule is
    stored as a tuple of floats, and every value is checked on
    construction. Equality and hashing are by identity: a config keys the
    cache of the ground levels solved with it."""

    def __init__(self, h: float, R_schedule: tuple[float, ...], grad_tol: float = 1e-8,
                 nehari_tol: float = 1e-10, max_iters: int = 5000):
        sched = tuple(float(r) for r in R_schedule)
        if not sched:
            raise ConfigError("R_schedule must be nonempty")
        if not all(map(math.isfinite, sched)):
            raise ConfigError(f"R_schedule must hold finite radii: {sched}")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError(f"R_schedule must be strictly increasing: {sched}")
        if not 0.0 < h < math.inf:
            raise ConfigError(f"h must be positive and finite, got {h}")
        _check_radii(h, sched, f"R_schedule {sched}")
        if not (0.0 < grad_tol < math.inf and 0.0 < nehari_tol < math.inf):
            raise ConfigError(
                f"grad_tol/nehari_tol must be positive and finite, got {grad_tol}/{nehari_tol}"
            )
        if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 0:
            raise ConfigError(f"max_iters must be an integer >= 0, got {max_iters!r}")
        self.h = h
        self.R_schedule = sched
        self.grad_tol = grad_tol
        self.nehari_tol = nehari_tol
        self.max_iters = max_iters
        # the gradient-norm bar a stage converges at: half of grad_tol, the
        # bar a nonnegative iterate always had; grad_tol would loosen it
        self.grad_bar = 0.5 * grad_tol

    def converged(self, grad_norm: float, nehari_res: float) -> bool:
        """Whether a stage's measurement meets grad_bar and nehari_tol."""
        return grad_norm <= self.grad_bar and nehari_res <= self.nehari_tol

    def level_bound(self, level: float) -> float:
        """nehari_tol * max(1, |J|): the audit characterizes a level J, and
        continue_in_R compares R stages, within it."""
        return self.nehari_tol * max(1.0, abs(level))


class SolveResult(NamedTuple):
    """A solve's result, built once where its values are made:
    `minimize_localized` gives one stage, `continue_in_R` the stages and
    history of every R stage, whether the level and barycenter stabilized
    in R and the last stage-to-stage level gap, and `solve_multiplicity`
    the closed-form Gausson width b of the wells' seeds and whether this
    well's seed was well 1's solution shifted. The status, level and
    whole-grid measurement are its last stage's, the final radius its
    grid's and the iterations the sum over its stages."""

    u: np.ndarray
    grid: Grid
    well_index: int | None
    stages: list[StageRecord]
    history: list[HistoryRow]
    r_stabilized: bool = False
    continuation_gap: float = 0.0
    seed_width: float = math.nan
    seed_shifted: bool = False

    status = property(lambda self: self.stages[-1].status)
    level = property(lambda self: self.stages[-1].level)
    grad_norm = property(lambda self: self.stages[-1].grad_norm)
    nehari_res = property(lambda self: self.stages[-1].nehari_res)

    @property
    def barycenter(self) -> np.ndarray | None:
        return np.array(self.stages[-1].barycenter) if self.well_index is not None else None

    @property
    def R_final(self) -> float:
        return self.grid.R

    @property
    def iterations(self) -> int:
        return sum(st.iterations for st in self.stages)


class WellFailure(NamedTuple):
    well_index: int
    error: str
    message: str


class MultiplicityOutcome(NamedTuple):
    results: list[SolveResult]
    failures: list[WellFailure]
    c0: float
    c_inf: float
    params: EnergyParams
    config: SolverConfig

    @property
    def gamma(self) -> float:
        """The separation margin (c_inf - c0)/4: the audit checks that
        each level is below c0 + gamma."""
        return 0.25 * (self.c_inf - self.c0)

    @property
    def all_converged(self) -> bool:
        # each well yields one result or one failure
        return not self.failures and all(r.status == SolveStatus.CONVERGED for r in self.results)


def _smootherstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


@lru_cache(maxsize=32)
def _boundary_ramp(g: Grid) -> np.ndarray:
    """0 on the boundary of the square, 1 from distance 2 inward; unlike a
    cutoff centred on the origin it leaves a translated profile in place.
    Exactly 0 at every boundary node, since the grid axis ends at exactly
    -R and R, so a profile multiplied by it needs no boundary pass.
    Strictly positive at every interior node (R - |x|_inf >= h), so it also
    carries the positive seed floor. Built once per grid, read-only."""
    max_norm = reduce(np.maximum, np.ix_(*[np.abs(g.axis)] * g.dim)).ravel()
    ramp = _smootherstep(0.5 * (g.R - max_norm))
    ramp.setflags(write=False)
    return ramp


def _gaussian_profile(g: Grid, amplitude: float, center: np.ndarray) -> np.ndarray:
    return amplitude * np.exp(-0.5 * sq_distance(g.axis, center))


def gausson(g: Grid, omega: float) -> np.ndarray:
    """The exact positive solution exp((N+omega)/2) exp(-|x|^2/2) of the
    constant-coefficient problem with V = omega, sampled with Dirichlet
    boundary values forced to zero."""
    if math.exp(-0.5 * g.R * g.R) >= 1e-12:
        raise InvalidInput(f"Gausson tail exp(-R^2/2) not below 1e-12 at R={g.R}")
    amplitude = math.exp(0.5 * (g.dim + omega))
    u = _gaussian_profile(g, amplitude, np.zeros(g.dim))
    u[~g.interior_mask] = 0.0
    return u


def _finish_seed(u0: np.ndarray, g: Grid, params: EnergyParams | None) -> np.ndarray:
    """The last steps of every seed, on the nonnegative profile u0 in place:
    floored by _SEED_FLOOR to stay strictly positive, ramped to zero at the
    boundary (`_boundary_ramp`) and, given params, Nehari-projected."""
    u0 += _SEED_FLOOR
    u0 *= _boundary_ramp(g)
    if params is not None:
        u0 *= nehari_scale(energy(u0, params, g))
    return u0


def _seed_profile(g: Grid, center: np.ndarray, width: float,
                  params: EnergyParams | None = None) -> np.ndarray:
    """ramp * (A exp(-b |x - center|^2/2) + floor), A = e^((N+1)/2), zero on
    the boundary through the ramp: the seed of width b, Nehari-projected
    given params (`_finish_seed`)."""
    u0 = np.exp(-0.5 * width * sq_distance(g.axis, center))
    u0 *= math.exp(0.5 * (g.dim + 1.0))
    return _finish_seed(u0, g, params)


def seed_well(i: int, params: EnergyParams, g: Grid) -> tuple[np.ndarray, float]:
    """Translated Gausson at z_i/eps, ramped to zero at the domain boundary,
    floored to stay strictly positive, and Nehari-projected, of width
    b = (1 + sqrt(1 + 4a))/2 clipped to _SEED_WIDTHS,
    a = eps^2 (v_inf - 1)/width; returns the seed and b.

    About each well of `make_multiwell`'s potential V(eps y) = 1 +
    a|y - z_i/eps|^2 + O(eps^4 |y - z_i/eps|^4), with one a for every well,
    and A exp(-b|y|^2/2) solves -Lu + (1 + a|y|^2)u = u log u^2 exactly for
    b^2 - b = a (Bialynicki-Birula & Mycielski, Ann. Phys. 100, 1976): the
    harmonic ground state of the well. The centre, ramp and floor do not
    depend on where the well sits, and neither does b. Its barycenter is
    checked where it is minimized (`minimize_localized`)."""
    spec = params.potential
    if not isinstance(spec, PotentialSpec):
        raise ConfigError("seed_well needs a multi-well PotentialSpec")
    a = params.eps ** 2 * (spec.v_inf - 1.0) / spec.width
    width = min(max(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a)), _SEED_WIDTHS[0]), _SEED_WIDTHS[1])
    return _seed_profile(g, spec.wells[i] / params.eps, width, params), width


def _shifted_seed(first: SolveResult, i: int, params: EnergyParams, g: Grid) -> np.ndarray | None:
    """The seed of well i from well 1's result `first`: its field on the
    grid g of the first radius, translated by (z_i - z_1)/eps, kept on
    that field's live box (`_descent_box`) moved by the nearest whole
    number of nodes and zero off it, clamped at 0, floored, ramped to zero
    at the boundary and Nehari-projected; None where that seed's
    barycenter lies outside B_rho0(z_i).

    Every well of `make_multiwell`'s potential has the same dip, so up to
    an exponentially small interaction well i's solution is well 1's
    translated. The translation is a Fourier phase along each axis, one
    rule for whole and fractional node offsets; its rounding noise, about
    1e-16 of the peak, lies below _BOX_FLOOR. The transform runs on the
    axis zero-padded to the least length with no prime factor above 5: at
    the 241 nodes of a 2d axis it took 7.5 ms unpadded and 1.3 ms padded
    to 243. It is periodic, so it wraps well 1's tail onto the far face;
    the moved box leaves that out, and with it the seed's own box is well
    1's moved."""
    spec = params.potential
    k = round((first.grid.R - g.R) / g.h)
    u1 = GridBox(first.grid, (slice(k, k + g.n_axis),) * g.dim).take(first.u)
    shift = (spec.wells[i] - spec.wells[0]) / (params.eps * g.h)
    n = g.n_axis
    while not _five_smooth(n):
        n += 1
    size, axes = (n,) * g.dim, range(g.dim)
    coeff = rfftn(u1.reshape(g.shape), s=size, axes=axes)
    for a, s in enumerate(shift):
        freq = rfftfreq(n) if a == g.dim - 1 else fftfreq(n)
        coeff *= np.exp(-2j * math.pi * s * freq).reshape((-1,) + (1,) * (g.dim - 1 - a))
    moved = irfftn(coeff, s=size, axes=axes)
    keep = tuple(slice(*np.clip([sl.start + round(s), sl.stop + round(s)], 0, g.n_axis))
                 for sl, s in zip(_descent_box(u1, g).index, shift))
    u0 = np.zeros(g.shape)
    u0[keep] = np.maximum(moved[keep], 0.0)
    u0 = _finish_seed(u0.ravel(), g, params)
    q = q_eps(u0, params.eps, spec.R0, g)
    return u0 if region_of(q, spec.rho0, spec.wells).is_interior(i) else None


@lru_cache(maxsize=64)
def _helmholtz_eigenvalues(shape: tuple[int, ...], h: float, c: float) -> np.ndarray:
    """Eigenvalues of (-L + c) in the sine basis of a box of interior nodes
    of this shape and spacing h, Dirichlet on its edges."""
    lam = [(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))) / (h * h)
           for n in shape]
    denom = sum(np.ix_(*lam)) + c
    denom.setflags(write=False)
    return denom


def _five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@lru_cache(maxsize=64)
def _odd_extension(shape: tuple[int, ...]) -> np.ndarray:
    """Buffer of the odd extension of `_dst1` for an array of this shape;
    only the x parts are ever written, so the zeros stay."""
    return np.zeros(shape[:-1] + (2 * (shape[-1] + 1),))


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis; it is its own inverse.

    The FFT of the odd extension [0, -x, 0, x reversed], of length
    N = 2(n+1), is 2i times the sine sum, so with the 1/sqrt(N) of
    norm="ortho" its imaginary part is sqrt(2/(n+1)) sum_j x_j
    sin(pi j k/(n+1)), the orthonormal transform."""
    n = x.shape[-1]
    z = _odd_extension(x.shape)
    np.negative(x, out=z[..., 1:n + 1])
    z[..., n + 2:] = x[..., ::-1]
    return rfft(z, norm="ortho")[..., 1:n + 1].imag


def _h1_direction(g: Grid | GridBox, r: np.ndarray, c: float) -> np.ndarray:
    """Solve (-L + c) d = r via DST-I on the interior nodes of g, a grid or
    a box of one, with d = 0 on its boundary."""
    box = (slice(1, -1),) * g.dim
    rr = r.reshape(g.shape)[box]
    denom = _helmholtz_eigenvalues(rr.shape, g.h, c)
    out = np.zeros(g.shape)
    if g.dim == 1:
        out[box] = _dst1(_dst1(rr) / denom)
        return out
    # the 2d transform runs along the rows, then along the rows of a
    # contiguous transposed copy, so its result comes out transposed
    coeff_t = _dst1(np.ascontiguousarray(_dst1(rr).T)) / denom.T
    out[box] = _dst1(np.ascontiguousarray(_dst1(coeff_t).T))
    return out.ravel()


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("i,i->", a, b))


def _tail_damping(rec: Evaluation, out: np.ndarray) -> np.ndarray:
    """S = sqrt(c / max(c, V - 2 - log u^2)) of the record's field, into out,
    with c = _H1_SHIFT: 1 in the core, where the Hessian's multiplication
    part V - 2 - log u^2 is at most c, and 0 where u = 0.

    log u^2 is read from the record as u_log_u2 / u, which is 0/0 = nan
    where u = 0; nan survives max, the quotient and the root, and is zeroed
    last."""
    with np.errstate(invalid="ignore"):
        np.divide(rec.u_log_u2, rec.u, out=out)
    np.subtract(rec.v, out, out=out)
    out -= 2.0
    np.maximum(out, _H1_SHIFT, out=out)
    np.divide(_H1_SHIFT, out, out=out)
    np.sqrt(out, out=out)
    out[np.isnan(out)] = 0.0
    return out


class _LBFGS:
    """L-BFGS direction in the damped H^1 metric (Liu & Nocedal, Math.
    Program. 45, 1989), with the initial inverse Hessian
    gamma S(-L + c)^{-1}S, c = _H1_SHIFT and S = `_tail_damping` of the
    current record. (-L + c) is solved on the interior of the grid g, with
    Dirichlet data on its boundary; the descent passes the box it runs on,
    so the initial inverse Hessian maps to 0 on the box's frame, and the
    pairs are box fields. S (-L + c)^{-1} S is the kinetic/potential
    sandwich P_V^{1/2} P_Delta P_V^{1/2} of Antoine, Levitt & Tang (J.
    Comput. Phys. 343, 2017).

    (-L + c) matches the Hessian -L + V - 2 - log u^2 of the level where
    the multiplication part is near c, in the core; in the tail that part
    grows like |x - z_i/eps|^2, and S scales the metric's inverse down by
    it, a diagonal form of the energy-adaptive metric of Henning &
    Peterseim (SIAM J. Numer. Anal. 58, 2020).

    The pairs are (s, y) = (change of the accepted, Nehari-scaled iterate,
    change of its residual), the last _LBFGS_MEMORY with s.y > 0. The
    two-loop recursion costs one DST pair, 2m dot products and 2m vector
    updates for m pairs; with no pair stored the direction is the damped
    H^1 gradient S(-L + c)^{-1}S r itself.
    """

    def __init__(self, g: Grid | GridBox):
        self.g = g
        self.pairs: deque = deque(maxlen=_LBFGS_MEMORY)   # (s, y, 1/(s.y))
        self.gamma = 1.0

    def direction(self, rec: Evaluation, resid: np.ndarray) -> np.ndarray:
        # the vector updates run in place through one scratch field, which
        # holds S between them
        tmp = np.empty_like(resid)
        q = resid.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * _dot(s, q)
            q -= np.multiply(y, a, out=tmp)
            alphas.append(a)
        damping = _tail_damping(rec, tmp)
        q *= damping
        z = _h1_direction(self.g, q, _H1_SHIFT)
        z *= damping
        z *= self.gamma
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            z += np.multiply(s, a - rho * _dot(y, z), out=tmp)
        return z

    def update(self, s: np.ndarray, old: Evaluation, new: Evaluation,
               old_resid: np.ndarray, new_resid: np.ndarray) -> None:
        """Store the pair of two accepted iterates, s = new.u - old.u,
        unless s.y <= 0 (the curvature condition fails and the pair would
        spoil the positive definiteness of the inverse Hessian);
        gamma = s.(-L + c)s / s.y."""
        y = new_resid - old_resid
        sy = _dot(s, y)
        if not sy > 0.0:
            return
        # (-L + c)s from the records' stencils: no new stencil or DST; both
        # fields and both stencils vanish on boundary rows, and so does it
        self.gamma = _dot(s, new.Lu - old.Lu + _H1_SHIFT * s) / sy
        self.pairs.append((s, y, 1.0 / sy))


def _projected_grad_norm(u: np.ndarray, r: np.ndarray, g: Grid | GridBox) -> float:
    """L2 norm of the Euler-Lagrange residual r (zero on boundary rows) with
    its component along the Nehari-normal direction removed; vanishes
    exactly at constrained stationary points (which are free critical
    points here)."""
    n = r - u
    n *= 2.0
    tmp = n * n
    nn = integrate(g, tmp)
    if nn > 0.0:
        n *= integrate(g, np.multiply(r, n, out=tmp)) / nn
        r = np.subtract(r, n, out=n)
    return math.sqrt(max(0.0, integrate(g, np.multiply(r, r, out=tmp))))


def _box_span(lo: int, hi: int, ni: int) -> slice:
    """The slice of the grid's nodes, one-node frame included, of a box axis
    whose interior holds the interior nodes lo..hi-1 of an axis of ni (lo
    and hi may lie beyond it): that span grown about its centre, inside the
    interior, to the least length L whose FFT length 2(L+1) has no prime
    factor above 5, or the whole interior where no such L fits. A length
    with a large prime factor would cost more than the box saves: one rfft
    of 3,746 = 2*1873 points takes 9 times one of 3,840, and one of
    11,998 = 2*7*857 15 times one of 12,000."""
    length = min(hi - lo, ni)
    while length < ni and not _five_smooth(2 * (length + 1)):
        length += 1
    start = min(max(lo - (length - (hi - lo)) // 2, 0), ni - length)
    return slice(start, start + length + 2)


def _descent_box(u: np.ndarray, g: Grid) -> GridBox:
    """The box of the descent from the nonnegative field u (`_box_span`): on
    each axis its interior spans the interior nodes from the first to the
    last whose slab holds a node where u >= _BOX_FLOOR max u, the whole
    interior where none does."""
    ni = g.n_axis - 2
    live = u.reshape(g.shape)[(slice(1, -1),) * g.dim] >= _BOX_FLOOR * u.max()
    box = []
    for axis in range(g.dim):
        on = np.flatnonzero(live.any(axis=tuple(a for a in range(g.dim) if a != axis)))
        lo, hi = (int(on[0]), int(on[-1]) + 1) if on.size else (0, ni)
        box.append(_box_span(lo, hi, ni))
    return GridBox(g, tuple(box))


def _grown_box(gb: GridBox) -> GridBox:
    """The box gb doubled about its centre on each axis (`_box_span`); it
    holds gb, and is the whole grid once gb's interior doubled spans the
    grid's."""
    ni = gb.whole.n_axis - 2
    box = []
    for sl in gb.index:
        length = sl.stop - sl.start - 2
        lo = sl.start - length // 2
        box.append(_box_span(lo, lo + 2 * length, ni))
    return GridBox(gb.whole, tuple(box))


def _whole_field(gb: GridBox, start: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The whole-grid field that is u on the box gb and, off it, the start
    field times the multiple of it that the frame carries, read at the
    frame node where the start is largest (0 where the start is 0 on the
    whole frame, which then lies on the grid's boundary or cuts the field
    off)."""
    frame = gb.boundary_nodes
    u0 = gb.take(start)[frame]
    k = int(np.argmax(u0))
    multiple = u[frame[k]] / u0[k] if u0[k] > 0.0 else 0.0
    return gb.embed(u, np.multiply(start, multiple))


def _level_R_error(u: np.ndarray, g: Grid, offset: float) -> float:
    """F / (2(R - c)), the change of the level of the critical point u from
    the radius R of g to R = inf: F = 1/2 int |du/dn|^2 over the boundary
    is minus the level's derivative in R (Hadamard's shape derivative;
    Henrot & Pierre, Shape Variation and Optimization, EMS 2018), and F
    decays like exp(-(R - c)^2), with c = offset the well's distance
    |z_i/eps|_inf toward the nearest face. du/dn is read as u/h on the
    first interior ring and integrated with trapezoid weights along each
    face, whose end nodes hold u = 0."""
    field = u.reshape(g.shape)
    ring = sum(float(np.sum(np.take(field, [1, -2], axis=a) ** 2)) for a in range(g.dim))
    return 0.5 * ring * g.h ** (g.dim - 3) / (2.0 * (g.R - offset))


def minimize_localized(
    seed: np.ndarray,
    i: int | None,
    eps: float,
    params: EnergyParams,
    config: SolverConfig,
    g: Grid,
) -> SolveResult:
    """Monotone projected descent on the Nehari set, confined to the
    barycenter ball of well i (unconstrained when i is None).

    Each accepted step is u <- s* max(u - tau d, theta u), theta =
    _BOUNDARY_FRACTION, with the closed-form Nehari rescale s* > 0; the
    direction d is the L-BFGS direction in the H^1 metric
    (`_LBFGS`), which starts as the Euler-Lagrange residual smoothed by
    (-L + c)^{-1}, c = _H1_SHIFT. tau starts at _STEP_INIT in every
    iteration and is shrunk by _BACKTRACK until the level 1/2 s*^2 int(w^2)
    of the trial w does not increase and the barycenter of w, which s* does
    not move, stays interior.

    The descent runs on the box that `_descent_box` draws around |seed|.
    Off the box, the whole-grid descent would keep every iterate one
    multiple of |seed|: its initial inverse Hessian is 0 there, its L-BFGS
    steps are sums of earlier steps, and the trial and the rescale keep
    that form. So the box's frame carries the multiple, and the field
    beyond it adds about _BOX_FLOOR^2 relative to every integral. The
    returned field is the box's on the box and that multiple of |seed| off
    it; its level, gradient norm and Nehari residual are read from one
    evaluation record on the whole grid, its barycenter from one q_eps
    there. A descent that converged or ended LINE_SEARCH_FAILED on its box
    but whose measurement misses a tolerance runs again from the returned
    field, with no L-BFGS pair, on the box doubled (`_grown_box`); its
    history continues from the iteration it stopped at, with a row
    measured on the grown box. A stage that converged on a box that is
    the whole grid and still misses ends BOX_TOO_SMALL; one that stalled
    there stays LINE_SEARCH_FAILED.

    The descent starts from |seed|, and both the trial and the rescale keep
    the sign of every node, so every iterate, the returned field included,
    is nonnegative: the sign argument by which ground states are
    nonnegative holds by construction.
    """
    constrained = i is not None
    spec = params.potential

    def classify(v: np.ndarray, grid: Grid | GridBox) -> tuple[np.ndarray, Region]:
        q = q_eps(v, eps, spec.R0, grid)
        return q, region_of(q, spec.rho0, spec.wells)

    start = np.abs(g.check_field(seed))
    gb = _descent_box(start, g)
    history: list[HistoryRow] = []
    it = trials = backtracks = blocked = growths = 0
    while True:
        # one evaluation record per field: the current iterate and the trial
        rec = energy(gb.take(start), params, gb)
        s0 = nehari_scale(rec)
        if math.isfinite(s0) and abs(s0 - 1.0) > 1e-14:
            rec = rec.scaled(s0)
        q = None
        if constrained:
            q, reg = classify(rec.u, gb)
            if not history and not reg.is_interior(i):   # the seed, on the first box
                raise SeedOutsideRegion(
                    f"minimizer seed has barycenter {q} ({reg.kind}), not within "
                    f"rho0 = {spec.rho0} of well {i + 1} at z = {spec.wells[i]}"
                )

        resid = rec.residual()
        lbfgs = _LBFGS(gb)
        tau = _STEP_INIT
        status = SolveStatus.ITERATION_CAP
        for it in range(it, config.max_iters + 1):
            gnorm = _projected_grad_norm(rec.u, resid, gb)
            J = rec.level
            nres = rec.nehari_residual().value
            history.append(HistoryRow(
                R=g.R,
                iteration=it,
                level=J,
                nehari_res=nres,
                grad_norm=gnorm,
                barycenter=tuple(q) if q is not None else (),
                step=tau,
            ))
            if config.converged(gnorm, nres):
                status = SolveStatus.CONVERGED
                break
            if it == config.max_iters:
                break

            dirn = lbfgs.direction(rec, resid)
            tau = _STEP_INIT
            accepted = False
            region_blocked = False
            j_slack = _J_SLACK * max(1.0, abs(J))
            for _ in range(_MAX_HALVINGS + 1):
                trials += 1
                step = np.multiply(dirn, tau)
                np.subtract(rec.u, step, out=step)
                trial = energy(np.maximum(step, _BOUNDARY_FRACTION * rec.u, out=step),
                               params, gb)
                try:
                    s = nehari_scale(trial)
                except ZeroField:
                    s = math.inf
                if not math.isfinite(s):
                    tau *= _BACKTRACK
                    backtracks += 1
                    continue
                # the level of s w on the Nehari set, J = 1/2 int (s w)^2
                Jt = 0.5 * s * s * trial.M
                ok_j = math.isfinite(Jt) and Jt <= J + j_slack
                if constrained:
                    qt, regt = classify(trial.u, gb)
                    ok_region = regt.is_interior(i)
                else:
                    qt, ok_region = None, True
                if ok_j and ok_region:
                    accepted = True
                    break
                if ok_j and not ok_region:
                    region_blocked = True
                    blocked += 1
                tau *= _BACKTRACK
                backtracks += 1
            if not accepted:
                status = (SolveStatus.BOUNDARY_HIT if region_blocked
                          else SolveStatus.LINE_SEARCH_FAILED)
                break

            trial = trial.scaled(s)
            du = trial.u - rec.u
            if np.abs(du).max() <= _STALL * rec.u.max():
                # the step moved no node beyond the rounding of the field: the
                # descent has stalled at the floating-point floor
                status = SolveStatus.LINE_SEARCH_FAILED
                break
            new_resid = trial.residual()
            lbfgs.update(du, rec, trial, resid, new_resid)
            rec, q, resid = trial, qt, new_resid

        # the reported values are measured once, on the whole grid
        u = _whole_field(gb, start, rec.u)
        whole = energy(u, params, g)
        gnorm = _projected_grad_norm(u, whole.residual(), g)
        nres = whole.nehari_residual().value
        if status not in (SolveStatus.CONVERGED, SolveStatus.LINE_SEARCH_FAILED) or (
                config.converged(gnorm, nres)):
            break
        if gb.shape == g.shape:
            if status == SolveStatus.CONVERGED:
                status = SolveStatus.BOX_TOO_SMALL
            break
        # converged or stalled on its box only: descend again from u on the
        # box doubled
        gb, start = _grown_box(gb), u
        growths += 1

    stage = StageRecord(
        R=g.R, status=status, level=whole.level, grad_norm=gnorm, nehari_res=nres,
        barycenter=tuple(map(float, classify(u, g)[0])) if constrained else (),
        level_R_error=_level_R_error(
            u, g, float(np.abs(spec.wells[i]).max()) / eps if constrained else 0.0),
        iterations=it, trials=trials, backtracks=backtracks, region_blocked=blocked,
        precond_box=[n - 2 for n in gb.shape], box_growths=growths)
    return SolveResult(u=u, grid=g, well_index=i, stages=[stage], history=history)


def continue_in_R(
    seed: np.ndarray,
    i: int | None,
    params: EnergyParams,
    config: SolverConfig,
    g: Grid,
) -> SolveResult:
    """One R stage per radius of the schedule: minimize from the seed on g,
    the grid of the first radius, then zero-extend the field to each later
    radius, re-projecting and re-minimizing, until a stage does not
    converge or the level and barycenter stop moving: the level gap within
    nehari_tol * max(1, |J|), the bound by which the audit characterizes a
    level, and the barycenter shift within 1e-4. The result is
    R-stabilized if its last stage converged and stopped moving or, with
    one radius in the schedule and so nothing to compare, converged with
    its level's estimated change to R = inf (`_level_R_error`) within the
    same bound; it carries every stage's history."""
    res = minimize_localized(seed, i, params.eps, params, config, g)
    history, stages = list(res.history), list(res.stages)
    gap, settled = 0.0, len(config.R_schedule) == 1 and (
        res.stages[-1].level_R_error <= config.level_bound(res.level))
    for R in config.R_schedule[1:]:
        if settled or res.status != SolveStatus.CONVERGED:
            break
        g = build_grid(g.dim, R, config.h)
        start = zero_extend(res.u, res.grid, g)
        start += _SEED_FLOOR * _boundary_ramp(g)
        new = minimize_localized(start, i, params.eps, params, config, g)
        gap = abs(new.level - res.level)
        q_gap = 0.0 if i is None else float(np.linalg.norm(new.barycenter - res.barycenter))
        settled = gap <= config.level_bound(new.level) and q_gap <= 1e-4
        history += new.history
        stages += new.stages
        res = new
    return res._replace(history=history, stages=stages, continuation_gap=gap,
                        r_stabilized=settled and res.status == SolveStatus.CONVERGED)


def _ground_radius(dim: int, h: float) -> float:
    """The axis of `ground_level`: R = 10 in 1d and 8 in 2d, rounded up to
    a multiple of h."""
    return conforming_radius(10.0 if dim == 1 else 8.0, h)


@lru_cache(maxsize=32)
def _ground_level_cached(R: float, config: SolverConfig) -> float:
    """M1 = int phi^2 of the 1d ground state phi at omega = 0 on [-R, R]
    at spacing config.h, minimized from the Gausson seed."""
    g = build_grid(1, R, config.h)
    params = EnergyParams(eps=1.0, potential=0.0)
    res = minimize_localized(gausson(g, 0.0), None, 1.0, params, config, g)
    if res.status != SolveStatus.CONVERGED:
        raise SolverFailure(
            f"constant-coefficient solve (omega=0) ended {res.status.value}",
            result=res,
        )
    return integrate(g, res.u * res.u)


def ground_level(omega: float, dim: int, config: SolverConfig) -> float:
    """Level of the constant-coefficient problem V = omega on [-R, R]^dim at
    spacing config.h, with R = 10 in 1d and 8 in 2d rounded up to a
    multiple of config.h; realizes c0 (omega = 1) and c_inf (omega = V_inf).

    Two exact laws of u log u^2 (Bialynicki-Birula & Mycielski, Ann. Phys.
    100, 1976) reduce it to one 1d solve. log (cu)^2 = log u^2 + log c^2
    turns a solution at omega into e^(a) times it at omega + 2a, and the
    stencil, the trapezoid weights and the log of a product split over the
    axes, so the ground state on the square is the product of 1d ground
    states at omega/dim. Hence the level is 1/2 (e^(omega/dim) M1)^dim with
    M1 = int phi^2 of the 1d ground state at omega = 0 on the same axis,
    solved once per (R, config).
    """
    m1 = _ground_level_cached(_ground_radius(dim, config.h), config)
    return 0.5 * (math.exp(float(omega) / dim) * m1) ** dim


def check_run(params: EnergyParams, config: SolverConfig) -> None:
    """Check, building nothing, what a `solve_multiplicity` run at params
    needs of config, each failure a ConfigError: a first radius above the
    potential's R0, a ground-level axis that h fits, and a first radius
    that covers every well with a margin of 5, max|z|/eps + 5."""
    spec, first = params.potential, config.R_schedule[0]
    if first <= spec.R0:
        raise ConfigError(f"first truncation radius {first} must exceed R0 = {spec.R0}")
    R = _ground_radius(spec.dim, config.h)
    _check_radii(config.h, (R,), f"the ground-level axis R = {R}")
    reach = float(np.linalg.norm(spec.wells, axis=1).max()) / params.eps + 5.0
    if first < reach:
        raise ConfigError(f"R_schedule[0] = {first} does not cover max|z|/eps + 5 = {reach:.2f}")


def solve_multiplicity(
    eps: float,
    potential: PotentialSpec,
    config: SolverConfig,
) -> MultiplicityOutcome:
    """One localized solve per well, continued through the R schedule.

    The run is checked first (`check_run`). Per-well failures are collected
    rather than raised; the outcome carries the reference levels
    c0 < c_inf. Well 1 starts from its closed-form
    seed (`seed_well`); once it has converged, every later well starts
    from well 1's solution shifted to its own well (`_shifted_seed`),
    falling back to its closed-form seed where that seed's barycenter lies
    outside its ball. Each result carries the closed-form seed width b,
    the same for every well, and whether its seed was shifted; a shifted
    well waits for well 1.
    """
    params = EnergyParams(eps=eps, potential=potential)
    check_run(params, config)

    c0 = ground_level(1.0, potential.dim, config)
    c_inf = ground_level(potential.v_inf, potential.dim, config)

    g0 = build_grid(potential.dim, config.R_schedule[0], config.h)

    results: list[SolveResult] = []
    failures: list[WellFailure] = []
    first = None   # well 1's result, once it has converged
    for i in range(potential.l):
        try:
            seed = _shifted_seed(first, i, params, g0) if first is not None else None
            shifted = seed is not None
            if not shifted:   # else width stays well 1's, the b of every well
                seed, width = seed_well(i, params, g0)
            res = continue_in_R(seed, i, params, config, g0)
            results.append(res._replace(seed_width=width, seed_shifted=shifted))
            if i == 0 and res.status == SolveStatus.CONVERGED:
                first = res
        except LogNLSError as exc:
            failures.append(WellFailure(i, type(exc).__name__, str(exc)))

    return MultiplicityOutcome(
        results=results,
        failures=failures,
        c0=c0,
        c_inf=c_inf,
        params=params,
        config=config,
    )

