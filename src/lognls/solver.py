"""Localized Nehari minimization: seeding, descent, continuation in R.

One solution per potential well: seed a translated Gausson at z_i/eps,
ramped to zero at the boundary of the truncated domain only, project onto
the Nehari set, then run monotone projected descent that rejects any step
whose barycenter leaves the ball B_rho0(z_i). Converged solutions are
continued through an increasing schedule of truncation radii until the
level and barycenter stabilize.

The Gausson A exp(-|x|^2/2) with 2 log A = N + omega solves the
constant-coefficient problem -Lu + omega u = u log u^2 exactly and serves
as both seed and oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from scipy.fft import dstn, idstn

from .barycenter import BarycenterParams, Region, q_eps, region_of
from .energy import EnergyParams, energy, evaluate, nehari_scale
from .errors import (
    ConfigError,
    DomainTooSmall,
    LogNLSError,
    SeedOutsideRegion,
    SolverFailure,
    ZeroField,
)
from .grid import Grid, build_grid, conforming_radius, integrate, zero_extend
from .potential import PotentialSpec, WellGeometry, default_geometry
from .verify import weak_residual

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
    "solve_multiplicity",
    "ground_level",
    "rescale_to_original",
]

_J_SLACK = 32.0 * np.finfo(float).eps
_STALL = 4.0 * np.finfo(float).eps
# backtracked Barzilai-Borwein steps: clamped to [_STEP_MIN, _STEP_MAX] and
# shrunk by `backtrack` at most _MAX_HALVINGS times per iteration
_MAX_HALVINGS = 40
_STEP_MIN = 1e-6
_STEP_MAX = 10.0
# keeps the seed and the zero-extended continuation start strictly positive
_SEED_FLOOR = 1e-200


class SolveStatus(str, enum.Enum):
    CONVERGED = "converged"
    BOUNDARY_HIT = "boundary_hit"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILED = "line_search_failed"


class HistoryRow(NamedTuple):
    R: float
    iteration: int
    level: float
    nehari_res: float
    grad_norm: float
    barycenter: tuple
    step: float


@dataclass(frozen=True, eq=False)
class SolverConfig:
    h: float
    R_schedule: tuple[float, ...]
    grad_tol: float = 1e-8
    nehari_tol: float = 1e-10
    max_iters: int = 5000
    step_init: float = 1.0
    backtrack: float = 0.5
    gamma: float | None = None            # None: (c_inf - c0)/4 at runtime
    localization: WellGeometry | None = None  # None: default_geometry(spec)
    probes: int = 50
    probe_seed: int = 0

    def __post_init__(self):
        sched = tuple(float(r) for r in self.R_schedule)
        object.__setattr__(self, "R_schedule", sched)
        if not sched:
            raise ConfigError("R_schedule must be nonempty")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError(f"R_schedule must be strictly increasing: {sched}")
        if self.h <= 0.0:
            raise ConfigError(f"h must be positive, got {self.h}")
        if self.grad_tol <= 0.0 or self.nehari_tol <= 0.0:
            raise ConfigError(
                f"grad_tol/nehari_tol must be positive, got "
                f"{self.grad_tol}/{self.nehari_tol}"
            )
        if not (0.0 < self.backtrack < 1.0):
            raise ConfigError(f"backtrack must lie in (0,1), got {self.backtrack}")


@dataclass
class SolveResult:
    u: np.ndarray
    grid: Grid
    level: float
    barycenter: np.ndarray | None
    well_index: int | None
    nehari_res: float
    grad_norm: float
    R_final: float
    iterations: int
    status: SolveStatus
    weak_res: float = math.nan  # set by solve_multiplicity on each well's result
    history: list[HistoryRow] = field(default_factory=list)
    level_history_R: list[tuple[float, float]] = field(default_factory=list)
    r_stabilized: bool = True
    continuation_gap: float = 0.0


@dataclass(frozen=True)
class WellFailure:
    well_index: int
    error: str
    message: str


@dataclass
class MultiplicityOutcome:
    results: list[SolveResult]
    failures: list[WellFailure]
    c0: float
    c_inf: float
    gamma: float
    geometry: WellGeometry
    params: EnergyParams
    config: SolverConfig
    eps: float

    @property
    def all_converged(self) -> bool:
        spec = self.params.potential
        return not self.failures and len(self.results) == spec.l and all(
            r.status == SolveStatus.CONVERGED for r in self.results
        )


def _smootherstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _max_norm(g: Grid) -> np.ndarray:
    return np.abs(g.nodes).max(axis=1)


def _boundary_ramp(g: Grid) -> np.ndarray:
    """0 on the boundary of the square, 1 from distance 2 inward; unlike a
    cutoff centred on the origin it leaves a translated profile in place.
    Strictly positive at every interior node (R - |x|_inf >= h), so it also
    carries the positive seed floor."""
    return _smootherstep(0.5 * (g.R - _max_norm(g)))


def _gaussian_profile(g: Grid, amplitude: float, center: np.ndarray) -> np.ndarray:
    d2 = ((g.nodes - center[None, :]) ** 2).sum(axis=1)
    return amplitude * np.exp(-0.5 * d2)


def gausson(g: Grid, omega: float) -> np.ndarray:
    """The exact positive solution exp((N+omega)/2) exp(-|x|^2/2) of the
    constant-coefficient problem with V = omega, sampled with Dirichlet
    boundary values forced to zero."""
    if math.exp(-0.5 * g.R * g.R) >= 1e-12:
        raise DomainTooSmall(
            f"Gausson tail exp(-R^2/2) not below 1e-12 at R={g.R}"
        )
    amplitude = math.exp(0.5 * (g.dim + omega))
    u = _gaussian_profile(g, amplitude, np.zeros(g.dim))
    u[~g.interior_mask] = 0.0
    return u


def _resolve_geometry(config: SolverConfig, spec: PotentialSpec) -> WellGeometry:
    geom = config.localization if config.localization is not None else default_geometry(spec)
    problems = geom.check(spec.wells)
    if problems:
        raise ConfigError("invalid well geometry: " + "; ".join(problems))
    return geom


def seed_well(
    i: int,
    eps: float,
    params: EnergyParams,
    config: SolverConfig,
    g: Grid,
) -> np.ndarray:
    """Translated Gausson (omega = 1) at z_i/eps, ramped to zero at the
    domain boundary, floored to stay strictly positive, and Nehari-projected."""
    spec = params.potential
    if not isinstance(spec, PotentialSpec):
        raise ConfigError("seed_well needs a multi-well PotentialSpec")
    geometry = _resolve_geometry(config, spec)
    z = spec.wells[i]
    center = z / eps
    margin = g.R - float(np.linalg.norm(center))
    if margin < 5.0:
        raise DomainTooSmall(
            f"well {i} at |z|/eps = {np.linalg.norm(center):.3f} needs margin >= 5 "
            f"inside R = {g.R}"
        )
    amplitude = math.exp(0.5 * (g.dim + 1.0))
    u0 = _boundary_ramp(g) * (
        _gaussian_profile(g, amplitude, center) + _SEED_FLOOR
    )
    u0[~g.interior_mask] = 0.0
    u = nehari_scale(u0, params, g) * u0
    q = q_eps(u, eps, BarycenterParams(R0=geometry.R0), g)
    reg = region_of(q, geometry, spec.wells)
    if not reg.is_interior(i):
        raise SeedOutsideRegion(
            f"seed barycenter {q} is {reg.kind}, not within rho0 = "
            f"{geometry.rho0} of well {i + 1} at z = {z}"
        )
    return u


@lru_cache(maxsize=64)
def _helmholtz_eigenvalues(g: Grid) -> np.ndarray:
    """Eigenvalues of (-L + I) on the interior lattice in the sine basis."""
    ni = g.n_axis - 2
    k = np.arange(1, ni + 1)
    lam = (2.0 - 2.0 * np.cos(k * math.pi / (ni + 1))) / (g.h * g.h)
    if g.dim == 1:
        denom = lam + 1.0
    else:
        denom = lam[:, None] + lam[None, :] + 1.0
    denom.setflags(write=False)
    return denom


def _h1_direction(g: Grid, r: np.ndarray) -> np.ndarray:
    """Solve (-L + I) d = r on interior nodes (Dirichlet), via DST-I."""
    ni = g.n_axis - 2
    denom = _helmholtz_eigenvalues(g)
    if g.dim == 1:
        rr = r[1:-1]
    else:
        rr = r.reshape(g.n_axis, g.n_axis)[1:-1, 1:-1]
    coeff = dstn(rr, type=1, norm="ortho") / denom
    d_int = idstn(coeff, type=1, norm="ortho")
    if g.dim == 1:
        out = np.zeros_like(r)
        out[1:-1] = d_int
        return out
    out = np.zeros((g.n_axis, g.n_axis))
    out[1:-1, 1:-1] = d_int
    return out.ravel()


def _projected_grad_norm(u: np.ndarray, r: np.ndarray, g: Grid) -> float:
    """L2 norm of the Euler-Lagrange residual r (zero on boundary rows) with
    its component along the Nehari-normal direction removed; vanishes
    exactly at constrained stationary points (which are free critical
    points here)."""
    n = 2.0 * (r - u)
    nn = integrate(g, n * n)
    if nn > 0.0:
        r = r - (integrate(g, r * n) / nn) * n
    return math.sqrt(max(0.0, integrate(g, r * r)))


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

    Each accepted step is u <- s* (u - tau d) with the closed-form Nehari
    rescale s*; the direction d is the Euler-Lagrange residual smoothed by
    (-L + I)^{-1} (an H^1 gradient). tau starts from a Barzilai-Borwein
    trial and is halved until J does not increase and the barycenter stays
    interior.

    The returned field is the nonnegative representative |u| (re-projected
    and re-measured): taking the absolute value never raises J (exact for
    the discrete Dirichlet form) and realizes the sign argument by which
    ground states are nonnegative. It is applied once at the end because
    the smoothed direction leaves rounding-level sign dust in the far tail,
    while rectifying every step pumps that dust into a slow plateau.
    """
    constrained = i is not None
    if constrained:
        spec = params.potential
        geometry = _resolve_geometry(config, spec)
        bp = BarycenterParams(R0=geometry.R0)

    # one evaluation record per field: the current iterate and the trial
    rec = evaluate(np.abs(g.check_field(seed)), params, g)
    s0 = nehari_scale(rec, params, g)
    if math.isfinite(s0) and abs(s0 - 1.0) > 1e-14:
        rec = rec.scaled(s0)

    def classify(v: np.ndarray) -> tuple[np.ndarray, Region]:
        q = q_eps(v, eps, bp, g)
        return q, region_of(q, geometry, spec.wells)

    if constrained:
        q, reg = classify(rec.u)
        if not reg.is_interior(i):
            raise SeedOutsideRegion(
                f"minimizer seed has barycenter {q} ({reg.kind}), not within "
                f"rho0 = {geometry.rho0} of well {i + 1}"
            )
    else:
        q = None

    resid = rec.residual()
    dirn = _h1_direction(g, resid)
    tau = config.step_init
    prev_du = prev_dy = None
    history: list[HistoryRow] = []
    status = SolveStatus.ITERATION_CAP
    it = 0

    for it in range(config.max_iters + 1):
        J = rec.level
        gnorm = _projected_grad_norm(rec.u, resid, g)
        history.append(HistoryRow(
            R=g.R,
            iteration=it,
            level=J,
            nehari_res=rec.nehari_residual().value,
            grad_norm=gnorm,
            barycenter=tuple(q) if q is not None else (),
            step=tau,
        ))
        # converge past half the tolerance so the final rectification
        # (rounding-level) cannot push the measured norm back above it
        if gnorm <= 0.5 * config.grad_tol:
            status = SolveStatus.CONVERGED
            break
        if it == config.max_iters:
            break

        if prev_du is not None:
            ss = float(np.einsum("i,i->", prev_du, prev_du))
            sy = float(np.einsum("i,i->", prev_du, prev_dy))
            if sy > 0.0:
                tau = ss / sy
        tau = min(max(tau, _STEP_MIN), _STEP_MAX)

        accepted = False
        region_blocked = False
        j_slack = _J_SLACK * max(1.0, abs(J))
        for _ in range(_MAX_HALVINGS + 1):
            trial = evaluate(rec.u - tau * dirn, params, g)
            try:
                s = nehari_scale(trial, params, g)
            except ZeroField:
                s = math.inf
            if not math.isfinite(s):
                tau *= config.backtrack
                continue
            trial = trial.scaled(s)
            Jt = trial.level
            ok_j = math.isfinite(Jt) and Jt <= J + j_slack
            if constrained:
                qt, regt = classify(trial.u)
                ok_region = regt.is_interior(i)
            else:
                qt, ok_region = None, True
            if ok_j and ok_region:
                accepted = True
                break
            if ok_j and not ok_region:
                region_blocked = True
            tau *= config.backtrack
        if not accepted:
            status = (SolveStatus.BOUNDARY_HIT if region_blocked
                      else SolveStatus.LINE_SEARCH_FAILED)
            break

        prev_du = trial.u - rec.u
        if np.abs(prev_du).max() <= _STALL * np.abs(rec.u).max():
            # the step moved no node beyond the rounding of the field: the
            # descent has stalled at the floating-point floor
            status = SolveStatus.LINE_SEARCH_FAILED
            break
        resid = trial.residual()
        new_dirn = _h1_direction(g, resid)
        prev_dy = new_dirn - dirn
        rec, q, dirn = trial, qt, new_dirn

    if bool(np.any(rec.u < 0.0)):
        rec = evaluate(np.abs(rec.u), params, g)
        s_fix = nehari_scale(rec, params, g)
        if math.isfinite(s_fix):
            rec = rec.scaled(s_fix)
        resid = rec.residual()
    gnorm_final = _projected_grad_norm(rec.u, resid, g)
    if constrained:
        q, _ = classify(rec.u)
    nres = rec.nehari_residual()
    # the reported level is measured by `energy` on the returned field
    level = energy(rec.u, params, g).total
    # Converged promises both tolerances on the returned field
    if status == SolveStatus.CONVERGED and (
        gnorm_final > config.grad_tol or nres.value > config.nehari_tol
    ):
        status = SolveStatus.ITERATION_CAP
    return SolveResult(
        u=rec.u,
        grid=g,
        level=level,
        barycenter=q if constrained else None,
        well_index=i,
        nehari_res=nres.value,
        grad_norm=gnorm_final,
        R_final=g.R,
        iterations=it,
        status=status,
        history=history,
        level_history_R=[(g.R, level)],
    )


def continue_in_R(
    result: SolveResult,
    i: int | None,
    eps: float,
    params: EnergyParams,
    config: SolverConfig,
) -> SolveResult:
    """Zero-extend through the remaining R_schedule, re-projecting and
    re-minimizing, until the level and barycenter stop moving."""
    res = result
    level_hist = list(res.level_history_R)
    history = list(res.history)
    iters = res.iterations
    remaining = [R for R in config.R_schedule if R > res.R_final * (1.0 + 1e-12)]
    stabilized = not remaining
    gap = 0.0
    for R_next in remaining:
        g_new = build_grid(res.grid.dim, R_next, config.h)
        u_ext = zero_extend(res.u, res.grid, g_new)
        u_ext += _SEED_FLOOR * _boundary_ramp(g_new)
        new_res = minimize_localized(u_ext, i, eps, params, config, g_new)
        gap = abs(new_res.level - res.level)
        q_gap = 0.0
        if res.barycenter is not None and new_res.barycenter is not None:
            q_gap = float(np.linalg.norm(new_res.barycenter - res.barycenter))
        iters += new_res.iterations
        history += new_res.history
        level_hist.append((R_next, new_res.level))
        res = new_res
        if res.status != SolveStatus.CONVERGED:
            break
        if gap <= config.grad_tol and q_gap <= 1e-4:
            stabilized = True
            break
    res.level_history_R = level_hist
    res.history = history
    res.iterations = iters
    res.r_stabilized = stabilized and res.status == SolveStatus.CONVERGED
    res.continuation_gap = gap
    return res


@lru_cache(maxsize=32)
def _ground_level_cached(omega: float, g: Grid, config: SolverConfig) -> float:
    params = EnergyParams(eps=1.0, potential=float(omega))
    seed = gausson(g, omega)
    res = minimize_localized(seed, None, 1.0, params, config, g)
    if res.status != SolveStatus.CONVERGED:
        raise SolverFailure(
            f"constant-coefficient solve (omega={omega}) ended {res.status.value}",
            result=res,
        )
    return res.level


def ground_level(omega: float, g: Grid, config: SolverConfig) -> float:
    """Converged level of the constant-coefficient problem V = omega,
    minimized from the Gausson seed; realizes c0 (omega = 1) and c_inf
    (omega = V_inf)."""
    return _ground_level_cached(float(omega), g, config)


@lru_cache(maxsize=8)
def _reference_grid(dim: int, h: float) -> Grid:
    # one Grid object per (dim, h), so that _ground_level_cached, keyed on
    # the grid, hits on every later solve with the same config
    target = 10.0 if dim == 1 else 8.0
    return build_grid(dim, conforming_radius(target, h), h)


def solve_multiplicity(
    eps: float,
    potential: PotentialSpec,
    config: SolverConfig,
) -> MultiplicityOutcome:
    """One localized solve per well, continued through the R schedule.

    Per-well failures are collected rather than raised; the outcome carries
    the reference levels c0 < c_inf and the separation margin gamma.
    """
    geometry = _resolve_geometry(config, potential)
    if config.R_schedule[0] <= geometry.R0:
        raise ConfigError(
            f"first truncation radius {config.R_schedule[0]} must exceed R0 = {geometry.R0}"
        )
    reach = float(np.linalg.norm(potential.wells, axis=1).max()) / eps + 5.0
    if config.R_schedule[0] < reach:
        raise DomainTooSmall(
            f"R_schedule[0] = {config.R_schedule[0]} does not cover max|z|/eps + 5 = {reach:.2f}"
        )

    g_ref = _reference_grid(potential.dim, config.h)
    c0 = ground_level(1.0, g_ref, config)
    c_inf = ground_level(potential.v_inf, g_ref, config)
    gamma = config.gamma if config.gamma is not None else 0.25 * (c_inf - c0)
    if not (0.0 < gamma < 0.5 * (c_inf - c0)):
        raise ConfigError(
            f"gamma = {gamma} must lie in (0, (c_inf - c0)/2) = (0, {0.5 * (c_inf - c0):.4f})"
        )

    params = EnergyParams(eps=eps, potential=potential)
    g0 = build_grid(potential.dim, config.R_schedule[0], config.h)

    results: list[SolveResult] = []
    failures: list[WellFailure] = []
    for i in range(potential.l):
        try:
            seed = seed_well(i, eps, params, config, g0)
            res = minimize_localized(seed, i, eps, params, config, g0)
            if res.status == SolveStatus.CONVERGED:
                res = continue_in_R(res, i, eps, params, config)
            res.weak_res = weak_residual(
                res.u, eps, params, res.grid,
                probes=config.probes, seed=config.probe_seed,
            )
            results.append(res)
        except LogNLSError as exc:
            failures.append(WellFailure(i, type(exc).__name__, str(exc)))

    return MultiplicityOutcome(
        results=results,
        failures=failures,
        c0=c0,
        c_inf=c_inf,
        gamma=gamma,
        geometry=geometry,
        params=params,
        config=config,
        eps=eps,
    )


def rescale_to_original(result: SolveResult, eps: float) -> tuple[Grid, np.ndarray]:
    """The solution of the original problem, v(x) = u(x/eps), sampled on the
    eps-scaled lattice (same values, scaled coordinates)."""
    g = result.grid
    g_orig = build_grid(g.dim, g.R * eps, g.h * eps)
    return g_orig, result.u.copy()
