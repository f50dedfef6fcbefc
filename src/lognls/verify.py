"""Post-hoc verification: weak-form residuals, the identity suite and the
audit of a run.

The weak residual probes the discrete Euler-Lagrange residual of a field
against a finite family of smooth bump test functions of unit H^1 norm; the
audit re-derives every pass/fail of a run's results from a stated numeric
comparison with a stated tolerance, so the report is self-describing. A
finite probe family only certifies an upper bound on the detectable
residual. The identity suite checks the code rather than a result and is
run by `lognls verify`, not by the audit.
"""

from __future__ import annotations

import json
import math
import random
from typing import NamedTuple

import numpy as np

from .barycenter import q_eps, region_of
from .energy import (
    EnergyParams,
    energy,
    log_sobolev_gap,
    nehari_residual,
    nehari_scale,
)
from .errors import ZeroField
from .grid import Grid, build_grid, integrate, sq_distance, zero_extend
from .solver import _live_box

__all__ = [
    "VerificationReport",
    "weak_residual",
    "audit",
    "identity_suite",
    "smooth_random_field",
    "POSITIVE_RADIUS",
]

# exp(-r^2/2) underflows below the smallest normal double at r ~ 37.6; a
# Gaussian-decay solution can only be certified strictly positive within
# this distance of its peak, beyond it zeros are float artifacts
POSITIVE_RADIUS = 36.0
# bumps per weak residual; each costs one pairing over its support
_PROBES = 50
# Fourier modes per axis of a `smooth_random_field`
_TRIG_MODES = 4


def _cubic_bspline(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    out = np.zeros_like(a)
    near = a < 1.0
    out[near] = 2.0 / 3.0 - a[near] ** 2 + 0.5 * a[near] ** 3
    mid = (a >= 1.0) & (a < 2.0)
    out[mid] = (2.0 - a[mid]) ** 3 / 6.0
    return out


def _bspline_factor(g1: Grid, c: float, sigma: float) -> tuple[slice, np.ndarray]:
    """The 1d factor b((x - c)/sigma) on the axis nodes of g1 where it is
    nonzero, with one node more at each end (zero there, or an end of the
    axis, where b is zeroed), and the slice of the axis they occupy."""
    n = g1.n_axis
    lo = max(int(np.searchsorted(g1.axis, c - 2.0 * sigma, "right")) - 1, 0)
    hi = min(int(np.searchsorted(g1.axis, c + 2.0 * sigma, "left")) + 1, n)
    b = _cubic_bspline((g1.axis[lo:hi] - c) / sigma)
    if lo == 0:
        b[0] = 0.0
    if hi == n:
        b[-1] = 0.0
    return slice(lo, hi), b


def _factored_probe(
    g1: Grid, wr: np.ndarray, center: np.ndarray, sigma: float
) -> tuple[float, float]:
    """Pairing int r v and discrete H^1 norm^2 of the tensor cubic B-spline
    bump v(x) = prod_k b_k(x_k) at the given center, each 1d factor b_k
    sampled on the axis grid g1 and zeroed at its ends (so v vanishes on the
    boundary). wr holds the quadrature weights times r, shaped (n,)*dim.

    Stencil, weights and v all split over the axes, so with W and L1 the 1d
    weights and stencil the norm^2 is
    sum_k (b_k.W.L1 b_k) prod_{j!=k} (b_j.W.b_j) + prod_k (b_k.W.b_k),
    and no full-grid probe is formed. Each factor, and the pairing, covers
    only the nodes where the factor is nonzero (`_bspline_factor`); as b_k
    is zero at both ends of its range, b_k.W.L1 b_k sums by parts to
    |diff b_k|^2 / h.
    """
    spans, factors = zip(*(_bspline_factor(g1, c, sigma) for c in center))
    mass = [float(np.einsum("i,i,i->", g1.quad_weights[sp], b, b))
            for sp, b in zip(spans, factors)]
    stiff = [float(np.einsum("i,i->", d, d)) / g1.h for d in map(np.diff, factors)]
    h1sq = math.prod(mass) + sum(
        st * math.prod(mass[:k] + mass[k + 1:]) for k, st in enumerate(stiff)
    )
    if h1sq <= 0.0:
        raise ZeroField("probe degenerate: support does not meet the grid")
    if len(factors) == 1:
        pairing = np.einsum("i,i->", wr[spans], factors[0])
    else:
        pairing = np.einsum("i,ij,j->", factors[0], wr[spans], factors[1])
    return float(pairing), h1sq


def weak_residual(
    u: np.ndarray,
    params: EnergyParams,
    g: Grid,
    seed: int = 0,
) -> float:
    """Max over _PROBES probes of |int(grad u . grad v + V u v - u v log u^2)|,
    normalized by ||u||_eps.

    The gradient pairing is realized through the discrete Laplacian
    (summation by parts), so the continuum solution scores O(h^2) and the
    converged discrete solution scores at rounding level. Each probe v is a
    tensor product of 1d cubic B-splines of unit discrete H^1 norm, with
    log-uniform width in [max(3h, R/100), R/8] and a center uniform over
    the live box of |u| (`solver._live_box`, from which the descent draws
    its box), where the field lives, so that every probe meets it, moved
    inside the domain by as much as keeps its support there;
    it is paired and normalized through its 1d factors
    (`_factored_probe`). The residual and ||u||_eps^2 = K + M come from one
    evaluation record of u (`energy`). The probes are drawn from the
    standard library's generator `random.Random(seed)`, which numpy has
    loaded already, so a solve never imports numpy.random.
    """
    rec = energy(u, params, g)
    if rec.M <= 0.0:
        raise ZeroField("weak residual undefined for the zero field")
    wr = rec.gradient().reshape(g.shape)
    g1 = g if g.dim == 1 else build_grid(1, g.R, g.h)
    box = [(g.axis[sl.start], g.axis[sl.stop - 1]) for sl in _live_box(np.abs(rec.u), g)]

    rng = random.Random(seed)
    sigma_hi = g.R / 8.0
    sigma_lo = min(max(3.0 * g.h, g.R / 100.0), sigma_hi)
    worst = 0.0
    for _ in range(_PROBES):
        sigma = math.exp(rng.uniform(math.log(sigma_lo), math.log(sigma_hi)))
        span = g.R - 2.0 * sigma - g.h
        center = [rng.uniform(min(max(lo, -span), span), min(max(hi, -span), span))
                  for lo, hi in box]
        pairing, h1sq = _factored_probe(g1, wr, center, sigma)
        worst = max(worst, abs(pairing) / math.sqrt(h1sq))
    return worst / math.sqrt(max(0.0, rec.K + rec.M))


def smooth_random_field(
    g: Grid,
    rng: np.random.Generator,
    positive: bool = False,
) -> np.ndarray:
    """Gaussian-envelope random trig field, Dirichlet-compliant.

    With positive=True the field is bounded away from zero relative to its
    envelope (needed where third derivatives of the entropy term matter).
    """
    sigma = g.R / 4.0
    r = np.sqrt(sq_distance(g.axis, np.zeros(g.dim)))
    env = np.exp(-((r / sigma) ** 2) / 2.0)
    trig = np.zeros(g.shape)
    for k in range(1, _TRIG_MODES + 1):
        phase = g.axis * (math.pi * k / (2.0 * g.R))
        for x in np.ix_(*[phase] * g.dim):
            trig += rng.normal() * np.cos(x) + rng.normal() * np.sin(x)
    trig = trig.ravel() / max(1.0, np.abs(trig).max())
    u = env * (2.0 + 0.5 * trig) if positive else env * trig
    u[~g.interior_mask] = 0.0
    return u


def positivity_check(u: np.ndarray, g: Grid) -> dict:
    """Float-aware strict positivity.

    The field must be nonnegative everywhere and strictly positive at every
    interior node within POSITIVE_RADIUS of its peak; beyond that distance a
    Gaussian-decay profile underflows double precision, so exact zeros there
    are representation artifacts, not sign changes.
    """
    u = g.check_field(u)
    interior = g.interior_mask
    min_interior = float(u[interior].min()) if interior.any() else 0.0
    nonnegative = bool(np.all(u >= 0.0))
    peak = g.axis[list(np.unravel_index(np.argmax(u), g.shape))]
    dist = np.sqrt(sq_distance(g.axis, peak))
    core = interior & (dist <= POSITIVE_RADIUS)
    strict_core = bool(np.all(u[core] > 0.0)) if core.any() else False
    return {
        "ok": nonnegative and strict_core,
        "min_interior": min_interior,
        "nonnegative": nonnegative,
        "strictly_positive_within_radius": strict_core,
        "radius": POSITIVE_RADIUS,
    }


def identity_suite(g: Grid, seed: int = 0, fields: int = 100) -> dict:
    """Pass counts for the identities of the functional over random fields:
    the ray scaling J(su) = s^2 (J(u) - log s int u^2), Nehari projection
    idempotence and the log-Sobolev certificate.
    """
    rng = np.random.default_rng(seed)
    params = EnergyParams(eps=1.0, potential=1.0)
    tol_scale, tol_idem, tol_ls = 1e-10, 1e-12, -1e-8
    n_scale = n_idem = n_ls = 0
    scales = (0.5, math.e, 10.0)
    for _ in range(fields):
        u = smooth_random_field(g, rng)
        rec = energy(u, params, g)
        for sfac in scales:
            lhs = energy(sfac * u, params, g).level
            rhs = sfac * sfac * (rec.level - math.log(sfac) * rec.M)
            if abs(lhs - rhs) <= tol_scale * max(1.0, abs(lhs)):
                n_scale += 1
        star = nehari_scale(rec)
        if math.isfinite(star) and abs(
                nehari_scale(energy(star * u, params, g)) - 1.0) <= tol_idem:
            n_idem += 1
        if log_sobolev_gap(rec) >= tol_ls:
            n_ls += 1
    return {
        "scaling_identity": {"pass": n_scale, "total": fields * len(scales),
                             "tol_rel": tol_scale},
        "nehari_idempotence": {"pass": n_idem, "total": fields, "tol_abs": tol_idem},
        "log_sobolev": {"pass": n_ls, "total": fields, "tol_abs": tol_ls,
                        "a_sq_over_pi": 0.25},
    }


def _common_grid_l2_distance(a, b) -> float:
    """Relative L2 distance between two results, extending to a common grid."""
    ga, gb = a.grid, b.grid
    if ga.R >= gb.R:
        ua, ub = a.u, zero_extend(b.u, gb, ga)
        g = ga
    else:
        ua, ub = zero_extend(a.u, ga, gb), b.u
        g = gb
    na = math.sqrt(integrate(g, ua * ua))
    nb = math.sqrt(integrate(g, ub * ub))
    d = math.sqrt(integrate(g, (ua - ub) ** 2))
    return d / max(na, nb)


class VerificationReport(NamedTuple):
    """Pass/fail ledger of every identity and inequality checked on a run.

    status is 0 iff every converged result passes every check; every
    boolean is derived from the stated comparison at the stated tolerance.
    """

    schema_version: int
    status: int
    eps: float
    c0: float
    c_inf: float
    gamma: float
    gap_ok: bool
    tolerances: dict
    wells: list
    failures: list
    distinct_ok: bool
    distinct_pairs: list
    notes: list

    def to_json(self, **kw) -> str:
        return json.dumps(self._asdict(), indent=2, **kw)


def audit(outcome) -> VerificationReport:
    """Full verification of a multiplicity run, from its
    `solver.MultiplicityOutcome`. Pure: identical inputs give an identical
    report.
    """
    params: EnergyParams = outcome.params
    config = outcome.config
    spec = params.potential

    tolerances = {
        "nehari_res": config.nehari_tol,
        "level_characterization": config.nehari_tol,
        "grad_tol": config.grad_tol,
        "log_sobolev_min_gap": -1e-8,
        "r_stabilization": "continuation level gap <= nehari_tol * "
                           "max(1, |level|) and barycenter shift <= 1e-4",
        "separation": "level < c0 + gamma",
        "distinct_rel_l2": 1e-2,
        "positivity": f"nonnegative and > 0 within {POSITIVE_RADIUS} of the peak",
    }

    wells_out = []
    all_ok = True
    converged = []
    for res in outcome.results:
        entry = {
            "well": res.well_index + 1,
            "status": res.status.value,
            "level": res.level,
            "R_final": res.R_final,
            "iterations": res.iterations,
            "seed_width": res.seed_width,
            "r_stabilized": res.r_stabilized,
            "continuation_gap": res.continuation_gap,
            "stages": [st._asdict() for st in res.stages],
        }
        if res.status.value != "converged":
            entry["checked"] = False
            wells_out.append(entry)
            all_ok = False
            continue
        converged.append(res)

        pos = positivity_check(res.u, res.grid)
        nres = nehari_residual(res.u, params, res.grid)
        nehari_ok = nres.value <= config.nehari_tol
        level_ok = nres.level_gap <= config.nehari_tol * max(1.0, abs(res.level))
        sep_ok = res.level < outcome.c0 + outcome.gamma
        ls_gap = log_sobolev_gap(energy(res.u, params, res.grid))
        ls_ok = ls_gap >= tolerances["log_sobolev_min_gap"]

        q = q_eps(res.u, params.eps, spec.R0, res.grid)
        reg = region_of(q, spec.rho0, spec.wells)
        region_ok = reg.is_interior(res.well_index)
        entry["barycenter"] = [float(c) for c in q]
        entry["dist_to_well"] = float(np.linalg.norm(q - spec.wells[res.well_index]))
        entry["region"] = reg.kind
        entry["core"] = reg.core

        ok = (pos["ok"] and nehari_ok and level_ok and sep_ok and ls_ok
              and region_ok and res.r_stabilized)
        all_ok = all_ok and ok
        entry.update({
            "checked": True,
            "ok": ok,
            "positivity": pos,
            "nehari_res": nres.value,
            "nehari_ok": nehari_ok,
            "level_gap": nres.level_gap,
            "level_characterization_ok": level_ok,
            "separation_ok": sep_ok,
            "log_sobolev_gap": ls_gap,
            "log_sobolev_ok": ls_ok,
            "region_ok": region_ok,
            "weak_res": res.weak_res,
            "grad_norm": res.grad_norm,
        })
        wells_out.append(entry)

    distinct_pairs = []
    distinct_ok = True
    for a_idx in range(len(converged)):
        for b_idx in range(a_idx + 1, len(converged)):
            a, b = converged[a_idx], converged[b_idx]
            rel = _common_grid_l2_distance(a, b)
            wells_differ = a.well_index != b.well_index
            pair_ok = wells_differ and rel > tolerances["distinct_rel_l2"]
            distinct_ok = distinct_ok and pair_ok
            distinct_pairs.append({
                "wells": [a.well_index + 1, b.well_index + 1],
                "rel_l2_distance": rel,
                "ok": pair_ok,
            })
    all_ok = all_ok and distinct_ok

    gap_ok = outcome.c0 < outcome.c_inf
    all_ok = all_ok and gap_ok and not outcome.failures

    return VerificationReport(
        schema_version=2,
        status=0 if all_ok else 1,
        eps=params.eps,
        c0=outcome.c0,
        c_inf=outcome.c_inf,
        gamma=outcome.gamma,
        gap_ok=gap_ok,
        tolerances=tolerances,
        wells=wells_out,
        failures=[
            {"well": f.well_index + 1, "error": f.error, "message": f.message}
            for f in outcome.failures
        ],
        distinct_ok=distinct_ok,
        distinct_pairs=distinct_pairs,
        notes=[
            "finite probe family: weak_res certifies an upper bound on the "
            "detectable residual only",
        ],
    )
