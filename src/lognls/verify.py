"""Post-hoc verification: weak-form residuals, the identity suite and the
audit of a run.

The weak residual is the exact H^{-1} norm of the discrete Euler-Lagrange
residual of a field, its largest pairing with a test function of unit H^1
norm; the audit re-derives every pass/fail of a run's results from a stated
numeric comparison with a stated tolerance, so the report is
self-describing. The identity suite checks the code rather than a result
and is run by `lognls verify`, not by the audit.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .barycenter import region_of
from .energy import (
    EnergyParams,
    energy,
    log_sobolev_gap,
    nehari_residual,
    nehari_scale,
)
from .errors import ZeroField
from .grid import Grid, integrate, sq_distance, zero_extend
from .solver import _h1_direction

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
# Fourier modes per axis of a `smooth_random_field`
_TRIG_MODES = 4


def weak_residual(u: np.ndarray, params: EnergyParams, g: Grid) -> float:
    """The H^{-1} norm of u's Euler-Lagrange residual r over ||u||_eps: the
    sup over fields v vanishing on the boundary of
    |int(grad u . grad v + V u v - u v log u^2)| / ||v||_H^1.

    The pairing is (W r).v and ||v||_H^1^2 = v.W(-L + 1)v, with W the
    quadrature weights, h^dim at every interior node; so the sup is
    sqrt(int r (-L + 1)^{-1} r), one DST solve on the whole grid
    (`solver._h1_direction` at c = 1), the residual-based a posteriori
    estimate of Dusson & Maday (IMA J. Numer. Anal. 37, 2017). Through the
    discrete Laplacian the continuum solution scores O(h^2) and the
    converged discrete solution scores at rounding level. r and
    ||u||_eps^2 = K + M come from one evaluation record of u (`energy`).
    """
    rec = energy(u, params, g)
    if rec.M <= 0.0:
        raise ZeroField("weak residual undefined for the zero field")
    r = rec.residual()
    dual_sq = integrate(g, r * _h1_direction(g, r, 1.0))
    return math.sqrt(dual_sq / (rec.K + rec.M))


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

    def to_json(self, **kw) -> str:
        return json.dumps(self._asdict(), indent=2, **kw)


def audit(outcome) -> VerificationReport:
    """Full verification of a multiplicity run, from its
    `solver.MultiplicityOutcome`. Pure: identical inputs give an identical
    report.

    Every well's entry carries its stage records, each with its status and
    whole-grid measurement, and its weak residual (`weak_residual`),
    measured once per well whether or not the well is checked. A converged well is checked against the stated tolerances;
    its barycenter is its last stage's.
    """
    params: EnergyParams = outcome.params
    config = outcome.config
    spec = params.potential

    tolerances = {
        "nehari_res": config.nehari_tol,
        "level_characterization": config.nehari_tol,
        # the bar a stage converges at, half of grad_tol (`minimize_localized`)
        "grad_norm": 0.5 * config.grad_tol,
        "log_sobolev_min_gap": -1e-8,
        "r_stabilization": "continuation level gap <= nehari_tol * "
                           "max(1, |level|) and barycenter shift <= 1e-4; with "
                           "one radius, level_R_error <= nehari_tol * max(1, |level|)",
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
            "seed_shifted": res.seed_shifted,
            "r_stabilized": res.r_stabilized,
            "continuation_gap": res.continuation_gap,
            "weak_res": weak_residual(res.u, params, res.grid),
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

        q = res.barycenter
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
        schema_version=4,
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
    )
