"""Post-hoc verification: weak-form residuals and the full identity audit.

The weak residual probes the discrete Euler-Lagrange residual of a field
against a finite family of smooth bump test functions of unit H^1 norm; the
audit re-derives every pass/fail from a stated numeric comparison with a
stated tolerance, so the report is self-describing. A finite probe family
only certifies an upper bound on the detectable residual.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .barycenter import BarycenterParams, q_eps, region_of
from .energy import (
    DELTA_DEFAULT,
    EnergyParams,
    _u2_log_u2,
    energy,
    evaluate,
    f2_growth_check,
    f_split,
    log_sobolev_gap,
    nehari_residual,
    nehari_scale,
)
from .potential import PotentialSpec
from .errors import ZeroField
from .grid import Grid, build_grid, conforming_radius, integrate, laplacian_apply, zero_extend

__all__ = [
    "VerificationReport",
    "weak_residual",
    "audit",
    "identity_suite",
    "smooth_random_field",
    "bump_probe",
    "POSITIVE_RADIUS",
]

# exp(-r^2/2) underflows below the smallest normal double at r ~ 37.6; a
# Gaussian-decay solution can only be certified strictly positive within
# this distance of its peak, beyond it zeros are float artifacts
POSITIVE_RADIUS = 36.0


def _cubic_bspline(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    out = np.zeros_like(a)
    near = a < 1.0
    out[near] = 2.0 / 3.0 - a[near] ** 2 + 0.5 * a[near] ** 3
    mid = (a >= 1.0) & (a < 2.0)
    out[mid] = (2.0 - a[mid]) ** 3 / 6.0
    return out


def bump_probe(g: Grid, center: np.ndarray, sigma: float) -> np.ndarray:
    """Tensor cubic B-spline bump at the given center, unit discrete H^1 norm."""
    v = np.ones(g.num_nodes)
    for k in range(g.dim):
        v *= _cubic_bspline((g.nodes[:, k] - center[k]) / sigma)
    v[~g.interior_mask] = 0.0
    h1sq = integrate(g, v * laplacian_apply(g, v)) + integrate(g, v * v)
    if h1sq <= 0.0:
        raise ZeroField("probe degenerate: support does not meet the grid")
    return v / math.sqrt(h1sq)


def weak_residual(
    u: np.ndarray,
    eps: float,
    params: EnergyParams,
    g: Grid,
    probes: int = 50,
    seed: int = 0,
) -> float:
    """Max over a probe family of |int(grad u . grad v + V u v - u v log u^2)|,
    normalized by ||u||_eps.

    The gradient pairing is realized through the discrete Laplacian
    (summation by parts), so the continuum solution scores O(h^2) and the
    converged discrete solution scores at rounding level.
    """
    if eps != params.eps:
        raise ValueError(f"eps mismatch: got {eps}, params carry {params.eps}")
    eb = energy(u, params, g)
    if eb.mass <= 0.0:
        raise ZeroField("weak residual undefined for the zero field")
    r = evaluate(u, params, g).residual()

    rng = np.random.default_rng(seed)
    sigma_hi = g.R / 8.0
    sigma_lo = min(max(3.0 * g.h, g.R / 100.0), sigma_hi)
    worst = 0.0
    for _ in range(probes):
        sigma = math.exp(rng.uniform(math.log(sigma_lo), math.log(sigma_hi)))
        span = g.R - 2.0 * sigma - g.h
        center = rng.uniform(-span, span, size=g.dim)
        v = bump_probe(g, center, sigma)
        worst = max(worst, abs(integrate(g, r * v)))
    return worst / eb.norm_eps


def smooth_random_field(
    g: Grid,
    rng: np.random.Generator,
    modes: int = 4,
    positive: bool = False,
) -> np.ndarray:
    """Gaussian-envelope random trig field, Dirichlet-compliant.

    With positive=True the field is bounded away from zero relative to its
    envelope (needed where third derivatives of the entropy term matter).
    """
    sigma = g.R / 4.0
    env = np.exp(-((g.radii() / sigma) ** 2) / 2.0)
    trig = np.zeros(g.num_nodes)
    for k in range(1, modes + 1):
        for d in range(g.dim):
            phase = g.nodes[:, d] * (math.pi * k / (2.0 * g.R))
            trig += rng.normal() * np.cos(phase) + rng.normal() * np.sin(phase)
    trig /= max(1.0, np.abs(trig).max())
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
    peak = g.nodes[int(np.argmax(u))]
    dist = np.linalg.norm(g.nodes - peak[None, :], axis=1)
    core = interior & (dist <= POSITIVE_RADIUS)
    strict_core = bool(np.all(u[core] > 0.0)) if core.any() else False
    return {
        "ok": nonnegative and strict_core,
        "min_interior": min_interior,
        "nonnegative": nonnegative,
        "strictly_positive_within_radius": strict_core,
        "radius": POSITIVE_RADIUS,
    }


def identity_suite(
    delta: float,
    p: float,
    g: Grid,
    seed: int = 0,
    samples: int = 1_000_000,
    fields: int = 100,
) -> dict:
    """Pass counts for the algebraic identities of the splitting and the
    functional: F2 - F1 = 1/2 s^2 log s^2, the C^1 seam, the ray scaling
    J(su) = s^2 (J(u) - log s int u^2), Nehari projection idempotence,
    F1 sign properties, the log-Sobolev certificate and the F2' growth fit.
    """
    rng = np.random.default_rng(seed)
    out = {}

    s = rng.uniform(-1e3, 1e3, size=samples)
    F1, F2, dF1, _ = f_split(s, delta)
    target = 0.5 * _u2_log_u2(s)
    diff = np.abs(F2 - F1 - target)
    tol_split = 1e-10
    ok = diff <= tol_split * np.maximum(1.0, np.abs(target))
    out["splitting_identity"] = {"pass": int(ok.sum()), "total": samples,
                                 "tol_rel": tol_split}
    out["f1_nonnegative"] = {"pass": int((F1 >= 0.0).sum()), "total": samples}
    out["f1_monotone_sign"] = {"pass": int((dF1 * s >= 0.0).sum()), "total": samples}

    lo = np.nextafter(delta, 0.0)
    v_in = f_split(lo, delta)
    v_out = f_split(delta, delta)
    seam_gap = max(abs(a - b) for a, b in zip(v_in, v_out))
    tol_seam = 1e-13
    out["c1_seam"] = {"pass": int(seam_gap <= tol_seam), "total": 1,
                      "gap": seam_gap, "tol_abs": tol_seam}

    params = EnergyParams(eps=1.0, potential=1.0)
    tol_scale, tol_idem, tol_ls = 1e-10, 1e-12, -1e-8
    n_scale = n_idem = n_ls = 0
    scales = (0.5, math.e, 10.0)
    for _ in range(fields):
        u = smooth_random_field(g, rng)
        eb = energy(u, params, g)
        for sfac in scales:
            lhs = energy(sfac * u, params, g).total
            rhs = sfac * sfac * (eb.total - math.log(sfac) * eb.mass)
            if abs(lhs - rhs) <= tol_scale * max(1.0, abs(lhs)):
                n_scale += 1
        star = nehari_scale(u, params, g)
        if math.isfinite(star) and abs(nehari_scale(star * u, params, g) - 1.0) <= tol_idem:
            n_idem += 1
        if log_sobolev_gap(u, g) >= tol_ls:
            n_ls += 1
    out["scaling_identity"] = {"pass": n_scale, "total": fields * len(scales),
                               "tol_rel": tol_scale}
    out["nehari_idempotence"] = {"pass": n_idem, "total": fields, "tol_abs": tol_idem}
    out["log_sobolev"] = {"pass": n_ls, "total": fields, "tol_abs": tol_ls,
                          "a_sq_over_pi": 0.25}

    grow = f2_growth_check(delta, p, np.geomspace(delta / 10.0, 1e3, 4001))
    out["f2_growth"] = {"pass": int(math.isfinite(grow.c) and grow.uniform),
                        "total": 1, "c": grow.c, "uniform": grow.uniform}

    sgrid = np.linspace(-1.0, 1.0, 4001)
    F1c, _, _, _ = f_split(sgrid, delta)
    second = F1c[2:] - 2.0 * F1c[1:-1] + F1c[:-2]
    out["f1_convexity"] = {"pass": int(np.all(second >= -1e-9)), "total": 1,
                           "min_second_difference": float(second.min())}

    return out


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


@dataclass
class VerificationReport:
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
    identity_suite: dict
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "status": self.status,
            "eps": self.eps,
            "c0": self.c0,
            "c_inf": self.c_inf,
            "gamma": self.gamma,
            "gap_ok": self.gap_ok,
            "tolerances": self.tolerances,
            "wells": self.wells,
            "failures": self.failures,
            "distinct_ok": self.distinct_ok,
            "distinct_pairs": self.distinct_pairs,
            "identity_suite": self.identity_suite,
            "notes": self.notes,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), indent=2, **kw)


def audit(results, ctx) -> VerificationReport:
    """Full verification of a multiplicity run.

    ctx is the MultiplicityOutcome (or anything carrying params, config,
    geometry, eps, c0, c_inf, gamma, failures). Pure: identical inputs give
    an identical report.
    """
    params: EnergyParams = ctx.params
    config = ctx.config
    geometry = ctx.geometry
    spec = params.potential
    bp = BarycenterParams(R0=geometry.R0)

    tolerances = {
        "nehari_res": config.nehari_tol,
        "level_characterization": config.nehari_tol,
        "grad_tol": config.grad_tol,
        "log_sobolev_min_gap": -1e-8,
        "r_stabilization": "continuation level gap <= grad_tol and "
                           "barycenter shift <= 1e-4",
        "separation": "level < c0 + gamma",
        "distinct_rel_l2": 1e-2,
        "positivity": f"nonnegative and > 0 within {POSITIVE_RADIUS} of the peak",
    }

    wells_out = []
    all_ok = True
    converged = []
    for res in results:
        entry = {
            "well": None if res.well_index is None else res.well_index + 1,
            "status": res.status.value,
            "level": res.level,
            "R_final": res.R_final,
            "iterations": res.iterations,
            "r_stabilized": res.r_stabilized,
            "continuation_gap": res.continuation_gap,
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
        sep_ok = res.level < ctx.c0 + ctx.gamma
        ls_gap = log_sobolev_gap(res.u, res.grid)
        ls_ok = ls_gap >= -1e-8

        region_ok = True
        if res.well_index is not None:
            q = q_eps(res.u, ctx.eps, bp, res.grid)
            reg = region_of(q, geometry, spec.wells)
            region_ok = reg.is_interior(res.well_index)
            entry["barycenter"] = [float(c) for c in q]
            entry["dist_to_well"] = float(
                np.linalg.norm(q - spec.wells[res.well_index])
            )
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
            pair_ok = wells_differ and rel > 1e-2
            distinct_ok = distinct_ok and pair_ok
            distinct_pairs.append({
                "wells": [
                    None if a.well_index is None else a.well_index + 1,
                    None if b.well_index is None else b.well_index + 1,
                ],
                "rel_l2_distance": rel,
                "ok": pair_ok,
            })
    all_ok = all_ok and distinct_ok

    gap_ok = ctx.c0 < ctx.c_inf
    all_ok = all_ok and gap_ok and not ctx.failures

    dim = spec.dim if isinstance(spec, PotentialSpec) else 1
    g_small = build_grid(dim, conforming_radius(10.0 if dim == 1 else 8.0, config.h), config.h)
    # delta and p shape only the splitting F1 + F2 of the proof, not the
    # solve: the suite runs at the values `lognls verify` uses
    ids = identity_suite(DELTA_DEFAULT, 3.0, g_small, seed=config.probe_seed, fields=20)
    ids_ok = all(v["pass"] == v["total"] for v in ids.values())
    all_ok = all_ok and ids_ok

    return VerificationReport(
        schema_version=1,
        status=0 if all_ok else 1,
        eps=ctx.eps,
        c0=ctx.c0,
        c_inf=ctx.c_inf,
        gamma=ctx.gamma,
        gap_ok=gap_ok,
        tolerances=tolerances,
        wells=wells_out,
        failures=[
            {"well": f.well_index + 1, "error": f.error, "message": f.message}
            for f in ctx.failures
        ],
        distinct_ok=distinct_ok,
        distinct_pairs=distinct_pairs,
        identity_suite=ids,
        notes=[
            "finite probe family: weak_res certifies an upper bound on the "
            "detectable residual only",
        ],
    )
