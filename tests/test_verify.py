import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import node_list
from lognls.energy import EnergyParams
from lognls.errors import ZeroField
from lognls.grid import build_grid, conforming_radius, integrate, laplacian_apply
from lognls.solver import gausson
from lognls.verify import (
    _cubic_bspline,
    _factored_probe,
    audit,
    identity_suite,
    positivity_check,
    smooth_random_field,
    weak_residual,
)


@pytest.fixture(scope="module")
def fine_grid():
    return build_grid(1, 10.0, 0.01)


@pytest.fixture(scope="module")
def const_params():
    return EnergyParams(eps=1.0, potential=1.0)


def test_weak_residual_of_exact_gausson(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    res = weak_residual(u, const_params, fine_grid)
    assert res <= 1e-3


def test_weak_residual_orders_random_vs_converged(fine_grid, const_params,
                                                  gausson_run):
    rng = np.random.default_rng(12)
    u = smooth_random_field(fine_grid, rng, positive=True)
    res_random = weak_residual(u, const_params, fine_grid)
    res_converged = gausson_run["weak_res"]
    assert res_random >= 10.0 * res_converged
    assert res_random >= 10.0 * weak_residual(
        gausson(fine_grid, 1.0), const_params, fine_grid)


def test_weak_residual_second_order_in_h(const_params):
    coarse = build_grid(1, 10.0, 0.02)
    fine = build_grid(1, 10.0, 0.01)
    r_coarse = weak_residual(gausson(coarse, 1.0), const_params, coarse)
    r_fine = weak_residual(gausson(fine, 1.0), const_params, fine)
    assert r_coarse / r_fine >= 3.5


@pytest.mark.parametrize("dim, R, h, peak", [(1, 60.0, 0.05, [30.0]),
                                             (2, 24.0, 0.3, [12.0, -8.0])])
def test_weak_residual_probes_meet_the_field(monkeypatch, const_params, dim, R, h, peak):
    """Every probe's support, |x_k - c_k| < 2 sigma on each axis, holds a
    node where the field is at least 1e-20 of its peak: on a wide domain a
    centre drawn over the whole domain would mostly pair with zeros."""
    import lognls.verify as verify_mod

    g = build_grid(dim, R, h)
    u = np.exp(0.5 * (dim + 1.0)) * np.exp(-0.5 * (node_list(g) - peak) ** 2).prod(axis=1)
    u[~g.interior_mask] = 0.0
    live = (u >= 1e-20 * u.max()).reshape(g.shape)
    probes = []
    real = verify_mod._factored_probe

    def spy(g1, wr, center, sigma):
        probes.append((list(center), sigma))
        return real(g1, wr, center, sigma)

    monkeypatch.setattr(verify_mod, "_factored_probe", spy)
    assert weak_residual(u, const_params, g, seed=3) <= 1e-2
    assert len(probes) == 50
    for center, sigma in probes:
        near = live[np.ix_(*[np.abs(g.axis - c) < 2.0 * sigma for c in center])]
        assert near.any(), (center, sigma)


def test_weak_residual_zero_field(fine_grid, const_params):
    with pytest.raises(ZeroField):
        weak_residual(np.zeros(fine_grid.num_nodes), const_params, fine_grid)


# one grid per dimension for the probe tests
_PROBE_GRIDS = {1: build_grid(1, 10.0, 0.05), 2: build_grid(2, 8.0, 0.1)}


def _full_grid_probe(g, center, sigma):
    """Reference: the tensor B-spline bump built on every node of g, zeroed
    on the boundary, and its discrete H^1 norm^2 from the full stencil."""
    v = np.ones(g.num_nodes)
    for k, x in enumerate(node_list(g).T):
        v *= _cubic_bspline((x - center[k]) / sigma)
    v[~g.interior_mask] = 0.0
    h1sq = integrate(g, v * laplacian_apply(g, v)) + integrate(g, v * v)
    return v, h1sq


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), field_seed=st.integers(0, 2**32 - 1),
       t_sigma=st.floats(0.0, 1.0),
       t_center=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_factored_probe_matches_full_grid_probe(dim, field_seed, t_sigma, t_center):
    g = _PROBE_GRIDS[dim]
    g1 = build_grid(1, g.R, g.h)
    # the probe family of weak_residual: log-uniform width, support inside
    sigma_hi = g.R / 8.0
    sigma_lo = min(max(3.0 * g.h, g.R / 100.0), sigma_hi)
    sigma = sigma_lo * (sigma_hi / sigma_lo) ** t_sigma
    center = np.array(t_center[:dim]) * (g.R - 2.0 * sigma - g.h)
    r = smooth_random_field(g, np.random.default_rng(field_seed))
    wr = (g.quad_weights * r).reshape(g.shape)

    # the factors and the pairing cover only the probe's support
    pairing, h1sq = _factored_probe(g1, wr, center, sigma)
    v, h1sq_ref = _full_grid_probe(g, center, sigma)
    assert h1sq == pytest.approx(h1sq_ref, rel=1e-13)
    # r changes sign: bound the pairing's error by the scale of its terms
    assert abs(pairing - integrate(g, r * v)) <= 1e-13 * integrate(g, np.abs(r) * v)


@pytest.mark.parametrize("dim", [1, 2])
def test_factored_probe_degenerate_support_raises(dim):
    g = _PROBE_GRIDS[dim]
    g1 = build_grid(1, g.R, g.h)
    wr = np.ones(g.shape)
    center = np.full(dim, g.R + 1.0)   # support entirely outside the domain
    with pytest.raises(ZeroField, match="probe degenerate"):
        _factored_probe(g1, wr, center, 0.2)


def test_positivity_check_accepts_gausson(fine_grid):
    assert positivity_check(gausson(fine_grid, 1.0), fine_grid)["ok"]


def test_positivity_check_rejects_negative_dip(fine_grid):
    u = gausson(fine_grid, 1.0)
    u[fine_grid.num_nodes // 3] = -1e-9
    rep = positivity_check(u, fine_grid)
    assert not rep["ok"] and not rep["nonnegative"]


def test_positivity_check_allows_underflow_zeros_far_out():
    g = build_grid(1, 60.0, 0.05)
    d = g.axis - 20.0
    u = np.exp(1.0 - 0.5 * d * d)  # underflows to 0 beyond ~|d| > 38.6
    u[~g.interior_mask] = 0.0
    assert (u == 0.0).sum() > 2  # zeros really occur
    assert positivity_check(u, g)["ok"]


def test_positivity_check_rejects_zero_hole_near_peak():
    g = build_grid(1, 60.0, 0.05)
    d = g.axis - 20.0
    u = np.exp(1.0 - 0.5 * d * d)
    u[~g.interior_mask] = 0.0
    u[np.argmin(np.abs(d - 5.0))] = 0.0
    assert not positivity_check(u, g)["ok"]


def test_identity_suite_all_pass():
    g = build_grid(1, 10.0, 0.05)
    ids = identity_suite(g, seed=0, fields=25)
    for name, entry in ids.items():
        assert entry["pass"] == entry["total"], name


@pytest.mark.parametrize("dim, target, h", [(1, 10.0, 0.01), (2, 8.0, 0.1)])
def test_identity_suite_passes_on_shipped_grids(dim, target, h):
    # the suite on the grids of the shipped configs (h = 0.01 in 1d,
    # configs/double_well.json; h = 0.1 in 2d, perfbench/configs/dw2d.json);
    # `audit` checks results only, so these checks of the code live here
    g = build_grid(dim, conforming_radius(target, h), h)
    ids = identity_suite(g, seed=0, fields=20)
    for name, entry in ids.items():
        assert entry["pass"] == entry["total"], name


def test_identity_suite_catches_corrupted_nehari_scale(monkeypatch):
    import lognls.verify as verify_mod

    real = verify_mod.nehari_scale

    def corrupted(rec):
        # the exponent (K - E)/M without its 1/2; a constant factor on s*
        # would cancel in the idempotence check, as s*(c u) = s*(u)/c
        return real(rec) ** 2

    monkeypatch.setattr(verify_mod, "nehari_scale", corrupted)
    ids = verify_mod.identity_suite(build_grid(1, 10.0, 0.1), fields=3)
    assert ids["nehari_idempotence"]["pass"] < ids["nehari_idempotence"]["total"]
    assert ids["scaling_identity"]["pass"] == ids["scaling_identity"]["total"]


def test_audit_passes_on_double_well(double_well_run):
    out = double_well_run["outcome"]
    rep = audit(out)
    assert rep.status == 0
    assert rep.gap_ok and rep.distinct_ok
    for w in rep.wells:
        assert w["ok"]
        assert w["separation_ok"] and w["region_ok"]
        assert w["positivity"]["ok"]
    assert rep.tolerances["nehari_res"] == out.config.nehari_tol


def test_audit_fails_on_negated_solution(double_well_run):
    out = double_well_run["outcome"]
    results = list(out.results)
    results[0] = results[0]._replace(u=-results[0].u)
    rep = audit(out._replace(results=results))
    assert rep.status == 1
    assert not rep.wells[0]["positivity"]["ok"]


def test_audit_fails_on_duplicated_result(double_well_run):
    out = double_well_run["outcome"]
    results = [out.results[0], copy.copy(out.results[0])]
    rep = audit(out._replace(results=results))
    assert rep.status == 1
    assert not rep.distinct_ok


def test_audit_fails_on_unstabilized_well(double_well_run):
    out = double_well_run["outcome"]
    results = list(out.results)
    results[1] = results[1]._replace(r_stabilized=False)
    rep = audit(out._replace(results=results))
    assert rep.status == 1
    assert rep.wells[0]["ok"] and rep.wells[0]["r_stabilized"]
    assert not rep.wells[1]["ok"] and not rep.wells[1]["r_stabilized"]
    assert rep.wells[1]["continuation_gap"] == results[1].continuation_gap


def test_audit_is_deterministic(double_well_run):
    out = double_well_run["outcome"]
    rep1 = audit(out)
    rep2 = audit(out)
    assert rep1 == rep2


def test_audit_report_is_json_serializable(double_well_run):
    import json

    out = double_well_run["outcome"]
    rep = audit(out)
    parsed = json.loads(rep.to_json())
    assert parsed["schema_version"] == 3
    assert parsed["status"] == 0
    assert len(parsed["wells"]) == 2
    # the audit checks results; the identity suite is `lognls verify`'s
    assert "identity_suite" not in parsed
    for entry, res in zip(parsed["wells"], out.results):
        assert entry["seed_width"] == res.seed_width and 0.5 <= res.seed_width <= 4.0
        assert entry["stages"] == json.loads(json.dumps([st._asdict() for st in res.stages]))
        assert sum(st["iterations"] for st in entry["stages"]) == entry["iterations"]
