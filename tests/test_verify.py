import copy
import math

import numpy as np
import pytest

from conftest import node_list
from lognls.energy import EnergyParams, energy
from lognls.errors import ZeroField
from lognls.grid import build_grid, conforming_radius, integrate, laplacian_apply
from lognls.solver import gausson
from lognls.verify import (
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
    """The Gausson at the origin, and off-centre on wide domains, where most
    of the domain holds no field."""
    assert weak_residual(gausson(fine_grid, 1.0), const_params, fine_grid) <= 1e-3
    for dim, R, h, peak in [(1, 60.0, 0.05, [30.0]), (2, 24.0, 0.3, [12.0, -8.0])]:
        g = build_grid(dim, R, h)
        u = np.exp(0.5 * (dim + 1.0)) * np.exp(-0.5 * (node_list(g) - peak) ** 2).prod(axis=1)
        u[~g.interior_mask] = 0.0
        assert weak_residual(u, const_params, g) <= 1e-2


# small grids on which the interior H^1 Gram matrix is formed densely
_DENSE_GRIDS = {1: build_grid(1, 2.0, 0.1), 2: build_grid(2, 1.0, 0.1)}


def _dense_dual_norm(u, params, g):
    """sqrt(G.A^{-1}G) with G the weighted residual `Evaluation.gradient`
    and A = W(-L + 1) the H^1 Gram matrix on the interior nodes, built
    column by column from the stencil."""
    inner = np.flatnonzero(g.interior_mask)
    eye = np.eye(g.num_nodes)
    stiff = np.stack([laplacian_apply(g, eye[j])[inner] for j in inner], axis=1)
    gram = g.quad_weights[inner, None] * (stiff + np.eye(inner.size))
    grad = energy(u, params, g).gradient()[inner]
    return math.sqrt(grad @ np.linalg.solve(gram, grad))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("field_seed", [0, 1, 2])
def test_weak_residual_is_the_dual_norm(const_params, dim, field_seed):
    """weak_res ||u||_eps is the supremum of |G.v| / ||v||_H^1 over every v
    that vanishes on the boundary: it equals the dense solve, and no
    random or smooth v exceeds it."""
    g = _DENSE_GRIDS[dim]
    rng = np.random.default_rng(field_seed)
    u = smooth_random_field(g, rng)
    rec = energy(u, const_params, g)
    sup = weak_residual(u, const_params, g) * math.sqrt(rec.K + rec.M)
    assert sup == pytest.approx(_dense_dual_norm(u, const_params, g), rel=1e-12)

    grad = rec.gradient()
    for k in range(20):
        if k % 2:
            v = smooth_random_field(g, rng)
        else:
            v = rng.standard_normal(g.num_nodes)
            v[~g.interior_mask] = 0.0
        h1 = math.sqrt(integrate(g, v * laplacian_apply(g, v)) + integrate(g, v * v))
        assert abs(grad @ v) / h1 <= sup * (1.0 + 1e-12)


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


def test_weak_residual_zero_field(fine_grid, const_params):
    with pytest.raises(ZeroField):
        weak_residual(np.zeros(fine_grid.num_nodes), const_params, fine_grid)


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


def test_report_names_the_seed_of_each_well(double_well_run):
    """Well 2 of the double well starts from well 1's solution shifted;
    both record the one closed-form seed width."""
    rep = audit(double_well_run["outcome"])
    assert [w["seed_shifted"] for w in rep.wells] == [False, True]
    assert rep.wells[0]["seed_width"] == rep.wells[1]["seed_width"]


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
    assert parsed["schema_version"] == 4
    assert parsed["status"] == 0
    assert len(parsed["wells"]) == 2
    # the audit checks results; the identity suite is `lognls verify`'s
    assert "identity_suite" not in parsed
    for entry, res in zip(parsed["wells"], out.results):
        assert entry["seed_width"] == res.seed_width and 0.5 <= res.seed_width <= 4.0
        assert entry["stages"] == json.loads(json.dumps([st._asdict() for st in res.stages]))
        assert sum(st["iterations"] for st in entry["stages"]) == entry["iterations"]
