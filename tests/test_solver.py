import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lognls.barycenter import BarycenterParams, q_eps, region_of
from lognls.energy import EnergyParams, energy, log_sobolev_gap
from lognls.errors import DomainTooSmall, LogNLSError, SeedOutsideRegion
from lognls.grid import build_grid, integrate
from lognls.potential import default_geometry, make_multiwell
from lognls.solver import (
    SolveStatus,
    SolverConfig,
    continue_in_R,
    gausson,
    ground_level,
    minimize_localized,
    rescale_to_original,
    seed_well,
    solve_multiplicity,
)

E = math.e
SQPI = math.sqrt(math.pi)


# --- the Gausson oracle ----------------------------------------------------

def test_gausson_amplitude_1d():
    g = build_grid(1, 10.0, 0.01)
    u = gausson(g, 1.0)
    origin = np.argmin(np.abs(g.nodes[:, 0]))
    assert u[origin] == pytest.approx(E, rel=1e-14)


def test_gausson_mass_and_level_1d():
    g = build_grid(1, 10.0, 0.01)
    u = gausson(g, 1.0)
    assert integrate(g, u * u) == pytest.approx(E**2 * SQPI, abs=1e-6)
    params = EnergyParams(eps=1.0, potential=1.0)
    assert energy(u, params, g).total == pytest.approx(0.5 * E**2 * SQPI, abs=5e-3)


def test_gausson_2d_amplitude_and_level():
    g = build_grid(2, 8.0, 0.05)
    u = gausson(g, 2.0)
    assert u.max() == pytest.approx(E**2, rel=1e-12)
    params = EnergyParams(eps=1.0, potential=2.0)
    target = 0.5 * math.exp(4.0) * math.pi
    assert energy(u, params, g).total == pytest.approx(target, rel=5e-3)


def test_gausson_domain_too_small():
    with pytest.raises(DomainTooSmall):
        gausson(build_grid(1, 4.0, 0.25), 1.0)


def test_gausson_solves_discrete_pde():
    # substitution oracle: -Lu + u - u log u^2 = O(h^2) at interior nodes
    g = build_grid(1, 10.0, 0.01)
    u = gausson(g, 1.0)
    from lognls.grid import laplacian_apply
    from lognls.energy import _u_log_u2
    res = laplacian_apply(g, u) + u - _u_log_u2(u)
    assert np.abs(res[g.interior_mask]).max() <= 2e-4


# --- seeding ---------------------------------------------------------------

@pytest.fixture(scope="module")
def dw_spec():
    return make_multiwell([[0.0], [2.0]], 2.0, 0.25)


def test_seed_center_well(dw_spec):
    g = build_grid(1, 30.0, 0.05)
    cfg = SolverConfig(h=0.05, R_schedule=(30.0,))
    params = EnergyParams(eps=0.1, potential=dw_spec)
    seed = seed_well(0, 0.1, params, cfg, g)
    geom = default_geometry(dw_spec)
    q = q_eps(seed, 0.1, BarycenterParams(R0=geom.R0), g)
    assert np.abs(q).max() <= 1e-6
    assert np.all(seed >= 0.0)
    assert seed[g.interior_mask].min() > 0.0  # floored seed is strictly positive


def test_seed_translated_well(dw_spec):
    g = build_grid(1, 40.0, 0.05)
    cfg = SolverConfig(h=0.05, R_schedule=(40.0,))
    params = EnergyParams(eps=0.1, potential=dw_spec)
    seed = seed_well(1, 0.1, params, cfg, g)
    peak = g.nodes[np.argmax(seed), 0]
    assert abs(peak - 20.0) <= g.h
    geom = default_geometry(dw_spec)
    q = q_eps(seed, 0.1, BarycenterParams(R0=geom.R0), g)
    assert abs(q[0] - 2.0) <= 0.05


def test_seed_needs_margin(dw_spec):
    g = build_grid(1, 10.0, 0.05)
    cfg = SolverConfig(h=0.05, R_schedule=(10.0,))
    params = EnergyParams(eps=0.1, potential=dw_spec)
    with pytest.raises(DomainTooSmall):
        seed_well(1, 0.1, params, cfg, g)  # center 20 is off-grid


def test_seed_out_of_regime_barycenter(dw_spec):
    g = build_grid(1, 30.0, 0.05)
    cfg = SolverConfig(h=0.05, R_schedule=(30.0,))
    params = EnergyParams(eps=5.0, potential=dw_spec)
    with pytest.raises(SeedOutsideRegion):
        seed_well(1, 5.0, params, cfg, g)


@pytest.mark.parametrize("z", [1.0, 1.5, 2.0])
def test_translated_well_same_level_and_iterations(z):
    # the seed must not depend on where its well sits: well 2 at z is well 1
    # moved, so it reaches the same level in about as many iterations
    spec = make_multiwell([[0.0], [z]], 2.0, 0.25)
    g = build_grid(1, 30.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(30.0,))
    params = EnergyParams(eps=0.1, potential=spec)
    runs = [minimize_localized(seed_well(i, 0.1, params, cfg, g), i, 0.1,
                               params, cfg, g) for i in (0, 1)]
    assert all(r.status == SolveStatus.CONVERGED for r in runs)
    assert abs(runs[1].level - runs[0].level) <= 1e-10 * abs(runs[0].level)
    assert runs[1].iterations <= 1.5 * runs[0].iterations + 20


# --- localized minimization --------------------------------------------------

def test_minimize_from_exact_gausson_fast():
    # the seed is the continuum solution: only the discretization correction
    # remains, so a loose gradient tolerance converges in a handful of steps
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,), grad_tol=5e-5)
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    assert res.iterations <= 5
    assert res.level == pytest.approx(0.5 * E**2 * SQPI, rel=1e-3)


def test_reported_level_is_energy_of_returned_field():
    g = build_grid(1, 10.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    bump = np.exp(-((g.nodes[:, 0] - 1.0) ** 2) / 0.5)
    bump[~g.interior_mask] = 0.0
    res = minimize_localized(gausson(g, 1.0) + 0.2 * bump, None, 1.0, params, cfg, g)
    assert res.level == energy(res.u, params, g).total
    assert res.level_history_R == [(10.0, res.level)]


def test_minimize_perturbed_seed_same_level():
    g = build_grid(1, 10.0, 0.01)
    nehari_tol = 1e-8
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,), grad_tol=1e-9,
                       nehari_tol=nehari_tol)
    params = EnergyParams(eps=1.0, potential=1.0)
    base = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    bump = np.exp(-((g.nodes[:, 0] - 1.0) ** 2) / 0.5)
    bump[~g.interior_mask] = 0.0
    res = minimize_localized(gausson(g, 1.0) + 0.1 * bump, None, 1.0, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    assert abs(res.level - base.level) <= 10.0 * nehari_tol


def test_minimize_monotone_levels_and_certificates():
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    bump = np.exp(-((g.nodes[:, 0] - 1.0) ** 2) / 0.5)
    bump[~g.interior_mask] = 0.0
    res = minimize_localized(gausson(g, 1.0) + 0.2 * bump, None, 1.0, params, cfg, g)
    levels = [row.level for row in res.history]
    slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
    assert all(b <= a + slack for a, b in zip(levels, levels[1:]))
    assert all(row.nehari_res <= cfg.nehari_tol for row in res.history)
    assert log_sobolev_gap(res.u, g) >= -1e-8


_G_PROP = build_grid(1, 10.0, 0.02)
_CFG_PROP = SolverConfig(h=0.02, R_schedule=(10.0,))
_PARAMS_PROP = EnergyParams(eps=1.0, potential=1.0)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    amp=st.floats(-0.3, 0.3),
    center=st.floats(-2.0, 2.0),
    width=st.floats(0.3, 2.0),
)
def test_descent_invariants_on_perturbed_gausson(amp, center, width):
    # J never increases along the history, every iterate sits on the Nehari
    # set, and the descent is deterministic
    g = _G_PROP
    bump = np.exp(-((g.nodes[:, 0] - center) ** 2) / width)
    bump[~g.interior_mask] = 0.0
    seed = gausson(g, 1.0) * (1.0 + amp * bump)
    res = minimize_localized(seed, None, 1.0, _PARAMS_PROP, _CFG_PROP, g)
    levels = [row.level for row in res.history]
    slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
    assert all(b <= a + slack for a, b in zip(levels, levels[1:]))
    assert all(row.nehari_res <= _CFG_PROP.nehari_tol for row in res.history)
    again = minimize_localized(seed, None, 1.0, _PARAMS_PROP, _CFG_PROP, g)
    assert np.array_equal(res.u, again.u)


def test_failed_line_search_has_own_status():
    # grad_tol below rounding: the line search runs out of halvings long
    # before the iteration cap
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,), grad_tol=1e-15)
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    assert res.status == SolveStatus.LINE_SEARCH_FAILED
    assert res.iterations < cfg.max_iters


def test_minimize_confined_iterates(dw_spec):
    # every accepted iterate keeps its barycenter inside the well ball
    g = build_grid(1, 30.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(30.0,))
    params = EnergyParams(eps=0.1, potential=dw_spec)
    seed = seed_well(1, 0.1, params, cfg, g)
    res = minimize_localized(seed, 1, 0.1, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    geom = default_geometry(dw_spec)
    for row in res.history:
        reg = region_of(np.array(row.barycenter), geom, dw_spec.wells)
        assert reg.is_interior(1)


def test_minimize_symmetry_preserved():
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    flipped = res.u[::-1]
    assert np.abs(res.u - flipped).max() <= 1e-10


def test_minimize_positivity_at_convergence():
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    assert np.all(res.u >= 0.0)
    assert res.u[g.interior_mask].min() > 0.0


# --- ground levels -----------------------------------------------------------

def test_ground_level_omega_1():
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    c0 = ground_level(1.0, g, cfg)
    assert c0 == pytest.approx(0.5 * E**2 * SQPI, rel=5e-3)


def test_ground_level_omega_2_and_gap():
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    c0 = ground_level(1.0, g, cfg)
    c_inf = ground_level(2.0, g, cfg)
    assert c_inf == pytest.approx(0.5 * E**3 * SQPI, rel=5e-3)
    assert c0 < c_inf


# --- continuation ------------------------------------------------------------

def test_continuation_constant_potential_level_stable():
    cfg = SolverConfig(h=0.05, R_schedule=(10.0, 20.0))
    params = EnergyParams(eps=1.0, potential=1.0)
    g = build_grid(1, 10.0, 0.05)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    res = continue_in_R(res, None, 1.0, params, cfg)
    assert res.R_final == 20.0
    (r1, l1), (r2, l2) = res.level_history_R
    assert abs(l2 - l1) <= 1e-8
    assert res.r_stabilized


def test_continuation_keeps_every_stage_history():
    cfg = SolverConfig(h=0.05, R_schedule=(10.0, 20.0))
    params = EnergyParams(eps=1.0, potential=1.0)
    g = build_grid(1, 10.0, 0.05)
    first = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    res = continue_in_R(first, None, 1.0, params, cfg)
    stages = len(res.level_history_R)
    assert stages == 2
    assert len(res.history) == res.iterations + stages
    assert [row.R for row in res.history] == sorted(row.R for row in res.history)
    assert {row.R for row in res.history} == {10.0, 20.0}


def test_continuation_monotone_double_well(double_well_run):
    for res in double_well_run["outcome"].results:
        levels = [lvl for _, lvl in res.level_history_R]
        slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
        assert all(b <= a + slack for a, b in zip(levels, levels[1:]))
        assert res.r_stabilized


# --- multiplicity pipeline ---------------------------------------------------

def test_solve_multiplicity_single_well():
    spec = make_multiwell([[0.0]], 2.0, 1.0)
    cfg = SolverConfig(h=0.05, R_schedule=(10.0,))
    out = solve_multiplicity(0.1, spec, cfg)
    assert not out.failures
    assert len(out.results) == 1
    res = out.results[0]
    assert res.status == SolveStatus.CONVERGED
    assert res.level < out.c0 + out.gamma
    assert np.abs(res.barycenter).max() <= out.geometry.rho0 / 2


def test_repeated_solves_reuse_ground_levels():
    from lognls.solver import _ground_level_cached

    spec = make_multiwell([[0.0]], 2.0, 1.0)
    cfg = SolverConfig(h=0.05, R_schedule=(10.0,))
    first = solve_multiplicity(0.1, spec, cfg)
    hits = _ground_level_cached.cache_info().hits
    second = solve_multiplicity(0.2, spec, cfg)
    assert _ground_level_cached.cache_info().hits == hits + 2
    assert (second.c0, second.c_inf) == (first.c0, first.c_inf)
    # the weak residual is measured once per well, on its final field only
    for out in (first, second):
        assert all(math.isfinite(r.weak_res) for r in out.results)
    g = build_grid(1, 10.0, 0.05)
    res = minimize_localized(gausson(g, 1.0), None, 1.0,
                             EnergyParams(eps=1.0, potential=1.0), cfg, g)
    assert math.isnan(res.weak_res)


def test_solve_multiplicity_two_wells(double_well_run):
    out = double_well_run["outcome"]
    assert out.all_converged
    assert len(out.results) == 2
    for res, z in zip(out.results, double_well_run["spec"].wells):
        assert np.linalg.norm(res.barycenter - z) < out.geometry.rho0 / 2


def test_config_invariants_rejected(dw_spec):
    from lognls.errors import ConfigError

    with pytest.raises(ConfigError):
        SolverConfig(h=0.05, R_schedule=(30.0, 20.0))
    with pytest.raises(ConfigError):
        SolverConfig(h=0.05, R_schedule=())
    # first truncation radius must exceed the localization radius R0 = 4
    with pytest.raises(ConfigError):
        solve_multiplicity(0.1, dw_spec, SolverConfig(h=0.05, R_schedule=(3.0,)))
    # gamma must stay below half the level gap
    with pytest.raises(ConfigError):
        solve_multiplicity(
            0.1, dw_spec, SolverConfig(h=0.05, R_schedule=(30.0,), gamma=100.0))


def test_numeric_settings_validated_on_construction():
    with pytest.raises(LogNLSError, match="grad_tol"):
        SolverConfig(h=0.05, R_schedule=(10.0,), grad_tol=0.0)
    with pytest.raises(LogNLSError, match="nehari_tol"):
        SolverConfig(h=0.05, R_schedule=(10.0,), nehari_tol=-1.0)
    with pytest.raises(LogNLSError, match="backtrack"):
        SolverConfig(h=0.05, R_schedule=(10.0,), backtrack=1.5)
    with pytest.raises(LogNLSError, match="h must be positive"):
        SolverConfig(h=0.0, R_schedule=(10.0,))


def test_schedule_must_cover_wells(dw_spec):
    cfg = SolverConfig(h=0.05, R_schedule=(10.0,))
    with pytest.raises(DomainTooSmall):
        solve_multiplicity(0.1, dw_spec, cfg)  # needs R >= 2/0.1 + 5 = 25


def test_out_of_regime_eps_reports_failure(dw_spec):
    cfg = SolverConfig(h=0.02, R_schedule=(30.0,), max_iters=800)
    out = solve_multiplicity(5.0, dw_spec, cfg)
    assert not out.all_converged
    converged = [r for r in out.results if r.status == SolveStatus.CONVERGED]
    assert len(converged) < 2


def test_solve_multiplicity_2d_smoke():
    # end-to-end 2d double well at desk scale (coarse grid, loose tolerance)
    spec = make_multiwell([[0.0, 0.0], [2.0, 0.0]], 2.0, 0.25)
    cfg = SolverConfig(h=0.1, R_schedule=(12.0,), grad_tol=1e-6, max_iters=3000)
    out = solve_multiplicity(0.3, spec, cfg)
    assert out.all_converged
    for res, z in zip(out.results, spec.wells):
        assert np.linalg.norm(res.barycenter - z) <= out.geometry.rho0 / 2
        assert res.level < out.c0 + out.gamma
    from lognls.verify import audit
    assert audit(out.results, out).status == 0


def test_rescale_to_original(double_well_run):
    out = double_well_run["outcome"]
    res = out.results[1]
    g_orig, v = rescale_to_original(res, 0.1)
    assert g_orig.R == pytest.approx(res.grid.R * 0.1)
    assert g_orig.h == pytest.approx(res.grid.h * 0.1)
    assert np.array_equal(v, res.u)
    # v(x) = u(x/eps): the peak sits at eps * (z/eps) = z
    peak_x = g_orig.nodes[np.argmax(v), 0]
    assert abs(peak_x - 2.0) <= g_orig.h
