import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lognls.barycenter import q_eps, region_of
from lognls.energy import EnergyParams, energy, log_sobolev_gap, nehari_scale
from lognls.errors import (ConfigError, DomainTooSmall, LogNLSError, NonPositiveEpsilon,
                           SeedOutsideRegion, SolverFailure)
from lognls.grid import (
    Grid,
    GridBox,
    build_grid,
    conforming_radius,
    integrate,
    laplacian_apply,
    load_field,
    save_field,
    sq_distance,
)
from lognls.potential import make_multiwell
import lognls.energy as energy_mod
import lognls.solver as solver_mod
from lognls.solver import (
    SolveStatus,
    SolverConfig,
    _dst1,
    _h1_direction,
    _LBFGS,
    _boundary_ramp,
    _descent_box,
    _five_smooth,
    _grown_box,
    _helmholtz_eigenvalues,
    _projected_grad_norm,
    _seed_profile,
    _tail_damping,
    continue_in_R,
    gausson,
    ground_level,
    minimize_localized,
    seed_well,
    solve_multiplicity,
)
from lognls.verify import audit, weak_residual

E = math.e
SQPI = math.sqrt(math.pi)


# --- the DST-I preconditioner ----------------------------------------------

def _sine_matrix(n):
    """The orthonormal DST-I as a dense matrix, sqrt(2/(n+1)) sin(pi jk/(n+1))."""
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(j, j) / (n + 1))


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (64,), (9, 9)])
def test_dst1_matches_dense_sine_matrix(shape):
    """Along the last axis (each row of a 2d array), and its own inverse."""
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    ref = x @ _sine_matrix(shape[-1])      # the matrix is symmetric
    y = _dst1(x)
    assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(_dst1(y) - x).max() <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("dim, R, h", [(1, 10.0, 0.01), (2, 8.0, 0.1)])
def test_h1_direction_solves_the_helmholtz_system(dim, R, h):
    """(-L + c)d = r on the interior, and on an off-centre box of the grid
    with d = 0 on the box's frame, at the weak residual's c = 1 and the
    descent's c = _H1_SHIFT."""
    g = build_grid(dim, R, h)
    r = np.random.default_rng(dim).standard_normal(g.num_nodes)
    r[~g.interior_mask] = 0.0
    n = g.n_axis
    box = GridBox(g, (slice(n // 7, 3 * n // 4), slice(n // 3, n - 10))[:dim])
    for c in (1.0, solver_mod._H1_SHIFT):
        for grid in (g, box):
            rr = grid.restrict(r)
            d = _h1_direction(grid, rr, c)
            nodes = grid.interior_mask
            assert np.all(d[~nodes] == 0.0)
            res = (laplacian_apply(grid, d) + c * d - rr)[nodes]
            assert np.abs(res).max() <= 1e-10 * np.abs(rr).max()


def _whole_interior_h1(g, r):
    """The whole-interior DST-I solve of (-L + c)d = r as it stood before
    the box, kept as the reference of the bit-for-bit test."""
    ni = g.n_axis - 2
    k = np.arange(1, ni + 1)
    lam = (2.0 - 2.0 * np.cos(k * math.pi / (ni + 1))) / (g.h * g.h)
    if g.dim == 1:
        out = np.zeros_like(r)
        out[1:-1] = _dst1(_dst1(r[1:-1]) / (lam + solver_mod._H1_SHIFT))
        return out
    denom = lam[:, None] + lam[None, :] + solver_mod._H1_SHIFT
    rr = r.reshape(g.n_axis, g.n_axis)[1:-1, 1:-1]
    coeff_t = _dst1(np.ascontiguousarray(_dst1(rr).T)) / denom.T
    out = np.zeros((g.n_axis, g.n_axis))
    out[1:-1, 1:-1] = _dst1(np.ascontiguousarray(_dst1(coeff_t).T))
    return out.ravel()


@pytest.mark.parametrize("dim, R, h", [(1, 10.0, 0.01), (2, 8.0, 0.1)])
def test_whole_interior_box_reproduces_the_whole_grid_solve(dim, R, h):
    """A field above the floor at every interior node draws the whole
    interior as its box, and the solve on it is the whole-grid solve, bit
    for bit."""
    g = build_grid(dim, R, h)
    r = np.random.default_rng(dim).standard_normal(g.num_nodes)
    r[~g.interior_mask] = 0.0
    ref = _whole_interior_h1(g, r)
    view = _descent_box(g.interior_mask.astype(float), g)
    assert view.index == (slice(0, g.n_axis),) * dim
    assert view.shape == g.shape
    assert np.array_equal(_h1_direction(view, r, solver_mod._H1_SHIFT), ref)
    assert np.array_equal(_h1_direction(g, r, solver_mod._H1_SHIFT), ref)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), half=st.integers(8, 150),
       center=st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=2),
       width=st.floats(0.01, 0.6), floor=st.sampled_from([1e-20, 1e-8, 0.5]))
# a centre outside the domain, where u underflows to 0 at every node
@example(dim=2, half=8, center=[1.1875, 1.1875], width=0.01, floor=1e-20)
def test_precond_box_rule(dim, half, center, width, floor):
    """The descent box's interior lies in the grid's interior, holds every
    interior node where u >= floor max u, and each of its lengths L has an
    FFT length 2(L+1) with no prime factor above 5 or is the whole
    interior."""
    if dim == 2:   # at most 45 nodes per half axis, so 2d examples stay small
        half = 8 + half // 4
    g = build_grid(dim, 1.0, 1.0 / half)
    u = np.exp(-0.5 * sq_distance(g.axis, np.array(center[:dim])) / width ** 2)
    u[~g.interior_mask] = 0.0
    orig = solver_mod._BOX_FLOOR
    solver_mod._BOX_FLOOR = floor
    try:
        box = tuple(slice(sl.start + 1, sl.stop - 1) for sl in _descent_box(u, g).index)
    finally:
        solver_mod._BOX_FLOOR = orig
    ni = g.n_axis - 2
    assert len(box) == dim
    for sl in box:
        assert 1 <= sl.start < sl.stop <= g.n_axis - 1
        length = sl.stop - sl.start
        assert _five_smooth(2 * (length + 1)) or length == ni
    inside = np.zeros(g.shape, dtype=bool)
    inside[box] = True
    assert np.all(inside.ravel()[g.interior_mask & (u >= floor * u.max())])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(half=st.integers(8, 200), start=st.integers(0, 400), length=st.integers(0, 400))
def test_grown_box_doubles_the_box_about_its_centre(half, start, length):
    """The grown box holds the box and lies in the grid; its interior
    length is at least twice the box's, with an FFT length 2(L+1) that has
    no prime factor above 5, or the whole interior; and away from the
    grid's edges its centre is the box's, to a node."""
    g = build_grid(1, 0.1 * half, 0.1)
    ni = g.n_axis - 2
    length = 1 + length % ni
    start %= ni - length + 1
    grown = _grown_box(GridBox(g, (slice(start, start + length + 2),))).index[0]
    new = grown.stop - grown.start - 2
    assert 0 <= grown.start <= start and start + length + 2 <= grown.stop <= g.n_axis
    assert new == ni or (new >= 2 * length and _five_smooth(2 * (new + 1)))
    if 0 < grown.start and grown.stop < g.n_axis:
        assert abs((grown.start + grown.stop) - (2 * start + length + 2)) <= 2


def test_eigenvalue_cache_hits_across_new_grids():
    """The eigenvalues are cached per (box shape, h), so a sweep,
    which builds new grids at every eps and R stage, computes them once per
    box shape and holds no grid."""
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    cfg = SolverConfig(h=0.05, R_schedule=(12.0, 16.0))
    _helmholtz_eigenvalues.cache_clear()
    misses = []
    for eps in (0.4, 0.5, 0.4):
        out = solve_multiplicity(eps, spec, cfg)
        assert out.all_converged
        misses.append(_helmholtz_eigenvalues.cache_info().misses)
    info = _helmholtz_eigenvalues.cache_info()
    # a stage records only its last box, and the first box at eps = 0.5
    # grows, so the misses are counted, not matched to recorded boxes
    assert info.misses == info.currsize
    assert misses[2] == misses[1]
    assert info.hits > 10 * info.misses


@pytest.mark.parametrize("n", [159, 1999, 5999, 11999])
def test_dst1_bit_identical_to_scipy_in_1d(n):
    """At the whole-interior sizes of the shipped configs' 1d grids (the 2d
    run's ground-level axis, R = 10, 30 and 60 at h = 0.01). The descent
    transforms the lengths of its boxes, which `_descent_box` picks with a
    5-smooth FFT length, and the two FFT libraries agree bit for bit at
    some of them but not at all: with scipy 1.17 at 1727 and 1874 but not
    at 1919, where they round differently in the last bit."""
    sfft = pytest.importorskip("scipy.fft")
    x = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(_dst1(x), sfft.dst(x, type=1, norm="ortho"))


# --- the Gausson oracle ----------------------------------------------------

def test_gausson_amplitude_1d():
    g = build_grid(1, 10.0, 0.01)
    u = gausson(g, 1.0)
    origin = np.argmin(np.abs(g.axis))
    assert u[origin] == pytest.approx(E, rel=1e-14)


def test_gausson_mass_and_level_1d():
    g = build_grid(1, 10.0, 0.01)
    u = gausson(g, 1.0)
    assert integrate(g, u * u) == pytest.approx(E**2 * SQPI, abs=1e-6)
    params = EnergyParams(eps=1.0, potential=1.0)
    assert energy(u, params, g).level == pytest.approx(0.5 * E**2 * SQPI, abs=5e-3)


def test_gausson_2d_amplitude_and_level():
    g = build_grid(2, 8.0, 0.05)
    u = gausson(g, 2.0)
    assert u.max() == pytest.approx(E**2, rel=1e-12)
    params = EnergyParams(eps=1.0, potential=2.0)
    target = 0.5 * math.exp(4.0) * math.pi
    assert energy(u, params, g).level == pytest.approx(target, rel=5e-3)


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
    params = EnergyParams(eps=0.1, potential=dw_spec)
    seed, _ = seed_well(0, params, g)
    q = q_eps(seed, 0.1, dw_spec.R0, g)
    assert np.abs(q).max() <= 1e-6
    assert np.all(seed >= 0.0)
    assert seed[g.interior_mask].min() > 0.0  # floored seed is strictly positive


def test_seed_translated_well(dw_spec):
    g = build_grid(1, 40.0, 0.05)
    params = EnergyParams(eps=0.1, potential=dw_spec)
    seed, _ = seed_well(1, params, g)
    peak = g.axis[np.argmax(seed)]
    assert abs(peak - 20.0) <= g.h
    q = q_eps(seed, 0.1, dw_spec.R0, g)
    assert abs(q[0] - 2.0) <= 0.05


def test_seed_needs_margin(dw_spec):
    g = build_grid(1, 10.0, 0.05)
    params = EnergyParams(eps=0.1, potential=dw_spec)
    with pytest.raises(DomainTooSmall):
        seed_well(1, params, g)  # center 20 is off-grid


def test_seed_out_of_regime_barycenter(dw_spec):
    # at eps = 8 the seed of well 2 (width b = 4, clipped) has its barycenter
    # at q = 1.23, outside B_0.5(2)
    g = build_grid(1, 30.0, 0.05)
    cfg = SolverConfig(h=0.05, R_schedule=(30.0,))
    params = EnergyParams(eps=8.0, potential=dw_spec)
    seed, _ = seed_well(1, params, g)
    assert q_eps(seed, 8.0, dw_spec.R0, g)[0] == pytest.approx(1.23, abs=0.01)
    # the seed's barycenter is checked at the entry of the descent
    with pytest.raises(SeedOutsideRegion, match="of well 2 at z = "):
        minimize_localized(seed, 1, 8.0, params, cfg, g)
    # and a solve records it as that well's failure
    outcome = solve_multiplicity(8.0, dw_spec, cfg)
    assert [(f.well_index, f.error) for f in outcome.failures] == [(1, "SeedOutsideRegion")]


@pytest.mark.parametrize("dim, R, h", [(1, 30.0, 0.01), (1, 60.0, 0.01), (1, 13.3, 0.07),
                                       (2, 12.0, 0.1), (2, 8.0, 0.1), (2, 9.1, 0.13)])
def test_boundary_ramp_is_zero_exactly_on_the_boundary(dim, R, h):
    # _seed_profile relies on this for its Dirichlet values
    g = build_grid(dim, R, h)
    ramp = _boundary_ramp(g)
    assert np.all(ramp[~g.interior_mask] == 0.0)
    assert np.all(ramp[g.interior_mask] > 0.0)
    phi = _seed_profile(g, np.zeros(dim), 1.0)
    assert np.all(phi[~g.interior_mask] == 0.0)


@pytest.mark.parametrize("wells, v_inf, width, eps, b", [
    ([[0.0], [2.0]], 2.0, 0.25, 0.1, 1.0385),
    ([[0.0, 0.0], [2.0, 0.0]], 2.0, 0.25, 0.3, 1.2810),
    ([[0.0], [1.0], [-1.5]], 1.0001, 5.0, 0.2, 1.0000),
    ([[0.0, 0.0], [1.0, 1.0]], 1.0001, 5.0, 0.2, 1.0000),
    ([[0.0], [3.0]], 100.0, 0.01, 0.6, 4.0),   # 6.52, clipped
], ids=["dw1d", "dw2d", "flat1d", "flat2d", "steep"])
def test_seed_well_returns_the_clipped_harmonic_width(wells, v_inf, width, eps, b):
    """b solves b^2 - b = a with a = eps^2 (v_inf - 1)/width, clipped to
    [0.5, 4]; every well of a run gets the same b, and its seed is the
    Nehari-projected profile of that width."""
    spec = make_multiwell(wells, v_inf, width)
    params = EnergyParams(eps=eps, potential=spec)
    g = build_grid(spec.dim, 30.0, 0.25)
    a = eps * eps * (v_inf - 1.0) / width
    closed = min(max(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a)), 0.5), 4.0)
    assert closed == pytest.approx(b, abs=1e-4)
    for i, z in enumerate(spec.wells):
        seed, width_i = seed_well(i, params, g)
        assert width_i == closed
        phi = _seed_profile(g, z / eps, closed)
        assert np.array_equal(seed, nehari_scale(energy(phi, params, g)) * phi)


@pytest.mark.parametrize("z", [1.0, 1.5, 2.0])
def test_translated_well_same_level_and_iterations(z):
    # the seed must not depend on where its well sits: well 2 at z is well 1
    # moved, so it reaches the same level in about as many iterations
    spec = make_multiwell([[0.0], [z]], 2.0, 0.25)
    g = build_grid(1, 30.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(30.0,))
    params = EnergyParams(eps=0.1, potential=spec)
    runs = [minimize_localized(seed_well(i, params, g)[0], i, 0.1,
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


@pytest.mark.parametrize("h", [0.01, 0.02])
@pytest.mark.parametrize("grad_tol", [5e-5, 1e-6, 1e-8])
def test_descent_from_exact_gausson_converges(h, grad_tol):
    g = build_grid(1, 10.0, h)
    cfg = SolverConfig(h=h, R_schedule=(10.0,), grad_tol=grad_tol)
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    # the descent converges at half of grad_tol
    assert res.grad_norm <= 0.5 * grad_tol and res.nehari_res <= cfg.nehari_tol
    assert np.all(res.u >= 0.0)


def test_undamped_descent_evaluates_no_negative_field(monkeypatch):
    # undamped (S = 1) with c = 12 a plain trial u - tau d crosses u = 0 in
    # the far tail (3 of 9 evaluated fields, up to 880 nodes); the
    # fraction-to-boundary trial max(u - tau d, theta u) never does, and the
    # descent still meets half of grad_tol
    monkeypatch.setattr(solver_mod, "_H1_SHIFT", 12.0)
    # a cache of its own, so no eigenvalues of c = 16 are read and none of
    # c = 12 outlive the test
    monkeypatch.setattr(solver_mod, "_helmholtz_eigenvalues",
                        lru_cache()(solver_mod._helmholtz_eigenvalues.__wrapped__))
    monkeypatch.setattr(solver_mod, "_tail_damping",
                        lambda rec, out: np.ones_like(out))
    real = solver_mod.energy
    negative = []

    def spy(u, params, g):
        negative.append(int(np.count_nonzero(u < 0.0)))
        return real(u, params, g)

    monkeypatch.setattr(solver_mod, "energy", spy)
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,), grad_tol=5e-5)
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    assert len(negative) > 1 and not any(negative)
    assert res.status == SolveStatus.CONVERGED
    assert res.iterations <= 10
    assert res.grad_norm <= 0.5 * cfg.grad_tol and np.all(res.u >= 0.0)


def test_reported_level_is_energy_of_returned_field():
    g = build_grid(1, 10.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    bump = np.exp(-((g.axis - 1.0) ** 2) / 0.5)
    bump[~g.interior_mask] = 0.0
    res = minimize_localized(gausson(g, 1.0) + 0.2 * bump, None, 1.0, params, cfg, g)
    assert res.level == energy(res.u, params, g).level
    assert [(st.R, st.level) for st in res.stages] == [(10.0, res.level)]


def test_minimize_perturbed_seed_same_level():
    g = build_grid(1, 10.0, 0.01)
    nehari_tol = 1e-8
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,), grad_tol=1e-9,
                       nehari_tol=nehari_tol)
    params = EnergyParams(eps=1.0, potential=1.0)
    base = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    bump = np.exp(-((g.axis - 1.0) ** 2) / 0.5)
    bump[~g.interior_mask] = 0.0
    res = minimize_localized(gausson(g, 1.0) + 0.1 * bump, None, 1.0, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    assert abs(res.level - base.level) <= 10.0 * nehari_tol


def test_minimize_monotone_levels_and_certificates():
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    bump = np.exp(-((g.axis - 1.0) ** 2) / 0.5)
    bump[~g.interior_mask] = 0.0
    res = minimize_localized(gausson(g, 1.0) + 0.2 * bump, None, 1.0, params, cfg, g)
    levels = [row.level for row in res.history]
    slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
    assert all(b <= a + slack for a, b in zip(levels, levels[1:]))
    assert all(row.nehari_res <= cfg.nehari_tol for row in res.history)
    assert log_sobolev_gap(energy(res.u, params, g)) >= -1e-8


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
    # set, the field stays positive inside, and the descent is deterministic
    g = _G_PROP
    bump = np.exp(-((g.axis - center) ** 2) / width)
    bump[~g.interior_mask] = 0.0
    seed = gausson(g, 1.0) * (1.0 + amp * bump)
    res = minimize_localized(seed, None, 1.0, _PARAMS_PROP, _CFG_PROP, g)
    levels = [row.level for row in res.history]
    slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
    assert all(b <= a + slack for a, b in zip(levels, levels[1:]))
    assert all(row.nehari_res <= _CFG_PROP.nehari_tol for row in res.history)
    assert np.all(res.u[g.interior_mask] > 0.0)
    again = minimize_localized(seed, None, 1.0, _PARAMS_PROP, _CFG_PROP, g)
    assert np.array_equal(res.u, again.u)


_G_OFF = build_grid(1, 16.0, 0.05)
_CFG_OFF = SolverConfig(h=0.05, R_schedule=(16.0,))


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    amp=st.floats(-0.3, 0.3),
    center=st.floats(-2.0, 2.0),
    width=st.floats(0.3, 2.0),
)
def test_field_off_the_box_is_one_multiple_of_the_start(amp, center, width):
    # off the box the whole-grid descent would only rescale |seed|: the
    # returned field is |seed| times one positive factor there, and the
    # box's frame, where the descent ran, carries that factor to rounding
    g = _G_OFF
    bump = np.exp(-((g.axis - center) ** 2) / width)
    bump[~g.interior_mask] = 0.0
    seed = gausson(g, 1.0) * (1.0 + amp * bump)
    res = minimize_localized(seed, None, 1.0, _PARAMS_PROP, _CFG_OFF, g)
    assert res.status == SolveStatus.CONVERGED
    box = _descent_box(np.abs(seed), g)
    on_box = np.zeros(g.shape, dtype=bool)
    on_box[box.index] = True
    off = ~on_box.ravel() & (seed != 0.0)
    assert off.sum() >= 10
    factor = res.u[off] / np.abs(seed[off])
    assert factor[0] > 0.0
    assert np.all(np.abs(factor - factor[0]) <= 4 * np.finfo(float).eps * factor[0])
    frame = box.boundary_nodes
    start = box.take(np.abs(seed))[frame]
    frame_factor = box.take(res.u)[frame][start > 0.0] / start[start > 0.0]
    assert np.all(np.abs(frame_factor - factor[0]) <= 1e-12 * factor[0])


def test_reported_values_are_a_whole_grid_measurement(double_well_run):
    # each well's last stage ran on a box; what it reports is measured on
    # the returned field over the whole grid
    out = double_well_run["outcome"]
    for res in out.results:
        g = res.grid
        assert res.stages[-1].precond_box[0] < g.n_axis - 2
        rec = energy(res.u, out.params, g)
        assert res.level == rec.level
        assert res.grad_norm == _projected_grad_norm(res.u, rec.residual(), g)
        assert res.nehari_res == rec.nehari_residual().value
        q = q_eps(res.u, out.params.eps, out.params.potential.R0, g)
        assert np.array_equal(res.barycenter, q)


@pytest.mark.parametrize("measure", [
    lambda u, params, cfg, g: minimize_localized(u, None, 1.0, params, cfg, g),
    lambda u, params, cfg, g: weak_residual(u, params, g),
], ids=["minimize_localized", "weak_residual"])
def test_one_whole_grid_pass_per_measurement(monkeypatch, measure):
    # a stage's end and a weak residual each read one evaluation record of
    # the whole grid; the descent's own passes run on its box
    stencil = energy_mod.laplacian_apply
    whole = []

    def spy(g, u):
        if isinstance(g, Grid):
            whole.append(g)
        return stencil(g, u)

    monkeypatch.setattr(energy_mod, "laplacian_apply", spy)
    g = build_grid(1, 20.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(20.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    measure(gausson(g, 1.0), params, cfg, g)
    assert whole == [g]


def test_wells_of_a_run_share_one_grid_per_radius(double_well_run):
    """Every well of a two-radius run is continued onto the one grid of
    the last radius, and so shares its cached tables."""
    out = double_well_run["outcome"]
    cfg = double_well_run["config"]
    grids = [r.grid for r in out.results]
    assert len(grids) == 2 and grids[0] is grids[1]
    assert grids[0].R == cfg.R_schedule[-1]


def test_audit_nehari_residual_is_the_solver_s(double_well_run):
    out = double_well_run["outcome"]
    rep = audit(out)
    assert [w["nehari_res"] for w in rep.wells] == [res.nehari_res for res in out.results]


@pytest.mark.parametrize("wells, eps, h, schedule, grad_tol", [
    ([[0.0], [2.0]], 0.1, 0.01, (30.0, 60.0), 1e-8),
    ([[0.0, 0.0], [2.0, 0.0]], 0.3, 0.2, (12.0,), 1e-6),
])
def test_box_descent_matches_whole_interior_descent(monkeypatch, wells, eps, h,
                                                    schedule, grad_tol):
    """With the floor at 0 every box is the whole interior, so the descent
    runs on the whole grid; the shipped floor's boxes give the same
    iteration and trial counts, and the same levels to 1e-14 relative."""
    spec = make_multiwell(wells, 2.0, 0.25)
    shipped = solver_mod._BOX_FLOOR

    def run(floor):
        monkeypatch.setattr(solver_mod, "_BOX_FLOOR", floor)
        # a new config misses the ground-level cache, so c0 is solved again
        cfg = SolverConfig(h=h, R_schedule=schedule, grad_tol=grad_tol)
        out = solve_multiplicity(eps, spec, cfg)
        assert out.all_converged
        return out

    whole, boxed = run(0.0), run(shipped)
    for a, b in zip(whole.results, boxed.results):
        assert [st.iterations for st in a.stages] == [st.iterations for st in b.stages]
        assert [st.trials for st in a.stages] == [st.trials for st in b.stages]
        assert abs(a.level - b.level) <= 1e-14 * abs(a.level)
        interior = round(2 * a.R_final / h) - 1
        assert a.stages[-1].precond_box == [interior] * len(wells[0])
        assert b.stages[-1].precond_box[0] < interior
    for ref in ("c0", "c_inf"):
        assert abs(getattr(whole, ref) - getattr(boxed, ref)) <= 1e-14 * getattr(whole, ref)


def test_failed_line_search_has_own_status():
    # grad_tol below rounding: the line search runs out of halvings long
    # before the iteration cap
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,), grad_tol=1e-15)
    params = EnergyParams(eps=1.0, potential=1.0)
    res = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    assert res.status == SolveStatus.LINE_SEARCH_FAILED
    assert res.iterations < cfg.max_iters


@pytest.mark.parametrize("floor, converges", [(1e-8, True), (1.0, False)],
                         ids=["1e-08", "1.0"])
def test_box_cut_below_the_rule_ends_in_a_named_status(monkeypatch, dw_spec, floor,
                                                        converges):
    """A box cut inside the field's shoulder (1e-8: |y| <= 6.1) or down to
    its peak (1.0: one node) spoils neither the result nor the program.
    The descent converges on its box, misses the tolerances on the whole
    grid and descends again on the box doubled. At 1e-8 the ground-level
    solve and every well converge so; from the one-node box the well's
    descent ends in a named status and the ground-level solve raises
    SolverFailure, never an IndexError or another crash."""
    monkeypatch.setattr(solver_mod, "_BOX_FLOOR", floor)
    cfg = SolverConfig(h=0.05, R_schedule=(12.0, 16.0), max_iters=200)
    g = build_grid(1, 12.0, cfg.h)
    params = EnergyParams(eps=0.4, potential=dw_spec)
    seed = seed_well(0, params, g)[0]
    res = minimize_localized(seed, 0, 0.4, params, cfg, g)
    assert res.stages[0].precond_box[0] > _descent_box(seed, g).shape[0] - 2
    assert np.all(res.u >= 0.0)
    assert isinstance(res.status, SolveStatus)
    assert (res.status == SolveStatus.CONVERGED) == converges
    if converges:
        assert solve_multiplicity(0.4, dw_spec, cfg).all_converged
    else:
        with pytest.raises(SolverFailure) as failure:
            solve_multiplicity(0.4, dw_spec, cfg)
        assert isinstance(failure.value.result.status, SolveStatus)


def test_minimize_confined_iterates(dw_spec):
    # every accepted iterate keeps its barycenter inside the well ball
    g = build_grid(1, 30.0, 0.02)
    cfg = SolverConfig(h=0.02, R_schedule=(30.0,))
    params = EnergyParams(eps=0.1, potential=dw_spec)
    seed, _ = seed_well(1, params, g)
    res = minimize_localized(seed, 1, 0.1, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    for row in res.history:
        reg = region_of(np.array(row.barycenter), dw_spec.rho0, dw_spec.wells)
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


# --- the L-BFGS direction -----------------------------------------------------

def _lbfgs_fields(g, k):
    """k + 1 positive fields near the Gausson, their records and residuals."""
    params = EnergyParams(eps=1.0, potential=1.0)
    base = gausson(g, 1.0)
    recs = []
    for j in range(k + 1):
        bump = np.exp(-((g.axis - 0.3 * j) ** 2))
        bump[~g.interior_mask] = 0.0
        recs.append(energy(base * (1.0 + 0.05 * j * bump), params, g))
    return recs, [r.residual() for r in recs]


def test_lbfgs_without_pairs_is_h1_gradient():
    # the first step of every descent is the damped H^1 gradient S(-L + c)^{-1}S r,
    # solved on the box the descent runs on and 0 on its frame
    g = build_grid(1, 10.0, 0.05)
    recs, _ = _lbfgs_fields(g, 0)
    box = _descent_box(recs[0].u, g)
    rec = energy(box.take(recs[0].u), EnergyParams(eps=1.0, potential=1.0), box)
    resid = rec.residual()
    d = _LBFGS(box).direction(rec, resid)
    damping = _tail_damping(rec, np.empty(box.num_nodes))
    assert np.array_equal(
        d, damping * _h1_direction(box, damping * resid, solver_mod._H1_SHIFT))
    assert box.num_nodes < g.n_axis
    assert np.all(d[box.boundary_nodes] == 0.0)


def test_tail_damping_is_one_in_the_core_and_zero_off_the_field():
    g = build_grid(1, 30.0, 0.05)
    params = EnergyParams(eps=1.0, potential=1.0)
    u = gausson(g, 1.0)
    u[np.argmin(np.abs(g.axis - 3.0))] = 0.0   # an interior zero
    u[np.argmin(np.abs(g.axis + 5.0))] *= -1.0  # a sign flip
    rec = energy(u, params, g)
    damping = _tail_damping(rec, np.empty(g.num_nodes))
    mult = np.full(g.num_nodes, np.inf)
    nz = u != 0.0
    mult[nz] = rec.v[nz] - 2.0 - 2.0 * np.log(np.abs(u[nz]))
    core = mult <= solver_mod._H1_SHIFT
    assert core.sum() > 10 and np.all(damping[core] == 1.0)
    assert np.all(damping[~nz] == 0.0) and np.any(~nz & g.interior_mask)
    tail = ~core & nz
    assert tail.sum() > 10
    assert np.all((damping[tail] > 0.0) & (damping[tail] <= 1.0))
    assert np.allclose(damping[tail] ** 2, solver_mod._H1_SHIFT / mult[tail],
                       rtol=1e-12)
    # the damped H^1 gradient is a descent direction
    r = rec.residual()
    assert float(_LBFGS(g).direction(rec, r) @ r) > 0.0


def test_lbfgs_skips_pairs_without_positive_curvature():
    g = build_grid(1, 10.0, 0.05)
    recs, resids = _lbfgs_fields(g, 1)
    lb = _LBFGS(g)
    s = recs[1].u - recs[0].u
    lb.update(s, recs[0], recs[1], resids[0], resids[0] - s)   # s.y = -|s|^2
    lb.update(s, recs[0], recs[1], resids[0], resids[0])       # s.y = 0
    assert len(lb.pairs) == 0 and lb.gamma == 1.0
    lb.update(s, recs[0], recs[1], resids[0], resids[0] + s)   # s.y = |s|^2
    assert len(lb.pairs) == 1
    # gamma = s.(-L + c)s / s.y, (-L + c)s read from the records' stencils
    hs = float(s @ (recs[1].Lu - recs[0].Lu + solver_mod._H1_SHIFT * s))
    assert lb.gamma == pytest.approx(hs / float(s @ s), rel=1e-12)


def test_lbfgs_memory_is_bounded():
    m = solver_mod._LBFGS_MEMORY
    k = m + 3
    g = build_grid(1, 10.0, 0.05)
    recs, resids = _lbfgs_fields(g, k)
    lb = _LBFGS(g)
    for a in range(k):
        s = recs[a + 1].u - recs[a].u
        lb.update(s, recs[a], recs[a + 1], resids[a], resids[a + 1])
        assert len(lb.pairs) <= m
    assert len(lb.pairs) == m
    # the kept pairs are the last m, in order, and the direction still descends
    for (s, _, _), a in zip(lb.pairs, range(k - m, k)):
        assert np.array_equal(s, recs[a + 1].u - recs[a].u)
    d = lb.direction(recs[k], resids[k])
    assert float(d @ resids[k]) > 0.0


def test_double_well_iteration_bound(double_well_run):
    # L-BFGS in the damped metric S(-L + 16)^{-1}S from the closed-form
    # harmonic-width seed: 14 iterations for well 1 (33 undamped from the
    # unit-width seed, 80 with the metric -L + 1; 158 with the
    # Barzilai-Borwein step). Well 2 starts from well 1's solution shifted
    # by exactly 2000 nodes, already converged (14 from its own
    # closed-form seed)
    first, second = double_well_run["outcome"].results
    assert not first.seed_shifted and first.iterations <= 30
    assert second.seed_shifted and second.iterations == 0


def test_double_well_2d_iteration_bound():
    # 14,641 nodes: 14 and 14 iterations per well in the damped metric from
    # the closed-form harmonic-width seed (21 and 26 undamped from the
    # unit-width seed, 56 and 75 with -L + 1)
    spec = make_multiwell([[0.0, 0.0], [2.0, 0.0]], 2.0, 0.25)
    cfg = SolverConfig(h=0.2, R_schedule=(12.0,), grad_tol=1e-6)
    out = solve_multiplicity(0.3, spec, cfg)
    assert out.all_converged
    for res in out.results:
        assert res.iterations <= 25


def test_stage_records_count_every_stage(double_well_run):
    for res in double_well_run["outcome"].results:
        assert [st.R for st in res.stages] == [30.0, 60.0]
        assert res.stages[-1].level == res.level
        assert sum(st.iterations for st in res.stages) == res.iterations
        for st in res.stages:
            assert st.trials >= st.iterations
            assert st.backtracks <= st.trials
            assert 0 <= st.region_blocked <= st.backtracks
            # the H^1 box: one interior node count per axis, within the interior
            assert len(st.precond_box) == 1
            assert 0 < st.precond_box[0] <= round(2 * st.R / 0.01) - 1


# --- ground levels -----------------------------------------------------------

def test_ground_level_omega_1():
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    c0 = ground_level(1.0, 1, cfg)
    assert c0 == pytest.approx(0.5 * E**2 * SQPI, rel=5e-3)


def test_ground_level_omega_2_and_gap():
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    c0 = ground_level(1.0, 1, cfg)
    c_inf = ground_level(2.0, 1, cfg)
    assert c_inf == pytest.approx(0.5 * E**3 * SQPI, rel=5e-3)
    assert c0 < c_inf


@pytest.mark.parametrize("dim, R, h", [(1, 10.0, 0.01), (2, 8.0, 0.1)])
@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_ground_level_scaling_law_matches_direct_solve(dim, R, h, omega):
    # ground_level solves once in 1d at omega = 0 and scales; the direct
    # solve in the level's own dimension keeps that factorization checked
    g = build_grid(dim, R, h)
    cfg = SolverConfig(h=h, R_schedule=(R,))
    params = EnergyParams(eps=1.0, potential=omega)
    direct = minimize_localized(gausson(g, omega), None, 1.0, params, cfg, g)
    assert direct.status == SolveStatus.CONVERGED
    assert ground_level(omega, dim, cfg) == pytest.approx(direct.level, rel=1e-12)


# --- continuation ------------------------------------------------------------

def test_continuation_constant_potential_level_stable():
    cfg = SolverConfig(h=0.05, R_schedule=(10.0, 20.0))
    params = EnergyParams(eps=1.0, potential=1.0)
    g = build_grid(1, 10.0, 0.05)
    res = continue_in_R(gausson(g, 1.0), None, params, cfg, g)
    assert res.R_final == 20.0
    first, last = res.stages
    assert (first.R, last.R) == (10.0, 20.0)
    assert abs(last.level - first.level) <= 1e-8
    assert res.r_stabilized


def test_stabilization_gap_bounded_by_level_tolerance(monkeypatch):
    # a stage-to-stage level gap below grad_tol but above the level bound
    # nehari_tol * max(1, |J|) is not stabilized
    cfg = SolverConfig(h=0.05, R_schedule=(10.0, 20.0))
    params = EnergyParams(eps=1.0, potential=1.0)
    g = build_grid(1, 10.0, 0.05)
    first = minimize_localized(gausson(g, 1.0), None, 1.0, params, cfg, g)
    bound = cfg.nehari_tol * max(1.0, abs(first.level))
    shift = math.sqrt(bound * cfg.grad_tol)
    assert bound < shift < cfg.grad_tol
    real = solver_mod.minimize_localized

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        if res.R_final == 20.0:   # the second stage only
            res.stages[-1] = res.stages[-1]._replace(level=res.stages[-1].level + shift)
        return res

    monkeypatch.setattr(solver_mod, "minimize_localized", shifted)
    res = continue_in_R(gausson(g, 1.0), None, params, cfg, g)
    assert res.status == SolveStatus.CONVERGED
    assert bound < res.continuation_gap < cfg.grad_tol
    assert not res.r_stabilized


def _one_radius_well_2(dw_spec, eps, R, **tolerances):
    """Well 2 of the 1d double well, solved at the one radius R, h = 0.01."""
    cfg = SolverConfig(h=0.01, R_schedule=(R,), **tolerances)
    params = EnergyParams(eps=eps, potential=dw_spec)
    g = build_grid(1, R, cfg.h)
    seed, _ = seed_well(1, params, g)
    return continue_in_R(seed, 1, params, cfg, g)


@pytest.mark.parametrize("eps, R, R_ref", [(0.1, 25.0, 40.0), (0.4, 10.0, 20.0)])
def test_level_R_error_matches_the_measured_level_change(dw_spec, eps, R, R_ref):
    # the level change measured against a radius where the estimate is
    # below rounding: 2.347e-10 and 3.04e-11
    res, ref = (_one_radius_well_2(dw_spec, eps, r) for r in (R, R_ref))
    assert res.status == ref.status == SolveStatus.CONVERGED
    assert ref.stages[-1].level_R_error < 1e-60
    change = res.level - ref.level
    assert res.stages[-1].level_R_error == pytest.approx(change, rel=0.1)


@pytest.mark.parametrize("nehari_tol, stabilized", [(1e-11, False), (1e-10, True)])
def test_one_radius_is_r_stabilized_only_within_the_level_bound(dw_spec, nehari_tol,
                                                                stabilized):
    # well 2 sits 5 inside R = 25: its level's change to R = inf, 2.36e-10,
    # exceeds the bound nehari_tol * |J| = 6.7e-11 of nehari_tol 1e-11
    res = _one_radius_well_2(dw_spec, 0.1, 25.0, nehari_tol=nehari_tol)
    assert res.status == SolveStatus.CONVERGED and res.continuation_gap == 0.0
    assert (res.stages[-1].level_R_error <= nehari_tol * abs(res.level)) == stabilized
    assert res.r_stabilized == stabilized


def test_continuation_keeps_every_stage_history():
    cfg = SolverConfig(h=0.05, R_schedule=(10.0, 20.0))
    params = EnergyParams(eps=1.0, potential=1.0)
    g = build_grid(1, 10.0, 0.05)
    res = continue_in_R(gausson(g, 1.0), None, params, cfg, g)
    stages = len(res.stages)
    assert stages == 2
    assert len(res.history) == res.iterations + stages
    assert [row.R for row in res.history] == sorted(row.R for row in res.history)
    assert {row.R for row in res.history} == {10.0, 20.0}


def test_continuation_monotone_double_well(double_well_run):
    for res in double_well_run["outcome"].results:
        levels = [st.level for st in res.stages]
        slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
        assert all(b <= a + slack for a, b in zip(levels, levels[1:]))
        assert res.r_stabilized


@pytest.mark.parametrize("dim, eps, h, schedule, grad_tol, box", [
    (1, 0.1, 0.01, (25.0, 50.0), 1e-8, [2699]),
    (1, 0.1, 0.01, (26.0, 52.0), 1e-8, [2879]),
    (2, 0.3, 0.1, (12.0, 16.0), 1e-6, [269, 299]),
    (2, 0.3, 0.1, (12.0, 18.0), 1e-6, [269, 299]),
], ids=["1d-25-50", "1d-26-52", "2d-12-16", "2d-12-18"])
def test_well_near_the_first_radius_converges_after_continuation(dim, eps, h, schedule,
                                                                 grad_tol, box):
    """Well 2 sits 5 or 6 inside the first radius in 1d (y = 20 inside
    R = 25 or 26) and 5.3 in 2d (x = 6.67 inside R = 12). The box of its
    second stage, drawn from the zero-extended field, ends at the old
    boundary; it grows (in 1d from 1349 and 1439 nodes, in 2d from
    134 x 149) until the stage converges on the whole grid, R-stabilized.
    Before boxes grew, each of these wells ended `box_too_small`."""
    spec = make_multiwell([[0.0] * dim, [2.0] + [0.0] * (dim - 1)], 2.0, 0.25)
    cfg = SolverConfig(h=h, R_schedule=schedule, grad_tol=grad_tol)
    outcome = solve_multiplicity(eps, spec, cfg)
    assert outcome.all_converged
    assert all(r.r_stabilized for r in outcome.results)
    first, second = (st.precond_box for st in outcome.results[1].stages)
    assert second == box
    assert all(b > a for a, b in zip(first, second))


def test_first_stage_box_grows_to_the_solution():
    """A solution wider than its seed's box: at v_inf 10 and width 0.01 the
    seed of the clipped width 4 draws a box of 95 nodes, the first stage
    converges on it and misses on the whole grid, and its box grows to the
    whole interior of 119; before boxes grew the well ended
    `box_too_small`."""
    spec = make_multiwell([[0.0]], 10.0, 0.01)
    outcome = solve_multiplicity(0.6, spec, SolverConfig(h=0.1, R_schedule=(6.0,)))
    assert outcome.all_converged and outcome.results[0].r_stabilized
    assert outcome.results[0].stages[0].precond_box == [119]


def test_stalled_descent_grows_its_box():
    """A descent that stalls on a box smaller than the interior, out of
    regime (v_inf 63.51, width 0.01209): on its first box of 95 nodes it
    ended `line_search_failed` after 5 iterations at a whole-grid
    gradient norm of 1.5e10. Its box grows as a converged one's does, and
    the descent stalls again on the whole interior of 159 nodes, at a
    gradient norm of 1.3e-2: the status names the problem, not the box."""
    spec = make_multiwell([[0.0]], 63.51, 0.01209)
    outcome = solve_multiplicity(1.2027, spec, SolverConfig(h=0.1, R_schedule=(8.0,)))
    stage = outcome.results[0].stages[0]
    assert stage.status == SolveStatus.LINE_SEARCH_FAILED
    assert stage.precond_box == [159]
    assert stage.grad_norm < 0.1


@settings(max_examples=24, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), spread=st.floats(0.0, 1.0),
       distance=st.floats(1.0, 3.0), angle=st.floats(0.0, 2.0 * math.pi),
       margin=st.floats(5.0, 8.0), step=st.floats(2.0, 6.0))
def test_in_regime_wells_converge_and_are_r_stabilized(dim, spread, distance, angle,
                                                       margin, step):
    """Two wells, the second at the distance and angle given (in 1d on the
    side of cos(angle)), eps from 0.1 (0.3 in 2d, which keeps the grid
    small) to 0.5, a first radius the margin beyond the second well and a
    second radius about step beyond that, on coarse grids: every well
    converges and is R-stabilized. Without boxes that grow, about a quarter
    of the wells of this space ended `box_too_small`, most of them at
    margins below 7. The audit status is not asserted: at eps near 0.5 a 2d
    level can lie above c0 + gamma."""
    lo, h, grad_tol = (0.1, 0.05, 1e-8) if dim == 1 else (0.3, 0.2, 1e-6)
    eps = lo + spread * (0.5 - lo)
    if dim == 1:
        z = [math.copysign(distance, math.cos(angle))]
    else:
        z = [distance * math.cos(angle), distance * math.sin(angle)]
    spec = make_multiwell([[0.0] * dim, z], 2.0, 0.25)
    R1 = conforming_radius(distance / eps + margin, h)
    cfg = SolverConfig(h=h, R_schedule=(R1, R1 + h * round(step / h)), grad_tol=grad_tol)
    outcome = solve_multiplicity(eps, spec, cfg)
    assert outcome.all_converged
    assert all(r.r_stabilized for r in outcome.results)


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
    assert np.abs(res.barycenter).max() <= out.params.potential.rho0 / 2


def test_repeated_solves_reuse_ground_levels(monkeypatch):
    from lognls.solver import _ground_level_cached

    spec = make_multiwell([[0.0]], 2.0, 1.0)
    cfg = SolverConfig(h=0.05, R_schedule=(10.0,))
    first = solve_multiplicity(0.1, spec, cfg)
    before = _ground_level_cached.cache_info()
    real = solver_mod.minimize_localized
    ground_solves = []

    def counted(seed, i, *args):
        if i is None:
            ground_solves.append(i)
        return real(seed, i, *args)

    monkeypatch.setattr(solver_mod, "minimize_localized", counted)
    second = solve_multiplicity(0.2, spec, cfg)
    after = _ground_level_cached.cache_info()
    # one hit for each of c0 and c_inf, no miss, no constant-coefficient solve
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    assert ground_solves == []
    assert (second.c0, second.c_inf) == (first.c0, first.c_inf)


def test_well_1_short_of_convergence_leaves_well_2_on_its_own_seed(monkeypatch):
    """max_iters 12 lies between the ground level's 11 iterations and well
    1's 14: well 1 ends iteration_cap, and well 2 starts from its
    closed-form seed, not from well 1's unconverged field."""
    seeded = []
    real = solver_mod.seed_well
    monkeypatch.setattr(solver_mod, "seed_well",
                        lambda i, *args: seeded.append(i) or real(i, *args))
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    out = solve_multiplicity(0.1, spec, SolverConfig(h=0.01, R_schedule=(30.0,), max_iters=12))
    assert [r.status for r in out.results] == [SolveStatus.ITERATION_CAP] * 2
    assert [r.seed_shifted for r in out.results] == [False, False]
    assert seeded == [0, 1]


def test_shifted_seed_outside_its_ball_falls_back(monkeypatch):
    """The first barycenter classified into well 2's ball is the shifted
    seed's; made to read `outside`, well 2 starts from its closed-form
    seed, converges in that seed's 14 iterations and records the seed
    width well 1 did."""
    seeded = []
    real_seed, real_region = solver_mod.seed_well, solver_mod.region_of
    monkeypatch.setattr(solver_mod, "seed_well",
                        lambda i, *args: seeded.append(i) or real_seed(i, *args))

    def first_near_well_2_outside(q, rho0, wells):
        reg = real_region(q, rho0, wells)
        if reg.well == 1 and not seeded[1:]:
            return reg._replace(kind="outside", well=None)
        return reg

    monkeypatch.setattr(solver_mod, "region_of", first_near_well_2_outside)
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    out = solve_multiplicity(0.1, spec, SolverConfig(h=0.05, R_schedule=(30.0,)))
    assert out.all_converged
    assert seeded == [0, 1]
    first, second = out.results
    assert not second.seed_shifted and second.iterations == first.iterations == 14
    assert second.seed_width == first.seed_width


def test_fractional_shift_seeds_the_2d_well():
    """The 2d double well: well 2 sits (2/0.3)/0.1 = 66.7 nodes from well
    1 along x, so its seed is well 1's solution moved by a fractional
    phase. It converges in 6 iterations against 13 from its closed-form
    seed, on a box no wider than well 1's, to the level of well 1 up to
    the two wells' interaction."""
    spec = make_multiwell([[0.0, 0.0], [2.0, 0.0]], 2.0, 0.25)
    cfg = SolverConfig(h=0.1, R_schedule=(12.0,), grad_tol=1e-6, max_iters=3000)
    out = solve_multiplicity(0.3, spec, cfg)
    assert out.all_converged and all(r.r_stabilized for r in out.results)
    first, second = out.results
    assert second.seed_shifted and second.iterations <= 7
    assert all(b <= a for a, b in zip(first.stages[0].precond_box, second.stages[0].precond_box))
    assert second.level == pytest.approx(first.level, rel=1e-9)


def test_solve_multiplicity_two_wells(double_well_run):
    out = double_well_run["outcome"]
    assert out.all_converged
    assert len(out.results) == 2
    for res, z in zip(out.results, double_well_run["spec"].wells):
        assert np.linalg.norm(res.barycenter - z) < out.params.potential.rho0 / 2


def test_config_invariants_rejected(dw_spec):
    from lognls.errors import ConfigError

    with pytest.raises(ConfigError):
        SolverConfig(h=0.05, R_schedule=(30.0, 20.0))
    with pytest.raises(ConfigError):
        SolverConfig(h=0.05, R_schedule=())
    # first truncation radius must exceed the localization radius R0 = 4
    with pytest.raises(ConfigError):
        solve_multiplicity(0.1, dw_spec, SolverConfig(h=0.05, R_schedule=(3.0,)))


def test_numeric_settings_validated_on_construction():
    with pytest.raises(LogNLSError, match="grad_tol"):
        SolverConfig(h=0.05, R_schedule=(10.0,), grad_tol=0.0)
    with pytest.raises(LogNLSError, match="nehari_tol"):
        SolverConfig(h=0.05, R_schedule=(10.0,), nehari_tol=-1.0)
    with pytest.raises(LogNLSError, match="h must be positive"):
        SolverConfig(h=0.0, R_schedule=(10.0,))
    # a setting that would run without stepping
    with pytest.raises(LogNLSError, match="max_iters"):
        SolverConfig(h=0.05, R_schedule=(10.0,), max_iters=-1)
    # an iteration cap is a count: a fraction, an infinity or a bool is none
    for cap in (2.5, math.inf, True, 3.0):
        with pytest.raises(ConfigError, match="max_iters"):
            SolverConfig(h=0.05, R_schedule=(10.0,), max_iters=cap)
    SolverConfig(h=0.05, R_schedule=(10.0,), max_iters=0)


@pytest.mark.parametrize("settings", [
    {"h": math.nan}, {"h": math.inf}, {"R_schedule": (10.0, math.nan)},
    {"R_schedule": (10.0, math.inf)}, {"grad_tol": math.nan}, {"nehari_tol": math.nan},
    {"grad_tol": math.inf}, {"nehari_tol": math.inf},
], ids=["h-NaN", "h-inf", "R-NaN", "R-inf", "grad_tol-NaN", "nehari_tol-NaN",
        "grad_tol-inf", "nehari_tol-inf"])
def test_non_finite_setting_is_a_config_error(settings):
    """A direct SolverConfig rejects what a config file may not hold: a NaN
    fails every comparison, so each check must fail on it, and a NaN
    tolerance could never be met."""
    with pytest.raises(ConfigError):
        SolverConfig(**{"h": 0.05, "R_schedule": (10.0,), **settings})


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_eps_not_positive_and_finite_is_named(dw_spec, eps):
    # checked before the reach max|z|/eps + 5 divides by it
    with pytest.raises(NonPositiveEpsilon):
        solve_multiplicity(eps, dw_spec, SolverConfig(h=0.05, R_schedule=(30.0,)))


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
        assert np.linalg.norm(res.barycenter - z) <= out.params.potential.rho0 / 2
        assert res.level < out.c0 + out.gamma
        assert res.r_stabilized
    rep = audit(out)
    assert rep.status == 0
    # one radius: R-stabilized by the level's estimated change to R = inf,
    # which for well 2, 6.67 inside R = 12 on x, is 1.1e-11 against 4.0e-9
    errors = [w["stages"][-1]["level_R_error"] for w in rep.wells]
    assert errors[0] < 1e-60
    assert errors[1] == pytest.approx(1.109e-11, rel=1e-3)


def test_field_dump_rescales_to_original(double_well_run, tmp_path):
    out = double_well_run["outcome"]
    res = out.results[1]
    path = tmp_path / "u_well2.npz"
    save_field(path, res.grid, res.u, out.params.eps)
    g, eps, u = load_field(path)
    assert eps == out.params.eps
    assert np.array_equal(u, res.u)
    # v(x) = u(x/eps) on the lattice eps * grid: the peak sits at z = 2
    g_orig = build_grid(g.dim, eps * g.R, eps * g.h)
    peak_x = g_orig.axis[np.argmax(u)]
    assert abs(peak_x - 2.0) <= eps * g.h
