import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lognls.energy import (
    DELTA_DEFAULT,
    DELTA_MAX,
    EnergyParams,
    energy,
    evaluate,
    f2_growth_check,
    f_split,
    gradient,
    log_sobolev_gap,
    nehari_residual,
    nehari_scale,
)
from lognls.errors import InvalidDelta, ZeroField
from lognls.grid import build_grid
from lognls.solver import gausson
from lognls.verify import smooth_random_field

DELTA = DELTA_DEFAULT


@pytest.fixture(scope="module")
def fine_grid():
    return build_grid(1, 10.0, 0.01)


@pytest.fixture(scope="module")
def const_params():
    return EnergyParams(eps=1.0, potential=1.0)


# --- splitting pair -------------------------------------------------------

def test_f_split_vanishes_at_zero():
    F1, F2, d1, d2 = f_split(0.0, DELTA)
    assert (F1, F2, d1, d2) == (0.0, 0.0, 0.0, 0.0)


def test_splitting_identity_at_two():
    F1, F2, _, _ = f_split(2.0, DELTA)
    assert F2 - F1 == pytest.approx(2.0 * math.log(4.0), rel=1e-13)


def test_splitting_identity_many_samples():
    rng = np.random.default_rng(0)
    s = rng.uniform(-1e3, 1e3, size=1_000_000)
    F1, F2, _, _ = f_split(s, DELTA)
    target = s * s * np.log(np.abs(s))
    err = np.abs(F2 - F1 - target)
    assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(target)))


def test_seam_values_and_derivatives_match():
    inner = f_split(np.nextafter(DELTA, 0.0), DELTA)
    outer = f_split(DELTA, DELTA)
    for a, b in zip(inner, outer):
        assert abs(a - b) <= 1e-13


def test_df1_at_delta_analytic():
    _, _, d1, _ = f_split(DELTA, DELTA)
    expected = -DELTA * math.log(DELTA**2) - DELTA
    assert d1 == pytest.approx(expected, rel=1e-14)


def test_f1_sign_properties_and_evenness():
    rng = np.random.default_rng(1)
    s = rng.uniform(-1e3, 1e3, size=100_000)
    F1, _, d1, _ = f_split(s, DELTA)
    assert np.all(F1 >= 0.0)
    assert np.all(d1 * s >= 0.0)
    F1n, _, d1n, _ = f_split(-s, DELTA)
    assert np.array_equal(F1, F1n)
    assert np.array_equal(d1, -d1n)


def test_f1_convex_at_cap_delta():
    s = np.linspace(-1.0, 1.0, 4001)
    F1, _, _, _ = f_split(s, DELTA_MAX)
    second = F1[2:] - 2.0 * F1[1:-1] + F1[:-2]
    assert np.all(second >= -1e-9)


def test_invalid_delta_rejected():
    with pytest.raises(InvalidDelta):
        f_split(1.0, 0.5)
    with pytest.raises(InvalidDelta):
        f_split(1.0, 0.0)


def test_f2_growth_p3_uniform():
    fit = f2_growth_check(DELTA, 3.0, np.geomspace(DELTA / 10.0, 1e3, 2001))
    assert math.isfinite(fit.c) and fit.c > 0.0
    assert fit.uniform


def test_f2_vanishes_inside_delta(const_params):
    s = np.linspace(-DELTA * 0.99, DELTA * 0.99, 101)
    _, F2, _, d2 = f_split(s, DELTA)
    assert np.all(F2 == 0.0) and np.all(d2 == 0.0)


def test_f2_growth_p2_non_uniform():
    fit = f2_growth_check(DELTA, 2.0, np.geomspace(DELTA / 10.0, 1e3, 2001))
    assert not fit.uniform


# --- energy and gradient --------------------------------------------------

def test_energy_of_zero_field(fine_grid, const_params):
    eb = energy(np.zeros(fine_grid.num_nodes), const_params, fine_grid)
    assert eb.total == 0.0 and eb.mass == 0.0 and eb.entropy == 0.0


def test_energy_of_gausson_matches_level(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    eb = energy(u, const_params, fine_grid)
    target = 0.5 * math.e**2 * math.sqrt(math.pi)
    assert abs(eb.total - target) <= 5e-3
    assert abs(eb.mass - math.e**2 * math.sqrt(math.pi)) <= 1e-6


def test_energy_breakdown_identities(fine_grid, const_params):
    rng = np.random.default_rng(2)
    u = smooth_random_field(fine_grid, rng)
    eb = energy(u, const_params, fine_grid)
    assert abs(eb.total - (eb.kinetic + eb.potential_term - eb.entropy)) \
        <= 1e-12 * max(1.0, abs(eb.total))
    assert abs(eb.norm_eps**2 - 2.0 * (eb.kinetic + eb.potential_term)) \
        <= 1e-12 * max(1.0, eb.norm_eps**2)


@pytest.mark.parametrize("s", [0.5, math.e, 10.0])
def test_scaling_identity(fine_grid, const_params, s):
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = smooth_random_field(fine_grid, rng)
        eb = energy(u, const_params, fine_grid)
        lhs = energy(s * u, const_params, fine_grid).total
        rhs = s * s * (eb.total - math.log(s) * eb.mass)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_gradient_of_zero_field(fine_grid, const_params):
    grad = gradient(np.zeros(fine_grid.num_nodes), const_params, fine_grid)
    assert np.all(grad == 0.0)


def test_gradient_vanishes_on_gausson(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    grad = gradient(u, const_params, fine_grid)
    assert np.abs(grad).max() <= 1e-3


def test_gradient_is_directional_derivative(fine_grid, const_params):
    rng = np.random.default_rng(5)
    u = smooth_random_field(fine_grid, rng, positive=True)
    v = smooth_random_field(fine_grid, rng)
    pair = float(np.dot(gradient(u, const_params, fine_grid), v))

    def central(t):
        jp = energy(u + t * v, const_params, fine_grid).total
        jm = energy(u - t * v, const_params, fine_grid).total
        return abs(pair - (jp - jm) / (2.0 * t))

    e1 = central(1e-3)
    e2 = central(5e-4)
    assert e1 / e2 >= 3.5


# --- Nehari projection ----------------------------------------------------

def test_nehari_scale_of_gausson_is_one(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    assert abs(nehari_scale(u, const_params, fine_grid) - 1.0) <= 1e-3


def test_nehari_projection_idempotent(fine_grid, const_params):
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = smooth_random_field(fine_grid, rng)
        s = nehari_scale(u, const_params, fine_grid)
        assert abs(nehari_scale(s * u, const_params, fine_grid) - 1.0) <= 1e-12


def test_nehari_zero_field_rejected(fine_grid, const_params):
    with pytest.raises(ZeroField):
        nehari_scale(np.zeros(fine_grid.num_nodes), const_params, fine_grid)
    with pytest.raises(ZeroField):
        nehari_residual(np.zeros(fine_grid.num_nodes), const_params, fine_grid)


def test_nehari_scale_underflow_rejected(fine_grid):
    # V = -2000 puts the Nehari root near exp(-1000): s*u would be the zero
    # field, which a descent step must not accept
    params = EnergyParams(eps=1.0, potential=-2000.0)
    with pytest.raises(ZeroField, match="underflows"):
        nehari_scale(gausson(fine_grid, 1.0), params, fine_grid)


def test_nehari_residual_after_projection(fine_grid, const_params):
    rng = np.random.default_rng(7)
    u = smooth_random_field(fine_grid, rng)
    u = nehari_scale(u, const_params, fine_grid) * u
    res = nehari_residual(u, const_params, fine_grid)
    assert res.value <= 1e-12
    eb = energy(u, const_params, fine_grid)
    assert abs(eb.total - 0.5 * eb.mass) <= 1e-10 * max(1.0, abs(eb.total))


def test_nehari_residual_of_gausson(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    res = nehari_residual(u, const_params, fine_grid)
    assert res.value <= 2e-3


def test_nehari_residual_of_doubled_field(fine_grid, const_params):
    rng = np.random.default_rng(8)
    u = smooth_random_field(fine_grid, rng)
    u = nehari_scale(u, const_params, fine_grid) * u
    eb = energy(u, const_params, fine_grid)
    res = nehari_residual(2.0 * u, const_params, fine_grid)
    eb2 = energy(2.0 * u, const_params, fine_grid)
    expected = 4.0 * math.log(4.0) * eb.mass / max(1.0, eb2.norm_eps**2)
    assert res.value > 0.0
    assert res.value == pytest.approx(expected, rel=1e-9)


# --- evaluation record -----------------------------------------------------

_G_REC = build_grid(1, 10.0, 0.02)
_PARAMS_REC = EnergyParams(eps=1.0, potential=1.5)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.05, 20.0),
       positive=st.booleans())
def test_scaled_record_matches_fresh_record(seed, s, positive):
    g, params = _G_REC, _PARAMS_REC
    w = smooth_random_field(g, np.random.default_rng(seed), positive=positive)
    scaled = evaluate(w, params, g).scaled(s)
    fresh = evaluate(s * w, params, g)
    for name in ("u", "u_log_u2"):
        a, b = getattr(scaled, name), getattr(fresh, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    # the fresh stencil amplifies the rounding of s * w by up to 4/h^2
    assert g.h**2 * np.abs(scaled.Lu - fresh.Lu).max() \
        <= 1e-12 * np.abs(fresh.u).max()
    for name in ("K", "E", "M", "level"):
        a, b = getattr(scaled, name), getattr(fresh, name)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    assert np.array_equal(fresh.gradient(), gradient(s * w, params, g))
    eb = energy(s * w, params, g)
    assert abs(fresh.level - eb.total) <= 1e-12 * max(1.0, abs(eb.total))
    # the public functions read a record as they read its field
    assert nehari_scale(fresh, params, g) == nehari_scale(s * w, params, g)
    from_field = nehari_residual(s * w, params, g)
    from_record = fresh.nehari_residual()
    for a, b in zip(from_record, from_field):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(eb.total))


# --- log-Sobolev ----------------------------------------------------------

def test_log_sobolev_gap_positive_on_gausson(fine_grid):
    u = gausson(fine_grid, 1.0)
    assert log_sobolev_gap(u, fine_grid) > 0.0


def test_log_sobolev_on_random_fields(fine_grid):
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = smooth_random_field(fine_grid, rng)
        assert log_sobolev_gap(u, fine_grid) >= -1e-8


def test_log_sobolev_scale_consistency(fine_grid):
    rng = np.random.default_rng(10)
    u = smooth_random_field(fine_grid, rng)
    assert log_sobolev_gap(10.0 * u, fine_grid) >= -1e-8
    # the gap is genuinely recomputed, not scale-invariant termwise
    assert log_sobolev_gap(10.0 * u, fine_grid) != pytest.approx(
        log_sobolev_gap(u, fine_grid), rel=1e-3)


def test_log_sobolev_zero_field(fine_grid):
    with pytest.raises(ZeroField):
        log_sobolev_gap(np.zeros(fine_grid.num_nodes), fine_grid)
