import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lognls.energy import (
    _u_log_u2,
    EnergyParams,
    energy,
    log_sobolev_gap,
    nehari_residual,
    nehari_scale,
)
from lognls.errors import ZeroField
from lognls.grid import build_grid, integrate, laplacian_apply
from lognls.solver import gausson
from lognls.verify import smooth_random_field

@pytest.fixture(scope="module")
def fine_grid():
    return build_grid(1, 10.0, 0.01)


@pytest.fixture(scope="module")
def const_params():
    return EnergyParams(eps=1.0, potential=1.0)


# --- energy and gradient --------------------------------------------------

def test_energy_of_zero_field(fine_grid, const_params):
    rec = energy(np.zeros(fine_grid.num_nodes), const_params, fine_grid)
    assert rec.level == 0.0 and rec.M == 0.0 and rec.E == 0.0


def test_energy_of_gausson_matches_level(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    rec = energy(u, const_params, fine_grid)
    target = 0.5 * math.e**2 * math.sqrt(math.pi)
    assert abs(rec.level - target) <= 5e-3
    assert abs(rec.M - math.e**2 * math.sqrt(math.pi)) <= 1e-6


@pytest.mark.parametrize("s", [0.5, math.e, 10.0])
def test_scaling_identity(fine_grid, const_params, s):
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = smooth_random_field(fine_grid, rng)
        rec = energy(u, const_params, fine_grid)
        lhs = energy(s * u, const_params, fine_grid).level
        rhs = s * s * (rec.level - math.log(s) * rec.M)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_gradient_of_zero_field(fine_grid, const_params):
    grad = energy(np.zeros(fine_grid.num_nodes), const_params, fine_grid).gradient()
    assert np.all(grad == 0.0)


def test_gradient_vanishes_on_gausson(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    grad = energy(u, const_params, fine_grid).gradient()
    assert np.abs(grad).max() <= 1e-3


def test_gradient_is_directional_derivative(fine_grid, const_params):
    rng = np.random.default_rng(5)
    u = smooth_random_field(fine_grid, rng, positive=True)
    v = smooth_random_field(fine_grid, rng)
    pair = float(np.dot(energy(u, const_params, fine_grid).gradient(), v))

    def central(t):
        jp = energy(u + t * v, const_params, fine_grid).level
        jm = energy(u - t * v, const_params, fine_grid).level
        return abs(pair - (jp - jm) / (2.0 * t))

    e1 = central(1e-3)
    e2 = central(5e-4)
    assert e1 / e2 >= 3.5


# --- Nehari projection ----------------------------------------------------

def test_nehari_scale_of_gausson_is_one(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    assert abs(nehari_scale(energy(u, const_params, fine_grid)) - 1.0) <= 1e-3


def test_nehari_projection_idempotent(fine_grid, const_params):
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = smooth_random_field(fine_grid, rng)
        s = nehari_scale(energy(u, const_params, fine_grid))
        assert abs(nehari_scale(energy(s * u, const_params, fine_grid)) - 1.0) <= 1e-12


def test_nehari_zero_field_rejected(fine_grid, const_params):
    with pytest.raises(ZeroField):
        nehari_scale(energy(np.zeros(fine_grid.num_nodes), const_params, fine_grid))
    with pytest.raises(ZeroField):
        nehari_residual(np.zeros(fine_grid.num_nodes), const_params, fine_grid)


def test_nehari_scale_underflow_rejected(fine_grid):
    # V = -2000 puts the Nehari root near exp(-1000): s*u would be the zero
    # field, which a descent step must not accept
    params = EnergyParams(eps=1.0, potential=-2000.0)
    with pytest.raises(ZeroField, match="underflows"):
        nehari_scale(energy(gausson(fine_grid, 1.0), params, fine_grid))


def test_nehari_residual_after_projection(fine_grid, const_params):
    rng = np.random.default_rng(7)
    u = smooth_random_field(fine_grid, rng)
    u = nehari_scale(energy(u, const_params, fine_grid)) * u
    res = nehari_residual(u, const_params, fine_grid)
    assert res.value <= 1e-12
    rec = energy(u, const_params, fine_grid)
    assert abs(rec.level - 0.5 * rec.M) <= 1e-10 * max(1.0, abs(rec.level))


def test_nehari_residual_of_gausson(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    res = nehari_residual(u, const_params, fine_grid)
    assert res.value <= 2e-3


def test_nehari_residual_of_doubled_field(fine_grid, const_params):
    rng = np.random.default_rng(8)
    u = smooth_random_field(fine_grid, rng)
    u = nehari_scale(energy(u, const_params, fine_grid)) * u
    rec = energy(u, const_params, fine_grid)
    res = nehari_residual(2.0 * u, const_params, fine_grid)
    rec2 = energy(2.0 * u, const_params, fine_grid)
    expected = 4.0 * math.log(4.0) * rec.M / max(1.0, rec2.K + rec2.M)
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
    scaled = energy(w, params, g).scaled(s)
    fresh = energy(s * w, params, g)
    for name in ("u", "u_log_u2"):
        a, b = getattr(scaled, name), getattr(fresh, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    # the fresh stencil amplifies the rounding of s * w by up to 4/h^2
    assert g.h**2 * np.abs(scaled.Lu - fresh.Lu).max() \
        <= 1e-12 * np.abs(fresh.u).max()
    for name in ("K", "E", "M", "level"):
        a, b = getattr(scaled, name), getattr(fresh, name)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    # the scale of s w is the scale of w over s
    assert nehari_scale(scaled) == pytest.approx(
        nehari_scale(energy(w, params, g)) / s, rel=1e-10)


# --- log-Sobolev ----------------------------------------------------------

def test_log_sobolev_gap_positive_on_gausson(fine_grid, const_params):
    u = gausson(fine_grid, 1.0)
    assert log_sobolev_gap(energy(u, const_params, fine_grid)) > 0.0


def test_log_sobolev_on_random_fields(fine_grid, const_params):
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = smooth_random_field(fine_grid, rng)
        assert log_sobolev_gap(energy(u, const_params, fine_grid)) >= -1e-8


def test_log_sobolev_scale_consistency(fine_grid, const_params):
    rng = np.random.default_rng(10)
    u = smooth_random_field(fine_grid, rng)
    gap10 = log_sobolev_gap(energy(10.0 * u, const_params, fine_grid))
    assert gap10 >= -1e-8
    # the gap is genuinely recomputed, not scale-invariant termwise
    assert gap10 != pytest.approx(
        log_sobolev_gap(energy(u, const_params, fine_grid)), rel=1e-3)


def test_log_sobolev_zero_field(fine_grid, const_params):
    with pytest.raises(ZeroField):
        log_sobolev_gap(energy(np.zeros(fine_grid.num_nodes), const_params, fine_grid))


def _log_sobolev_gap_direct(u, g):
    """The gap by its own stencil, log and integrals, as it was computed
    before it read the evaluation record."""
    Kgrad = integrate(g, u * laplacian_apply(g, u))
    M = integrate(g, u * u)
    E = integrate(g, u * _u_log_u2(u))
    a = math.sqrt(math.pi) / 2.0
    rhs = (a * a / math.pi) * Kgrad + (math.log(M) - g.dim * (1.0 + math.log(a))) * M
    return rhs - E


_G_LS = (build_grid(1, 10.0, 0.05), build_grid(2, 6.0, 0.2))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       s=st.floats(0.01, 100.0), positive=st.booleans())
def test_log_sobolev_gap_of_record_is_the_direct_formula(seed, dim, s, positive):
    # the record's M, E and stencil are the direct formula's operations, so
    # the gap is the same double, for positive and signed fields alike
    g = _G_LS[dim - 1]
    u = s * smooth_random_field(g, np.random.default_rng(seed), positive=positive)
    assert log_sobolev_gap(energy(u, _PARAMS_REC, g)) == _log_sobolev_gap_direct(u, g)
    with pytest.raises(ZeroField):
        log_sobolev_gap(energy(0.0 * u, _PARAMS_REC, g))


# --- the log term u log u^2 through np.log --------------------------------

def test_u_log_u2_is_zero_at_zero():
    with np.errstate(all="raise"):
        out = _u_log_u2(np.array([0.0, -0.0, 0.5]))
    assert out[0] == 0.0 and out[1] == 0.0


@pytest.mark.parametrize("u", [5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0,
                               1e300, -1e300])
def test_u_log_u2_matches_math_log_at_extremes(u):
    """2 u log|u| down to the smallest subnormal and up to 1e300, with no
    floating-point exception raised."""
    with np.errstate(all="raise"):
        got = float(_u_log_u2(np.array([u]))[0])
    want = 2.0 * u * math.log(abs(u))
    assert math.isfinite(got)
    assert abs(got - want) <= 2.0 * math.ulp(want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=80),
       keep_seed=st.integers(0, 2**32 - 1))
def test_u_log_u2_node_values_do_not_depend_on_other_nodes(values, keep_seed):
    """The log runs only where u != 0 (a masked loop); zeroing other nodes
    never changes a node's value, so each node is computed the same way
    whatever the rest of the field holds."""
    u = np.array(values)
    keep = np.random.default_rng(keep_seed).random(u.size) < 0.5
    full = _u_log_u2(u)
    part = _u_log_u2(np.where(keep, u, 0.0))
    assert np.array_equal(full[keep], part[keep])
    assert np.all(part[~keep] == 0.0)
