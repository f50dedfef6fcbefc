import csv
import math

import numpy as np
import pytest

from lognls.errors import (
    DomainTooCoarse,
    GridMismatch,
    NonConformingSpacing,
    NonPositiveSpacing,
    ShrinkingDomain,
    SpacingMismatch,
)
from lognls.grid import (
    build_grid,
    integrate,
    laplacian_apply,
    load_field,
    restrict,
    save_field,
    zero_extend,
)


def test_build_1d_node_count_and_weight_sum():
    g = build_grid(1, 10.0, 0.1)
    assert g.num_nodes == 201
    assert abs(g.quad_weights.sum() - 20.0) <= 1e-12 * 20.0


def test_build_2d_node_count_and_weight_sum():
    g = build_grid(2, 5.0, 0.5)
    assert g.num_nodes == 21 * 21
    assert abs(g.quad_weights.sum() - 100.0) <= 1e-12 * 100.0


def test_build_rejects_nonconforming_spacing():
    with pytest.raises(NonConformingSpacing):
        build_grid(1, 10.0, 3.0)


def test_build_rejects_nonpositive_spacing():
    with pytest.raises(NonPositiveSpacing):
        build_grid(1, 10.0, 0.0)
    with pytest.raises(NonPositiveSpacing):
        build_grid(1, 10.0, -0.1)


def test_build_rejects_coarse_domain():
    with pytest.raises(DomainTooCoarse):
        build_grid(1, 1.0, 0.5)


def test_nodes_cover_domain():
    g = build_grid(1, 2.0, 0.25)
    assert g.axis[0] == -2.0 and g.axis[-1] == 2.0
    assert np.allclose(np.diff(g.axis), 0.25)


def test_laplacian_annihilates_constants_away_from_boundary():
    g = build_grid(1, 5.0, 0.25)
    u = np.full(g.num_nodes, 3.7)
    u[~g.interior_mask] = 0.0
    lap = laplacian_apply(g, u)
    dist = g.R - np.abs(g.nodes[:, 0])
    far = dist > g.h * 1.5
    assert np.all(lap[far] == 0.0)
    assert np.any(lap != 0.0)  # the Dirichlet ramp shows up next to the boundary


def test_laplacian_matches_analytic_second_derivative():
    g = build_grid(1, 1.0, 0.01)
    x = g.nodes[:, 0]
    u = np.sin(math.pi * x / g.R)
    lap = laplacian_apply(g, u)
    target = (math.pi / g.R) ** 2 * u
    err = np.abs(lap - target)[g.interior_mask].max()
    assert err <= 1e-3


def test_laplacian_grid_mismatch():
    g = build_grid(1, 10.0, 0.1)
    with pytest.raises(GridMismatch):
        laplacian_apply(g, np.zeros(7))


def test_integrate_constant():
    g = build_grid(1, 10.0, 0.1)
    assert abs(integrate(g, np.ones(g.num_nodes)) - 20.0) <= 1e-12 * 20.0


def test_integrate_gaussian_against_analytic():
    g = build_grid(1, 10.0, 0.01)
    x = g.nodes[:, 0]
    val = integrate(g, np.exp(-x * x))
    assert abs(val - math.sqrt(math.pi)) <= 1e-8


def test_integrate_grid_mismatch():
    g = build_grid(1, 10.0, 0.1)
    with pytest.raises(GridMismatch):
        integrate(g, np.ones(5))


def test_zero_extend_preserves_mass():
    g5 = build_grid(1, 5.0, 0.1)
    g10 = build_grid(1, 10.0, 0.1)
    u = np.exp(-g5.nodes[:, 0] ** 2)
    u[~g5.interior_mask] = 0.0
    ue = zero_extend(u, g5, g10)
    m0 = integrate(g5, u * u)
    m1 = integrate(g10, ue * ue)
    assert abs(m0 - m1) <= 1e-12 * m0


def test_zero_extend_rejects_shrinking():
    g5 = build_grid(1, 5.0, 0.1)
    g10 = build_grid(1, 10.0, 0.1)
    with pytest.raises(ShrinkingDomain):
        zero_extend(np.zeros(g10.num_nodes), g10, g5)


def test_zero_extend_rejects_spacing_mismatch():
    g5 = build_grid(1, 5.0, 0.1)
    gfine = build_grid(1, 10.0, 0.05)
    with pytest.raises(SpacingMismatch):
        zero_extend(np.zeros(g5.num_nodes), g5, gfine)


@pytest.mark.parametrize("dim", [1, 2])
def test_extend_restrict_round_trip_exact(dim):
    g_small = build_grid(dim, 4.0, 0.25)
    g_big = build_grid(dim, 8.0, 0.25)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g_small.num_nodes)
    u[~g_small.interior_mask] = 0.0
    back = restrict(zero_extend(u, g_small, g_big), g_big, g_small)
    assert np.array_equal(back, u)


@pytest.mark.parametrize("dim", [1, 2])
def test_summation_by_parts(dim):
    g = build_grid(dim, 4.0, 0.25)
    rng = np.random.default_rng(11)
    u = rng.normal(size=g.num_nodes)
    v = rng.normal(size=g.num_nodes)
    u[~g.interior_mask] = 0.0
    v[~g.interior_mask] = 0.0
    a = integrate(g, u * laplacian_apply(g, v))
    b = integrate(g, v * laplacian_apply(g, u))
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("dim", [1, 2])
def test_dirichlet_form_positive(dim):
    g = build_grid(dim, 4.0, 0.25)
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.num_nodes)
    u[~g.interior_mask] = 0.0
    assert integrate(g, u * laplacian_apply(g, u)) > 0.0
    z = np.zeros(g.num_nodes)
    assert integrate(g, z * laplacian_apply(g, z)) == 0.0


def _laplacian_error(g):
    x = g.nodes[:, 0]
    u = np.cos(0.5 * math.pi * x / g.R) * np.exp(-x * x / 8.0)
    u[~g.interior_mask] = 0.0
    lap = laplacian_apply(g, u)
    xx = x[g.interior_mask]
    f = np.cos(0.5 * math.pi * xx / g.R) * np.exp(-xx * xx / 8.0)
    # -d2/dx2 of cos(a x) exp(-x^2/8) with a = pi/(2R)
    a = 0.5 * math.pi / g.R
    c = np.cos(a * xx)
    s = np.sin(a * xx)
    e = np.exp(-xx * xx / 8.0)
    d2 = e * (c * (xx * xx / 16.0 - 0.25 - a * a) + s * (a * xx / 2.0))
    return np.abs(lap[g.interior_mask] + d2).max()


def test_laplacian_second_order_convergence():
    e1 = _laplacian_error(build_grid(1, 8.0, 0.04))
    e2 = _laplacian_error(build_grid(1, 8.0, 0.02))
    assert e1 / e2 >= 3.5


def test_field_csv_round_trip(tmp_path):
    g = build_grid(2, 4.0, 0.5)
    rng = np.random.default_rng(5)
    u = rng.normal(size=g.num_nodes)
    u[~g.interior_mask] = 0.0
    path = tmp_path / "field.csv"
    save_field(path, g, u)
    g2, u2 = load_field(path)
    assert g2.dim == g.dim and g2.R == g.R and g2.h == g.h
    assert np.array_equal(u2, u)


@pytest.mark.parametrize("dim", [1, 2])
def test_save_field_bytes_match_csv_writer(tmp_path, dim):
    g = build_grid(dim, 4.0, 0.5)
    rng = np.random.default_rng(dim)
    u = rng.normal(size=g.num_nodes) * 10.0 ** rng.integers(-20, 20, g.num_nodes)
    u[~g.interior_mask] = 0.0
    interior = np.flatnonzero(g.interior_mask)
    u[interior[:3]] = [1e-300, -2.5, -1e-310]
    path = tmp_path / "field.csv"
    save_field(path, g, u)

    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dim", "R", "h"])
        w.writerow([g.dim, repr(g.R), repr(g.h)])
        w.writerow(["x", "value"] if dim == 1 else ["x", "y", "value"])
        for coords, val in zip(g.nodes, u):
            w.writerow([repr(float(c)) for c in coords] + [repr(float(val))])
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("dim, h", [(1, 0.01), (2, 0.05)])
def test_dirichlet_energy_rounding_below_descent_slack(dim, h):
    # int(s u L(s u)) / s^2 is one number for every s; its spread over s is
    # the rounding noise that the descent sees in J, which must stay below
    # its acceptance slack of 32 eps |J|
    g = build_grid(dim, 8.0, h)
    u = np.exp(1.5 - 0.5 * (g.nodes ** 2).sum(axis=1))
    u[~g.interior_mask] = 0.0
    base = integrate(g, u * laplacian_apply(g, u))
    rng = np.random.default_rng(0)
    worst = 0.0
    for s in rng.uniform(0.5, 2.0, 50):
        v = s * u
        k = integrate(g, v * laplacian_apply(g, v)) / (s * s)
        worst = max(worst, abs(k - base))
    assert worst <= 32.0 * np.finfo(float).eps * base
