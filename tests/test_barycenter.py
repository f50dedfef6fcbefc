import math

import numpy as np
import pytest

from conftest import node_list
from lognls.barycenter import chi_map, g_weight, q_eps, region_of
from lognls.errors import InvalidInput, ZeroField
from lognls.grid import build_grid, sq_distance
from lognls.solver import gausson


def _translated_gaussian(g, center):
    u = np.exp(-0.5 * sq_distance(g.axis, np.atleast_1d(center)))
    u[~g.interior_mask] = 0.0
    return u


def test_chi_clamps_norm():
    pts = np.array([[0.5, 0.0], [3.0, 4.0], [-6.0, 8.0]])
    out = chi_map(pts, 4.0)
    norms = np.linalg.norm(out, axis=1)
    assert norms[0] == pytest.approx(0.5)
    assert np.all(norms <= 4.0 + 1e-14)
    # direction preserved
    assert out[1] == pytest.approx(4.0 * pts[1] / 5.0)


def test_g_weight_plateau_and_decay():
    pts = np.array([[1.0], [4.0], [6.0]])
    w = g_weight(pts, 4.0)
    assert w[0] == 1.0 and w[1] == 1.0
    assert w[2] == pytest.approx(math.exp(-2.0))


def test_even_field_has_zero_barycenter():
    g = build_grid(1, 10.0, 0.01)
    u = gausson(g, 1.0)
    q = q_eps(u, 0.37, 4.0, g)
    assert np.abs(q).max() <= 1e-12


def test_translated_gausson_barycenter_near_well():
    g = build_grid(1, 30.0, 0.05)
    u = _translated_gaussian(g, [20.0])  # z_i/eps with z_i = 2, eps = 0.1
    q = q_eps(u, 0.1, 4.0, g)
    assert abs(q[0] - 2.0) <= 0.05


def test_far_support_saturates_at_R0():
    g = build_grid(1, 20.0, 0.1)
    u = _translated_gaussian(g, [10.0]) * (g.axis > 6.0)
    q = q_eps(u, 1.0, 4.0, g)
    assert abs(q[0] - 4.0) <= 1e-6


def test_scale_invariance():
    g = build_grid(1, 10.0, 0.05)
    rng = np.random.default_rng(0)
    u = rng.normal(size=g.num_nodes)
    u[~g.interior_mask] = 0.0
    R0 = 4.0
    q = q_eps(u, 0.2, R0, g)
    # power-of-two scaling is exact in floats
    assert np.array_equal(q_eps(2.0 * u, 0.2, R0, g), q)
    assert np.abs(q_eps(3.0 * u, 0.2, R0, g) - q).max() <= 1e-13 * max(1.0, np.abs(q).max())


@pytest.mark.parametrize("dim, h, eps", [(1, 0.01, 0.1), (1, 0.1, 1.0), (2, 0.1, 0.3), (2, 0.25, 1.5)])
def test_q_eps_matches_row_sum_reference(dim, h, eps):
    # the reference form: density-weighted rows of chi, summed over nodes
    g = build_grid(dim, 12.0, h)
    R0 = 4.0
    scaled = eps * node_list(g)
    chi = chi_map(scaled, R0)
    wq = g.quad_weights * g_weight(scaled, R0)
    rng = np.random.default_rng(dim)
    for _ in range(5):
        u = _translated_gaussian(g, rng.uniform(-6.0, 6.0, size=dim))
        density = wq * u * u
        ref = (density[:, None] * chi).sum(axis=0) / density.sum()
        q = q_eps(u, eps, R0, g)
        assert np.abs(q - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def test_boundedness_by_R0():
    g = build_grid(2, 6.0, 0.25)
    rng = np.random.default_rng(1)
    R0 = 2.0
    for _ in range(20):
        u = rng.normal(size=g.num_nodes)
        u[~g.interior_mask] = 0.0
        q = q_eps(u, 1.5, R0, g)
        assert np.linalg.norm(q) <= 2.0 + 1e-12


def test_q_eps_errors():
    g = build_grid(1, 10.0, 0.1)
    R0 = 4.0
    with pytest.raises(ZeroField):
        q_eps(np.zeros(g.num_nodes), 1.0, R0, g)
    with pytest.raises(InvalidInput, match="eps must be positive"):
        q_eps(np.ones(g.num_nodes), 0.0, R0, g)


def test_region_classification():
    wells = np.array([[0.0], [2.0]])
    at_center = region_of(np.array([2.0]), 0.5, wells)
    assert at_center.is_interior(1) and at_center.core and at_center.well == 1
    on_edge = region_of(np.array([0.5]), 0.5, wells)
    assert on_edge.kind == "boundary" and on_edge.well == 0
    nowhere = region_of(np.array([1.0]), 0.5, wells)
    assert nowhere.kind == "outside" and nowhere.well is None
    just_inside = region_of(np.array([0.4]), 0.5, wells)
    assert just_inside.is_interior(0) and not just_inside.core


def test_region_boundary_tolerance_band():
    wells = np.array([[0.0]])
    assert region_of(np.array([1.0 + 5e-10]), 1.0, wells).kind == "boundary"
    assert region_of(np.array([1.0 - 5e-10]), 1.0, wells).kind == "boundary"


def test_translation_consistency_as_eps_shrinks():
    # y close to R0 so that the chi truncation actually bites at large eps
    y = 3.5
    dists = []
    for eps in (0.2, 0.1, 0.05):
        center = y / eps
        R = math.ceil(center + 10.0)
        g = build_grid(1, float(R), 0.05)
        u = _translated_gaussian(g, [center])
        q = q_eps(u, eps, 4.0, g)
        dists.append(abs(q[0] - y))
    assert dists[0] > dists[1]
    assert dists[2] <= dists[1] + 1e-15
