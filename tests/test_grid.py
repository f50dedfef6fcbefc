import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import node_list
from lognls.barycenter import _tables, chi_map, g_weight
from lognls.errors import (
    DomainTooCoarse,
    GridMismatch,
    NonConformingSpacing,
    NonPositiveSpacing,
    ShrinkingDomain,
    SpacingMismatch,
)
from lognls.grid import (
    GridBox,
    build_grid,
    integrate,
    laplacian_apply,
    load_field,
    save_field,
    sq_distance,
    zero_extend,
)
from lognls.potential import eval_scaled, make_multiwell
from lognls.solver import _boundary_ramp, _smootherstep
from lognls.verify import POSITIVE_RADIUS, positivity_check


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


def test_build_grid_returns_one_read_only_grid_per_arguments():
    """Every call with equal (dim, R, h) returns the same grid, so the
    tables cached on a grid are built once; no caller can write to it."""
    for dim in (1, 2):
        g = build_grid(dim, 6.0, 0.25)
        assert build_grid(dim, 6.0, 0.25) is g
        assert build_grid(dim, 6, 0.25) is g
        assert build_grid(dim, 6.5, 0.25) is not g
        for arr in (g.axis, g.interior_mask, g.quad_weights, g.boundary_nodes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]


def test_nodes_cover_domain():
    g = build_grid(1, 2.0, 0.25)
    assert g.axis[0] == -2.0 and g.axis[-1] == 2.0
    assert np.allclose(np.diff(g.axis), 0.25)


def test_laplacian_annihilates_constants_away_from_boundary():
    g = build_grid(1, 5.0, 0.25)
    u = np.full(g.num_nodes, 3.7)
    u[~g.interior_mask] = 0.0
    lap = laplacian_apply(g, u)
    dist = g.R - np.abs(g.axis)
    far = dist > g.h * 1.5
    assert np.all(lap[far] == 0.0)
    assert np.any(lap != 0.0)  # the Dirichlet ramp shows up next to the boundary


def test_laplacian_matches_analytic_second_derivative():
    g = build_grid(1, 1.0, 0.01)
    x = g.axis
    u = np.sin(math.pi * x / g.R)
    lap = laplacian_apply(g, u)
    target = (math.pi / g.R) ** 2 * u
    err = np.abs(lap - target)[g.interior_mask].max()
    assert err <= 1e-3


def test_laplacian_grid_mismatch():
    g = build_grid(1, 10.0, 0.1)
    with pytest.raises(GridMismatch):
        laplacian_apply(g, np.zeros(7))


@pytest.mark.parametrize("dim", [1, 2])
def test_box_is_a_grid_of_its_nodes_with_the_frame_as_boundary(dim):
    """On a rectangular box the stencil is the whole grid's at the box's
    interior nodes, reading the frame's values as Dirichlet data; the frame
    carries no quadrature weight, and tables and fields are sliced by node."""
    g = build_grid(dim, 4.0, 0.25)
    u = np.random.default_rng(dim).standard_normal(g.num_nodes)
    u[~g.interior_mask] = 0.0
    index = (slice(3, 20), slice(5, 14))[:dim]
    box = GridBox(g, index)
    assert box.shape == (17, 9)[:dim]
    on_box = np.zeros(g.shape, dtype=bool)
    on_box[index] = True
    inner = np.zeros(g.shape, dtype=bool)
    inner[tuple(slice(sl.start + 1, sl.stop - 1) for sl in index)] = True
    ub = box.take(u)
    assert np.array_equal(ub, u[on_box.ravel()])
    assert np.array_equal(laplacian_apply(box, ub)[box.interior_mask],
                          laplacian_apply(g, u)[inner.ravel()])
    assert np.all(laplacian_apply(box, ub)[box.boundary_nodes] == 0.0)
    assert integrate(box, ub) == pytest.approx(
        float(np.sum(g.quad_weights[inner.ravel()] * u[inner.ravel()])), rel=1e-13)
    table = np.stack([u, 2.0 * u])
    part = box.restrict(table)
    assert part is box.restrict(table) and not part.flags.writeable
    assert np.array_equal(part, table[:, on_box.ravel()])
    out = box.embed(2.0 * ub, np.zeros(g.num_nodes))
    assert np.array_equal(out, np.where(on_box.ravel(), 2.0 * u, 0.0))


def _diff_laplacian(g, u):
    """The stencil of `laplacian_apply` written with np.diff: the reference
    form it must equal bit for bit."""
    h2 = g.h * g.h
    if g.dim == 1:
        d = np.diff(u)
        out = np.zeros_like(u)
        out[1:-1] = (d[:-1] - d[1:]) / h2
        return out
    U = u.reshape(g.shape)
    dx = np.diff(U[:, 1:-1], axis=0)
    dy = np.diff(U[1:-1, :], axis=1)
    out = np.zeros_like(U)
    out[1:-1, 1:-1] = ((dx[:-1] - dx[1:]) + (dy[:, :-1] - dy[:, 1:])) / h2
    return out.ravel()


@st.composite
def _grid_or_box_and_field(draw):
    dim = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([0.01, 0.05, 0.1, 0.3, 1.0]))
    g = build_grid(dim, 0.5 * h * draw(st.integers(16, 40)), h)
    if draw(st.booleans()):
        index = []
        for _ in range(dim):
            lo = draw(st.integers(0, g.n_axis - 3))
            index.append(slice(lo, draw(st.integers(lo + 3, g.n_axis))))
        g = GridBox(g, tuple(index))
    u = draw(arrays(np.float64, g.num_nodes,
                    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)))
    return g, u


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_grid_or_box_and_field())
def test_laplacian_equals_its_diff_form_bit_for_bit(case):
    g, u = case
    assert np.array_equal(laplacian_apply(g, u), _diff_laplacian(g, u))


def test_integrate_constant():
    g = build_grid(1, 10.0, 0.1)
    assert abs(integrate(g, np.ones(g.num_nodes)) - 20.0) <= 1e-12 * 20.0


def test_integrate_gaussian_against_analytic():
    g = build_grid(1, 10.0, 0.01)
    x = g.axis
    val = integrate(g, np.exp(-x * x))
    assert abs(val - math.sqrt(math.pi)) <= 1e-8


def test_integrate_grid_mismatch():
    g = build_grid(1, 10.0, 0.1)
    with pytest.raises(GridMismatch):
        integrate(g, np.ones(5))


def test_zero_extend_preserves_mass():
    g5 = build_grid(1, 5.0, 0.1)
    g10 = build_grid(1, 10.0, 0.1)
    u = np.exp(-g5.axis ** 2)
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
def test_zero_extend_places_field_in_centre_block(dim):
    g_small = build_grid(dim, 4.0, 0.25)
    g_big = build_grid(dim, 8.0, 0.25)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g_small.num_nodes)
    u[~g_small.interior_mask] = 0.0
    big = zero_extend(u, g_small, g_big).reshape(g_big.shape)
    # the small axis is nodes 16..48 of the big one: (8 - 4) / 0.25 = 16
    centre = (slice(16, 16 + g_small.n_axis),) * dim
    assert np.array_equal(big[centre], u.reshape(g_small.shape))
    big[centre] = 0.0
    assert not big.any()


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
    x = g.axis
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


def test_field_npz_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        g = build_grid(dim, 4.0, 0.5)
        u = rng.normal(size=g.num_nodes)
        u[~g.interior_mask] = 0.0
        path = tmp_path / f"field{dim}.npz"
        save_field(path, g, u, 0.1)
        g2, eps, u2 = load_field(path)
        assert g2.dim == g.dim and g2.R == g.R and g2.h == g.h
        assert eps == 0.1
        assert np.array_equal(u2, u)
        assert np.array_equal(np.load(path)["u"], u.reshape(g.shape))


@pytest.mark.parametrize("dim", [1, 2])
def test_save_field_is_deterministic(tmp_path, dim):
    g = build_grid(dim, 4.0, 0.5)
    u = np.random.default_rng(dim).normal(size=g.num_nodes)
    u[~g.interior_mask] = 0.0
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    save_field(first, g, u, 0.1)
    save_field(second, g, u, 0.1)
    assert first.read_bytes() == second.read_bytes()
    with zipfile.ZipFile(first) as zf:
        members = zf.infolist()
        assert sorted(m.filename for m in members) == ["R.npy", "eps.npy", "h.npy", "u.npy"]
        assert all(m.date_time == (1980, 1, 1, 0, 0, 0) for m in members)
    with np.load(first) as npz:
        assert all(npz[key].dtype == np.float64 for key in npz.files)


def _field(**changes):
    # a valid field on [-4, 4] at h = 0.5 (17 nodes), with keys replaced
    # (value None drops the key); R, h and eps stand where the text format
    # had its header
    arrays = {"u": np.zeros(17), "R": np.float64(4.0), "h": np.float64(0.5),
              "eps": np.float64(0.1)}
    arrays.update(changes)
    return {k: v for k, v in arrays.items() if v is not None}


def _bare_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(17))


def _truncated(path):
    save_field(path, build_grid(1, 4.0, 0.5), np.zeros(17), 0.1)
    path.write_bytes(path.read_bytes()[:-40])


_OLD_CSV = ("dim,R,h,eps\r\n1,4.0,0.5,0.1\r\n" + "0.0\r\n" * 17).encode()


@pytest.mark.parametrize("write", [
    lambda p: p.write_bytes(b""),
    lambda p: np.savez(p, **_field(u=np.zeros(16))),
    lambda p: np.savez(p, **_field(u=np.zeros(18))),
    lambda p: np.savez(p, **_field(R=np.array("4.0"))),
    lambda p: np.savez(p, **_field(u=np.zeros(17, dtype=np.int64))),
    lambda p: np.savez(p, **_field(eps=None)),
    lambda p: np.savez(p, **_field(dim=np.float64(1.0))),
    lambda p: np.savez(p, **_field(h=np.array([0.5]))),
    lambda p: np.savez(p, **_field(u=np.zeros((17, 1)))),
    lambda p: p.write_bytes(_OLD_CSV),
    _bare_npy,
    lambda p: p.write_bytes(b"not a zip file"),
    _truncated,
], ids=["empty", "short", "long", "not_a_number", "int_values", "short_header_values",
        "extra_key", "non_scalar", "wrong_dim", "old_format", "no_header", "not_a_zip",
        "truncated"])
def test_load_field_rejects_malformed_files(tmp_path, write):
    path = tmp_path / "field.npz"
    write(path)
    with pytest.raises(GridMismatch):
        load_field(path)


def test_load_field_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_field(tmp_path / "absent.npz")


@pytest.mark.parametrize("dim, h", [(1, 0.01), (2, 0.05)])
def test_dirichlet_energy_rounding_below_descent_slack(dim, h):
    # int(s u L(s u)) / s^2 is one number for every s; its spread over s is
    # the rounding noise that the descent sees in J, which must stay below
    # its acceptance slack of 32 eps |J|
    g = build_grid(dim, 8.0, h)
    u = np.exp(1.5 - 0.5 * sq_distance(g.axis, np.zeros(dim)))
    u[~g.interior_mask] = 0.0
    base = integrate(g, u * laplacian_apply(g, u))
    rng = np.random.default_rng(0)
    worst = 0.0
    for s in rng.uniform(0.5, 2.0, 50):
        v = s * u
        k = integrate(g, v * laplacian_apply(g, v)) / (s * s)
        worst = max(worst, abs(k - base))
    assert worst <= 32.0 * np.finfo(float).eps * base


@pytest.mark.parametrize("wells, peak", [([[0.0], [1.5]], [-15.0]),
                                         ([[0.0, 0.0], [1.5, -1.0]], [-15.0, 9.0])])
def test_axis_built_tables_equal_their_node_list_forms(wells, peak):
    """Each whole-grid table built on the open mesh of the axes equals, bit
    for bit, its pointwise form at the node list, on an off-axis well, at
    an eps and a spacing that round."""
    spec = make_multiwell(wells, 2.0, 0.3)
    g = build_grid(spec.dim, 24.0, 0.3)
    points, eps, R0 = node_list(g), 0.3, 2.0
    assert np.array_equal(eval_scaled(spec, eps, g), spec(eps * points))
    assert np.array_equal(_boundary_ramp(g),
                          _smootherstep(0.5 * (g.R - np.abs(points).max(axis=1))))
    chi, wq = _tables(R0, eps, g)
    assert np.array_equal(chi, chi_map(eps * points, R0).T)
    assert np.array_equal(wq, g.quad_weights * g_weight(eps * points, R0))
    assert np.sum(np.linalg.norm(eps * points, axis=1) > R0) > g.num_nodes // 2
    # positivity_check's distance to the peak: zeros exactly at the interior
    # nodes beyond POSITIVE_RADIUS pass, one more at the farthest node within
    # it fails
    u = np.exp(-sq_distance(g.axis, np.array(peak)) / 50.0)
    u[~g.interior_mask] = 0.0
    top = int(np.argmax(u))
    dist = np.linalg.norm(points - points[top], axis=1)
    assert np.array_equal(np.sqrt(sq_distance(g.axis, points[top])), dist)
    far = dist > POSITIVE_RADIUS
    assert far.any()
    u[far] = 0.0
    assert positivity_check(u, g)["ok"]
    u[np.argmax(np.where(far | ~g.interior_mask, -1.0, dist))] = 0.0
    assert not positivity_check(u, g)["ok"]
