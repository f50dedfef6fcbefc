import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from lognls.errors import (
    DuplicateWells,
    FlatPotential,
    MissingOriginWell,
    NonPositiveEpsilon,
)
from lognls.grid import build_grid
from lognls.potential import (
    default_geometry,
    eval_scaled,
    make_multiwell,
)


def test_single_well_values():
    spec = make_multiwell([[0.0]], 2.0, 1.0)
    assert spec(np.array([0.0])) == 1.0
    assert abs(spec(np.array([1.0])) - (2.0 - math.exp(-1.0))) <= 1e-14
    # limit value approached far away
    assert spec(np.array([50.0])) == pytest.approx(2.0)


def test_double_well_max_of_gaussians():
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    assert spec(np.array([0.0])) == 1.0
    assert spec(np.array([2.0])) == 1.0
    assert abs(spec(np.array([1.0])) - (2.0 - math.exp(-4.0))) <= 1e-14


def test_flat_potential_rejected():
    with pytest.raises(FlatPotential):
        make_multiwell([[0.0]], 1.0, 1.0)
    with pytest.raises(FlatPotential):
        make_multiwell([[0.0]], 2.0, 0.0)


def test_origin_well_required():
    with pytest.raises(MissingOriginWell):
        make_multiwell([[1.0], [2.0]], 2.0, 1.0)


@pytest.mark.parametrize("wells, v_inf, width, error", [
    ([0.0, 2.0], math.nan, 0.25, FlatPotential),
    ([0.0, 2.0], math.inf, 0.25, FlatPotential),
    ([0.0, 2.0], 2.0, math.nan, FlatPotential),
    ([0.0, 2.0], 2.0, math.inf, FlatPotential),
    ([0.0, math.nan], 2.0, 0.25, MissingOriginWell),
    ([[0.0, 0.0], [math.inf, 1.0]], 2.0, 0.25, MissingOriginWell),
    ([[0.0, 0.0], [2.0, -math.inf]], 2.0, 0.25, MissingOriginWell),
], ids=["v_inf-NaN", "v_inf-Infinity", "width-NaN", "width-Infinity", "center-NaN",
        "center-Infinity", "center--Infinity"])
def test_non_finite_input_rejected(wells, v_inf, width, error):
    with pytest.raises(error, match="finite"):
        make_multiwell(wells, v_inf, width)


def test_duplicate_wells_rejected():
    with pytest.raises(DuplicateWells):
        make_multiwell([[0.0], [0.0]], 2.0, 1.0)


def test_flat_list_means_1d_wells():
    spec = make_multiwell([0.0, 2.0], 2.0, 0.25)
    assert spec.dim == 1 and spec.l == 2


def test_wells_at_unit_minimum_exactly():
    spec = make_multiwell([[0.0, 0.0], [3.0, 1.0]], 1.5, 0.5)
    for z in spec.wells:
        assert abs(spec(z) - 1.0) <= 1e-14


def test_bounds_on_dense_sample():
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    pts = np.linspace(-12.0, 12.0, 4001)[:, None]
    vals = spec(pts)
    assert np.all(vals >= 1.0)
    assert np.all(vals <= 2.0)
    # strict inequality holds wherever the Gaussian deficit is representable
    # above the ulp of v_inf, i.e. within ~3 length units of a well here
    near = np.linspace(-2.5, 4.5, 2001)[:, None]
    assert np.all(spec(near) < 2.0)


def test_monotone_tails():
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    start = np.abs(spec.wells).max() + 3.0 * math.sqrt(spec.width)
    ray = np.linspace(start, start + 20.0, 500)[:, None]
    vals = spec(ray)
    assert np.all(np.diff(vals) >= 0.0)


def test_default_geometry_of_the_shipped_wells():
    geom = default_geometry(make_multiwell([[0.0], [2.0]], 2.0, 0.25))
    assert geom.rho0 == pytest.approx(0.5)
    assert geom.R0 == pytest.approx(4.0)
    single = default_geometry(make_multiwell([[0.0]], 2.0, 1.0))
    assert single.rho0 == 1.0 and single.R0 == 2.0


# well coordinates up to 1e6 in magnitude, beyond the reach of any grid,
# which must cover max|z|/eps + 5; norms overflow only beyond about 1e154
_COORD = st.floats(-1e6, 1e6)


@st.composite
def _specs(draw):
    """A spec that make_multiwell accepts, of 1 to 4 distinct wells."""
    dim = draw(st.sampled_from([1, 2]))
    origin = (0.0,) * dim
    others = draw(st.lists(st.tuples(*[_COORD] * dim), max_size=3, unique=True)
                  .filter(lambda pts: origin not in pts))
    v_inf = draw(st.floats(1.0, 1e6, exclude_min=True))
    width = draw(st.floats(0.0, 1e6, exclude_min=True))
    try:
        return make_multiwell([origin, *others], v_inf, width)
    except DuplicateWells:   # a separation whose square underflows
        reject()


@settings(max_examples=200, deadline=None)
@given(_specs())
def test_default_geometry_satisfies_invariants(spec):
    """The balls B_rho0(z_i) are disjoint and lie inside B_R0: rho0 is a
    quarter of the least separation, which is at most max|z| since the
    first well is the origin, and R0 = 2 max(1, max|z|)."""
    geom = default_geometry(spec)
    dmin = min((float(np.linalg.norm(a - b)) for a, b in itertools.combinations(spec.wells, 2)),
               default=math.inf)
    assert geom.rho0 > 0.0
    assert geom.rho0 < 0.5 * dmin
    assert float(np.linalg.norm(spec.wells, axis=1).max()) + geom.rho0 < geom.R0


def test_eval_scaled_at_origin_node():
    spec = make_multiwell([[0.0]], 2.0, 1.0)
    g = build_grid(1, 10.0, 0.1)
    vals = eval_scaled(spec, 0.37, g)
    origin = np.argmin(np.abs(g.axis))
    assert vals[origin] == 1.0


def test_eval_scaled_formula():
    spec = make_multiwell([[0.0]], 2.0, 1.0)
    g = build_grid(1, 10.0, 0.1)
    vals = eval_scaled(spec, 0.1, g)
    node = np.argmin(np.abs(g.axis - 10.0))
    assert abs(vals[node] - (2.0 - math.exp(-1.0))) <= 1e-14
    assert vals.min() >= 1.0 and vals.max() < 2.0


def test_eval_scaled_rejects_nonpositive_eps():
    spec = make_multiwell([[0.0]], 2.0, 1.0)
    g = build_grid(1, 10.0, 0.1)
    with pytest.raises(NonPositiveEpsilon):
        eval_scaled(spec, 0.0, g)
