import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from lognls.errors import InvalidInput
from lognls.grid import build_grid
from lognls.potential import eval_scaled, make_multiwell


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
    with pytest.raises(InvalidInput, match="need a finite v_inf > 1"):
        make_multiwell([[0.0]], 1.0, 1.0)
    with pytest.raises(InvalidInput, match="need a finite width > 0"):
        make_multiwell([[0.0]], 2.0, 0.0)


def test_origin_well_required():
    with pytest.raises(InvalidInput, match="first well must be the origin"):
        make_multiwell([[1.0], [2.0]], 2.0, 1.0)


_CENTERS = "wells must be a nonempty list of finite 1d or 2d centers"
_FAR = "wells too far out for finite distances"


@pytest.mark.parametrize("wells, v_inf, width, rule", [
    ([0.0, 2.0], math.nan, 0.25, "need a finite v_inf > 1"),
    ([0.0, 2.0], math.inf, 0.25, "need a finite v_inf > 1"),
    ([0.0, 2.0], 2.0, math.nan, "need a finite width > 0"),
    ([0.0, 2.0], 2.0, math.inf, "need a finite width > 0"),
    ([0.0, math.nan], 2.0, 0.25, _CENTERS),
    ([[0.0, 0.0], [math.inf, 1.0]], 2.0, 0.25, _CENTERS),
    ([[0.0, 0.0], [2.0, -math.inf]], 2.0, 0.25, _CENTERS),
    ([[0.0, 0.0], [1e200, 0.0]], 2.0, 0.25, _FAR),
    ([0.0, 1e200], 2.0, 0.25, _FAR),
    ([[0.0, 0.0], [1.0]], 2.0, 0.25, _CENTERS),
    ("ab", 2.0, 0.25, _CENTERS),
], ids=["v_inf-NaN", "v_inf-Infinity", "width-NaN", "width-Infinity", "center-NaN",
        "center-Infinity", "center--Infinity", "2d-distance-overflows",
        "1d-distance-overflows", "ragged", "not-numbers"])
@pytest.mark.filterwarnings("error::RuntimeWarning")   # and no numpy warning on the way
def test_non_finite_input_rejected(wells, v_inf, width, rule):
    with pytest.raises(InvalidInput, match=re.escape(rule)):
        make_multiwell(wells, v_inf, width)


def test_duplicate_wells_rejected():
    with pytest.raises(InvalidInput, match="wells 0 and 1 coincide"):
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


def test_localization_radii_of_the_shipped_wells():
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    assert spec.rho0 == pytest.approx(0.5)
    assert spec.R0 == pytest.approx(4.0)
    single = make_multiwell([[0.0]], 2.0, 1.0)
    assert single.rho0 == 1.0 and single.R0 == 2.0


# well coordinates up to 1e200 in magnitude, far beyond the reach of any
# grid, which must cover max|z|/eps + 5; numpy's norms overflow beyond
# about 1e154, and make_multiwell rejects such wells
_COORD = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e200, 1e200))


@st.composite
def _spec_inputs(draw):
    """The arguments of make_multiwell for 1 to 4 distinct wells."""
    dim = draw(st.sampled_from([1, 2]))
    origin = (0.0,) * dim
    others = draw(st.lists(st.tuples(*[_COORD] * dim), max_size=3, unique=True)
                  .filter(lambda pts: origin not in pts))
    v_inf = draw(st.floats(1.0, 1e6, exclude_min=True))
    width = draw(st.floats(0.0, 1e6, exclude_min=True))
    return [origin, *others], v_inf, width


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_spec_inputs())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_localization_radii_satisfy_invariants(inputs):
    """Every spec make_multiwell accepts has finite radii whose balls
    B_rho0(z_i) are disjoint and lie inside B_R0: rho0 is a quarter of the
    least separation, which is at most max|z| since the first well is the
    origin, and R0 = 2 max(1, max|z|). It rejects only wells too far out
    for a norm to be finite."""
    wells = inputs[0]
    far = max(math.hypot(*z) for z in wells)
    try:
        spec = make_multiwell(*inputs)
    except InvalidInput as exc:
        if "coincide" in str(exc):   # a separation whose square underflows
            reject()
        assert str(exc).startswith(_FAR) and far > 1e153
        return
    dmin = min((math.dist(a, b) for a, b in itertools.combinations(wells, 2)),
               default=math.inf)
    assert 0.0 < spec.rho0 < 0.5 * dmin
    assert far + spec.rho0 < spec.R0 < math.inf


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
    with pytest.raises(InvalidInput, match="eps must be positive"):
        eval_scaled(spec, 0.0, g)
