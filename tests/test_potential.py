import math

import numpy as np
import pytest

from lognls.errors import (
    DuplicateWells,
    FlatPotential,
    MissingOriginWell,
    NonPositiveEpsilon,
)
from lognls.grid import build_grid
from lognls.potential import (
    WellGeometry,
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


def test_default_geometry_satisfies_invariants():
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    geom = default_geometry(spec)
    assert geom.rho0 == pytest.approx(0.5)
    assert geom.R0 == pytest.approx(4.0)
    assert geom.check(spec.wells) == []
    single = make_multiwell([[0.0]], 2.0, 1.0)
    gs = default_geometry(single)
    assert gs.rho0 == 1.0 and gs.R0 == 2.0
    assert gs.check(single.wells) == []


@pytest.mark.parametrize("rho0", [0.0, -0.5])
def test_nonpositive_rho0_is_a_violated_constraint(rho0):
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    assert WellGeometry(rho0=rho0, R0=4.0).check(spec.wells) == [
        f"rho0 must be positive, got {rho0}"]


@pytest.mark.parametrize("geometry", [(math.nan, 4.0), (0.5, math.nan)],
                         ids=["rho0-NaN", "R0-NaN"])
def test_nan_radius_is_a_violated_constraint(geometry):
    # a NaN passes every `<=` test, so each check is written to fail on it
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    assert WellGeometry(*geometry).check(spec.wells)


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
