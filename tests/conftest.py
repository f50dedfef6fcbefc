import time

import numpy as np
import pytest

from lognls.energy import EnergyParams
from lognls.grid import build_grid
from lognls.potential import make_multiwell
from lognls.solver import SolverConfig, gausson, minimize_localized, solve_multiplicity
from lognls.verify import weak_residual


def node_list(g):
    """The (num_nodes, dim) coordinates of g's nodes in field order: the
    reference form of the tables that the package builds on the axes."""
    return np.stack(np.meshgrid(*[g.axis] * g.dim, indexing="ij"), axis=-1).reshape(-1, g.dim)


@pytest.fixture(scope="session")
def gausson_run():
    """Constant-coefficient reproduction run: 1d, V = 1, R = 10, h = 0.01."""
    g = build_grid(1, 10.0, 0.01)
    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    params = EnergyParams(eps=1.0, potential=1.0)
    seed = gausson(g, 1.0)
    t0 = time.perf_counter()
    result = minimize_localized(seed, None, 1.0, params, cfg, g)
    elapsed = time.perf_counter() - t0
    weak = weak_residual(result.u, params, g)
    return {"result": result, "weak_res": weak, "elapsed": elapsed, "grid": g,
            "params": params, "config": cfg}


@pytest.fixture(scope="session")
def double_well_run():
    """The desk-scale multiplicity run: wells {0, 2}, V_inf = 2, w = 0.25,
    eps = 0.1, R_schedule (30, 60)."""
    spec = make_multiwell([[0.0], [2.0]], 2.0, 0.25)
    cfg = SolverConfig(h=0.01, R_schedule=(30.0, 60.0))
    t0 = time.perf_counter()
    outcome = solve_multiplicity(0.1, spec, cfg)
    elapsed = time.perf_counter() - t0
    return {"outcome": outcome, "elapsed": elapsed, "spec": spec, "config": cfg}
