"""Multiple positive solutions of the logarithmic Schrodinger equation
-eps^2 Lu + V(x) u = u log u^2 by Nehari-constrained energy minimization,
localized per potential well through a truncated barycenter map and
continued through an increasing sequence of truncation radii."""

from .barycenter import BarycenterParams, Region, q_eps, region_of
from .energy import (
    EnergyBreakdown,
    EnergyParams,
    Evaluation,
    energy,
    evaluate,
    gradient,
    log_sobolev_gap,
    nehari_residual,
    nehari_scale,
)
from .errors import LogNLSError
from .grid import (
    Grid,
    build_grid,
    integrate,
    laplacian_apply,
    load_field,
    save_field,
    zero_extend,
)
from .potential import (
    PotentialSpec,
    ValidationReport,
    WellGeometry,
    default_geometry,
    eval_scaled,
    make_multiwell,
    validate,
)
from .solver import (
    MultiplicityOutcome,
    SolveResult,
    SolveStatus,
    SolverConfig,
    WellFailure,
    continue_in_R,
    gausson,
    ground_level,
    minimize_localized,
    seed_well,
    solve_multiplicity,
)
from .verify import VerificationReport, audit, identity_suite, weak_residual

__version__ = "0.1.0"
