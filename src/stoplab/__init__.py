"""Numerical laboratory for one-dimensional time-inhomogeneous optimal stopping.

Solves the free-boundary/obstacle problem for the value function, extracts
the stopping boundary, couples shared-noise simulations started at different
times, computes filtering-induced drifts from priors, and machine-checks
monotonicity hypotheses and conclusions on solved grids.
"""

from .exprs import parse, eval_expr, free_variables, to_string
from .fields import ScalarField, constant_field, from_callable, from_expression
from .grids import Grid, make_grid
from .problems import (
    Orientation,
    ProblemSpec,
    StateSpace,
    ValidatedProblem,
    flip_orientation,
    reduce_to_running_reward,
    validate_problem,
)
from .filtering import Prior, discrete_prior, density_prior, posterior_drift
from .solver import (
    Boundary,
    ValueSurface,
    build_grid,
    extract_boundary,
    residual_complementarity,
    solve_backward,
    unflip_boundary,
    unflip_surface,
)
from .simulate import (
    CoupledBundle,
    PathBundle,
    Region,
    comparison_report,
    everywhere_region,
    negative_drift_region,
    simulate_coupled,
    simulate_paths,
    value_lsmc,
)
from .reports import CheckReport, FAIL, INCONCLUSIVE, PASS
from .checks import (
    check_boundary_monotone,
    check_drift_curvature_balance,
    check_drift_time_monotone,
    check_reward_monotone_in_state,
    check_running_reward_monotone,
    check_value_continuity,
    check_value_time_monotone,
    classify_regions,
)
from .config import RunConfig, builtin_examples, load_config, save_config
from .pipeline import run_problem, value_at

__version__ = "0.1.0"
