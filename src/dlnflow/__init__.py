"""Gradient flows of quadratically reparametrized linear regression, their
saddle-to-saddle limit paths, and the complementarity machinery behind them."""

from . import errors
from .dynamics import (
    Trajectory,
    hitting_time,
    hitting_time_on,
    simulate,
)
from .experiments import (
    ComparisonReport,
    HittingTable,
    run_compare,
    run_figure1,
    run_hitting,
)
from .fixed_points import FixedPoint, enumerate_fixed_points, fixed_point
from .lcp import LcpSolution, solve_lcp, solve_qp_nonneg
from .limit_path import (
    LimitPath,
    PathSegment,
    compute_path,
    convergence_time_s_star,
    theta_star_of_s,
)
from .problem import (
    Initialization,
    ProblemInstance,
    RegressionData,
    from_data,
    generate_direct,
    generate_rejection,
    load_instance,
    loss,
    save_instance,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "FixedPoint",
    "HittingTable",
    "Initialization",
    "LcpSolution",
    "LimitPath",
    "PathSegment",
    "ProblemInstance",
    "RegressionData",
    "Trajectory",
    "compute_path",
    "convergence_time_s_star",
    "enumerate_fixed_points",
    "errors",
    "fixed_point",
    "from_data",
    "generate_direct",
    "generate_rejection",
    "hitting_time",
    "hitting_time_on",
    "load_instance",
    "loss",
    "run_compare",
    "run_figure1",
    "run_hitting",
    "save_instance",
    "simulate",
    "solve_lcp",
    "solve_qp_nonneg",
    "theta_star_of_s",
]
