"""Upper-tail rates, Fredholm determinants and simulation for Brownian
motions with one-sided collisions."""

from .errors import NumericFailure, SingularityError
from .lambertw import lambert_w, phi, phi_prime
from .rates import (
    SaddleDiagnostics,
    phase_flat,
    phase_packed,
    rate_asymptote,
    rate_flat,
    rate_packed,
    rate_stat,
    saddle_packed,
    solve_za,
)
from .contours import (
    ContourPath,
    build_flat_contour,
    build_packed_contours,
    steep_descent_report,
)
from .kernels import (
    KernelEval,
    khat_packed,
    klimit,
    stat_components,
)
from .fredholm import (
    ProbResult,
    build_grid,
    prob_finite_n,
    prob_flat,
    prob_packed,
    prob_stat,
    prob_stat_rho,
    tail_rate_table,
)
from .sim import (
    SampleBatch,
    SimConfig,
    gue_top_sample,
    simulate_samples,
    stationary_gap_check,
    tail_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ContourPath",
    "KernelEval",
    "NumericFailure",
    "ProbResult",
    "SaddleDiagnostics",
    "SampleBatch",
    "SimConfig",
    "SingularityError",
    "build_flat_contour",
    "build_grid",
    "build_packed_contours",
    "gue_top_sample",
    "khat_packed",
    "klimit",
    "lambert_w",
    "phase_flat",
    "phase_packed",
    "phi",
    "phi_prime",
    "prob_finite_n",
    "prob_flat",
    "prob_packed",
    "prob_stat",
    "prob_stat_rho",
    "rate_asymptote",
    "rate_flat",
    "rate_packed",
    "rate_stat",
    "saddle_packed",
    "simulate_samples",
    "solve_za",
    "stat_components",
    "stationary_gap_check",
    "steep_descent_report",
    "tail_estimate",
    "tail_rate_table",
]
