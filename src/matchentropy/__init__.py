"""Entropy-optimal win-probability martingales for matches that may end early.

The package solves the nonlinear entropy PDE of the most-random-match
problem by two independent routes (backward HJB finite differences with
policy iteration, and a forward logarithmic diffusion plus an integral
representation), propagates the resulting match densities with absorbing
boundaries, and validates everything with Monte Carlo simulation and an
invariant suite.
"""

__version__ = "0.1.0"

from .checks import (CheckReport, CheckResult, check_solution_properties, cross_solver_gap,
                     decay_rate_check, hjb_horizon_solver, merge_reports)
from .density import (DensitySurface, VolatilityModel, benchmark_entropy,
                      solve_forward_density, survival_probability, terminal_atoms)
from .errors import ConvergenceError, MatchEntropyError, NumericalError, ValidationError
from .grid import (Grid, PField, ValueSurface, field_from_csv, field_to_csv,
                   make_grid, stationary_entropy)
from .hjb import (ControlField, SchemeConfig, hamiltonian_capped, optimal_control_field,
                  solve_hjb, solve_hjb_with_iterations)
from .logdiff import LadderConfig, entropy_from_p, solve_log_diffusion
from .montecarlo import PathStats, SimConfig, quadratic_variation_check, simulate_paths

__all__ = [
    "__version__",
    "ConvergenceError", "MatchEntropyError", "NumericalError", "ValidationError",
    "Grid", "PField", "ValueSurface", "make_grid", "stationary_entropy",
    "field_to_csv", "field_from_csv",
    "SchemeConfig", "ControlField", "hamiltonian_capped", "solve_hjb",
    "solve_hjb_with_iterations", "optimal_control_field",
    "LadderConfig", "solve_log_diffusion", "entropy_from_p",
    "DensitySurface", "VolatilityModel", "benchmark_entropy",
    "solve_forward_density", "survival_probability", "terminal_atoms",
    "SimConfig", "PathStats", "simulate_paths",
    "quadratic_variation_check",
    "CheckReport", "CheckResult", "check_solution_properties", "cross_solver_gap",
    "decay_rate_check", "hjb_horizon_solver", "merge_reports",
]
