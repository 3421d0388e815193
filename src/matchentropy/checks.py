"""Machine-readable verification of the qualitative solution properties.

Aggregates the bound/monotonicity/symmetry/concavity checks on a solved
value surface, the sup-norm gap between the two solver routes, and the
exponential decay envelope toward the stationary profile x(1-x)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError
from .grid import (ValueSurface, _row_blocks, _step_count, make_grid,
                   second_difference_interior, stationary_entropy)
from .hjb import SchemeConfig, solve_hjb


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    location: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst),
            "tolerance": float(self.tolerance),
            "location": list(self.location) if self.location is not None else None,
        }


@dataclass(frozen=True)
class CheckReport:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> dict:
        return {
            "total": len(self.results),
            "passed": sum(r.passed for r in self.results),
            "failed": sum(not r.passed for r in self.results),
        }

    def as_dict(self) -> dict:
        return {"checks": [r.as_dict() for r in self.results], "summary": self.summary()}

    def format_table(self) -> str:
        width = max((len(r.name) for r in self.results), default=4)
        lines = [f"{'check'.ljust(width)}  status  worst violation  tolerance"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            loc = f"  at {r.location}" if (not r.passed and r.location) else ""
            lines.append(
                f"{r.name.ljust(width)}  {status}    {r.worst:<15.3e}  {r.tolerance:.1e}{loc}")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines)


def merge_reports(*reports: CheckReport) -> CheckReport:
    results = []
    for rep in reports:
        results.extend(rep.results)
    return CheckReport(results=tuple(results))


def _result(name: str, violation: np.ndarray, tol: float) -> CheckResult:
    worst = float(np.max(violation))
    loc = tuple(int(v) for v in np.unravel_index(int(np.argmax(violation)), violation.shape))
    return CheckResult(name=name, passed=worst <= tol, worst=worst, tolerance=tol,
                       location=loc)


def _abs_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| in one new array."""
    diff = np.subtract(a, b)
    return np.abs(diff, out=diff)


def check_solution_properties(surface: ValueSurface) -> CheckReport:
    """Bounds, backward time-monotonicity, symmetry and concavity of a surface."""
    v = surface.values
    g = surface.grid
    e_inf = stationary_entropy(g.x_nodes())
    results = [
        _result("lower_bound_zero", -v, 1e-10),
        _result("upper_bound_stationary", v - e_inf[np.newaxis, :], 1e-10),
        _result("time_monotonicity", v[1:] - v[:-1], 1e-10),
        _result("symmetry", _abs_difference(v, v[:, ::-1]), 1e-9),
        _result("concavity", second_difference_interior(v, g.h), 1e-8),
    ]
    return CheckReport(results=tuple(results))


def cross_solver_gap(hjb: ValueSurface, represented: ValueSurface) -> float:
    """Sup-norm gap between the backward solve and the rebuilt entropy surface,
    taken a row block at a time."""
    if hjb.grid != represented.grid:
        raise ValidationError("cross-solver comparison requires identical grids")
    return max(float(_abs_difference(hjb.values[rows], represented.values[rows]).max())
               for rows in _row_blocks(hjb.values.shape))


def cross_solver_check(hjb: ValueSurface, represented: ValueSurface, n: int) -> CheckReport:
    """`check`'s pass rule for `cross_solver_gap` at ladder index n: at most 5 (k + h^2)."""
    g = hjb.grid
    gap, tol = cross_solver_gap(hjb, represented), 5.0 * (g.k + g.h ** 2)
    return CheckReport(results=(CheckResult(f"cross_solver_gap_n={n}", gap <= tol, gap, tol),))


def decay_envelope(x, T: float) -> np.ndarray:
    """Envelope x(1-x) exp(-(alpha-1) T / (pi alpha^2)) for the distance to x(1-x)/2,
    at alpha = 2: every larger even alpha gives a weaker bound that this one implies."""
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x) * math.exp(-T / (4.0 * math.pi))


def hjb_horizon_solver(N: int = 100, k: float = 5e-3,
                       cap_d: float = 1e6) -> Callable[[float], ValueSurface]:
    """Factory producing horizon -> surface solves at a fixed step pair (k, h).

    Each horizon must be a whole number of steps k (`grid._step_count`).
    """

    def solve(T: float) -> ValueSurface:
        return solve_hjb(make_grid(N, _step_count(T, k, name="k"), T), SchemeConfig(cap_d=cap_d))

    return solve


def decay_rate_check(solver: Callable[[float], ValueSurface],
                     T_values: Iterable[float]) -> CheckReport:
    """Verify the decay envelope nodewise at t = 0 for each horizon.

    The envelope is checked with discretisation slack 10*(k + h^2) added,
    and the measured sup-norm distances must be non-increasing in T.

    `solver` is called once, with the longest horizon.  The implicit sweep
    is autonomous (each step depends only on the next row, k and h), so
    the t = 0 row of the horizon-T surface is row M - T/k of that one
    surface: every horizon must be a whole number of its steps (`grid._step_count`).
    """
    horizons = [float(T) for T in T_values]
    if not horizons:
        raise ValidationError("decay_rate_check needs at least one horizon")
    surface = solver(max(horizons))
    g = surface.grid
    x = g.x_nodes()
    e_inf = stationary_entropy(x)
    slack = 10.0 * (g.k + g.h * g.h)
    results = []
    distances = []
    for T in horizons:
        steps = _step_count(T, g.k, name="k")
        if steps > g.M:  # the solver returned a surface shorter than the longest horizon
            raise ValidationError(f"horizon {T!r} is longer than the solved surface's {g.T!r}")
        dist = np.abs(surface.values[g.M - steps] - e_inf)
        excess = dist - (decay_envelope(x, T) + slack)
        # one row at t = 0, so the location is [0, j]
        results.append(_result(f"decay_bound_T={T:g}", excess[np.newaxis], 0.0))
        distances.append(float(np.max(dist)))
    drift = max((b - a for a, b in zip(distances, distances[1:])), default=0.0)
    results.append(CheckResult(name="decay_distance_monotone", passed=drift <= 1e-12,
                               worst=drift, tolerance=1e-12, location=None))
    return CheckReport(results=tuple(results))
