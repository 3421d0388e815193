"""Forward solver for the logarithmic diffusion equation and the entropy rebuild.

The equation 2 dp/dt = d2(log p)/dx2 is stepped fully implicitly with a
damped Newton iteration on the tridiagonal-Jacobian nonlinear system; the
implicit step is unconditionally stable and preserves positivity near the
degenerate initial layer p = 1/n.  The entropy surface is recovered from p
by the double integral

    e(t, x) = -int_0^x int_0^y p(T-t, z) dz dy + x * int_0^1 int_0^y p(T-t, z) dz dy

evaluated with nested cumulative trapezoidal sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .grid import (P_CEILING_TOL, Grid, PField, ValueSurface, second_difference_interior,
                   trapezoid_panels)
from .tridiag import solve_tridiagonal

_POSITIVITY_FLOOR = 1e-30
# stop rule of each time level's Newton iteration, read at call time
NEWTON_TOL = 1e-8
MAX_NEWTON_ITERS = 60


@dataclass(frozen=True)
class LadderConfig:
    """Ladder index n: the initial row is the constant p = 1/n."""

    regularisation_n: int = 1

    def __post_init__(self):
        if self.regularisation_n < 1:
            raise ValidationError("regularisation_n must be a positive integer")


def _newton_step(prev_int: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve 2(p' - p)/k = A log(p') for the interior of one time level,
    starting from the previous level's interior `prev_int`."""
    k, h = grid.k, grid.h
    h2 = h * h
    w = prev_int.copy()
    logp = np.zeros(grid.N + 1)  # boundary p = 1 contributes log 1 = 0
    for it in range(MAX_NEWTON_ITERS + 1):
        np.log(w, out=logp[1:-1])
        F = 2.0 * (w - prev_int) / k - second_difference_interior(logp, h)
        resid = float(np.max(np.abs(F)))
        if resid <= NEWTON_TOL:
            return w
        if it == MAX_NEWTON_ITERS:
            raise ConvergenceError(
                f"Newton iteration did not reach residual {NEWTON_TOL:.1e} within "
                f"{MAX_NEWTON_ITERS} iterations (residual {resid:.3e})")
        h2w = h2 * w
        diag = 2.0 / k + 2.0 / h2w
        sub = -1.0 / h2w[:-1]
        sup = -1.0 / h2w[1:]
        delta = solve_tridiagonal(sub, diag, sup, -F)
        lam = 1.0
        trial = w + lam * delta
        while np.any(trial <= _POSITIVITY_FLOOR):
            lam *= 0.5
            if lam < 1e-16:
                raise ConvergenceError("Newton damping underflow: iterate cannot stay positive")
            trial = w + lam * delta
        w = trial


def solve_log_diffusion(grid: Grid, cfg: LadderConfig) -> PField:
    """March the fully implicit scheme from the constant initial row 1/n."""
    n = cfg.regularisation_n
    values = np.zeros((grid.M + 1, grid.N + 1))
    values[0, :] = 1.0 / n
    values[1:, [0, -1]] = 1.0
    for m in range(grid.M):
        values[m + 1, 1:-1] = _newton_step(values[m, 1:-1], grid)
    # round-off can push the implicit solution a hair above the invariant p <= 1;
    # clip only that far, so a real excess reaches the caller as an error
    peak = float(np.max(values))
    if peak > 1.0 + P_CEILING_TOL:
        raise NumericalError(f"p reached {peak!r}, above 1 beyond solver tolerance")
    np.clip(values, None, 1.0, out=values)
    return PField(grid=grid, values=values)


def entropy_surface_from_p_values(p_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Entropy rows from raw p rows via nested cumulative trapezoidal sums."""
    inner = np.zeros(np.shape(p_values))  # column 0 is each running integral's start, 0
    np.cumsum(trapezoid_panels(p_values, grid.h), axis=1, out=inner[:, 1:])
    outer = np.zeros_like(inner)
    np.cumsum(trapezoid_panels(inner, grid.h), axis=1, out=outer[:, 1:])
    e = grid.x_nodes() * outer[:, -1:]
    e -= outer  # in place: the same bits as -outer + x*outer[:, -1:], one temporary fewer
    e[:, 0] = 0.0
    e[:, -1] = 0.0
    return e[::-1]  # e row m reads p at time T - m*k


def entropy_from_p(p: PField) -> ValueSurface:
    """Rebuild the entropy surface from a solved p field (lateral boundaries exact 0)."""
    return ValueSurface(grid=p.grid, values=entropy_surface_from_p_values(p.values, p.grid))
