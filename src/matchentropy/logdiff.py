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

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ConvergenceError, NumericalError, ValidationError
from .grid import P_CEILING_TOL, Grid, PField, ValueSurface, second_difference_interior
from .tridiag import solve_tridiagonal

_POSITIVITY_FLOOR = 1e-30


@dataclass(frozen=True)
class LadderConfig:
    """Ladder index n (initial row p = 1/n) and the Newton stop rule."""

    regularisation_n: int = 1
    newton_tol: float = 1e-8
    max_newton_iters: int = 60

    def __post_init__(self):
        if self.regularisation_n < 1:
            raise ValidationError("regularisation_n must be a positive integer")
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise ValidationError(
                f"newton_tol must be positive and finite, got {self.newton_tol!r}")
        if self.max_newton_iters < 1:
            raise ValidationError("max_newton_iters must be >= 1")


def _newton_step(prev_int: np.ndarray, guess_int: np.ndarray, grid: Grid,
                 cfg: LadderConfig) -> np.ndarray:
    """Solve 2(p' - p)/k = A log(p') for the interior of one time level."""
    k, h = grid.k, grid.h
    h2 = h * h
    w = guess_int.copy()

    def residual(w_int: np.ndarray) -> np.ndarray:
        logp = np.zeros(grid.N + 1)  # boundary p = 1 contributes log 1 = 0
        logp[1:-1] = np.log(w_int)
        return 2.0 * (w_int - prev_int) / k - second_difference_interior(logp, h)

    F = residual(w)
    for _ in range(cfg.max_newton_iters):
        if float(np.max(np.abs(F))) <= cfg.newton_tol:
            return w
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
        F = residual(w)
    if float(np.max(np.abs(F))) <= cfg.newton_tol:
        return w
    raise ConvergenceError(
        f"Newton iteration did not reach residual {cfg.newton_tol:.1e} within "
        f"{cfg.max_newton_iters} iterations (residual {float(np.max(np.abs(F))):.3e})")


def solve_log_diffusion(grid: Grid, cfg: LadderConfig) -> PField:
    """March the fully implicit scheme from the constant initial row 1/n."""
    n = cfg.regularisation_n
    values = np.zeros((grid.M + 1, grid.N + 1))
    values[0, :] = 1.0 / n
    for m in range(grid.M):
        guess = values[m, 1:-1].copy() if m > 0 else np.full(grid.N - 1, 1.0 / n)
        interior = _newton_step(values[m, 1:-1], guess, grid, cfg)
        values[m + 1, 1:-1] = interior
        values[m + 1, 0] = 1.0
        values[m + 1, -1] = 1.0
    # round-off can push the implicit solution a hair above the invariant p <= 1;
    # clip only that far, so a real excess reaches the caller as an error
    peak = float(np.max(values))
    if peak > 1.0 + P_CEILING_TOL:
        raise NumericalError(f"p reached {peak!r}, above 1 beyond solver tolerance")
    np.clip(values, None, 1.0, out=values)
    return PField(grid=grid, values=values, regularisation_n=n)


def entropy_surface_from_p_values(p_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Entropy rows from raw p rows via nested cumulative trapezoidal sums."""
    h = grid.h
    x = grid.x_nodes()
    inner = cumulative_trapezoid(p_values, dx=h, axis=1, initial=0.0)
    outer = cumulative_trapezoid(inner, dx=h, axis=1, initial=0.0)
    e = x * outer[:, -1:]
    e -= outer  # in place: the same bits as -outer + x*outer[:, -1:], one temporary fewer
    e[:, 0] = 0.0
    e[:, -1] = 0.0
    return e[::-1]  # e row m reads p at time T - m*k


def entropy_from_p(p: PField) -> ValueSurface:
    """Rebuild the entropy surface from a solved p field (lateral boundaries exact 0)."""
    return ValueSurface(grid=p.grid, values=entropy_surface_from_p_values(p.values, p.grid))
