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
from .grid import (P_CEILING_TOL, Grid, PField, ValueSurface, _row_blocks,
                   second_difference_interior, trapezoid_panels)
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


def _newton_step(prev_int: np.ndarray, grid: Grid, work: np.ndarray, tol: float) -> np.ndarray:
    """Solve 2(p' - p)/k = A log(p') for the interior of one time level to the
    residual `tol`, starting from the previous level's interior `prev_int`.

    `work` is a zeroed (7, N + 1) array the march allocates once: row 0
    holds log p between its boundary zeros, the other rows' interiors are
    scratch, and the returned iterate is one of them.  -F = A log w -
    2(w - p)/k, the Jacobian (one -1/(h^2 w) row for both off-diagonals)
    and the trial w + lam*delta keep the bits of the plain expressions (-F
    up to the sign of a zero, which leaves the iterate's bits alone)."""
    k, h = grid.k, grid.h
    h2, two_over_k = h * h, 2.0 / k
    logp = work[0]
    w, trial, neg_f, tmp, off, diag = (row[1:-1] for row in work[1:])
    np.copyto(w, prev_int)
    for it in range(MAX_NEWTON_ITERS + 1):
        np.log(w, out=logp[1:-1])
        np.subtract(w, prev_int, out=neg_f)
        neg_f *= 2.0
        neg_f /= k
        np.subtract(second_difference_interior(logp, h, out=tmp), neg_f, out=neg_f)
        resid = float(np.abs(neg_f, out=tmp).max())
        if resid <= tol:
            return w
        if it == MAX_NEWTON_ITERS:
            raise ConvergenceError(
                f"Newton iteration did not reach residual {tol:.1e} = max(NEWTON_TOL, 4 eps "
                f"log(n) / h^2) within {MAX_NEWTON_ITERS} iterations (residual {resid:.3e})")
        h2w = np.multiply(w, h2, out=tmp)
        np.divide(2.0, h2w, out=diag)
        diag += two_over_k
        np.divide(-1.0, h2w, out=off)
        delta = solve_tridiagonal(off[:-1], diag, off[1:], neg_f)
        np.add(w, delta, out=trial)
        lam = 1.0
        while (trial <= _POSITIVITY_FLOOR).any():
            lam *= 0.5
            if lam < 1e-16:
                raise ConvergenceError("Newton damping underflow: iterate cannot stay positive")
            np.add(w, np.multiply(delta, lam, out=trial), out=trial)
        w, trial = trial, w


def solve_log_diffusion(grid: Grid, cfg: LadderConfig) -> PField:
    """March the fully implicit scheme from the constant initial row 1/n."""
    n = cfg.regularisation_n
    # NEWTON_TOL, or the round-off of A log p if larger: weights 4/h^2 on |log p| <= log n
    tol = max(NEWTON_TOL, 4.0 * np.finfo(float).eps * np.log(n) / (grid.h * grid.h))
    values = np.zeros((grid.M + 1, grid.N + 1))
    values[0, :] = 1.0 / n
    values[1:, [0, -1]] = 1.0
    work = np.zeros((7, grid.N + 1))
    for m in range(grid.M):
        values[m + 1, 1:-1] = _newton_step(values[m, 1:-1], grid, work, tol)
    # round-off can push the implicit solution a hair above the invariant p <= 1;
    # clip only that far, so a real excess reaches the caller as an error
    peak = float(np.max(values))
    if peak > 1.0 + P_CEILING_TOL:
        raise NumericalError(f"p reached {peak!r}, above 1 beyond solver tolerance")
    np.clip(values, None, 1.0, out=values)
    values.setflags(write=False)  # the field adopts it
    return PField(grid=grid, values=values)


def _entropy_rows(p_rows: np.ndarray, h: float, x: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The entropy rows that read the rows `p_rows` of p on the nodes `x` (step
    h), each by the double integral above, written into `out` when given.  A
    row depends on its p row alone, so any block of rows has the bits those
    rows have in the whole surface."""
    out = np.empty(p_rows.shape) if out is None else out
    out[:, 0] = 0.0  # each running integral's start
    panels = trapezoid_panels(p_rows, h)
    np.cumsum(panels, axis=1, out=out[:, 1:])
    # the panels are their own array, so the outer integral can overwrite the inner one
    np.cumsum(trapezoid_panels(out, h, out=panels), axis=1, out=out[:, 1:])
    # e = x * outer[:, -1:] - outer: the bits of -outer + x * outer[:, -1:]
    np.subtract(x * out[:, -1:], out, out=out)
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def entropy_from_p(p: PField) -> ValueSurface:
    """Rebuild the entropy surface from a solved p field via nested cumulative
    trapezoidal sums (lateral boundaries exact 0); row m reads p at time T - m*k.

    The rows are independent, so they are built in place in the surface's one
    array, a row block at a time (`_row_blocks`, `_entropy_rows`)."""
    grid = p.grid
    x = grid.x_nodes()
    backward = p.values[::-1]
    e = np.empty(p.values.shape)
    for rows in _row_blocks(e.shape):
        _entropy_rows(backward[rows], grid.h, x, out=e[rows])
    e.setflags(write=False)  # the surface adopts it
    return ValueSurface(grid=grid, values=e)
