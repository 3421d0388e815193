"""Kolmogorov-forward propagation of the match density under a feedback volatility.

The density q solves dq/dt = 0.5 * d2(sigma^2 q)/dx2 from a discrete Dirac
start, implicitly in time with sigma^2 evaluated at nodes.  Interior mass
plus the accumulated boundary absorption telescopes to the initial mass
exactly, which makes the discrete mass ledger an identity rather than an
approximation.

Two volatility models are supported: the early-termination model reads
sigma^2 from a solved control field and absorbs at the boundaries; the
full-length benchmark sigma(t,x) = sin(pi x)/(pi sqrt(T-t)) cannot reach
the boundary before T, so its boundary coupling is reflecting and the
absorbed-mass ledger stays at zero until the final time, where the two
atoms are read from the penultimate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import (Grid, _check_positive, _fill_step_matrix, _frozen_array, _row_blocks,
                   trapezoid_panels)
from .hjb import ControlField
from .tridiag import solve_tridiagonal

EARLY_TERMINATION = "early_termination"
FULL_LENGTH = "full_length"


@dataclass(frozen=True)
class VolatilityModel:
    """Either a solved control field or the closed-form full-length benchmark."""

    kind: str
    T: float
    control: ControlField | None = None

    def __post_init__(self):
        if self.kind not in (EARLY_TERMINATION, FULL_LENGTH):
            raise ValidationError(f"unknown volatility model kind {self.kind!r}")
        _check_positive(self.T, "horizon T")
        if self.kind == EARLY_TERMINATION and (self.control is None
                                               or self.control.grid.T != self.T):
            raise ValidationError(
                f"early_termination model requires a ControlField with horizon T={self.T!r}")

    @classmethod
    def early_termination(cls, control: ControlField) -> "VolatilityModel":
        return cls(kind=EARLY_TERMINATION, T=control.grid.T, control=control)

    @classmethod
    def full_length(cls, T: float) -> "VolatilityModel":
        return cls(kind=FULL_LENGTH, T=T)


@dataclass(frozen=True)
class DensitySurface:
    """Sub-probability density rows plus the cumulative boundary absorption.

    `interior_mass`, not an argument, holds each row's trapezoidal integral
    as the mass-ledger check computes it, a row block at a time (read-only).
    The rows adopt the solver's read-only array, as ValueSurface does."""

    grid: Grid
    values: np.ndarray
    absorbed_mass_left: np.ndarray
    absorbed_mass_right: np.ndarray
    interior_mass: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.grid
        vals = _frozen_array(self.values, (g.M + 1, g.N + 1))
        left = _frozen_array(self.absorbed_mass_left, (g.M + 1,))
        right = _frozen_array(self.absorbed_mass_right, (g.M + 1,))
        if np.min(vals) < -1e-12:
            raise ValidationError("density has negative entries beyond tolerance")
        interior = np.empty(g.M + 1)
        for rows in _row_blocks(vals.shape):
            interior[rows] = np.sum(trapezoid_panels(vals[rows], g.h), axis=1)
        ledger = interior + left + right
        if np.max(np.abs(ledger - 1.0)) > 1e-6:
            m = int(np.argmax(np.abs(ledger - 1.0)))
            raise ValidationError(f"mass ledger violated at time level {m}: "
                                  f"interior+absorbed = {float(ledger[m])!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "absorbed_mass_left", left)
        object.__setattr__(self, "absorbed_mass_right", right)
        interior.setflags(write=False)
        object.__setattr__(self, "interior_mass", interior)


def _sin_squared(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sin(pi x)^2, the numerator of `_full_length_variance`, written into `out`."""
    np.multiply(x, math.pi, out=out)
    np.sin(out, out=out)
    return np.square(out, out=out)


def _full_length_variance(t: float, numerator: np.ndarray, T: float, out: np.ndarray):
    """Squared full-length benchmark volatility sin(pi x)^2 / (pi^2 (T - t)) from its
    `_sin_squared` numerator, written into `out` (which may be the numerator); for x
    in [0, 1] and 0 <= t < T, which are not checked.  The two run the operations of
    np.sin(math.pi * x) ** 2 / (math.pi ** 2 * (T - t)) in that order: the same bits."""
    return np.divide(numerator, math.pi ** 2 * (T - t), out=out)


def benchmark_entropy(t: float, x: float, T: float) -> float:
    """Entropy of the full-length benchmark; explodes at x in {0, 1} for t < T."""
    if t < 0.0 or t > T:
        raise ValidationError(f"t must lie in [0, T], got t={t!r}")
    if t == T:
        return 0.0
    if not 0.0 < x < 1.0:
        raise ValidationError(
            f"the benchmark entropy diverges at x in {{0, 1}} for t < T (got x={x!r})")
    return (T - t) * (math.log(math.sin(math.pi * x) / (math.pi * math.sqrt(T - t))) + 0.5)


def _start_node(grid: Grid, x0: float) -> int:
    """The node of a density's start x0, which must be an interior grid node:
    Grid.space_index rejects a point outside [0, 1] (NaN included) or between
    nodes, rather than move it, and the boundary check below it rejects a
    point within 1e-9 h of 0 or 1."""
    j0 = grid.space_index(x0)
    if j0 <= 0 or j0 >= grid.N:
        raise ValidationError(f"x0={x0!r} lies on a boundary node at this resolution")
    return j0


def solve_forward_density(model: VolatilityModel, grid: Grid, x0: float) -> DensitySurface:
    """Propagate a discrete Dirac at x0, an interior grid node (see `_start_node`),
    through the implicit conservative scheme."""
    if model.kind == EARLY_TERMINATION and model.control.grid != grid:
        raise ValidationError("control field and density grid do not match")
    if model.kind == FULL_LENGTH and model.T != grid.T:
        raise ValidationError(f"full_length model horizon T={model.T!r} and density grid "
                              f"horizon {grid.T!r} do not match")
    j0 = _start_node(grid, x0)

    N, M, h, k = grid.N, grid.M, grid.h, grid.k
    b = k / (2.0 * h * h)
    bh = b * h
    reflecting = model.kind == FULL_LENGTH

    q = np.zeros((M + 1, N + 1))
    q[0, j0] = 1.0 / h
    left = np.zeros(M + 1)
    right = np.zeros(M + 1)
    diag, off = np.empty((2, N - 1))
    sub, sup = off[:-1], off[1:]  # the transpose of the HJB step

    if reflecting:  # the numerator once per march, each row's sigma^2 into one buffer
        sin_squared, s = _sin_squared(grid.x_nodes(), np.empty(N + 1)), np.empty(N + 1)
    for m in range(M):
        if reflecting:  # the row at t = T is capped at t = T - k: singular at T
            _full_length_variance(min(m + 1, M - 1) * k, sin_squared, model.T, s)
        else:
            s = model.control.a_star[m + 1]
        _fill_step_matrix(s[1:N], b, diag, off)
        if reflecting:
            # mirror the would-be boundary flux back: no absorption before T
            diag[0] += off[0]
            diag[-1] += off[-1]
        interior = solve_tridiagonal(sub, diag, sup, q[m, 1:N])
        lowest = float(np.min(interior))
        if not lowest > 0.0:
            # only a row with a zero, negative or NaN entry can fail the guard
            # or change under the clip (which also turns -0.0 into 0.0)
            if lowest < -1e-12 * max(1.0, float(np.max(np.abs(interior)))):
                raise NumericalError(
                    f"negative density {lowest:.3e} at time level {m + 1}: "
                    "discretisation lost monotonicity")
            np.clip(interior, 0.0, None, out=interior)
        q[m + 1, 1:N] = interior
        if not reflecting:  # the reflecting ledger stays at its zeros
            left[m + 1] = left[m] + bh * s[1] * interior[0]
            right[m + 1] = right[m] + bh * s[N - 1] * interior[-1]

    q.setflags(write=False)  # the surface adopts it
    return DensitySurface(grid=grid, values=q,
                          absorbed_mass_left=left, absorbed_mass_right=right)


def survival_probability(density: DensitySurface, t: float) -> float:
    """Trapezoidal integral of q(t, .) over (0,1); t must be a grid time level."""
    return float(density.interior_mass[density.grid.time_index(t)])


def terminal_atoms(density: DensitySurface) -> tuple[float, float]:
    """Masses reaching 0 and 1 as t -> T, read from the penultimate level.

    Each atom is the accumulated absorption on its side plus the interior
    mass on that side of 1/2 (an exact-centre node splits evenly).
    """
    g = density.grid
    m = g.M - 1
    row = density.values[m]
    x = g.x_nodes()
    w = np.full(g.N + 1, g.h)
    w[0] = w[-1] = g.h / 2.0
    mass = row * w
    left = float(density.absorbed_mass_left[m] + np.sum(mass[x < 0.5])
                 + 0.5 * np.sum(mass[x == 0.5]))
    right = float(density.absorbed_mass_right[m] + np.sum(mass[x > 0.5])
                  + 0.5 * np.sum(mass[x == 0.5]))
    return left, right
