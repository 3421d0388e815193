"""Backward finite-difference solvers for the capped-control entropy equation.

The equation solved is, in minimisation form,

    2 de/dt = inf_{a in [1/e, d]} { -a * d2e/dx2 - log(a) - 1 },

with zero terminal and lateral boundary data (optionally terminal data
x(1-x)/(2n) for ladder index n).  Two schemes are provided: an explicit
scheme subject to the stability bound k*d/h^2 <= 1, and an unconditionally
stable implicit scheme solved by policy iteration, each step being one
tridiagonal elimination per policy update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .grid import (Grid, ValueSurface, _check_integer, _check_positive, _fill_step_matrix,
                   _frozen_array, second_difference_interior, stationary_entropy)
from .tridiag import solve_tridiagonal

CONTROL_FLOOR = 1.0 / math.e
# stop rule of the implicit step's policy iteration, read at call time
POLICY_TOL = 1e-12
MAX_POLICY_ITERS = 50

_SCHEMES = ("explicit", "implicit")


@dataclass(frozen=True)
class SchemeConfig:
    """Solver parameters: control cap d, scheme choice, regularised terminal row."""

    cap_d: float = 1e6
    scheme: str = "implicit"
    terminal_regularisation_n: int | None = None

    def __post_init__(self):
        if _check_positive(self.cap_d, "cap_d") < CONTROL_FLOOR:
            raise ValidationError(
                f"cap_d must be >= 1/e ({CONTROL_FLOOR:.6f}), got {self.cap_d!r}")
        if self.scheme not in _SCHEMES:
            raise ValidationError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.terminal_regularisation_n is not None:  # the ladder index, as LadderConfig's
            _check_integer(self.terminal_regularisation_n, "terminal_regularisation_n", 1, 2**53)


@dataclass(frozen=True)
class ControlField:
    """Optimal diffusion coefficient a*(t, x); the volatility sigma* = sqrt(a*).
    Adopts the read-only array optimal_control_field fills, as ValueSurface does."""

    grid: Grid
    a_star: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.a_star, (self.grid.M + 1, self.grid.N + 1))
        if np.any(a < CONTROL_FLOOR - 1e-12):
            raise ValidationError("a_star drops below the control floor 1/e")
        object.__setattr__(self, "a_star", a)

    @property
    def sigma_star(self) -> np.ndarray:
        return np.sqrt(self.a_star)


def capped_control(q, cap_d: float, out: np.ndarray | None = None) -> np.ndarray:
    """Minimiser of -a*q - log(a) - 1 over a in [1/e, cap_d], elementwise over q.

    For q < 0 it is the clamp of -1/q to the control interval; for q >= 0
    (including zero, where -1/q is read as a limit) the objective decreases
    in a, so the cap is the minimiser.  Written into `out` when given.

    Evaluated as clamp(-1/fmin(q, thr)), with thr < 0 the threshold above
    which every q (and NaN, which fmin drops) has the cap as its result:
    thr starts at -1/cap_d and moves toward 0 until -1/thr >= cap_d.  Since
    -1/q rounds monotonically, this equals the clamp of -1/q where q < 0 and
    the cap elsewhere, bit for bit.
    """
    q = np.asarray(q, dtype=float)
    if out is None:
        out = np.empty_like(q)
    thr = min(-1.0 / cap_d, -math.ulp(0.0))  # not -0.0 for an infinite cap
    while -1.0 / thr < cap_d:
        thr = math.nextafter(thr, 0.0)
    np.fmin(q, thr, out=out)
    if -1.0 / thr < math.inf:
        np.divide(-1.0, out, out=out)
    else:  # a cap above every finite -1/q is met only where -1/q overflows to inf
        with np.errstate(over="ignore"):
            np.divide(-1.0, out, out=out)
    np.maximum(out, CONTROL_FLOOR, out=out)
    np.minimum(out, cap_d, out=out)
    return out


def _hamiltonian_values(q, a, log_a, out: np.ndarray) -> np.ndarray:
    """-a*q - log_a - 1.0 written into `out`, in that order of operations."""
    np.negative(a, out=out)
    out *= q
    out -= log_a
    out -= 1.0
    return out


def _explicit_sweep(values: np.ndarray, grid: Grid, cap_d: float) -> np.ndarray:
    """Fill the rows of `values` backwards from its last row by the explicit
    scheme (stable for k*cap_d/h^2 <= 1); returns the iteration count of each
    filled row, zero for this scheme.  Lateral entries stay 0.  Each step is
    v[1:-1] - (k/2) H(A v) evaluated in work rows allocated once."""
    h, half_k = grid.h, 0.5 * grid.k
    q, a, log_a, step = np.empty((4, values.shape[1] - 2))
    for m in range(len(values) - 1, 0, -1):
        capped_control(second_difference_interior(values[m], h, out=q), cap_d, out=a)
        np.log(a, out=log_a)
        _hamiltonian_values(q, a, log_a, out=step)
        step *= half_k
        np.subtract(values[m, 1:-1], step, out=values[m - 1, 1:-1])
    return np.zeros(len(values) - 1, dtype=int)


def _implicit_sweep(values: np.ndarray, grid: Grid, cap_d: float) -> np.ndarray:
    """Fill the rows of `values` backwards from its last row by policy iteration;
    returns the iteration count of each filled row.

    Each level starts from the level above (warm start) and alternates the
    closed-form control update with one tridiagonal elimination until both
    the iterate change and the scaled nonlinear residual fall below
    POLICY_TOL, within MAX_POLICY_ITERS updates.  The residual is evaluated
    only once the iterate change is within tolerance.  It is scaled
    componentwise by the magnitude of the terms entering it, since the raw
    residual of the stiff system has a floating-point floor proportional to
    k*cap_d/h^2.

    The control of a converged iterate is the next level's first control, so
    it is computed once per iteration plus once for the last row, together
    with the step coefficients lin = (log a + 1) k/2 and the step matrix's
    diag and off (`_fill_step_matrix`) that the right-hand side v + lin, the
    solve and the residual read.  Iterates are written straight into their row,
    whose lateral entries stay 0, and every other array is a work buffer
    filled in place in the order of operations of the plain expressions,
    which keeps their bits.
    """
    k, h = grid.k, grid.h
    c, half_k = k / (2.0 * h * h), 0.5 * k
    n = values.shape[1] - 2
    q, a, log_a, lin, diag, off, rhs, change = np.empty((8, n))
    sub, sup = off[1:], off[:-1]
    residual_work = (*np.empty((3, n)), np.empty(n + 2))
    iters = np.zeros(len(values) - 1, dtype=int)

    def update_policy(u):
        capped_control(second_difference_interior(u, h, out=q), cap_d, out=a)
        np.log(a, out=log_a)
        np.multiply(np.add(log_a, 1.0, out=lin), half_k, out=lin)
        _fill_step_matrix(a, c, diag, off)

    update_policy(values[-1])
    for m in range(len(values) - 1, 0, -1):
        v_int, u, u_int = values[m, 1:-1], values[m - 1], values[m - 1, 1:-1]
        previous = v_int
        for it in range(1, MAX_POLICY_ITERS + 1):
            np.add(lin, v_int, out=rhs)
            x = solve_tridiagonal(sub, diag, sup, rhs)
            np.subtract(x, previous, out=change)
            delta = float(np.abs(change, out=change).max())
            u_int[...] = x
            previous = u_int
            update_policy(u)
            if delta <= POLICY_TOL and _scaled_residual(
                    u, v_int, q, a, log_a, lin, off, half_k, residual_work) <= POLICY_TOL:
                iters[m - 1] = it
                break
        else:
            resid = _scaled_residual(u, v_int, q, a, log_a, lin, off, half_k, residual_work)
            raise ConvergenceError(
                f"policy iteration did not converge in {MAX_POLICY_ITERS} iterations "
                f"(last change {delta:.3e}, scaled residual {resid:.3e})")
    return iters


def _scaled_residual(u, v_int, q, a, log_a, lin, off, half_k, work_arrays) -> float:
    """max |u + (k/2) H(q, a) - v| / scale at the interior nodes, in place in
    `work_arrays` (three interior rows and one full row); the same bits as
    the plain expressions, with hvals = -a*q - log_a - 1.0:
    |u[1:-1] + half_k*hvals - v_int| / (1.0 + c*a*(|u[2:]| + 2.0*|u[1:-1]|
    + |u[:-2]|) + half_k*|log_a + 1.0| + |v_int|).  The scale reads the step
    coefficients lin = (log_a + 1.0)*half_k and off = -c*a, which give its
    terms exactly: |lin| is half_k*|log_a + 1.0| and 1.0 - S*off is
    1.0 + S*(c*a)."""
    resid, scale, work, abs_u = work_arrays
    _hamiltonian_values(q, a, log_a, out=resid)
    resid *= half_k
    resid += u[1:-1]
    resid -= v_int
    np.abs(resid, out=resid)
    np.abs(u, out=abs_u)
    np.multiply(abs_u[1:-1], 2.0, out=scale)
    scale += abs_u[2:]
    scale += abs_u[:-2]
    scale *= off
    np.subtract(1.0, scale, out=scale)
    scale += np.abs(lin, out=work)
    scale += np.abs(v_int, out=work)
    resid /= scale
    return float(resid.max())


def _check_cfl(grid: Grid, cfg: SchemeConfig) -> None:
    """Reject a CFL number k*cap_d/h^2 that overflows, or that exceeds 1 for the
    explicit scheme: an input error, raised before any step or worker starts."""
    cfl = grid.k * cfg.cap_d / (grid.h * grid.h)
    if not math.isfinite(cfl):
        raise ValidationError(f"k*cap_d/h^2 overflows for k = {grid.k:.6g}, "
                              f"cap_d = {cfg.cap_d:.6g}, h = {grid.h:.6g}")
    if cfg.scheme == "explicit" and cfl > 1.0 + 1e-12:
        raise ValidationError(
            f"explicit scheme unstable: k*cap_d/h^2 = {grid.k:.6g}*{cfg.cap_d:.6g}"
            f"/{grid.h:.6g}^2 = {cfl:.6g} exceeds 1")


def solve_hjb_with_iterations(grid: Grid, cfg: SchemeConfig) -> tuple[ValueSurface, np.ndarray]:
    """Full backward sweep; also returns policy-iteration counts per step.

    For the explicit scheme the counts are zeros.  The CFL number
    k*cap_d/h^2 is checked once, before the first step (see `_check_cfl`).
    """
    _check_cfl(grid, cfg)
    values = np.zeros((grid.M + 1, grid.N + 1))
    if cfg.terminal_regularisation_n is not None:
        values[grid.M] = stationary_entropy(grid.x_nodes()) / cfg.terminal_regularisation_n
    sweep = _explicit_sweep if cfg.scheme == "explicit" else _implicit_sweep
    iters = sweep(values, grid, cfg.cap_d)
    values.setflags(write=False)  # the surface adopts it
    return ValueSurface(grid=grid, values=values), iters


def solve_hjb(grid: Grid, cfg: SchemeConfig) -> ValueSurface:
    surface, _ = solve_hjb_with_iterations(grid, cfg)
    return surface


def optimal_control_field(surface: ValueSurface, cfg: SchemeConfig) -> ControlField:
    """Extract a*(t,x) = clamp(-1/(A e)_n, 1/e, cap_d) and sigma* = sqrt(a*).

    Lateral boundary nodes carry the smooth-fit value a* = 1.  Nodes with
    nonnegative second difference (the terminal layer in particular) get the
    cap, reading -1/q as a limit.  a* is filled in one array, which the
    result adopts: the second differences are written into its interior
    columns and turned into the control there.
    """
    a = np.empty_like(surface.values)
    a[:, 0] = a[:, -1] = 1.0
    q = second_difference_interior(surface.values, surface.grid.h, out=a[:, 1:-1])
    capped_control(q, cfg.cap_d, out=q)
    a.setflags(write=False)
    return ControlField(grid=surface.grid, a_star=a)
