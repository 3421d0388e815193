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

from .errors import CflError, ConvergenceError, ValidationError
from .grid import Grid, ValueSurface, second_difference_interior, stationary_entropy
from .tridiag import solve_tridiagonal

CONTROL_FLOOR = 1.0 / math.e

_SCHEMES = ("explicit", "implicit")


@dataclass(frozen=True)
class SchemeConfig:
    """Solver parameters: control cap d, scheme choice, policy-iteration stop rule."""

    cap_d: float = 1e6
    scheme: str = "implicit"
    policy_tol: float = 1e-12
    max_policy_iters: int = 50
    terminal_regularisation_n: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.cap_d) or self.cap_d < CONTROL_FLOOR:
            raise ValidationError(
                f"cap_d must be >= 1/e ({CONTROL_FLOOR:.6f}), got {self.cap_d!r}")
        if self.scheme not in _SCHEMES:
            raise ValidationError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not (math.isfinite(self.policy_tol) and self.policy_tol > 0.0):
            raise ValidationError(
                f"policy_tol must be positive and finite, got {self.policy_tol!r}")
        if self.max_policy_iters < 1:
            raise ValidationError("max_policy_iters must be >= 1")
        if self.terminal_regularisation_n is not None and self.terminal_regularisation_n < 1:
            raise ValidationError("terminal_regularisation_n must be a positive integer")


@dataclass(frozen=True)
class ControlField:
    """Optimal diffusion coefficient a*(t, x) and volatility sigma* = sqrt(a*)."""

    grid: Grid
    a_star: np.ndarray
    sigma_star: np.ndarray

    def __post_init__(self):
        shape = (self.grid.M + 1, self.grid.N + 1)
        a = np.array(self.a_star, dtype=float)
        s = np.array(self.sigma_star, dtype=float)
        if a.shape != shape or s.shape != shape:
            raise ValidationError(f"control field must have shape {shape}")
        if np.any(a < CONTROL_FLOOR - 1e-12):
            raise ValidationError("a_star drops below the control floor 1/e")
        if np.max(np.abs(s * s - a)) > 1e-9 * max(1.0, float(np.max(a))):
            raise ValidationError("sigma_star**2 must equal a_star to round-off")
        a.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "a_star", a)
        object.__setattr__(self, "sigma_star", s)


def capped_control(q, cap_d: float) -> np.ndarray:
    """Minimiser of -a*q - log(a) - 1 over a in [1/e, cap_d], elementwise over q.

    For q < 0 it is the clamp of -1/q to the control interval; for q >= 0
    (including zero, where -1/q is read as a limit) the objective decreases
    in a, so the cap is the minimiser.
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        raw = -1.0 / q
    return np.where(q < 0.0, np.minimum(np.maximum(raw, CONTROL_FLOOR), cap_d), cap_d)


def hamiltonian_capped(q, cap_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimise -a*q - log(a) - 1 over a in [1/e, cap_d], elementwise over q.

    Returns (values, minimisers), the minimisers being capped_control(q, cap_d);
    the value equals log(-q) wherever the clamp is inactive.
    """
    q = np.asarray(q, dtype=float)
    a = capped_control(q, cap_d)
    return -a * q - np.log(a) - 1.0, a


def _check_cfl(grid: Grid, cfg: SchemeConfig) -> None:
    bound = grid.k * cfg.cap_d / (grid.h * grid.h)
    if bound > 1.0 + 1e-12:
        raise CflError(
            f"explicit scheme unstable: k*cap_d/h^2 = {grid.k:.6g}*{cfg.cap_d:.6g}"
            f"/{grid.h:.6g}^2 = {bound:.6g} exceeds 1"
        )


def _terminal_row(grid: Grid, cfg: SchemeConfig) -> np.ndarray:
    row = np.zeros(grid.N + 1)
    if cfg.terminal_regularisation_n is not None:
        row[:] = stationary_entropy(grid.x_nodes()) / cfg.terminal_regularisation_n
    return row


def explicit_step(v_next: np.ndarray, grid: Grid, cfg: SchemeConfig) -> np.ndarray:
    """One backward step of the explicit scheme; requires k*cap_d/h^2 <= 1."""
    _check_cfl(grid, cfg)
    v = np.asarray(v_next, dtype=float)
    q = second_difference_interior(v, grid.h)
    hvals, _ = hamiltonian_capped(q, cfg.cap_d)
    out = np.zeros_like(v)
    out[1:-1] = v[1:-1] - 0.5 * grid.k * hvals
    return out


def implicit_step(v_next: np.ndarray, grid: Grid, cfg: SchemeConfig) -> tuple[np.ndarray, int]:
    """One backward step of the implicit scheme, solved by policy iteration.

    Starting from the previous time level (warm start), alternate the
    closed-form control update with one tridiagonal elimination until both
    the iterate change and the scaled nonlinear residual fall below
    policy_tol.  The residual is evaluated only once the iterate change is
    within tolerance.  It is scaled componentwise by the magnitude of the
    terms entering it, since the raw residual of the stiff system has a
    floating-point floor proportional to k*cap_d/h^2.
    """
    v_next = np.asarray(v_next, dtype=float)
    k, h = grid.k, grid.h
    c = k / (2.0 * h * h)
    half_k = 0.5 * k
    v_int = v_next[1:-1]
    abs_v_int = np.abs(v_int)

    def scaled_residual(u, q, a, log_a):
        hvals = -a * q - log_a - 1.0  # hamiltonian_capped(q)[0], reusing log(a)
        resid_raw = u[1:-1] + half_k * hvals - v_int
        abs_u = np.abs(u)
        scale = (1.0 + c * a * (abs_u[2:] + 2.0 * abs_u[1:-1] + abs_u[:-2])
                 + half_k * np.abs(log_a + 1.0) + abs_v_int)
        return float(np.max(np.abs(resid_raw) / scale))

    u = v_next.copy()
    a = capped_control(second_difference_interior(u, h), cfg.cap_d)
    log_a = np.log(a)
    for it in range(1, cfg.max_policy_iters + 1):
        diag = 1.0 + 2.0 * c * a
        off = -c * a
        rhs = v_int + half_k * (log_a + 1.0)
        u_new = np.zeros_like(u)
        u_new[1:-1] = solve_tridiagonal(off[1:], diag, off[:-1], rhs)
        delta = float(np.max(np.abs(u_new - u)))
        q = second_difference_interior(u_new, h)
        a = capped_control(q, cfg.cap_d)
        log_a = np.log(a)
        u = u_new
        if delta <= cfg.policy_tol and scaled_residual(u, q, a, log_a) <= cfg.policy_tol:
            return u, it
    raise ConvergenceError(
        f"policy iteration did not converge in {cfg.max_policy_iters} iterations "
        f"(last change {delta:.3e}, scaled residual {scaled_residual(u, q, a, log_a):.3e})")


def solve_hjb_with_iterations(grid: Grid, cfg: SchemeConfig) -> tuple[ValueSurface, np.ndarray]:
    """Full backward sweep; also returns policy-iteration counts per step.

    For the explicit scheme the counts are zeros.
    """
    if cfg.scheme == "explicit":
        _check_cfl(grid, cfg)
    values = np.zeros((grid.M + 1, grid.N + 1))
    values[grid.M] = _terminal_row(grid, cfg)
    iters = np.zeros(grid.M, dtype=int)
    for m in range(grid.M, 0, -1):
        if cfg.scheme == "explicit":
            values[m - 1] = explicit_step(values[m], grid, cfg)
        else:
            values[m - 1], iters[m - 1] = implicit_step(values[m], grid, cfg)
    return ValueSurface(grid=grid, values=values), iters


def solve_hjb(grid: Grid, cfg: SchemeConfig) -> ValueSurface:
    surface, _ = solve_hjb_with_iterations(grid, cfg)
    return surface


def optimal_control_field(surface: ValueSurface, cfg: SchemeConfig) -> ControlField:
    """Extract a*(t,x) = clamp(-1/(A e)_n, 1/e, cap_d) and sigma* = sqrt(a*).

    Lateral boundary nodes carry the smooth-fit value a* = 1.  Nodes with
    nonnegative second difference (the terminal layer in particular) get the
    cap, reading -1/q as a limit.
    """
    v = surface.values
    a = np.ones_like(v)
    a[:, 1:-1] = capped_control(second_difference_interior(v, surface.grid.h), cfg.cap_d)
    return ControlField(grid=surface.grid, a_star=a, sigma_star=np.sqrt(a))
