"""Euler-Maruyama simulation of the controlled win-probability martingale.

Paths follow X_{j+1} = X_j + sigma(t_j, X_j) sqrt(dt) xi_j with feedback
sigma^2 read from a solved control field (bilinear interpolation), the
closed-form full-length benchmark, or a constant.  A path stops the first
step its endpoint crosses the continuity-corrected barriers
beta*sigma*sqrt(dt) inside {0, 1} (beta = -zeta(1/2)/sqrt(2*pi), the
standard correction for discretely monitored absorption, which removes the
O(sqrt(dt)) survival bias); the endpoint is then clipped to {0,1}.  Reward
0.5*(1 + log a)*dt accrues for every completed step including the exit
step, and nothing accrues after stopping.

Every path owns a counter-based generator keyed by (base_seed, path index),
so results are bit-identical regardless of batch layout, and the reduction
order is fixed by path index.  Noise is drawn lazily, one block of steps at a
time and only for paths still alive; consecutive draws continue each path's
stream, so the results equal those of drawing the whole horizon up front.
Memory is O(chunk x block), independent of dt.  A solved control is read by
index arithmetic on its uniform x grid, bit-identical to np.interp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import FULL_LENGTH, VolatilityModel, benchmark_variance
from .errors import ValidationError
from .grid import MAX_ARRAY_ENTRIES
from .hjb import ControlField

_CHUNK = 8192
# steps of noise drawn per path at a time: bounds the noise buffers at _CHUNK x _BLOCK
_BLOCK = 128

# mean overshoot of a discretely monitored Brownian crossing, -zeta(1/2)/sqrt(2 pi)
BARRIER_CORRECTION = 0.5825971579390107
# probe times as fractions of the horizon, for absorbed fractions and interior masses
PROBE_FRACTIONS = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class SimConfig:
    """Path count, step size, RNG seed and start point of a simulation run."""

    n_paths: int
    dt: float
    base_seed: int
    x0: float

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValidationError("n_paths must be >= 1")
        if self.n_paths > MAX_ARRAY_ENTRIES:
            raise ValidationError(f"n_paths = {self.n_paths} is too large for one array")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0.0 < self.x0 < 1.0:
            raise ValidationError(f"x0 must lie in (0, 1), got {self.x0!r}")


@dataclass(frozen=True)
class PathStats:
    """Per-path outcomes plus the summary statistics of one simulation run."""

    reward_mean: float
    reward_stderr: float
    qv_mean: float
    exit_time_samples: np.ndarray
    absorbed_side: np.ndarray
    terminal_values: np.ndarray
    reward_samples: np.ndarray
    qv_samples: np.ndarray
    fraction_absorbed_by: dict


@dataclass(frozen=True)
class QvReport:
    """Outcome of the pathwise quadratic-variation identity check."""

    terminal_gap: float
    se_combined: float
    passed: bool


def _interp_uniform(x, xs, ys, slopes):
    """np.interp(x, xs[:-1], ys) bit for bit, for x in [0, 1] and finite ys.

    `xs` is linspace(0, 1, n + 1) followed by an inf sentinel, and `slopes`
    is np.diff(ys) / np.diff(xs[:-1]) followed by a 0 that only x = 1 reads.
    The bracketing index comes from floor(x * n), corrected by one comparison
    each way, and the value from np.interp's own formula; at a node x - xs[j]
    is 0, so the formula returns the node value exactly, as np.interp does.
    """
    j = (x * (ys.size - 1)).astype(np.intp)
    j -= xs[j] > x
    j += xs[j + 1] <= x
    return slopes[j] * (x - xs[j]) + ys[j]


def _control_evaluator(control, T: float | None):
    """Return (horizon, eval(t, x_array) -> a_array) for a ControlField, the
    full-length VolatilityModel or a constant."""
    if isinstance(control, ControlField):
        grid = control.grid
        nodes = grid.x_nodes()
        xs = np.append(nodes, np.inf)
        dxs = np.diff(nodes)
        a_rows = control.a_star

        def eval_field(t, x):
            mf = t / grid.k
            m = min(int(mf), grid.M - 1)
            wt = mf - m
            row = a_rows[m] if wt == 0.0 else (1.0 - wt) * a_rows[m] + wt * a_rows[m + 1]
            return _interp_uniform(x, xs, row, np.append(np.diff(row) / dxs, 0.0))

        return grid.T, eval_field
    if isinstance(control, VolatilityModel):
        return control.T, lambda t, x: benchmark_variance(t, x, control.T)
    a_const = float(control)
    if not (math.isfinite(a_const) and a_const > 0.0):
        raise ValidationError(f"constant control must be positive and finite, got {control!r}")
    if T is None:
        raise ValidationError("a horizon T is required with a constant control")

    def eval_const(t, x):
        return np.full(x.shape, a_const)

    return float(T), eval_const


def simulate_paths(control, cfg: SimConfig, T: float | None = None, *,
                   barrier_correction: bool = True,
                   include_exit_step: bool = True) -> PathStats:
    """Simulate cfg.n_paths trajectories and aggregate their statistics.

    `control` may be a ControlField, a VolatilityModel, or a positive
    constant diffusion coefficient (which needs an explicit horizon T).
    For controls with a natural horizon, passing a smaller T stops the
    simulation early (the law of the stopped process at T).  The keyword
    flags expose the naive absorption rule (no barrier shift, reward
    truncated before the exit step) for bias studies.
    """
    if isinstance(control, VolatilityModel) and control.kind != FULL_LENGTH:
        control = control.control  # an early-termination model is its solved field
    horizon, eval_a = _control_evaluator(control, T)
    if T is not None and isinstance(control, (ControlField, VolatilityModel)):
        if T > horizon + 1e-12:
            raise ValidationError(f"T={T!r} exceeds the control horizon {horizon!r}")
        horizon = float(T)
    if isinstance(control, ControlField) and cfg.dt > control.grid.k + 1e-15:
        raise ValidationError(f"dt={cfg.dt!r} exceeds the control grid step {control.grid.k!r}")
    n_steps_f = horizon / cfg.dt
    # past 2**53 steps the step times j*dt are no longer distinct doubles
    if n_steps_f > 2.0 ** 53:
        raise ValidationError(f"horizon/dt = {n_steps_f:.6g} steps is more than 2**53")
    n_steps = int(round(n_steps_f)) if math.isfinite(n_steps_f) else 0
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9:
        raise ValidationError(f"dt={cfg.dt!r} must divide the horizon {horizon!r} evenly")
    dt = cfg.dt
    a_start = float(eval_a(0.0, np.array([cfg.x0]))[0])  # every path's first reward is log of it
    if not a_start > 0.0:
        raise ValidationError(f"the diffusion coefficient a(0, x0={cfg.x0!r}) is {a_start!r}, "
                              "not positive")

    n = cfg.n_paths
    terminal = np.empty(n)
    side = np.zeros(n, dtype=np.int8)
    exit_time = np.full(n, horizon)
    reward = np.zeros(n)
    qv = np.zeros(n)

    seed_word = cfg.base_seed & 0xFFFFFFFFFFFFFFFF
    slots = min(n, _CHUNK)
    # One generator per chunk slot, set for each chunk to the start of the stream
    # of Philox(key=[seed_word, path]); setting a state is several times cheaper
    # than building a Philox.
    gens = [np.random.Generator(np.random.Philox(0)) for _ in range(slots)]
    fresh = np.zeros(4, dtype=np.uint64)
    # each block of noise is drawn path by path, then transposed to steps x paths
    drawn_buf = np.empty((slots, min(_BLOCK, n_steps)))
    noise_buf = np.empty((min(_BLOCK, n_steps), slots))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        for path, gen in zip(range(lo, hi), gens):
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": fresh, "key": np.array([seed_word, path], dtype=np.uint64)},
                "buffer": fresh, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        # state of the live paths only, in path order; a path leaves the step it exits
        ids = np.arange(lo, hi)
        x = np.full(ids.size, cfg.x0)
        r = np.zeros(ids.size)
        q = np.zeros(ids.size)
        for start in range(0, n_steps, _BLOCK):
            if ids.size == 0:
                break
            width = min(_BLOCK, n_steps - start)
            drawn = drawn_buf[:ids.size, :width]
            for row, i in zip(drawn, (ids - lo).tolist()):
                gens[i].standard_normal(out=row)
            noise = noise_buf[:width, :ids.size]
            np.copyto(noise, drawn.T)
            cols = None  # columns of `noise` still alive, once a path has left
            for j in range(start, start + width):
                a = eval_a(j * dt, x)
                a_dt = a * dt
                step_sd = np.sqrt(a_dt)
                xi = noise[j - start] if cols is None else noise[j - start, cols]
                x_new = x + step_sd * xi
                shift = BARRIER_CORRECTION * step_sd if barrier_correction else 0.0
                inside = (x_new > shift) & (x_new < 1.0 - shift)
                r_new = r + 0.5 * (1.0 + np.log(a)) * dt
                q_new = q + a_dt
                if inside.all():
                    x, r, q = x_new, r_new, q_new
                    continue
                out = ~inside
                gone = ids[out]
                # record the nearer boundary; endpoints clip to {0, 1}
                left_exit = x_new[out] <= 0.5
                side[gone] = np.where(left_exit, -1, 1)
                terminal[gone] = np.where(left_exit, 0.0, 1.0)
                exit_time[gone] = (j + 1) * dt
                reward[gone] = (r_new if include_exit_step else r)[out]
                qv[gone] = (q_new if include_exit_step else q)[out]
                ids, x, r, q = ids[inside], x_new[inside], r_new[inside], q_new[inside]
                cols = np.flatnonzero(inside) if cols is None else cols[inside]
                if ids.size == 0:
                    break
        terminal[ids] = x
        reward[ids] = r
        qv[ids] = q

    absorbed = side != 0
    probes = [frac * horizon for frac in PROBE_FRACTIONS]
    fractions = {t: float(np.mean(absorbed & (exit_time <= t + 1e-12))) for t in probes}
    stderr = float(np.std(reward, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    for arr in (terminal, side, exit_time, reward, qv):
        arr.setflags(write=False)
    return PathStats(
        reward_mean=float(np.mean(reward)),
        reward_stderr=stderr,
        qv_mean=float(np.mean(qv)),
        exit_time_samples=exit_time,
        absorbed_side=side,
        terminal_values=terminal,
        reward_samples=reward,
        qv_samples=qv,
        fraction_absorbed_by=fractions,
    )


def quadratic_variation_check(stats: PathStats, cfg: SimConfig) -> QvReport:
    """Check mean(int sigma^2 dt) against mean(X_stop^2) - x0^2 at 3 combined SE."""
    n = stats.qv_samples.size
    x2 = stats.terminal_values ** 2 - cfg.x0 ** 2
    gap = float(np.mean(stats.qv_samples) - np.mean(x2))
    se_qv = float(np.std(stats.qv_samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    se_x2 = float(np.std(x2, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    se = math.hypot(se_qv, se_x2)
    return QvReport(terminal_gap=gap, se_combined=se, passed=abs(gap) <= 3.0 * se)
