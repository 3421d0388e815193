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
order is fixed by path index.  Noise is drawn lazily in two levels: each
generator call draws one block of steps for one path still alive, and the
block is transposed a slab of steps at a time into a step-major array of the
paths alive at the slab's start.  Consecutive draws continue each path's
stream, so the results equal those of drawing the whole horizon up front.
Memory is O(chunk x (block + slab)), independent of dt.  A step runs in
preallocated work rows, in the order of operations of the plain expressions
it stands for, so its bits are theirs.  A solved control is read by index
arithmetic on its uniform x grid, bit-identical to np.interp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .density import FULL_LENGTH, VolatilityModel, _full_length_variance
from .errors import ValidationError
from .grid import MAX_ARRAY_ENTRIES
from .hjb import ControlField

_CHUNK = 8192
# steps of noise drawn per path and generator call: the drawn block is _CHUNK x _BLOCK
_BLOCK = 256
# steps of a block transposed at a time into the step-major slab, _SLAB x _CHUNK
_SLAB = 32
# paths per tile of that transpose, which keeps each tile in cache
_TILE = 512

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
        # Philox takes the seed as one 64-bit key word, so a wider one would alias
        if not 0 <= self.base_seed < 2 ** 64:
            raise ValidationError(f"base_seed must lie in [0, 2**64), got {self.base_seed!r}")
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


class _ZeroSeed(ISeedSequence):
    """Seeds a Philox with key 0 and none of SeedSequence's hashing; each path
    writes its own key and counter before it draws."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def _control_evaluator(control, T: float | None, size: int):
    """Return (horizon, eval(t, x, out) -> out) for a ControlField, the
    full-length VolatilityModel or a constant: eval writes a(t, x) into `out`,
    for arrays x of at most `size` entries."""
    if isinstance(control, ControlField):
        return control.grid.T, _field_evaluator(control, size)
    if isinstance(control, VolatilityModel):
        # live paths lie strictly inside (0, 1) and t < horizon <= T
        return control.T, lambda t, x, out: _full_length_variance(t, x, control.T, out)
    a_const = float(control)
    if not (math.isfinite(a_const) and a_const > 0.0):
        raise ValidationError(f"constant control must be positive and finite, got {control!r}")
    if T is None:
        raise ValidationError("a horizon T is required with a constant control")

    def eval_const(t, x, out):
        out.fill(a_const)
        return out

    return float(T), eval_const


def _field_evaluator(control: ControlField, size: int):
    """Bilinear lookup of a*(t, x): the rows either side of t blended in time,
    then np.interp(x, nodes, row) bit for bit, for x in [0, 1].

    The bracketing index comes from floor(x * N), corrected by one comparison
    each way against the nodes followed by an inf sentinel, and the value from
    np.interp's own formula slope[j] * (x - x_j) + row[j]; at a node x - x_j
    is 0, so the formula returns the node value exactly, as np.interp does.
    The slope after the last node is 0, and only x = 1 reads it.
    """
    grid = control.grid
    nodes = grid.x_nodes()
    xs = np.append(nodes, np.inf)
    xs_next = xs[1:]
    dxs = np.diff(nodes)
    a_rows = control.a_star
    blend, other = np.empty((2, grid.N + 1))
    slopes = np.zeros(grid.N + 1)
    index = np.empty(size, dtype=np.intp)
    work = np.empty(size)
    flag = np.empty(size, dtype=bool)

    def eval_field(t, x, out):
        mf = t / grid.k
        m = min(int(mf), grid.M - 1)
        wt = mf - m
        if wt == 0.0:
            row = a_rows[m]
        else:  # (1 - wt) * a_m + wt * a_{m+1}
            row = np.multiply(a_rows[m], 1.0 - wt, out=blend)
            row += np.multiply(a_rows[m + 1], wt, out=other)
        np.subtract(row[1:], row[:-1], out=slopes[:-1])
        slopes[:-1] /= dxs
        j, w, f = index[:x.size], work[:x.size], flag[:x.size]
        np.multiply(x, grid.N, out=w)
        np.copyto(j, w, casting="unsafe")  # truncates, as astype(np.intp)
        np.greater(xs.take(j, out=w, mode="clip"), x, out=f)
        j -= f
        np.less_equal(xs_next.take(j, out=w, mode="clip"), x, out=f)
        j += f
        np.subtract(x, xs.take(j, out=w, mode="clip"), out=w)
        slopes.take(j, out=out, mode="clip")
        out *= w
        out += row.take(j, out=w, mode="clip")
        return out

    return eval_field


def simulate_paths(control, cfg: SimConfig, T: float | None = None) -> PathStats:
    """Simulate cfg.n_paths trajectories and aggregate their statistics.

    `control` may be a ControlField, a VolatilityModel, or a positive
    constant diffusion coefficient (which needs an explicit horizon T).
    For controls with a natural horizon, passing a smaller T stops the
    simulation early (the law of the stopped process at T).
    """
    if isinstance(control, VolatilityModel) and control.kind != FULL_LENGTH:
        control = control.control  # an early-termination model is its solved field
    n = cfg.n_paths
    slots = min(n, _CHUNK)
    horizon, eval_a = _control_evaluator(control, T, slots)
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
    # every path's first reward is log of it
    a_start = float(eval_a(0.0, np.array([cfg.x0]), np.empty(1))[0])
    if not a_start > 0.0:
        raise ValidationError(f"the diffusion coefficient a(0, x0={cfg.x0!r}) is {a_start!r}, "
                              "not positive")

    terminal = np.empty(n)
    side = np.zeros(n, dtype=np.int8)
    exit_time = np.full(n, horizon)
    reward = np.zeros(n)
    qv = np.zeros(n)

    # One generator per chunk slot, set for each chunk to the start of the stream
    # of Philox(key=[base_seed, path]) by writing the path into one state dict;
    # setting a state is several times cheaper than building a Philox.
    zero_seed = _ZeroSeed()
    bits = [np.random.Philox(zero_seed) for _ in range(slots)]
    draws = [np.random.Generator(bit).standard_normal for bit in bits]
    key = np.array([cfg.base_seed, 0], dtype=np.uint64)
    fresh = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": fresh, "key": key},
             "buffer": fresh, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # a block of noise is drawn path by path, then copied a slab of steps at a
    # time, in tiles of paths, into steps x paths for the paths still alive
    block = min(_BLOCK, n_steps)
    drawn_buf = np.empty((slots, block))
    slab_buf = np.empty((min(_SLAB, block), slots))
    # work rows of one step, cut to the paths alive
    a_buf, a_dt_buf, sd_buf, w_buf, xi_buf = np.empty((5, slots))
    inside_buf, flag_buf = np.empty((2, slots), dtype=bool)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        for path, bit in zip(range(lo, hi), bits):
            key[1] = path
            bit.state = state
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
                draws[i](out=row)
            rows = None  # rows of `drawn` still alive, once a path has left
            for s0 in range(start, start + width, _SLAB):
                if ids.size == 0:
                    break
                live, s1 = ids.size, min(s0 + _SLAB, start + width)
                part = drawn[:, s0 - start:s1 - start]
                slab = slab_buf[:s1 - s0, :live]
                for t0 in range(0, live, _TILE):
                    t1 = min(t0 + _TILE, live)
                    tile = part[t0:t1] if rows is None else part[rows[t0:t1]]
                    np.copyto(slab[:, t0:t1], tile.T)
                cols = None  # columns of `slab` still alive, once a path has left
                a, a_dt, sd, w = a_buf[:live], a_dt_buf[:live], sd_buf[:live], w_buf[:live]
                inside, flag = inside_buf[:live], flag_buf[:live]
                for j in range(s0, s1):
                    xi = (slab[j - s0] if cols is None else
                          slab[j - s0].take(cols, out=xi_buf[:live], mode="clip"))
                    # in the order of operations of the plain expressions in the comments
                    eval_a(j * dt, x, a)
                    np.multiply(a, dt, out=a_dt)
                    np.sqrt(a_dt, out=sd)                       # step_sd = sqrt(a * dt)
                    x += np.multiply(sd, xi, out=w)             # x + step_sd * xi
                    shift = np.multiply(sd, BARRIER_CORRECTION, out=w)  # shift < x < 1 - shift
                    np.greater(x, shift, out=inside)
                    np.less(x, np.subtract(1.0, shift, out=w), out=flag)
                    inside &= flag
                    np.log(a, out=a)                            # 0.5 * (1 + log a) * dt
                    a += 1.0
                    a *= 0.5
                    a *= dt
                    if np.count_nonzero(inside) == live:
                        r += a
                        q += a_dt
                        continue
                    gone = np.logical_not(inside, out=flag).nonzero()[0]
                    paths = ids[gone]
                    # record the nearer boundary; endpoints clip to {0, 1}
                    left_exit = x[gone] <= 0.5
                    side[paths] = np.where(left_exit, -1, 1)
                    terminal[paths] = np.where(left_exit, 0.0, 1.0)
                    exit_time[paths] = (j + 1) * dt
                    reward[paths] = r[gone] + a[gone]
                    qv[paths] = q[gone] + a_dt[gone]
                    r += a
                    q += a_dt
                    ids, x, r, q = ids[inside], x[inside], r[inside], q[inside]
                    cols = np.flatnonzero(inside) if cols is None else cols[inside]
                    live = ids.size
                    if live == 0:
                        break
                    a, a_dt, sd, w = a_buf[:live], a_dt_buf[:live], sd_buf[:live], w_buf[:live]
                    inside, flag = inside_buf[:live], flag_buf[:live]
                if cols is not None:
                    rows = cols if rows is None else rows[cols]
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
