"""Euler-Maruyama simulation of the controlled win-probability martingale.

Paths follow X_{j+1} = X_j + sigma(t_j, X_j) sqrt(dt) xi_j with feedback
sigma^2 read from a solved control field, the closed-form full-length
benchmark, or a constant.  A field is read as row a_m on [t_m, t_{m+1}),
linear in x: the left-point policy of the HJB step, whose implicit step from
t_{m+1} to t_m uses row m (Kushner & Dupuis 2001).  A path stops the first
step its endpoint crosses the continuity-corrected barriers
beta*sigma*sqrt(dt) inside {0, 1} (beta = -zeta(1/2)/sqrt(2*pi), the
standard correction for discretely monitored absorption, which removes the
O(sqrt(dt)) survival bias); the endpoint is then clipped to {0,1}.  Reward
0.5*(1 + log a)*dt accrues for every completed step including the exit
step, and nothing accrues after stopping.

Every path owns a counter-based generator keyed by (base_seed, path index),
so results are bit-identical regardless of batch layout, and the reduction
order is fixed by path index.  Noise is drawn lazily, in one level: each
generator call draws one block of steps for one path still alive, into one
row of a paths x steps block, and a step reads its column of that block,
gathered to the rows still alive once a path has left.  Consecutive draws
continue each path's stream, so the results equal those of drawing the
whole horizon up front.  Memory is O(chunk x block), independent of dt.
A step runs in preallocated work rows, in the order of operations of the
plain expressions it stands for, so its bits are theirs.  The x lookup is
index arithmetic on the uniform grid, bit-identical to np.interp.

A large run is split between processes as `_workers` describes, one per
_MIN_WORKER_STEPS path-steps; the per-path streams make every result
independent of the number of workers.  The workers all start before the
control is pickled once and sent to each, so their starts overlap.  A worker
replies with its range's five arrays, and its error is raised in the caller
as MemoryError or NumericalError.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._workers import _process_count, _ranges, _receive, _send_jobs, _started
from .density import FULL_LENGTH, VolatilityModel, _full_length_variance, _sin_squared
from .errors import NumericalError, ValidationError
from .grid import MAX_ARRAY_ENTRIES, _check_integer, _check_positive, _step_count
from .hjb import ControlField

_CHUNK = 8192
# steps of noise drawn per path and generator call: the drawn block is _CHUNK x _BLOCK
_BLOCK = 256
# path-steps (n_paths * n_steps) per worker process, about the serial cost of
# starting one: a spawned worker takes about 0.3 s to start and import numpy and
# this package, as long as one process takes for 5-10M path-steps (30-60 ns each)
_MIN_WORKER_STEPS = 8_000_000

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
        _check_integer(self.n_paths, "n_paths", 1)
        if self.n_paths > MAX_ARRAY_ENTRIES:
            raise ValidationError(f"n_paths = {self.n_paths} is too large for one array")
        # Philox takes the seed as one 64-bit key word, so a wider one would alias
        _check_integer(self.base_seed, "base_seed", 0, 2**64 - 1)
        _check_positive(self.dt, "dt")
        if _check_positive(self.x0, "x0") >= 1.0:
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
    """Return (horizon, k, eval(t, x, out) -> out) for a ControlField or the
    VolatilityModel wrapping it (k the field's step), the full-length model or a
    constant (k None); eval writes a(t, x) into `out`, for x of at most `size`."""
    if isinstance(control, VolatilityModel):
        if control.kind == FULL_LENGTH:  # live paths lie in (0, 1), t < horizon <= T
            return control.T, None, lambda t, x, out: _full_length_variance(
                t, _sin_squared(x, out), control.T, out)
        control = control.control  # an early-termination model is its solved field
    if isinstance(control, ControlField):
        return control.grid.T, control.grid.k, _field_evaluator(control, size)
    a_const = _check_positive(control, "constant control")
    if T is None:
        raise ValidationError("a horizon T is required with a constant control")

    def eval_const(t, x, out):
        out.fill(a_const)
        return out

    return math.inf, None, eval_const  # a constant has no horizon of its own


def _field_evaluator(control: ControlField, size: int):
    """Lookup of a*(t, x): row min(floor(t / k + 1e-9), M - 1), then
    np.interp(x, nodes, row) bit for bit, for x in [0, 1].  The 1e-9 keeps a
    t / k that rounds just below an integer from reading the row before.

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
    slopes = np.zeros(grid.N + 1)
    index = np.empty(size, dtype=np.intp)
    work = np.empty(size)
    flag = np.empty(size, dtype=bool)

    def eval_field(t, x, out):
        row = a_rows[min(int(t / grid.k + 1e-9), grid.M - 1)]
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


def _simulate_range(control, cfg: SimConfig, T: float, n_steps: int, lo: int, hi: int):
    """Simulate paths [lo, hi) of a validated run to the horizon T, n_steps steps
    of cfg.dt as `grid._step_count` gave them; return their terminal values,
    absorbed sides, exit times, rewards and quadratic variations."""
    n = hi - lo
    slots = min(n, _CHUNK)
    _, _, eval_a = _control_evaluator(control, T, slots)
    dt = cfg.dt
    terminal = np.empty(n)
    side = np.zeros(n, dtype=np.int8)
    exit_time = np.full(n, T)
    reward = np.zeros(n)
    qv = np.zeros(n)

    # One generator per chunk slot, set for each chunk to the start of the stream
    # of Philox(key=[base_seed, path]) by writing the path into one state dict;
    # setting a state is several times cheaper than building a Philox.
    zero_seed = _ZeroSeed()
    bits = [np.random.Philox(zero_seed) for _ in range(slots)]
    draws = [np.random.Generator(bit).standard_normal for bit in bits]
    key = [cfg.base_seed, 0]  # plain ints: the setter reads them word by word
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # one row per path alive at the block's start, a cache line longer than the block:
    # a power-of-two row stride would map a step's column onto a few cache sets
    block = min(_BLOCK, n_steps)
    drawn_buf = np.empty((slots, block + 8))
    # work rows of one step, cut to the paths alive
    a_buf, a_dt_buf, sd_buf, w_buf = np.empty((4, slots))
    inside_buf, flag_buf = np.empty((2, slots), dtype=bool)
    for c_lo in range(0, n, _CHUNK):
        c_hi = min(c_lo + _CHUNK, n)
        for path, bit in zip(range(lo + c_lo, lo + c_hi), bits):
            key[1] = path
            bit.state = state
        # state of the live paths only, in path order; a path leaves the step it exits
        ids = np.arange(c_lo, c_hi)
        x = np.full(ids.size, cfg.x0)
        r = np.zeros(ids.size)
        q = np.zeros(ids.size)
        for start in range(0, n_steps, _BLOCK):
            live = ids.size
            if live == 0:
                break
            width = min(_BLOCK, n_steps - start)
            drawn = drawn_buf[:live, :width]
            for row, i in zip(drawn, (ids - c_lo).tolist()):
                draws[i](out=row)
            rows = None  # rows of `drawn` still alive, once a path has left
            a, a_dt, sd, w = a_buf[:live], a_dt_buf[:live], sd_buf[:live], w_buf[:live]
            inside, flag = inside_buf[:live], flag_buf[:live]
            for j in range(start, start + width):
                column = drawn[:, j - start]
                xi = column if rows is None else column[rows]
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
                r += a
                q += a_dt
                if np.count_nonzero(inside) == live:
                    continue
                gone = np.logical_not(inside, out=flag).nonzero()[0]
                paths = ids[gone]
                # record the nearer boundary; endpoints clip to {0, 1}
                left_exit = x[gone] <= 0.5
                side[paths] = np.where(left_exit, -1, 1)
                terminal[paths] = np.where(left_exit, 0.0, 1.0)
                exit_time[paths] = (j + 1) * dt
                reward[paths] = r[gone]
                qv[paths] = q[gone]
                ids, x, r, q = ids[inside], x[inside], r[inside], q[inside]
                rows = np.flatnonzero(inside) if rows is None else rows[inside]
                live = ids.size
                if live == 0:
                    break
                a, a_dt, sd, w = a_buf[:live], a_dt_buf[:live], sd_buf[:live], w_buf[:live]
                inside, flag = inside_buf[:live], flag_buf[:live]
        terminal[ids] = x
        reward[ids] = r
        qv[ids] = q

    return terminal, side, exit_time, reward, qv


def _simulate_job(conn, cfg: SimConfig, T: float, n_steps: int, lo: int, hi: int):
    """A worker's job: simulate paths [lo, hi) under the pickled control that
    follows on conn, and return their five arrays."""
    return _simulate_range(pickle.loads(conn.recv_bytes()), cfg, T, n_steps, lo, hi)


def _simulate_split(control, cfg: SimConfig, T: float, n_steps: int, ranges):
    """Simulate ranges[0] here and every other range in a spawned worker; return
    each range's five arrays, in range order."""
    with _started(len(ranges) - 1) as workers:
        if workers:
            # pickled once, and freed before this process allocates its own buffers
            data = pickle.dumps(control, protocol=pickle.HIGHEST_PROTOCOL)
            _send_jobs([(conn, (_simulate_job, (cfg, T, n_steps, lo, hi)), data)
                        for (_, conn), (lo, hi) in zip(workers, ranges[1:])])
            del data
        parts = [_simulate_range(control, cfg, T, n_steps, *ranges[0])]
        parts.extend(_receive(proc, conn, "Monte Carlo worker", "returning its paths",
                              NumericalError) for proc, conn in workers)
        return parts


def _check_start(eval_a, x0: float) -> None:
    """The start rule: every path's first reward is log a(0, x0), so a(0, x0) > 0;
    `eval_a` is a control's evaluator from `_control_evaluator`."""
    a0 = float(eval_a(0.0, np.array([x0]), np.empty(1))[0])
    if not a0 > 0.0:
        raise ValidationError(f"the diffusion coefficient a(0, x0={x0!r}) is {a0!r}, not positive")


def simulate_paths(control, cfg: SimConfig, T: float | None = None) -> PathStats:
    """Simulate cfg.n_paths trajectories and aggregate their statistics.

    `control` may be a ControlField, a VolatilityModel, or a positive
    constant diffusion coefficient (which needs an explicit horizon T).
    For controls with a natural horizon, passing a smaller T stops the
    simulation early (the law of the stopped process at T).  RunConfig shares
    its step and start rules, `grid._step_count` and `_check_start`.  A large run
    is split across worker processes (see the module docstring) with the same results.
    """
    horizon, k, eval_a = _control_evaluator(control, T, 1)
    if T is not None:
        if _check_positive(T, "T") > horizon + 1e-12:
            raise ValidationError(f"T={T!r} must be positive, finite and at most {horizon!r}")
        horizon = float(T)
    n_steps = _step_count(horizon, cfg.dt, k)
    _check_start(eval_a, cfg.x0)

    n = cfg.n_paths
    ranges = _ranges(n, _process_count(n, n * n_steps, _MIN_WORKER_STEPS))
    parts = _simulate_split(control, cfg, horizon, n_steps, ranges)
    terminal, side, exit_time, reward, qv = (np.concatenate(arrays) for arrays in zip(*parts))

    absorbed = side != 0
    probes = [frac * horizon for frac in PROBE_FRACTIONS]
    fractions = {t: float(np.mean(absorbed & (exit_time <= t + 1e-12))) for t in probes}
    for arr in (terminal, side, exit_time, reward, qv):
        arr.setflags(write=False)
    return PathStats(
        reward_mean=float(np.mean(reward)),
        reward_stderr=_standard_error(reward),
        qv_mean=float(np.mean(qv)),
        exit_time_samples=exit_time,
        absorbed_side=side,
        terminal_values=terminal,
        reward_samples=reward,
        qv_samples=qv,
        fraction_absorbed_by=fractions,
    )


def _standard_error(samples: np.ndarray) -> float:
    """Standard error of the mean of per-path samples; 0.0 for a single path."""
    n = samples.size
    return float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def quadratic_variation_check(stats: PathStats, cfg: SimConfig) -> QvReport:
    """Check mean(int sigma^2 dt) against mean(X_stop^2) - x0^2 at 3 combined SE."""
    x2 = stats.terminal_values ** 2 - cfg.x0 ** 2
    gap = float(np.mean(stats.qv_samples) - np.mean(x2))
    se = math.hypot(_standard_error(stats.qv_samples), _standard_error(x2))
    return QvReport(terminal_gap=gap, se_combined=se, passed=abs(gap) <= 3.0 * se)
