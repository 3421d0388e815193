"""Uniform space-time grids and the dense field containers shared by all solvers.

The domain is [0, T] x [0, 1].  Time index m runs forward (m=0 is t=0,
m=M is t=T); backward solvers iterate m = M -> 0.  All fields are stored
dense in 64-bit floating point and are immutable after construction.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# how far round-off may carry a solved p above its invariant p <= 1
P_CEILING_TOL = 1e-8
# most float64 entries one numpy array can hold: its size in bytes must fit in intp
MAX_ARRAY_ENTRIES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class Grid:
    """Uniform discretisation with N spatial intervals and M time steps.

    h = 1/N and k = T/M are stored explicitly so every solver shares the
    same step sizes.
    """

    N: int
    M: int
    T: float
    h: float
    k: float

    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.N + 1)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    def time_index(self, t: float) -> int:
        """Index m with m*k == t; rejects off-grid times (no nearest-node fallback)."""
        pos = t / self.k
        m = round(pos) if -1.0 < pos < self.M + 1.0 else -1  # NaN and inf name no level
        if m < 0 or m > self.M or abs(m * self.k - t) > 1e-9 * max(1.0, self.T):
            raise ValidationError(f"time {t} is not a grid time level (k={self.k})")
        return m

    def space_index(self, x: float) -> int:
        """Index n with n*h == x to within 1e-9 h; rejects a point outside
        [0, 1], and one between nodes naming the nodes either side of it (no
        nearest-node fallback)."""
        pos = x * self.N
        if not 0.0 <= pos <= self.N:  # NaN included
            raise ValidationError(f"x = {x!r} lies outside the grid [0, 1]")
        n = round(pos)
        if abs(pos - n) > 1e-9:
            below = math.floor(pos)
            raise ValidationError(f"x = {x!r} is not a grid node (h = 1/{self.N}); the nearest "
                                  f"nodes are {below / self.N:g} and {(below + 1) / self.N:g}")
        return n


def make_grid(N: int, M: int, T: float) -> Grid:
    """Build a grid, rejecting N < 2, M < 1, T <= 0, a field too large for one
    numpy array, and a step k = T/M that underflows or makes k/h^2 overflow."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValidationError(f"N must be an integer >= 2, got {N!r}")
    if not isinstance(M, (int, np.integer)) or M < 1:
        raise ValidationError(f"M must be an integer >= 1, got {M!r}")
    N, M = int(N), int(M)
    if (N + 1) * (M + 1) > MAX_ARRAY_ENTRIES:
        raise ValidationError(f"a field of (M+1) x (N+1) = {M + 1} x {N + 1} nodes is "
                              "too large for one array")
    T = float(T)
    if not math.isfinite(T) or T <= 0.0:
        raise ValidationError(f"T must be a positive real, got {T!r}")
    # the solvers divide by k and by h^2; h = 1/N > 0 for any N the size bound admits
    k, h = T / M, 1.0 / N
    if k < sys.float_info.min or not math.isfinite(k / (h * h)):
        raise ValidationError(f"the time step T/M = {T!r}/{M} underflows, or k/h^2 "
                              f"overflows at N = {N}")
    return Grid(N=N, M=M, T=T, h=h, k=k)


def stationary_entropy(x):
    """Stationary entropy profile x(1-x)/2; accepts scalars or arrays in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError(f"x must lie in [0, 1], got {x!r}")
    return arr * (1.0 - arr) / 2.0


def second_difference_interior(v: np.ndarray, h: float,
                               out: np.ndarray | None = None) -> np.ndarray:
    """Centred second differences (v[n+1] - 2 v[n] + v[n-1]) / h^2 at the
    interior nodes of the last axis, for one row or a stack of rows; written
    into `out` when given.  Evaluated in that order, so in place or not the
    bits are those of the expression."""
    out = np.multiply(v[..., 1:-1], 2.0, out=out)
    np.subtract(v[..., 2:], out, out=out)
    out += v[..., :-2]
    out /= h * h
    return out


def trapezoid_panels(y: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid-rule panels h (y[n+1] + y[n]) / 2 along the last axis: their
    sum is the integral, their cumulative sum the running integral (both are
    tested bit for bit against a reference quadrature, so keep this order)."""
    return h * (y[..., 1:] + y[..., :-1]) / 2.0


def _frozen_array(values, shape) -> np.ndarray:
    """A read-only float copy of `values`, checked for its shape and finiteness."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"field has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("field contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ValueSurface:
    """Entropy field e(m*k, n*h) with zero lateral boundaries."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        g = self.grid
        arr = _frozen_array(self.values, (g.M + 1, g.N + 1))
        if np.any(arr[:, 0] != 0.0) or np.any(arr[:, -1] != 0.0):
            m = int(np.argmax((arr[:, 0] != 0.0) | (arr[:, -1] != 0.0)))
            raise ValidationError(
                f"lateral boundary of value surface is nonzero at time level {m}"
            )
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class PField:
    """Forward logarithmic-diffusion field p(m*k, n*h), boundary value 1."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        g = self.grid
        arr = _frozen_array(self.values, (g.M + 1, g.N + 1))
        if np.any(arr <= 0.0):
            raise ValidationError("p field must be strictly positive")
        if np.any(arr > 1.0 + P_CEILING_TOL):
            raise ValidationError("p field exceeds 1 beyond solver tolerance")
        if np.any(arr[1:, 0] != 1.0) or np.any(arr[1:, -1] != 1.0):
            raise ValidationError("p field boundary values must equal 1 for m >= 1")
        object.__setattr__(self, "values", arr)


def field_to_csv(grid: Grid, values: np.ndarray, path, value_label: str, meta: dict,
                 times=None) -> None:
    """Write field rows to a new CSV file at `path`, ordered by t then x.

    `times` holds the printed t of each row of `values` and defaults to
    grid.t_nodes(), for a full (M+1)x(N+1) field.  Values are printed with 17
    significant digits so a round trip is exact.  The metadata mapping is
    emitted as leading '# key = value' lines.  The rows are written one time
    row at a time, so memory does not grow with M.
    """
    ts = grid.t_nodes() if times is None else times
    if len(ts) != len(values):
        raise ValidationError(f"{len(ts)} row times given for {len(values)} field rows")
    if np.shape(values)[1:] != (grid.N + 1,):
        raise ValidationError(f"field rows have shape {np.shape(values)[1:]}, "
                              f"expected ({grid.N + 1},) for N = {grid.N}")
    # ",x,%.17g\n" per node: joined with the row's t, one row is one % operation
    x_cells = [f",{x:.17g},%.17g\n" for x in grid.x_nodes()]
    head = [f"# {key} = {val}\n" for key, val in meta.items()]
    head.append(f"t,x,{value_label}\n")
    with open(path, "w") as fh:
        fh.write("".join(head))
        for t, row in zip(ts, values):
            t_text = f"{t:.17g}"
            fh.write((t_text + t_text.join(x_cells)) % tuple(row.tolist()))


def field_from_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a field CSV file back as (t values, x values, value matrix); '#' and
    blank lines are skipped, and the first other line is the t,x,<label> header."""
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                break  # the header; numpy parses the rest of the same stream
        try:
            with warnings.catch_warnings():
                # an empty body warns; it is reported below as a ValidationError
                warnings.simplefilter("ignore", UserWarning)
                body = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"field CSV body is not rows of numbers: {exc}") from exc
    if body.shape[0] == 0 or body.shape[1] != 3:
        raise ValidationError(f"field CSV needs t,x,value rows, got a body of shape {body.shape}")
    ts = np.unique(body[:, 0])
    xs = np.unique(body[:, 1])
    if not (body.shape[0] == ts.size * xs.size
            and np.array_equal(body[:, 0], np.repeat(ts, xs.size))
            and np.array_equal(body[:, 1], np.tile(xs, ts.size))):
        raise ValidationError(f"field CSV rows are not one per (t, x) pair ordered by t then x "
                              f"({body.shape[0]} rows, {ts.size} times, {xs.size} nodes)")
    vals = body[:, 2].reshape(ts.size, xs.size)
    return ts, xs, vals


def _json_rows(values: np.ndarray):
    """The rows of a non-empty 2-D array of finite floats as json.dumps(indent=2)
    prints them as a top-level value, one row at a time."""
    opening = "[\n    "
    for row in values:
        text = ",\n      ".join(map(float.__repr__, row.tolist()))
        yield f"{opening}[\n      {text}\n    ]"
        opening = ",\n    "
    yield "\n  ]"


def dump_json(payload: dict, path, values=None) -> None:
    """Write payload to the file `path` as json.dumps(payload, indent=2, sort_keys=True) would.

    `values`, if given, must be a non-empty 2-D array of finite floats, such
    as a field's values; it becomes the top-level "values" key, and its rows
    are streamed, so no list of Python floats or document string the size of
    the whole array is built.  Other `values` are rejected before the file
    is opened.
    """
    if values is None:
        chunks = [json.dumps(payload, indent=2, sort_keys=True)]
    else:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.size == 0 or not np.isfinite(values).all():
            raise ValidationError("JSON values must be a non-empty 2-D array of finite "
                                  f"floats (shape {values.shape})")
        # a line break is escaped inside JSON strings, so this anchor can
        # only be the top-level key itself
        key = '\n  "values": '
        text = json.dumps({**payload, "values": None}, indent=2, sort_keys=True)
        head, _, tail = text.partition(key + "null")
        chunks = itertools.chain((head, key), _json_rows(values), (tail,))
    with open(path, "w") as fh:
        fh.writelines(chunks)
