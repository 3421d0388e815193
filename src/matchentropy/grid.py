"""Uniform space-time grids and the dense field containers shared by all solvers.

The domain is [0, T] x [0, 1].  Time index m runs forward (m=0 is t=0,
m=M is t=T); backward solvers iterate m = M -> 0.  All fields are stored
dense in 64-bit floating point and are immutable after construction.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# how far round-off may carry a solved p above its invariant p <= 1
P_CEILING_TOL = 1e-8


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

    def time_index(self, t: float, tol: float = 1e-9) -> int:
        """Index m with m*k == t; rejects off-grid times (no nearest-node fallback)."""
        m = int(round(t / self.k))
        if m < 0 or m > self.M or abs(m * self.k - t) > tol * max(1.0, self.T):
            raise ValidationError(f"time {t} is not a grid time level (k={self.k})")
        return m


def make_grid(N: int, M: int, T: float) -> Grid:
    """Build a grid, rejecting N < 2, M < 1 and T <= 0."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValidationError(f"N must be an integer >= 2, got {N!r}")
    if not isinstance(M, (int, np.integer)) or M < 1:
        raise ValidationError(f"M must be an integer >= 1, got {M!r}")
    T = float(T)
    if not math.isfinite(T) or T <= 0.0:
        raise ValidationError(f"T must be a positive real, got {T!r}")
    return Grid(N=int(N), M=int(M), T=T, h=1.0 / N, k=T / M)


def stationary_entropy(x):
    """Stationary entropy profile x(1-x)/2; accepts scalars or arrays in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError(f"x must lie in [0, 1], got {x!r}")
    out = arr * (1.0 - arr) / 2.0
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def second_difference_interior(v: np.ndarray, h: float) -> np.ndarray:
    """Centred second differences (v[n+1] - 2 v[n] + v[n-1]) / h^2 at the
    interior nodes of the last axis, for one row or a stack of rows."""
    return (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (h * h)


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"field has shape {arr.shape}, expected {shape}")
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
        if not np.all(np.isfinite(arr)):
            raise ValidationError("value surface contains non-finite entries")
        if np.any(arr[:, 0] != 0.0) or np.any(arr[:, -1] != 0.0):
            m = int(np.argmax((arr[:, 0] != 0.0) | (arr[:, -1] != 0.0)))
            raise ValidationError(
                f"lateral boundary of value surface is nonzero at time level {m}"
            )
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class PField:
    """Forward logarithmic-diffusion field p(m*k, n*h), boundary value 1.

    regularisation_n is the ladder index: the initial row is the constant 1/n.
    """

    grid: Grid
    values: np.ndarray
    regularisation_n: int

    def __post_init__(self):
        g = self.grid
        if self.regularisation_n < 1:
            raise ValidationError("regularisation_n must be a positive integer")
        arr = _frozen_array(self.values, (g.M + 1, g.N + 1))
        if not np.all(np.isfinite(arr)):
            raise ValidationError("p field contains non-finite entries")
        if np.any(arr <= 0.0):
            raise ValidationError("p field must be strictly positive")
        if np.any(arr > 1.0 + P_CEILING_TOL):
            raise ValidationError("p field exceeds 1 beyond solver tolerance")
        if g.M >= 1 and (np.any(arr[1:, 0] != 1.0) or np.any(arr[1:, -1] != 1.0)):
            raise ValidationError("p field boundary values must equal 1 for m >= 1")
        object.__setattr__(self, "values", arr)


def field_to_csv(grid: Grid, values: np.ndarray, path, value_label: str, meta: dict | None,
                 times=None) -> None:
    """Write field rows as CSV rows ordered by t then x.

    `times` holds the printed t of each row of `values` and defaults to
    grid.t_nodes(), for a full (M+1)x(N+1) field.  Values are printed with 17
    significant digits so a round trip is exact.  An optional metadata
    mapping is emitted as leading '# key = value' lines.  The rows are
    streamed one time row at a time, so memory does not grow with M.
    """
    ts = grid.t_nodes() if times is None else times
    if len(ts) != len(values):
        raise ValidationError(f"{len(ts)} row times given for {len(values)} field rows")
    if np.shape(values)[1:] != (grid.N + 1,):
        raise ValidationError(f"field rows have shape {np.shape(values)[1:]}, "
                              f"expected ({grid.N + 1},) for N = {grid.N}")
    # ",x,%.17g\n" per node: joined with the row's t, one row is one % operation
    x_cells = [f",{x:.17g},%.17g\n" for x in grid.x_nodes()]
    head = [f"# {key} = {val}\n" for key, val in (meta or {}).items()]
    head.append(f"t,x,{value_label}\n")

    def chunks():
        yield "".join(head)
        for t, row in zip(ts, values):
            t_text = f"{t:.17g}"
            yield (t_text + t_text.join(x_cells)) % tuple(row.tolist())

    if hasattr(path, "write"):
        path.writelines(chunks())
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks())


def field_from_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a field CSV back as (t values, x values, value matrix).

    '#' and blank lines are skipped; the first other line is the t,x,<label>
    header.  A file object passed in is left open.
    """
    if hasattr(path, "read"):
        return _field_from_lines(path)
    with open(path) as fh:
        return _field_from_lines(fh)


def _field_from_lines(fh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def surface_to_json(surface: ValueSurface) -> dict:
    """JSON envelope {grid: {N, M, T}, values: [[...]]}."""
    g = surface.grid
    return {"grid": {"N": g.N, "M": g.M, "T": g.T},
            "values": surface.values.tolist()}


def dump_json(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
