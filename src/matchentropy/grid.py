"""Uniform space-time grids and the dense field containers shared by all solvers.

The domain is [0, T] x [0, 1].  Time index m runs forward (m=0 is t=0,
m=M is t=T); backward solvers iterate m = M -> 0.  All fields are stored
dense in 64-bit floating point and are immutable after construction.  A
solver's result adopts the one array the solver filled (see `_frozen_array`),
and a pass that derives one field from another runs in place or over row
blocks (`_row_blocks`), so a full field is allocated once.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from ._workers import _ranges, _receive, _send_jobs
from .errors import ValidationError

# how far round-off may carry a solved p above its invariant p <= 1
P_CEILING_TOL = 1e-8
# most float64 entries one numpy array can hold: its size in bytes must fit in intp
MAX_ARRAY_ENTRIES = np.iinfo(np.intp).max // 8
# rows of a field CSV numpy parses at a time: 1.5 MB arrays can reuse freed
# memory, where one array for a whole body (24 MB at N = M = 1000) takes new pages
_READ_ROWS = 1 << 16
# values per row block of a blocked pass over a field (64 kB of float64)
_BLOCK_VALUES = 1 << 13


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
    N, M = _check_integer(N, "N", 2), _check_integer(M, "M", 1)
    if (N + 1) * (M + 1) > MAX_ARRAY_ENTRIES:
        raise ValidationError(f"a field of (M+1) x (N+1) = {M + 1} x {N + 1} nodes is "
                              "too large for one array")
    T = _check_positive(T, "T")
    # the solvers divide by k and by h^2; h = 1/N > 0 for any N the size bound admits
    k, h = T / M, 1.0 / N
    if k < sys.float_info.min or not math.isfinite(k / (h * h)):
        raise ValidationError(f"the time step T/M = {T!r}/{M} underflows, or k/h^2 "
                              f"overflows at N = {N}")
    return Grid(N=N, M=M, T=T, h=h, k=k)


def _step_count(span: float, step: float, k: float | None = None, name: str = "dt") -> int:
    """The one whole-step rule: n = span/step (`name` in messages) for a positive, finite span,
    within 1e-9 of a whole n >= 1 and n <= 2**53 (past it j*step repeat); with k, step <= k."""
    if not (0.0 < span < math.inf and 0.0 < step < math.inf):  # NaN included
        raise ValidationError(f"horizon {span!r} and {name}={step!r} must be positive and finite")
    if k is not None and step > k + 1e-15:
        raise ValidationError(f"{name}={step!r} exceeds the control grid step {k!r}")
    n_steps_f = span / step
    if n_steps_f > 2.0 ** 53:
        raise ValidationError(f"horizon/{name} = {n_steps_f:.6g} steps is more than 2**53")
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9:
        raise ValidationError(f"{name}={step!r} must divide the horizon {span!r} evenly")
    return n_steps


def _check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """The one integer rule: a Python or NumPy integer in [low, high] (or >= low), as an int."""
    if not isinstance(value, (int, np.integer)) or value < low or (
            high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _check_positive(value, name: str) -> float:
    """The one positive-real rule: a real number (NumPy's too, no text) in (0, inf), as a float."""
    with contextlib.suppress(OverflowError):  # an int past the float range is no float
        if isinstance(value, numbers.Real) and 0.0 < float(value) < math.inf:  # NaN fails
            return float(value)
    raise ValidationError(f"{name} must be a real number, positive and finite, got {value!r}")


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


def _fill_step_matrix(a: np.ndarray, c: float, diag: np.ndarray, off: np.ndarray) -> None:
    """Fill the implicit step I - (k/2) diag(a) A at the interior row `a`, with
    c = k/(2h^2): diag = 1 + 2c a and off = -c a, in place.  Row i scales row
    i of A by a[i], so off[i] is both off-diagonals of row i: the step solves
    with (sub, sup) = (off[1:], off[:-1]), its transpose, the Kolmogorov-forward
    step, with (off[:-1], off[1:])."""
    np.add(np.multiply(a, 2.0 * c, out=diag), 1.0, out=diag)
    np.multiply(a, -c, out=off)


def trapezoid_panels(y: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid-rule panels h (y[n+1] + y[n]) / 2 along the last axis, in one
    array, written into `out` when given: their sum is the integral, their
    cumulative sum the running integral (both are tested bit for bit against
    a reference quadrature, so keep this order)."""
    out = np.add(y[..., 1:], y[..., :-1], out=out)
    np.multiply(h, out, out=out)
    out /= 2.0
    return out


def _row_blocks(shape):
    """Slices of consecutive rows of an array of `shape`, each _BLOCK_VALUES
    values or one row: a pass block by block keeps a block-sized temporary
    where a pass over the whole array keeps a field-sized one."""
    step = max(1, _BLOCK_VALUES // shape[1])
    return (slice(lo, lo + step) for lo in range(0, shape[0], step))


def _frozen_array(values, shape) -> np.ndarray:
    """`values` as a read-only float64 array, checked for its shape and finiteness.

    An array that is float64, C-contiguous, read-only and owns its data, as a
    solver hands over the array it filled, is adopted as it is; anything else
    is copied, so a caller's writable array (or a view of one) is never aliased.
    """
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.c_contiguous and not values.flags.writeable
            and values.base is None):
        arr = values
    else:
        arr = np.array(values, dtype=float)
        arr.setflags(write=False)
    if arr.shape != shape:
        raise ValidationError(f"field has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("field contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ValueSurface:
    """Entropy field e(m*k, n*h) with zero lateral boundaries; adopts a solver's
    read-only array and copies any other input (see `_frozen_array`)."""

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
    """Forward logarithmic-diffusion field p(m*k, n*h), boundary value 1; adopts
    the solver's read-only array as ValueSurface does."""

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


def _csv_rows(values, ts, x_cells):
    """The CSV text of field rows `values` at printed times `ts`, one row at a time:
    joined with the row's t, the ",x,%.17g\n" cells make one row one % operation."""
    for t, row in zip(ts, values):
        t_text = f"{t:.17g}"
        yield (t_text + t_text.join(x_cells)) % tuple(row.tolist())


def _json_rows(values, first: bool):
    """The rows of a 2-D array of finite floats as json.dumps(indent=2) prints them
    inside a top-level list, one row at a time; the first row of the list opens it."""
    opening = "[\n    " if first else ",\n    "
    for row in values:
        text = ",\n      ".join(map(float.__repr__, row.tolist()))
        yield f"{opening}[\n      {text}\n    ]"
        opening = ",\n    "


def _write_rows(fh, path, values, rows, args_of, workers) -> None:
    """Write rows(values[lo:hi], *args_of(lo, hi)) for consecutive row ranges
    [lo, hi) of `values` to the text file fh, opened at `path`, from its position.

    The ranges are cut as `_workers` describes, one here and one per worker (so
    one range of all rows, and no job, without workers).  Each range after the
    first is sent first, as a job to one of `workers` (see `_write_job`), and
    then this process writes the first: the worker formats its range, and once
    the ranges before it are written it copies it in at their end.  fh is left
    at the end of the last range."""
    (lo, hi), *rest = _ranges(len(values), 1 + len(workers))
    values = np.ascontiguousarray(values, dtype=float)
    path = os.path.abspath(path)  # the workers keep the directory they started in
    _send_jobs([(conn, (_write_job, (rows, args_of(r_lo, r_hi), values.shape[1], path)),
                 values[r_lo:r_hi]) for (_, conn), (r_lo, r_hi) in zip(workers, rest)])
    fh.writelines(rows(values[lo:hi], *args_of(lo, hi)))
    end = fh.tell()  # flushes what this process has written
    for proc, conn in workers[:len(rest)]:
        with contextlib.suppress(OSError):  # the worker has gone; _receive reports it
            conn.send(end)
        end = _receive(proc, conn, "file-writing worker", "writing its rows", OSError)
    fh.seek(end)


def _write_job(conn, rows, args, width: int, path: str) -> int:
    """A file-writing worker's job: format rows(values, *args) of the float64 rows
    of `width` values that follow on conn into a scratch file beside the output,
    so that it holds one row at a time, then copy them in at the offset that
    follows; return the position after them."""
    values = np.frombuffer(conn.recv_bytes()).reshape(-1, width)
    # unnamed where the OS allows, so a killed worker leaves no file behind
    with tempfile.TemporaryFile("w+", dir=os.path.dirname(path)) as scratch:
        scratch.writelines(rows(values, *args))
        scratch.seek(0)  # flushes the text, so its bytes are those of the file
        with open(path, "r+b") as fh:
            fh.seek(conn.recv())
            shutil.copyfileobj(scratch.buffer, fh)
            return fh.tell()


def field_to_csv(grid: Grid, values: np.ndarray, path, value_label: str, meta: dict,
                 times=None, *, workers=()) -> None:
    """Write field rows to a new CSV file at `path`, ordered by t then x.

    `times` holds the printed t of each row of `values` and defaults to
    grid.t_nodes(), for a full (M+1)x(N+1) field.  Values are printed with 17
    significant digits so a round trip is exact.  The metadata mapping is
    emitted as leading '# key = value' lines.  The rows are written one time
    row at a time, so memory does not grow with M.  `workers`, started with
    `_workers._started`, format and write near-equal shares of the rows, with
    the same bytes.
    """
    ts = grid.t_nodes() if times is None else times
    if len(ts) != len(values):
        raise ValidationError(f"{len(ts)} row times given for {len(values)} field rows")
    if np.shape(values)[1:] != (grid.N + 1,):
        raise ValidationError(f"field rows have shape {np.shape(values)[1:]}, "
                              f"expected ({grid.N + 1},) for N = {grid.N}")
    x_cells = [f",{x:.17g},%.17g\n" for x in grid.x_nodes()]
    head = [f"# {key} = {val}\n" for key, val in meta.items()]
    head.append(f"t,x,{value_label}\n")
    with open(path, "w") as fh:
        fh.write("".join(head))
        _write_rows(fh, path, values, _csv_rows,
                    lambda lo, hi: (ts[lo:hi], x_cells), workers)


def _skip_header(fh) -> None:
    """Read fh past its leading '#' and blank lines and the header line after them."""
    for line in fh:
        if line.strip() and not line.startswith("#"):
            return


def _csv_body(fh, max_rows=None) -> np.ndarray:
    """The next max_rows t,x,value rows of fh (all by default) as a 2-D array;
    '#' and blank lines are skipped and not counted."""
    try:
        with warnings.catch_warnings():
            # an empty body warns; field_from_csv reports it as a ValidationError
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(fh, delimiter=",", comments="#", ndmin=2, max_rows=max_rows)
    except ValueError as exc:
        raise ValidationError(f"field CSV body is not rows of numbers: {exc}") from exc


class _RowOrder:
    """The order check of a field CSV body, fed its t and x columns a piece at a time.

    The first time row is the run of rows whose t equals the first row's: its
    x values are the nodes, and they must strictly increase.  Each later time
    row must repeat the nodes exactly under one t above the previous row's,
    and the body must end on a whole time row.  That accepts exactly the
    bodies whose rows are the product of strictly increasing times and nodes,
    row-major, however the body is cut into pieces.  `bad` is the index of the
    first body row that breaks the order, or None.
    """

    def __init__(self):
        self.rows = 0
        self.bad = None
        self.xs = None  # the nodes, once the first time row has ended
        self._first = []  # x values of the first time row until then
        self._ts = []  # the t of each time row begun, in pieces
        self._prev = None  # the t of the last row fed

    def feed(self, t, x) -> None:
        lo, self.rows = self.rows, self.rows + len(t)
        if self.bad is not None:
            return
        if lo == 0:
            self._ts.append(t[:1].copy())
        if self.xs is None:
            same = t == self._ts[0][0]
            end = len(t) if same.all() else int(np.argmin(same))
            self._first.append(x[:end].copy())
            if end == len(t):
                self._prev = t[-1]
                return
            self._end_first_row()
            if self.bad is not None:
                return
            t, x, lo, self._prev = t[end:], x[end:], lo + end, self._ts[0][0]
        nx = self.xs.size
        before = np.concatenate(([self._prev], t[:-1]))
        ok = t == before  # a time row repeats its t
        new = slice(-lo % nx, None, nx)  # the rows that begin a time row
        ok[new] = t[new] > before[new]
        ok &= x == np.resize(np.roll(self.xs, -(lo % nx)), len(x))
        self._ts.append(t[new].copy())
        self._prev = t[-1]
        if not ok.all():
            self.bad = lo + int(np.argmin(ok))

    def _end_first_row(self) -> None:
        xs = self.xs = np.concatenate(self._first)
        self._first = None
        ok = xs == xs  # a NaN node matches nothing
        ok[1:] &= xs[1:] > xs[:-1]
        if not xs.size:  # no row matched the first t: it is NaN
            self.bad = 0
        elif not ok.all():
            self.bad = int(np.argmin(ok))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, nodes) of the rows fed, once the body has ended; check `bad` after."""
        if self.xs is None:
            self._end_first_row()
        if self.bad is None and self.rows % self.xs.size:
            self.bad = self.rows - self.rows % self.xs.size  # the first row of the last time row
        return np.concatenate(self._ts), self.xs


def _read_body(fh, read_rows, values):
    """Parse the body of fh read_rows rows at a time (whole with None), feeding
    each piece's t and x to a _RowOrder and copying its value column into the
    1-D array `values`, from the front.  Return (body shape, order).  A piece
    whose width differs from the first's is a ValidationError."""
    order, rows, width = _RowOrder(), 0, None
    while True:
        piece = _csv_body(fh, read_rows)
        if width is None:
            width = piece.shape[1]
        elif not piece.size:
            break
        elif piece.shape[1] != width:
            raise ValidationError("field CSV body rows differ in width")
        if width == 3:
            order.feed(piece[:, 0], piece[:, 1])
            values[rows:rows + len(piece)] = piece[:, 2]
        rows += len(piece)
        full = len(piece) == read_rows
        del piece  # freed before the next piece is parsed
        if not full:
            break
    return (rows, width), order


def field_from_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a field CSV file back as (t values, x values, value matrix); '#' and
    blank lines are skipped, and the first other line is the t,x,<label> header.

    The body is parsed _READ_ROWS rows at a time, into arrays small enough to
    reuse freed memory.  Each piece's order is checked as it is parsed (see
    `_RowOrder`) and its values are copied into the one array that becomes the
    value matrix, sized by the file's line breaks, so the reader holds that
    array and one piece.  The value matrix is a C-contiguous array of its own.
    A body that numpy cannot parse in pieces is parsed again whole, so numpy's
    message names the failing row of the file.
    """
    # every body row but the last ends in a line break, which text mode reads
    # as \n, \r\n or \r: one more than their count bounds the rows
    with open(path, "rb") as raw:
        breaks = sum(block.count(b"\n") + block.count(b"\r")
                     for block in iter(lambda: raw.read(1 << 20), b""))
    values = np.empty(breaks + 1)
    with open(path) as fh:
        _skip_header(fh)
        try:
            shape, order = _read_body(fh, _READ_ROWS, values)
        except ValidationError:
            fh.seek(0)
            _skip_header(fh)
            shape, order = _read_body(fh, None, values)
    if shape[0] == 0 or shape[1] != 3:
        raise ValidationError(f"field CSV needs t,x,value rows, got a body of shape {shape}")
    ts, xs = order.nodes()
    if order.bad is not None:
        raise ValidationError(f"field CSV rows are not one per (t, x) pair ordered by t then x "
                              f"(from body row {order.bad + 1} of {shape[0]})")
    values.resize((ts.size, xs.size), refcheck=False)  # in place; drops the unused tail
    return ts, xs, values


def dump_json(payload: dict, path, values=None, *, workers=()) -> None:
    """Write payload to the file `path` as json.dumps(payload, indent=2, sort_keys=True) would.

    `values`, if given, must be a non-empty 2-D array of finite floats, such
    as a field's values; it becomes the top-level "values" key, and its rows
    are streamed, so no list of Python floats or document string the size of
    the whole array is built.  Other `values` are rejected before the file
    is opened.  `workers` share the rows of a large `values` as in field_to_csv.
    """
    if values is None:
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True))
        return
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0 or not np.isfinite(values).all():
        raise ValidationError("JSON values must be a non-empty 2-D array of finite "
                              f"floats (shape {values.shape})")
    # a line break is escaped inside JSON strings, so this anchor can
    # only be the top-level key itself
    key = '\n  "values": '
    text = json.dumps({**payload, "values": None}, indent=2, sort_keys=True)
    head, _, tail = text.partition(key + "null")
    with open(path, "w") as fh:
        fh.write(head + key)
        _write_rows(fh, path, values, _json_rows, lambda lo, hi: (lo == 0,), workers)
        fh.write("\n  ]" + tail)
