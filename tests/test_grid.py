import json
import math
import multiprocessing
import os
import signal
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import matchentropy as me
from matchentropy import _workers, grid as me_grid
from matchentropy.errors import ValidationError
from matchentropy.grid import MAX_ARRAY_ENTRIES, dump_json, second_difference_interior
from test_montecarlo import _MemoryErrorOnLoad, _ValueErrorOnLoad, time_limit
from test_workers import serve_here


def test_make_grid_examples():
    g = me.make_grid(4, 2, 1.0)
    assert g.h == 0.25 and g.k == 0.5
    ref = me.make_grid(1000, 1000, 1.0)
    assert ref.h == 0.001 and ref.k == 0.001


def test_make_grid_rejects_bad_inputs_naming_the_field():
    with pytest.raises(ValidationError, match="N"):
        me.make_grid(1, 1, 1.0)
    with pytest.raises(ValidationError, match="M"):
        me.make_grid(4, 0, 1.0)
    with pytest.raises(ValidationError, match="T"):
        me.make_grid(4, 2, 0.0)
    with pytest.raises(ValidationError, match="T"):
        me.make_grid(4, 2, -3.0)
    for N, M in ((2**63 - 1, 8), (8, 2**63 - 1), (10**30, 8), (8, 10**30)):
        with pytest.raises(ValidationError, match="too large for one array"):
            me.make_grid(N, M, 1.0)
    # T/M zero or subnormal, or k/h^2 = T*N^2/M past the largest double
    for N, M, T in ((8, 8, 5e-324), (8, 1, 5e-324), (8, 2, 4e-308), (8, 8, 1e308)):
        with pytest.raises(ValidationError, match="underflows, or k/h\\^2 overflows"):
            me.make_grid(N, M, T)


def test_make_grid_size_bound_is_exact():
    # (N+1)(M+1) may reach MAX_ARRAY_ENTRIES and no further; no array is made
    me.make_grid(2, MAX_ARRAY_ENTRIES // 3 - 1, 1.0)
    with pytest.raises(ValidationError, match="too large for one array"):
        me.make_grid(2, MAX_ARRAY_ENTRIES // 3, 1.0)


@given(N=st.integers(2, 5000), M=st.integers(1, 5000),
       T=st.floats(1e-3, 1e3, allow_nan=False))
def test_grid_steps_consistent(N, M, T):
    g = me.make_grid(N, M, T)
    assert abs(g.h * g.N - 1.0) <= np.spacing(1.0)
    assert abs(g.k * g.M - g.T) <= np.spacing(g.T)


def test_grid_nodes_hit_endpoints():
    g = me.make_grid(7, 3, 2.5)
    assert g.x_nodes()[0] == 0.0 and g.x_nodes()[-1] == 1.0
    assert g.t_nodes()[0] == 0.0 and g.t_nodes()[-1] == 2.5
    assert g.time_index(0.0) == 0 and g.time_index(2.5) == 3
    with pytest.raises(ValidationError):
        g.time_index(1.0)  # not a multiple of k = 2.5/3
    # t / k is NaN or +-inf (1e308 / 0.1 overflows), which round() cannot take
    for t in (float("nan"), float("inf"), -float("inf"), 1e308, -1e308):
        with pytest.raises(ValidationError, match="not a grid time level"):
            me.make_grid(10, 10, 1.0).time_index(t)
    assert g.space_index(0.0) == 0 and g.space_index(3 / 7) == 3 and g.space_index(1.0) == 7
    assert g.space_index(3 / 7 + 1e-11) == 3  # 7e-11 h from the node
    for x in (0.5, 3 / 7 + 1e-9):
        with pytest.raises(ValidationError, match="is not a grid node"):
            g.space_index(x)
    for x in (-1 / 7, 8 / 7, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="outside the grid"):
            g.space_index(x)


def test_stationary_entropy_values():
    assert me.stationary_entropy(0.5) == 0.125
    assert me.stationary_entropy(0.0) == 0.0
    assert me.stationary_entropy(0.25) == 0.09375
    arr = me.stationary_entropy(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(arr, [0.0, 0.125, 0.0])


@given(x=st.floats(0.0, 1.0, allow_nan=False))
def test_stationary_entropy_symmetric(x):
    assert me.stationary_entropy(x) == pytest.approx(me.stationary_entropy(1.0 - x), abs=1e-15)


def test_stationary_entropy_domain():
    with pytest.raises(ValidationError):
        me.stationary_entropy(-0.1)
    with pytest.raises(ValidationError):
        me.stationary_entropy(1.5)


def test_second_difference_examples():
    assert second_difference_interior(np.array([0.0, 1.0, 0.0]), 0.5) == [-8.0]
    assert np.all(second_difference_interior(np.zeros(9), 0.1) == 0.0)
    xs = np.linspace(0.0, 1.0, 11)
    row = me.stationary_entropy(xs)
    assert np.allclose(second_difference_interior(row, 0.1), -1.0, rtol=0.0, atol=1e-11)


@given(a=st.floats(-10, 10), b=st.floats(-10, 10), c=st.floats(-10, 10),
       h=st.floats(1e-3, 0.5), n_nodes=st.integers(5, 40), n_off=st.integers(1, 3))
def test_second_difference_exact_on_quadratics(a, b, c, h, n_nodes, n_off):
    xs = h * np.arange(n_nodes)
    row = a * xs * xs + b * xs + c
    n = min(n_off, n_nodes - 2)
    got = second_difference_interior(row, h)[n - 1]
    slack = 32.0 * np.spacing(max(1.0, float(np.max(np.abs(row))))) / (h * h)
    assert abs(got - 2.0 * a) <= slack + 32.0 * np.spacing(max(1.0, abs(2.0 * a)))


def test_second_difference_interior_matches_pointwise():
    rng = np.random.default_rng(0)
    field = rng.normal(size=(3, 12))
    all_at_once = second_difference_interior(field, 0.25)
    singles = [[(row[n + 1] - 2.0 * row[n] + row[n - 1]) / (0.25 * 0.25) for n in range(1, 11)]
               for row in field]
    assert np.array_equal(all_at_once, singles)
    assert np.array_equal(second_difference_interior(field[1], 0.25), all_at_once[1])


def test_value_surface_rejects_nonzero_lateral_boundary():
    g = me.make_grid(4, 2, 1.0)
    vals = np.zeros((3, 5))
    vals[1, 0] = 1e-3
    with pytest.raises(ValidationError, match="boundary"):
        me.ValueSurface(grid=g, values=vals)


def _adoptable(values) -> np.ndarray:
    """A read-only float64 array that owns its data, as a solver hands over."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def test_value_surface_rejects_non_finite():
    g = me.make_grid(4, 2, 1.0)
    vals = np.zeros((3, 5))
    vals[1, 2] = np.inf
    for given in (vals, _adoptable(vals)):
        with pytest.raises(ValidationError):
            me.ValueSurface(grid=g, values=given)


def test_value_surface_rejects_a_wrong_shape():
    g = me.make_grid(10, 10, 1.0)
    for given in (np.zeros((10, 11)), _adoptable(np.zeros((10, 11)))):
        with pytest.raises(ValidationError, match=r"shape \(10, 11\), expected \(11, 11\)"):
            me.ValueSurface(grid=g, values=given)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_control_field_rejects_non_finite_entries(bad):
    # `a < 1/e` is False at NaN and inf, so only the finiteness gate catches them
    g = me.make_grid(10, 10, 1.0)
    a = np.ones((11, 11))
    a[4, 5] = bad
    for given in (a, _adoptable(a)):
        with pytest.raises(ValidationError, match="non-finite"):
            me.ControlField(grid=g, a_star=given)


def test_control_field_rejects_a_below_the_floor():
    g = me.make_grid(10, 10, 1.0)
    for given in (np.full((11, 11), 0.3), _adoptable(np.full((11, 11), 0.3))):
        with pytest.raises(ValidationError, match="control floor"):
            me.ControlField(grid=g, a_star=given)


def test_value_surface_is_immutable():
    g = me.make_grid(4, 2, 1.0)
    s = me.ValueSurface(grid=g, values=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        s.values[0, 1] = 1.0


def test_containers_are_immutable_after_construction():
    # a read-only float64 array that owns its data is adopted; any other input
    # is copied, so no write the caller can still make reaches the container
    g = me.make_grid(4, 2, 1.0)
    for container, name, fill in ((me.ValueSurface, "values", 0.0), (me.PField, "values", 1.0),
                                  (me.ControlField, "a_star", 1.0)):
        for source in ("writable", "read-only view", "read-only owner"):
            owner = np.full((3, 5), fill)
            given = owner.view() if source == "read-only view" else owner
            if source != "writable":
                given.setflags(write=False)
            field = getattr(container(grid=g, **{name: given}), name)
            with pytest.raises(ValueError):
                field[0, 1] = 0.5
            assert (field is given) == (source == "read-only owner"), (container, source)
            if source != "read-only owner":
                owner[1, 2] = 0.5
                assert field[1, 2] == fill, (container, source)


@pytest.fixture(scope="module")
def solved():
    # untraced, so scipy's import on the first solve is not counted
    grid = me.make_grid(500, 500, 1.0)
    cfg = me.SchemeConfig()
    surface = me.solve_hjb(grid, cfg)
    p = me.solve_log_diffusion(grid, me.LadderConfig(regularisation_n=16))
    return SimpleNamespace(grid=grid, cfg=cfg, surface=surface, p=p,
                           control=me.optimal_control_field(surface, cfg),
                           rebuilt=me.entropy_from_p(p))


# each call with its bound on the traced peak, in fields of (M+1) x (N+1) float64
FIELD_PEAKS = {
    "solve_hjb": (lambda f: me.solve_hjb(f.grid, f.cfg), 1.3),
    "optimal_control_field": (lambda f: me.optimal_control_field(f.surface, f.cfg), 1.3),
    "solve_log_diffusion": (lambda f: me.solve_log_diffusion(f.grid, me.LadderConfig(16)), 1.3),
    "entropy_from_p": (lambda f: me.entropy_from_p(f.p), 1.3),
    "solve_forward_density": (lambda f: me.solve_forward_density(
        me.VolatilityModel.early_termination(f.control), f.grid, 0.5), 1.3),
    "cross_solver_gap": (lambda f: me.cross_solver_gap(f.surface, f.rebuilt), 1.1),
    "check_solution_properties": (lambda f: me.check_solution_properties(f.surface), 1.1),
}


@pytest.mark.parametrize("name", FIELD_PEAKS)
def test_each_full_field_is_allocated_once(solved, name):
    # a result adopts the one array its solver fills, and no pass deriving one
    # field from another keeps a second field-sized array
    call, fields = FIELD_PEAKS[name]
    tracemalloc.start()
    try:
        call(solved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fields * (solved.grid.M + 1) * (solved.grid.N + 1) * 8


def test_pfield_invariants():
    g = me.make_grid(4, 2, 1.0)
    good = np.ones((3, 5))
    me.PField(grid=g, values=good)
    bad_boundary = good.copy()
    bad_boundary[2, 0] = 0.5
    with pytest.raises(ValidationError, match="boundary"):
        me.PField(grid=g, values=bad_boundary)
    with pytest.raises(ValidationError, match="positive"):
        me.PField(grid=g, values=np.zeros((3, 5)))
    with pytest.raises(ValidationError):
        me.PField(grid=g, values=2.0 * good)


def test_pfield_checks_the_boundary_of_a_one_step_grid():
    g = me.make_grid(4, 1, 1.0)
    values = np.ones((2, 5))
    values[1, -1] = 0.9
    with pytest.raises(ValidationError, match="boundary"):
        me.PField(grid=g, values=values)


def _tiny_surface():
    g = me.make_grid(4, 2, 1.0)
    vals = np.zeros((3, 5))
    vals[:, 1:-1] = np.array([[0.093125, 0.125, 0.09375],
                              [0.01, 0.02, 0.015],
                              [0.0, 1e-17, 0.0]])
    return me.ValueSurface(grid=g, values=vals)


def test_csv_round_trip_is_exact(tmp_path):
    s = _tiny_surface()
    path = tmp_path / "field.csv"
    me.field_to_csv(s.grid, s.values, path, "value", {"run": "demo"})
    text = path.read_text()
    assert text.startswith("# run = demo\nt,x,value\n")
    ts, xs, vals = me.field_from_csv(path)
    assert np.array_equal(ts, s.grid.t_nodes())
    assert np.array_equal(xs, s.grid.x_nodes())
    assert np.array_equal(vals, s.values)


def test_csv_rows_ordered_t_then_x(tmp_path):
    s = _tiny_surface()
    path = tmp_path / "field.csv"
    me.field_to_csv(s.grid, s.values, path, "value", {})
    rows = path.read_text().splitlines()[1:]
    t_col = [float(r.split(",")[0]) for r in rows]
    x_col = [float(r.split(",")[1]) for r in rows]
    assert t_col == sorted(t_col)
    assert x_col[:5] == sorted(x_col[:5]) and t_col[:5] == [0.0] * 5


def test_csv_selected_rows_print_the_given_times(tmp_path):
    s = _tiny_surface()
    written = tmp_path / "probes.csv"
    me.field_to_csv(s.grid, s.values[[0, 2]], written, "value", {}, times=[0.0, 0.99])
    ts, xs, vals = me.field_from_csv(written)
    assert list(ts) == [0.0, 0.99]
    assert np.array_equal(vals, s.values[[0, 2]])
    path = tmp_path / "rejected.csv"
    with pytest.raises(ValidationError, match="row times"):
        me.field_to_csv(s.grid, s.values, str(path), "value", {}, times=[0.0, 0.5])
    with pytest.raises(ValidationError, match="shape"):
        me.field_to_csv(s.grid, s.values[:, :-1], str(path), "value", {})
    assert not path.exists()


# Printed values a field can hold, non-finite ones included: the writer prints
# them and the reader must return each one bit for bit, the sign of zero too.
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e16, 123456789.0]


def _special_field(grid, rows):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(rows, grid.N + 1)) * 10.0 ** rng.integers(-300, 300,
                                                                          size=(rows, grid.N + 1))
    values.flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    return values


def _pointwise_csv(grid, values, value_label, meta, times):
    lines = [f"# {key} = {val}" for key, val in meta.items()]
    lines.append(f"t,x,{value_label}")
    for m, t in enumerate(times):
        for n, x in enumerate(grid.x_nodes()):
            lines.append(f"{t:.17g},{x:.17g},{values[m, n]:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("probe", [False, True], ids=["grid_times", "probe_times"])
def test_csv_writer_matches_pointwise_reference(probe, tmp_path):
    grid = me.make_grid(7, 300, 1.0)
    # 0.99 prints differently from t_nodes()[297]
    probe_times = [0.5, 0.9, 0.99, 1.0 / 3.0] if probe else None
    times = probe_times or list(grid.t_nodes())
    values = _special_field(grid, len(times))
    meta = {"run": "demo", "T": 1.0}
    expected = _pointwise_csv(grid, values, "q", meta, times)
    path = tmp_path / "field.csv"
    me.field_to_csv(grid, values, str(path), "q", meta, times=probe_times)
    assert path.read_bytes() == expected.encode()


def test_csv_reader_returns_every_value_bit_for_bit(tmp_path):
    grid = me.make_grid(9, 3, 2.0)
    values = _special_field(grid, grid.M + 1)
    path = tmp_path / "field.csv"
    me.field_to_csv(grid, values, path, "q", {"k": "v"})
    ts, xs, back = me.field_from_csv(path)
    assert np.array_equal(ts, grid.t_nodes()) and np.array_equal(xs, grid.x_nodes())
    assert back.tobytes() == values.tobytes()


def test_csv_reader_skips_interleaved_comments_and_blank_lines(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("# run = demo\n\n# second = line\nt,x,q\n"
                    "0,0,1.5\n# inside the body\n0,1,-0\n\n"
                    "1,0,nan\n\n# trailing\n1,1,-inf\n")
    ts, xs, vals = me.field_from_csv(path)
    assert list(ts) == [0.0, 1.0] and list(xs) == [0.0, 1.0]
    assert vals[0, 0] == 1.5 and vals[0, 1] == 0.0 and math.copysign(1.0, vals[0, 1]) == -1.0
    assert math.isnan(vals[1, 0]) and vals[1, 1] == -math.inf



@pytest.mark.parametrize("text, match", [
    ("# run = demo\nt,x,q\n", "needs t,x,value rows"),
    ("t,x,q\n\n# no rows\n", "needs t,x,value rows"),
    ("t,x,q\n0,0,1\n0,1,2\n1,0,3\n", "one per \\(t, x\\) pair"),
    ("t,x,q\n1,0,1\n1,1,2\n0,0,3\n0,1,4\n", "ordered by t then x"),
    ("t,x,q\n0,0,1\n0,1\n", "not rows of numbers"),
    ("t,x\n0,0\n0,1\n", "needs t,x,value rows"),
], ids=["header_only", "comments_only", "missing_row", "unordered", "short_row", "two_columns"])
def test_csv_reader_rejects_malformed_bodies(text, match, tmp_path):
    path = tmp_path / "field.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak out
        with pytest.raises(ValidationError, match=match):
            me.field_from_csv(path)


def test_csv_writer_memory_does_not_grow_with_steps():
    def peak_bytes(M):
        grid = me.make_grid(200, M, 1.0)
        values = np.ones((M + 1, grid.N + 1))
        times = grid.t_nodes()  # the default t column, 8 bytes a row, built untraced
        tracemalloc.start()
        try:
            me.field_to_csv(grid, values, os.devnull, "q", {"k": "v"}, times=times)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak_bytes(16)
    assert peak_bytes(1024) <= 1.25 * base


def test_json_envelope_round_trip(tmp_path):
    s = _tiny_surface()
    path = tmp_path / "f.json"
    dump_json({"grid": {"N": 4, "M": 2, "T": 1.0}}, path, values=s.values)
    env = json.loads(path.read_text())
    assert set(env) == {"grid", "values"}
    assert env["grid"] == {"N": 4, "M": 2, "T": 1.0}
    back = me.ValueSurface(grid=me.make_grid(**env["grid"]), values=np.array(env["values"]))
    assert back.grid == s.grid
    assert np.array_equal(back.values, s.values)


EXTREME_JSON_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                       -1e300, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
FINITE_JSON_VALUES = EXTREME_JSON_VALUES[3:]


@pytest.mark.parametrize("values,streams", [
    # only a non-empty 2-D array of finite floats streams; anything else is refused
    pytest.param(np.array(EXTREME_JSON_VALUES).reshape(1, -1), False, id="one-row"),
    pytest.param(np.array(EXTREME_JSON_VALUES[:12]).reshape(3, 4), False, id="3x4"),
    pytest.param(np.array([[0.5, math.nan]]), False, id="nan"),
    pytest.param(np.array([[0.5], [math.inf]]), False, id="inf"),
    pytest.param(np.array([[-math.inf, 0.5]]), False, id="-inf"),
    pytest.param(np.array([[0.1, 0.2], [0.3, 0.4]]), True, id="finite"),
    pytest.param(np.array([[5e-324]]), True, id="1x1"),
    pytest.param(np.array(FINITE_JSON_VALUES).reshape(1, -1), True, id="finite-extremes-row"),
    pytest.param(np.array(FINITE_JSON_VALUES).reshape(5, 2), True, id="finite-extremes-5x2"),
    pytest.param(np.empty((2, 0)), False, id="empty-rows"),
    pytest.param(np.empty((0, 3)), False, id="no-rows"),
    pytest.param([], False, id="empty-list"),
    pytest.param(np.array(FINITE_JSON_VALUES), False, id="1-D"),
])
def test_dump_json_streams_values_as_json_dumps_would(tmp_path, values, streams):
    payload = {"version": "0.1.0", "config": {"output": "out/a\nb", "values": None, "x": 1e-7},
               "grid": {"N": 3, "M": 2, "T": 1.0}, "regularisation_n": 16, "zzz": [1, 2]}
    if not streams:
        with pytest.raises(ValidationError, match="non-empty 2-D array of finite floats"):
            dump_json(payload, tmp_path / "f.json", values=values)
        assert not (tmp_path / "f.json").exists()
        return
    expected = json.dumps({**payload, "values": np.asarray(values, dtype=float).tolist()},
                          indent=2, sort_keys=True)
    dump_json(payload, tmp_path / "f.json", values=values)
    assert (tmp_path / "f.json").read_text() == expected
    assert "values" not in payload


def test_dump_json_without_values_is_json_dumps(tmp_path):
    payload = {"b": [1.5, math.nan], "a": {"values": [[1.0]]}}
    dump_json(payload, tmp_path / "f.json")
    assert (tmp_path / "f.json").read_text() == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("read_rows", [1, 2, 3])
def test_csv_reader_in_pieces_gives_the_same_values_and_messages(read_rows, tmp_path,
                                                                monkeypatch):
    grid = me.make_grid(9, 3, 2.0)
    path = tmp_path / "field.csv"
    me.field_to_csv(grid, _special_field(grid, grid.M + 1), path, "q", {"k": "v"})
    # two bodies in order, one of them a single time row; each fault lies past the
    # first piece of one, two and three rows, but the last two, in the first time row
    bodies = ["0,0,1\n0,1,2\n# note\n\n1,0,3\n1,1,4\n", "0,0,1\n0,1,2\n0,2,3\n",
              "0,0,1\n0,1,2\n1,0,3\n1,1\n", "0,0,1\n0,1,2\n1,0,3\n1,1,x\n", "0,0,1\n0,1,2\n1,0,3\n1,1,4,5\n",
              "0,0,1\n0,1,2\n1,1,3\n1,0,4\n", "0,0,1\n1,1,2\n1,0,3\n1,1,4\n",
              "0,0,1\n0,1,2\n1,0,3\n", "0,1,1\n0,1,2\n0,0,3\n1,1,4\n", "nan,0,1\n"]
    for i, body in enumerate(bodies):
        (tmp_path / f"{i}.csv").write_text("t,x,q\n" + body)

    def read_all():
        results = []
        for name in ["field", *map(str, range(len(bodies)))]:
            try:
                results.append(b"".join(a.tobytes() for a in
                                        me.field_from_csv(tmp_path / f"{name}.csv")))
            except ValidationError as exc:
                results.append(str(exc))
        return results

    whole = read_all()
    monkeypatch.setattr(me_grid, "_READ_ROWS", read_rows)
    assert read_all() == whole
    assert [isinstance(r, bytes) for r in whole] == [True, True, True] + [False] * 8


def test_csv_reader_returns_values_that_own_their_data(tmp_path):
    # a strided view of the parsed t,x,value body would keep all three columns alive
    s = _tiny_surface()
    path = tmp_path / "field.csv"
    me.field_to_csv(s.grid, s.values, path, "value", {})
    _, _, vals = me.field_from_csv(path)
    assert vals.flags.c_contiguous and vals.flags.owndata and vals.base is None


def test_csv_reader_holds_the_values_and_one_more_value_sized_buffer(tmp_path):
    # 402,201 rows, seven pieces: each piece's order is checked as it is parsed
    # and its values are copied out, so the t and x columns never pile up
    grid = me.make_grid(200, 2000, 1.0)
    values = np.ones((grid.M + 1, grid.N + 1))
    path = tmp_path / "field.csv"
    me.field_to_csv(grid, values, path, "q", {"k": "v"})
    tracemalloc.start()
    try:
        _, _, back = me.field_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, values)
    assert peak <= 2.25 * values.nbytes


def _writer_cases(grid, values):
    """(name, write(path, workers)) of each writer call a worker can share."""
    payload = {"version": "0.1.0", "config": {"output": "out"}, "grid": {"N": grid.N}}
    finite = np.nan_to_num(values, posinf=1e300, neginf=-1e300)
    probe_rows, probe_times = values[[1, 4, 5, 8, 9, 10, 12]], [0.5, 0.9, 0.99, 0.1, 0.2,
                                                                  1.0 / 3.0, 0.7]
    return [
        ("full_field", lambda path, workers: me.field_to_csv(
            grid, values, path, "q", {"k": "v"}, workers=workers)),
        ("probe_rows", lambda path, workers: me.field_to_csv(
            grid, probe_rows, path, "q", {"k": "v"}, times=probe_times, workers=workers)),
        ("json_values", lambda path, workers: dump_json(
            payload, path, values=finite, workers=workers)),
    ]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_writer_worker_count_gives_the_same_bytes(workers, tmp_path):
    # 13 and 7 rows: no split into 2, 3 or 4 ranges is even
    grid = me.make_grid(24, 12, 1.0)
    cases = _writer_cases(grid, _special_field(grid, grid.M + 1))
    for name, write in cases:
        write(tmp_path / f"{name}.serial", ())
    with time_limit(120), _workers._started(workers) as started:
        for name, write in cases:
            write(tmp_path / name, started)
    assert multiprocessing.active_children() == []
    for name, _ in cases:
        assert (tmp_path / name).read_bytes() == (tmp_path / f"{name}.serial").read_bytes(), name


@pytest.mark.parametrize("bad_time, error, message", [
    (_MemoryErrorOnLoad(0.5), MemoryError,
     "file-writing worker raised MemoryError: no room for the range"),
    (_ValueErrorOnLoad(0.5), OSError, "file-writing worker raised ValueError: bad control"),
])
def test_a_writer_worker_error_is_raised_quietly_in_the_caller(bad_time, error, message,
                                                               tmp_path, capfd):
    grid = me.make_grid(24, 12, 1.0)
    values = np.ones((4, grid.N + 1))
    with time_limit(120), _workers._started(1) as started:
        with pytest.raises(error, match=message):
            me.field_to_csv(grid, values, tmp_path / "f.csv", "q", {},
                            times=[0.1, 0.2, bad_time, 0.9], workers=started)
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""  # no traceback from the worker


def test_a_writer_worker_that_died_is_one_os_error(tmp_path):
    with time_limit(120), _workers._started(1) as started:
        proc, _ = started[0]
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()
        with pytest.raises(OSError, match="worker exited with code -9 before writing its rows"):
            dump_json({}, tmp_path / "f.json", values=np.ones((5, 3)), workers=started)
    assert multiprocessing.active_children() == []


def test_a_writer_worker_writes_its_rows_at_the_offset_and_stops_on_error_or_eof(tmp_path):
    # the loop of a spawned writer, run here over a pipe with its jobs queued
    grid = me.make_grid(4, 2, 1.0)
    values = _tiny_surface().values
    whole = tmp_path / "whole.csv"
    me.field_to_csv(grid, values, whole, "value", {})
    head, first = "t,x,value\n", "".join(me_grid._csv_rows(values[:1], [0.0], _x_cells(grid)))
    path = tmp_path / "f.csv"
    path.write_text(head + first)

    def caller(conn):
        conn.send(_write_job(([0.5, 1.0], _x_cells(grid)), grid.N + 1, path))
        conn.send_bytes(values[1:])
        conn.send(len(head + first))
        conn.send(_write_job(([0.5], _x_cells(grid)), grid.N + 2, path))
        conn.send_bytes(values[1])  # 5 values are no row of 6
        replies = [conn.recv(), conn.recv()]
        with pytest.raises(EOFError):  # it stopped at its error and closed its end
            conn.recv()
        return replies

    end, error = serve_here(caller)
    assert end == whole.stat().st_size
    assert path.read_bytes() == whole.read_bytes()
    assert error.startswith("ValueError: cannot reshape array of size 5")
    # a worker whose caller has closed its end stops without a reply
    serve_here(lambda conn: None)
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "whole.csv"]  # no scratch file left


def test_a_writer_worker_holds_rows_not_its_whole_range(tmp_path):
    # its formatted range is about six times the size of the float64 rows it is sent
    grid = me.make_grid(200, 399, 1.0)
    values = np.random.default_rng(5).random((grid.M + 1, grid.N + 1))
    path = tmp_path / "f.csv"
    me.field_to_csv(grid, values, path, "q", {})
    whole = path.read_bytes()
    path.write_text("t,x,q\n")

    def caller(conn):  # the rows fill the pipe, so they are sent while the worker reads
        conn.send(_write_job((grid.t_nodes(), _x_cells(grid)), grid.N + 1, path))
        conn.send_bytes(values)
        conn.send(len("t,x,q\n"))
        return conn.recv()

    tracemalloc.start()
    try:
        end = serve_here(caller)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert end == len(whole)
    assert path.read_bytes() == whole
    assert peak < values.nbytes + len(whole) // 4


def test_the_job_sender_sends_each_job_then_its_rows_and_skips_a_worker_gone():
    # _write_rows sends the jobs from the caller before it writes its own range, as here
    values = np.arange(6.0).reshape(2, 3)
    gone, gone_child = multiprocessing.Pipe()
    gone_child.close()
    conn, child_conn = multiprocessing.Pipe()
    _workers._send_jobs([(gone, "first job", values[:1]), (conn, "second job", values[1:])])
    assert child_conn.recv() == "second job"
    assert child_conn.recv_bytes() == values[1:].tobytes()
    for end in (gone, conn, child_conn):
        end.close()


def test_a_field_of_no_rows_is_its_header_alone_and_sends_no_job(tmp_path):
    grid = me.make_grid(4, 2, 1.0)
    path = tmp_path / "f.csv"
    # a worker that is sent anything fails the call: there are no rows to share
    me.field_to_csv(grid, np.empty((0, grid.N + 1)), path, "q", {"k": "v"}, times=[],
                    workers=[(None, None)])
    assert path.read_text() == "# k = v\nt,x,q\n"


def _x_cells(grid):
    return [f",{x:.17g},%.17g\n" for x in grid.x_nodes()]


def _write_job(args, width, path):
    """The job _write_rows sends a file-writing worker for CSV rows."""
    return me_grid._write_job, (me_grid._csv_rows, args, width, str(path))
