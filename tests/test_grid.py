import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import matchentropy as me
from matchentropy.errors import ValidationError
from matchentropy.grid import MAX_ARRAY_ENTRIES, dump_json, second_difference_interior


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


def test_value_surface_rejects_non_finite():
    g = me.make_grid(4, 2, 1.0)
    vals = np.zeros((3, 5))
    vals[1, 2] = np.inf
    with pytest.raises(ValidationError):
        me.ValueSurface(grid=g, values=vals)


def test_value_surface_rejects_a_wrong_shape():
    g = me.make_grid(10, 10, 1.0)
    with pytest.raises(ValidationError, match=r"shape \(10, 11\), expected \(11, 11\)"):
        me.ValueSurface(grid=g, values=np.zeros((10, 11)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_control_field_rejects_non_finite_entries(bad):
    # `a < 1/e` is False at NaN and inf, so only the finiteness gate catches them
    g = me.make_grid(10, 10, 1.0)
    a = np.ones((11, 11))
    a[4, 5] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        me.ControlField(grid=g, a_star=a)


def test_control_field_rejects_a_below_the_floor():
    g = me.make_grid(10, 10, 1.0)
    with pytest.raises(ValidationError, match="control floor"):
        me.ControlField(grid=g, a_star=np.full((11, 11), 0.3))


def test_value_surface_is_immutable():
    g = me.make_grid(4, 2, 1.0)
    s = me.ValueSurface(grid=g, values=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        s.values[0, 1] = 1.0


def test_containers_are_immutable_after_construction():
    g = me.make_grid(4, 2, 1.0)
    p = me.PField(grid=g, values=np.ones((3, 5)))
    with pytest.raises(ValueError):
        p.values[0, 0] = 0.5
    a = np.ones((3, 5))
    ctrl = me.ControlField(grid=g, a_star=a)
    with pytest.raises(ValueError):
        ctrl.a_star[0, 0] = 2.0


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
