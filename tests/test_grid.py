import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import matchentropy as me
from matchentropy.errors import ValidationError
from matchentropy.grid import second_difference_interior


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


def test_value_surface_is_immutable():
    g = me.make_grid(4, 2, 1.0)
    s = me.ValueSurface(grid=g, values=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        s.values[0, 1] = 1.0


def test_containers_are_immutable_after_construction():
    g = me.make_grid(4, 2, 1.0)
    p = me.PField(grid=g, values=np.ones((3, 5)), regularisation_n=1)
    with pytest.raises(ValueError):
        p.values[0, 0] = 0.5
    a = np.ones((3, 5))
    ctrl = me.ControlField(grid=g, a_star=a, sigma_star=np.sqrt(a))
    with pytest.raises(ValueError):
        ctrl.a_star[0, 0] = 2.0


def test_pfield_invariants():
    g = me.make_grid(4, 2, 1.0)
    good = np.ones((3, 5))
    me.PField(grid=g, values=good, regularisation_n=1)
    bad_boundary = good.copy()
    bad_boundary[2, 0] = 0.5
    with pytest.raises(ValidationError, match="boundary"):
        me.PField(grid=g, values=bad_boundary, regularisation_n=1)
    with pytest.raises(ValidationError, match="positive"):
        me.PField(grid=g, values=np.zeros((3, 5)), regularisation_n=1)
    with pytest.raises(ValidationError):
        me.PField(grid=g, values=2.0 * good, regularisation_n=1)
    with pytest.raises(ValidationError):
        me.PField(grid=g, values=good, regularisation_n=0)


def _tiny_surface():
    g = me.make_grid(4, 2, 1.0)
    vals = np.zeros((3, 5))
    vals[:, 1:-1] = np.array([[0.093125, 0.125, 0.09375],
                              [0.01, 0.02, 0.015],
                              [0.0, 1e-17, 0.0]])
    return me.ValueSurface(grid=g, values=vals)


def test_csv_round_trip_is_exact():
    s = _tiny_surface()
    buf = io.StringIO()
    me.field_to_csv(s.grid, s.values, buf, "value", {"run": "demo"})
    text = buf.getvalue()
    assert text.startswith("# run = demo\nt,x,value\n")
    ts, xs, vals = me.field_from_csv(io.StringIO(text))
    assert np.array_equal(ts, s.grid.t_nodes())
    assert np.array_equal(xs, s.grid.x_nodes())
    assert np.array_equal(vals, s.values)


def test_csv_rows_ordered_t_then_x():
    s = _tiny_surface()
    buf = io.StringIO()
    me.field_to_csv(s.grid, s.values, buf, "value", None)
    rows = buf.getvalue().splitlines()[1:]
    t_col = [float(r.split(",")[0]) for r in rows]
    x_col = [float(r.split(",")[1]) for r in rows]
    assert t_col == sorted(t_col)
    assert x_col[:5] == sorted(x_col[:5]) and t_col[:5] == [0.0] * 5


def test_csv_selected_rows_print_the_given_times():
    s = _tiny_surface()
    buf = io.StringIO()
    me.field_to_csv(s.grid, s.values[[0, 2]], buf, "value", None, times=[0.0, 0.99])
    ts, xs, vals = me.field_from_csv(io.StringIO(buf.getvalue()))
    assert list(ts) == [0.0, 0.99]
    assert np.array_equal(vals, s.values[[0, 2]])
    with pytest.raises(ValidationError, match="row times"):
        me.field_to_csv(s.grid, s.values, io.StringIO(), "value", None, times=[0.0, 0.5])


def test_json_envelope_round_trip():
    s = _tiny_surface()
    env = me.surface_to_json(s)
    assert set(env) == {"grid", "values"}
    assert env["grid"] == {"N": 4, "M": 2, "T": 1.0}
    back = me.ValueSurface(grid=me.make_grid(**env["grid"]), values=np.array(env["values"]))
    assert back.grid == s.grid
    assert np.array_equal(back.values, s.values)
