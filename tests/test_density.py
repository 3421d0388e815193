import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import matchentropy as me
from matchentropy.errors import ValidationError
from matchentropy.hjb import ControlField


def constant_control_field(grid, a=1.0):
    arr = np.full((grid.M + 1, grid.N + 1), float(a))
    return ControlField(grid=grid, a_star=arr, sigma_star=np.sqrt(arr))


def brownian_exit_survival(t, terms=60):
    """Series solution for a unit diffusion from 1/2 absorbed on (0,1)."""
    s = 0.0
    for k in range(terms):
        K = 2 * k + 1
        s += (4.0 / math.pi) * ((-1) ** k / K) * math.exp(-K * K * math.pi ** 2 * t / 2.0)
    return s


def test_benchmark_volatility_values():
    assert me.benchmark_variance(0.0, 0.5, 1.0) == pytest.approx(1.0 / math.pi ** 2, abs=1e-15)
    assert me.benchmark_variance(0.3, 0.0, 1.0) == pytest.approx(0.0, abs=1e-16)
    assert me.benchmark_variance(0.3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert math.sqrt(me.benchmark_variance(0.75, 0.5, 1.0)) == pytest.approx(
        1.0 / (math.pi * 0.5), abs=1e-12)
    xs = np.linspace(0.0, 1.0, 7)
    row = me.benchmark_variance(0.2, xs, 1.0)
    assert np.array_equal(row, [me.benchmark_variance(0.2, x, 1.0) for x in xs])


def test_benchmark_volatility_domain():
    with pytest.raises(ValidationError):
        me.benchmark_variance(1.0, 0.5, 1.0)  # t == T
    with pytest.raises(ValidationError):
        me.benchmark_variance(2.0, 0.5, 1.0)
    with pytest.raises(ValidationError):
        me.benchmark_variance(0.5, -0.1, 1.0)
    with pytest.raises(ValidationError):
        me.benchmark_variance(0.5, np.array([0.5, 1.5]), 1.0)
    with pytest.raises(ValidationError):
        me.benchmark_variance(float("nan"), 0.5, 1.0)


def test_benchmark_entropy_values():
    assert me.benchmark_entropy(1.0, 0.25, 1.0) == 0.0
    expected = 0.5 * (math.log(1.0 / (math.pi * math.sqrt(0.5))) + 0.5)
    got = me.benchmark_entropy(0.5, 0.5, 1.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(-0.14908, abs=2e-5)


def test_benchmark_entropy_explodes_at_walls():
    with pytest.raises(ValidationError):
        me.benchmark_entropy(0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        me.benchmark_entropy(0.5, 1.0, 1.0)
    with pytest.raises(ValidationError):
        me.benchmark_entropy(1.5, 0.5, 1.0)


def test_density_step_matches_dense_solve():
    g = me.make_grid(8, 1, 0.01)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 2.0, size=(2, 9))
    ctrl = ControlField(grid=g, a_star=a, sigma_star=np.sqrt(a))
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(ctrl), g, 0.5)

    b = g.k / (2.0 * g.h * g.h)
    s = a[1]
    n_int = g.N - 1
    T_mat = np.zeros((n_int, n_int))
    for i in range(n_int):
        node = i + 1
        T_mat[i, i] = 1.0 + 2.0 * b * s[node]
        if i > 0:
            T_mat[i, i - 1] = -b * s[node - 1]
        if i < n_int - 1:
            T_mat[i, i + 1] = -b * s[node + 1]
    q0 = np.zeros(n_int)
    q0[3] = 1.0 / g.h  # dirac at x0 = 0.5 is node 4 of 8
    expected = np.linalg.solve(T_mat, q0)
    assert np.max(np.abs(dens.values[1, 1:-1] - expected)) <= 1e-12


def test_dirac_start_has_unit_mass_and_survival_one():
    g = me.make_grid(100, 10, 1.0)
    dens = me.solve_forward_density(
        me.VolatilityModel.early_termination(constant_control_field(g)), g, 0.5)
    assert me.survival_probability(dens, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_survival_requires_exact_grid_time():
    g = me.make_grid(10, 10, 1.0)
    dens = me.solve_forward_density(
        me.VolatilityModel.early_termination(constant_control_field(g)), g, 0.5)
    with pytest.raises(ValidationError):
        me.survival_probability(dens, 0.123)


def test_unit_control_matches_series_solution():
    g = me.make_grid(400, 400, 1.0)
    dens = me.solve_forward_density(
        me.VolatilityModel.early_termination(constant_control_field(g)), g, 0.5)
    for t in (0.25, 0.5, 0.9):
        assert me.survival_probability(dens, t) == pytest.approx(
            brownian_exit_survival(t), abs=3e-3)


def test_mass_ledger_and_nonnegativity():
    g = me.make_grid(80, 120, 1.0)
    dens = me.solve_forward_density(
        me.VolatilityModel.early_termination(constant_control_field(g, a=1.7)), g, 0.5)
    interior = trapezoid(dens.values, dx=g.h, axis=1)
    ledger = interior + dens.absorbed_mass_left + dens.absorbed_mass_right
    assert np.max(np.abs(ledger - 1.0)) <= 1e-6
    assert np.min(dens.values) >= -1e-12
    assert np.all(np.diff(dens.absorbed_mass_left) >= 0.0)
    assert np.all(np.diff(dens.absorbed_mass_right) >= 0.0)


def test_symmetric_start_keeps_density_symmetric():
    g = me.make_grid(64, 64, 1.0)
    cfg = me.SchemeConfig(cap_d=1e4)
    ctrl = me.optimal_control_field(me.solve_hjb(g, cfg), cfg)
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(ctrl), g, 0.5)
    assert np.max(np.abs(dens.values - dens.values[:, ::-1])) <= 1e-9
    assert np.max(np.abs(dens.absorbed_mass_left - dens.absorbed_mass_right)) <= 1e-9


def test_optimal_control_absorbs_faster_than_unit_diffusion():
    # the solved control never drops below 1, so exits come at least as fast
    g = me.make_grid(200, 200, 1.0)
    cfg = me.SchemeConfig(cap_d=1e6)
    ctrl = me.optimal_control_field(me.solve_hjb(g, cfg), cfg)
    assert np.min(ctrl.a_star) >= 1.0 - 1e-9
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(ctrl), g, 0.5)
    for t in (0.5, 0.9):
        surv = me.survival_probability(dens, t)
        assert 0.0 < surv <= brownian_exit_survival(t) + 5e-3


def test_full_length_has_no_early_absorption():
    g = me.make_grid(200, 200, 1.0)
    dens = me.solve_forward_density(me.VolatilityModel.full_length(1.0), g, 0.5)
    assert np.all(dens.absorbed_mass_left == 0.0)
    assert np.all(dens.absorbed_mass_right == 0.0)
    for t in (0.5, 0.9, 0.99):
        assert me.survival_probability(dens, t) == pytest.approx(1.0, abs=1e-9)


def test_full_length_atoms_half_and_half():
    g = me.make_grid(500, 500, 1.0)
    dens = me.solve_forward_density(me.VolatilityModel.full_length(1.0), g, 0.5)
    left, right = me.terminal_atoms(dens)
    assert left == pytest.approx(0.5, abs=0.02)
    assert right == pytest.approx(0.5, abs=0.02)
    assert left + right == pytest.approx(1.0, abs=1e-6)


def test_full_length_mass_piles_near_walls():
    g = me.make_grid(500, 500, 1.0)
    dens = me.solve_forward_density(me.VolatilityModel.full_length(1.0), g, 0.5)
    xs = g.x_nodes()
    late = dens.values[g.time_index(0.99)]
    wall = trapezoid(late[xs <= 0.1], dx=g.h) + trapezoid(late[xs >= 0.9], dx=g.h)
    early = dens.values[g.time_index(0.5)]
    wall_early = trapezoid(early[xs <= 0.1], dx=g.h) + trapezoid(early[xs >= 0.9], dx=g.h)
    assert wall >= 0.6  # most mass sits within 0.1 of a boundary by t = 0.99
    assert wall > 2.0 * wall_early  # and it accumulated there over time


def test_minimal_grid_density_conserves_mass():
    g = me.make_grid(2, 4, 1.0)
    dens = me.solve_forward_density(
        me.VolatilityModel.early_termination(constant_control_field(g)), g, 0.5)
    ledger = (trapezoid(dens.values, dx=g.h, axis=1)
              + dens.absorbed_mass_left + dens.absorbed_mass_right)
    assert np.max(np.abs(ledger - 1.0)) <= 1e-12
    full = me.solve_forward_density(me.VolatilityModel.full_length(1.0), g, 0.5)
    assert me.survival_probability(full, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_density_input_validation():
    g = me.make_grid(10, 10, 1.0)
    ctrl = constant_control_field(g)
    model = me.VolatilityModel.early_termination(ctrl)
    with pytest.raises(ValidationError):
        me.solve_forward_density(model, g, 0.0)
    with pytest.raises(ValidationError):
        me.solve_forward_density(model, g, 0.01)  # rounds onto the boundary node
    other = me.make_grid(20, 10, 1.0)
    with pytest.raises(ValidationError):
        me.solve_forward_density(model, other, 0.5)
    with pytest.raises(ValidationError):
        me.VolatilityModel(kind="bogus", T=1.0)
    with pytest.raises(ValidationError):
        me.VolatilityModel(kind="early_termination", T=1.0)
    for bad_T in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            me.VolatilityModel.full_length(bad_T)
    good = me.solve_forward_density(me.VolatilityModel.full_length(1.0), g, 0.5)
    for field in ("values", "absorbed_mass_left", "absorbed_mass_right"):
        broken = getattr(good, field).copy()
        broken[-1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            dataclasses.replace(good, **{field: broken})
