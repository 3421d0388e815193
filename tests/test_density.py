import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import matchentropy as me
from matchentropy import density
from matchentropy.errors import NumericalError, ValidationError
from matchentropy.hjb import POLICY_TOL, ControlField
from matchentropy.tridiag import solve_tridiagonal


def constant_control_field(grid, a=1.0):
    arr = np.full((grid.M + 1, grid.N + 1), float(a))
    return ControlField(grid=grid, a_star=arr)


def brownian_exit_survival(t, terms=60):
    """Series solution for a unit diffusion from 1/2 absorbed on (0,1)."""
    s = 0.0
    for k in range(terms):
        K = 2 * k + 1
        s += (4.0 / math.pi) * ((-1) ** k / K) * math.exp(-K * K * math.pi ** 2 * t / 2.0)
    return s


def full_length_variance(t, x, T):
    x = np.asarray(x, dtype=float)
    return density._full_length_variance(t, density._sin_squared(x, np.empty_like(x)), T,
                                         np.empty_like(x))[()]


def test_benchmark_volatility_values():
    assert full_length_variance(0.0, 0.5, 1.0) == pytest.approx(1.0 / math.pi ** 2, abs=1e-15)
    assert full_length_variance(0.3, 0.0, 1.0) == pytest.approx(0.0, abs=1e-16)
    assert full_length_variance(0.3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert math.sqrt(full_length_variance(0.75, 0.5, 1.0)) == pytest.approx(
        1.0 / (math.pi * 0.5), abs=1e-12)
    xs = np.linspace(0.0, 1.0, 7)
    row = full_length_variance(0.2, xs, 1.0)
    assert np.array_equal(row, [full_length_variance(0.2, x, 1.0) for x in xs])


@pytest.mark.parametrize("N, M", [(2, 2), (37, 53)])
def test_full_length_march_rows_are_the_shared_variance_bit_for_bit(N, M, monkeypatch):
    # each step's sigma^2 row, read as the march fills its step matrix; the row
    # at t = T is capped at t = (M - 1) k
    rows = []
    fill = density._fill_step_matrix

    def recording_fill(s, *args):
        rows.append(s.copy())
        return fill(s, *args)

    monkeypatch.setattr(density, "_fill_step_matrix", recording_fill)
    g = me.make_grid(N, M, 2.5)
    me.solve_forward_density(me.VolatilityModel.full_length(g.T), g, (N // 2) / N)
    x = g.x_nodes()
    assert len(rows) == M
    for m, row in enumerate(rows):
        want = full_length_variance(min(m + 1, M - 1) * g.k, x, g.T)[1:N]
        assert row.tobytes() == want.tobytes(), m


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


def test_benchmark_entropy_time_bounds_are_exact():
    assert me.benchmark_entropy(0.0, 0.5, 1.0) == 0.5 - math.log(math.pi)
    with pytest.raises(ValidationError, match="t must lie in"):
        me.benchmark_entropy(-1e-300, 0.5, 1.0)


def test_density_step_matches_dense_solve():
    g = me.make_grid(8, 1, 0.01)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 2.0, size=(2, 9))
    ctrl = ControlField(grid=g, a_star=a)
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(ctrl), g, 0.5)

    # the step from level m to m + 1 is the transpose of the HJB step
    # I - (k/2) diag(a) A at the control row a_star[m + 1], with A the second
    # difference (v[n+1] - 2 v[n] + v[n-1]) / h^2 on the interior nodes
    n_int = g.N - 1
    A = (np.eye(n_int, k=1) - 2.0 * np.eye(n_int) + np.eye(n_int, k=-1)) / g.h ** 2
    hjb_step = np.eye(n_int) - g.k / 2.0 * np.diag(a[1, 1:-1]) @ A
    q0 = np.zeros(n_int)
    q0[3] = 1.0 / g.h  # dirac at x0 = 0.5 is node 4 of 8
    expected = np.linalg.solve(hjb_step.T, q0)
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
    for t in (0.123, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValidationError):
            me.survival_probability(dens, t)


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


@pytest.mark.parametrize("N, M", [(2, 1), (2, 4), (40, 1), (64, 30)])
def test_interior_mass_is_the_reference_trapezoid_bit_for_bit(N, M):
    g = me.make_grid(N, M, 1.0)
    a = np.random.default_rng(N + M).uniform(0.5, 2.0, size=(M + 1, N + 1))
    for model in (me.VolatilityModel.early_termination(ControlField(grid=g, a_star=a)),
                  me.VolatilityModel.full_length(1.0)):
        dens = me.solve_forward_density(model, g, 0.5)
        mass = dens.interior_mass
        assert mass.tobytes() == trapezoid(dens.values, dx=g.h, axis=1).tobytes()
        for m, t in enumerate(g.t_nodes()):
            survival = me.survival_probability(dens, t)
            assert survival == mass[m]
            assert np.float64(survival).tobytes() == trapezoid(dens.values[m], dx=g.h).tobytes()
        assert not mass.flags.writeable
        with pytest.raises(ValueError):
            mass[0] = 0.0
        with pytest.raises(TypeError):
            me.DensitySurface(grid=g, values=dens.values,
                              absorbed_mass_left=dens.absorbed_mass_left,
                              absorbed_mass_right=dens.absorbed_mass_right, interior_mass=mass)


def reference_forward_density(model, grid, x0):
    """The implicit march as first written: fresh coefficient arrays at every
    level and the monotonicity guard's peak taken on every row."""
    N, M, h, k = grid.N, grid.M, grid.h, grid.k
    b = k / (2.0 * h * h)
    reflecting = model.kind == density.FULL_LENGTH
    q = np.zeros((M + 1, N + 1))
    q[0, int(round(x0 * N))] = 1.0 / h
    left = np.zeros(M + 1)
    right = np.zeros(M + 1)
    for m in range(M):
        if reflecting:
            t = min(m + 1, M - 1) * k
            s = np.sin(math.pi * grid.x_nodes()) ** 2 / (math.pi ** 2 * (model.T - t))
        else:
            s = model.control.a_star[m + 1]
        diag = 1.0 + 2.0 * b * s[1:N]
        sup = -b * s[2:N]
        sub = -b * s[1:N - 1]
        if reflecting:
            diag[0] -= b * s[1]
            diag[-1] -= b * s[N - 1]
        interior = solve_tridiagonal(sub, diag, sup, q[m, 1:N])
        lowest = float(np.min(interior))
        peak = float(np.max(np.abs(interior))) if interior.size else 0.0
        if lowest < -1e-12 * max(1.0, peak):
            raise NumericalError(f"negative density at time level {m + 1}")
        np.clip(interior, 0.0, None, out=interior)
        q[m + 1, 1:N] = interior
        if reflecting:
            left[m + 1] = left[m]
            right[m + 1] = right[m]
        else:
            left[m + 1] = left[m] + b * h * s[1] * interior[0]
            right[m + 1] = right[m] + b * h * s[N - 1] * interior[-1]
    return q, left, right


@pytest.mark.parametrize("N, M, x0, solved", [
    (2, 1, 0.5, False),  # one interior node: a 1x1 solve with empty off-diagonals
    (2, 4, 0.5, True),
    (3, 5, 1 / 3, False),
    (64, 30, 19 / 64, False),
    (40, 300, 0.5, True),
])
def test_forward_density_matches_reference_loop(N, M, x0, solved):
    # T = 2.5 pins the full-length variance's divisor pi^2 (T - t) away from T = 1
    for T in (1.0, 2.5):
        g = me.make_grid(N, M, T)
        if solved:
            cfg = me.SchemeConfig(cap_d=1e6)
            control = me.optimal_control_field(me.solve_hjb(g, cfg), cfg)
        else:
            a = np.random.default_rng(N * M).uniform(0.5, 2.0, size=(M + 1, N + 1))
            control = ControlField(grid=g, a_star=a)
        for model in (me.VolatilityModel.early_termination(control),
                      me.VolatilityModel.full_length(T)):
            dens = me.solve_forward_density(model, g, x0)
            values, left, right = reference_forward_density(model, g, x0)
            assert dens.values.tobytes() == values.tobytes()
            assert dens.absorbed_mass_left.tobytes() == left.tobytes()
            assert dens.absorbed_mass_right.tobytes() == right.tobytes()


def solved_density(N, M, T, x0, cap_d, n):
    """The HJB surface on an N x M grid, its control's interior columns and the
    density that control carries from x0."""
    g = me.make_grid(N, M, T)
    cfg = me.SchemeConfig(cap_d=cap_d, terminal_regularisation_n=n)
    surface = me.solve_hjb(g, cfg)
    control = me.optimal_control_field(surface, cfg)
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(control), g, x0)
    return g, surface.values, control.a_star[:, 1:-1], dens


DUALITY_CASES = [
    (40, 30, 1.0, 0.5, 1e6, None),
    (60, 45, 0.7, 0.25, 1e6, None),
    (120, 90, 1.0, 0.5, 1e3, None),
    (40, 30, 1.0, 0.5, 1e6, 4),  # a regularised terminal row pairs with the last density row
    (40, 30, 1.0, 0.5, 1e6, 16),
    (1000, 1000, 1.0, 0.5, 1e6, None),
]


@pytest.mark.parametrize("N, M, T, x0, cap_d, n", DUALITY_CASES)
def test_density_pairs_with_the_hjb_value_to_the_stop_rule(N, M, T, x0, cap_d, n):
    """The march from t_m to t_{m+1} solves with a*_{m+1}, the transpose of the
    HJB step that filled row m+1, so pairing each density row with the reward
    r = (1 + log a*)/2 of its own row telescopes to the value one row in:
    e[1, j0] = k sum_{m=1}^{M-1} h<q_m, r_m> + h<q_{M-1}, e_M> (interior sums)."""
    g, e, a, dens = solved_density(N, M, T, x0, cap_d, n)
    h, k, j0 = g.h, g.k, g.space_index(x0)
    q, r, e_end = dens.values[:, 1:-1], 0.5 * (1.0 + np.log(a)), e[M, 1:-1]
    # each level meets its scaled residual to POLICY_TOL: at most that per level
    tol = M * POLICY_TOL * float(np.max(np.abs(e)))
    value = k * h * np.sum(q[1:M] * r[1:M]) + h * np.dot(q[M - 1], e_end)
    assert abs(e[1, j0] - value) <= tol
    # the pairing of a march that read a*_m, against e[0, j0]: this march misses it
    shifted = k * h * np.sum(q[1:] * r[:-1]) + h * np.dot(q[M], e_end)
    assert abs(e[0, j0] - shifted) > tol


@pytest.mark.parametrize("N, M, T, x0, cap_d, n", DUALITY_CASES)
def test_density_ledger_closes_the_ito_identity(N, M, T, x0, cap_d, n):
    """Paired with x^2, whose second difference is 2, each implicit step moves
    h<q, x^2> by k h<q_{m+1}, a*_{m+1}> less what it absorbs at x = 1, so
    absorbed_right[M] + h<q_M, x^2> - x0^2 = k sum_{m=0}^{M-1} h<q_{m+1}, a*_{m+1}>."""
    g, _, a, dens = solved_density(N, M, T, x0, cap_d, n)
    h, k, x = g.h, g.k, g.x_nodes()[1:-1]
    q = dens.values[:, 1:-1]
    lhs = dens.absorbed_mass_right[M] + h * np.dot(q[M], x * x) - x0 * x0
    tol = 64 * M * np.finfo(float).eps  # round-off of M steps' sums
    assert abs(lhs - k * h * np.sum(q[1:] * a[1:])) <= tol
    assert abs(lhs - k * h * np.sum(q[1:] * a[:-1])) > tol  # the control one row early


@pytest.mark.parametrize("entry, fires", [(-1e-9, True), (-1e-15, False)])
def test_monotonicity_guard_fires_beyond_round_off(monkeypatch, entry, fires):
    # so short a horizon that node 1 holds about 1e-19 of the Dirac at node 5:
    # overwriting it leaves the mass ledger intact
    def solve_with_one_negative_entry(sub, diag, sup, rhs):
        x = solve_tridiagonal(sub, diag, sup, rhs)
        x[0] = entry
        return x

    monkeypatch.setattr(density, "solve_tridiagonal", solve_with_one_negative_entry)
    g = me.make_grid(10, 4, 1e-6)
    model = me.VolatilityModel.early_termination(constant_control_field(g))
    if fires:
        with pytest.raises(NumericalError, match="time level 1:"):
            me.solve_forward_density(model, g, 0.5)
    else:
        dens = me.solve_forward_density(model, g, 0.5)
        assert dens.values[1:, 1].tobytes() == np.zeros(g.M).tobytes()


def test_density_input_validation():
    g = me.make_grid(10, 10, 1.0)
    ctrl = constant_control_field(g)
    model = me.VolatilityModel.early_termination(ctrl)
    with pytest.raises(ValidationError):
        me.solve_forward_density(model, g, 0.0)
    with pytest.raises(ValidationError, match=r"x0=1\.0 lies on a boundary node"):
        me.solve_forward_density(model, g, 1.0)
    for outside in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=rf"x = {outside!r} lies outside the grid"):
            me.solve_forward_density(model, g, outside)
    with pytest.raises(ValidationError, match="nearest nodes are 0 and 0.1"):
        me.solve_forward_density(model, g, 0.01)  # between nodes: the Dirac is not moved
    with pytest.raises(ValidationError, match="boundary node"):
        me.solve_forward_density(model, g, 1e-11)  # within 1e-9 h of node 0
    other = me.make_grid(20, 10, 1.0)
    with pytest.raises(ValidationError):
        me.solve_forward_density(model, other, 0.5)
    with pytest.raises(ValidationError):
        me.VolatilityModel(kind="bogus", T=1.0)
    with pytest.raises(ValidationError):
        me.VolatilityModel(kind="early_termination", T=1.0)
    with pytest.raises(ValidationError, match="horizon"):
        me.VolatilityModel(kind="early_termination", T=5.0, control=ctrl)
    with pytest.raises(ValidationError, match="do not match"):
        me.solve_forward_density(me.VolatilityModel.full_length(2.0), g, 0.5)
    for bad_T in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            me.VolatilityModel.full_length(bad_T)
    good = me.solve_forward_density(me.VolatilityModel.full_length(1.0), g, 0.5)
    for field in ("values", "absorbed_mass_left", "absorbed_mass_right"):
        broken = getattr(good, field).copy()
        broken[-1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            dataclasses.replace(good, **{field: broken})


def test_full_length_model_rejects_a_zero_horizon():
    with pytest.raises(ValidationError, match="positive and finite"):
        me.VolatilityModel.full_length(0.0)


def test_density_surface_rejects_negative_entries_and_a_broken_ledger():
    g = me.make_grid(4, 5, 1.0)
    zeros = np.zeros(g.M + 1)
    values = np.ones((g.M + 1, g.N + 1))  # unit mass on every row
    me.DensitySurface(grid=g, values=values, absorbed_mass_left=zeros, absorbed_mass_right=zeros)
    negative = values.copy()
    negative[2, 2] = -1e-6
    with pytest.raises(ValidationError, match="negative entries"):
        me.DensitySurface(grid=g, values=negative, absorbed_mass_left=zeros,
                          absorbed_mass_right=zeros)
    heavy = values.copy()
    heavy[4] *= 1.5
    with pytest.raises(ValidationError, match=r"time level 4: interior\+absorbed = 1\.5$"):
        me.DensitySurface(grid=g, values=heavy, absorbed_mass_left=zeros,
                          absorbed_mass_right=zeros)
