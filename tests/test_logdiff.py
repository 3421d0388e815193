import re

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import matchentropy as me
from matchentropy.errors import ConvergenceError, NumericalError, ValidationError
from matchentropy import logdiff
from matchentropy.grid import second_difference_interior
from matchentropy.tridiag import solve_tridiagonal


def test_initial_row_is_constant_one_over_n():
    g = me.make_grid(20, 10, 1.0)
    p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=8))
    assert np.all(p.values[0] == 0.125)


def test_stationary_field_is_exact_fixed_point():
    g = me.make_grid(30, 30, 1.0)
    p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=1))
    assert np.max(np.abs(p.values - 1.0)) <= 1e-12


def test_p_stays_in_unit_band():
    g = me.make_grid(50, 50, 1.0)
    for n in (2, 16):
        p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=n))
        assert np.all(p.values > 0.0)
        assert np.all(p.values <= 1.0 + 1e-10)
        assert np.all(p.values[1:, 0] == 1.0) and np.all(p.values[1:, -1] == 1.0)


def test_p_symmetric_for_even_n_nodes():
    g = me.make_grid(64, 40, 1.0)
    p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=4))
    assert np.max(np.abs(p.values - p.values[:, ::-1])) <= 1e-9


def test_entropy_from_constant_one_is_stationary_profile():
    g = me.make_grid(128, 16, 1.0)
    p = me.PField(grid=g, values=np.ones((17, 129)))
    e = me.entropy_from_p(p)
    expected = me.stationary_entropy(g.x_nodes())
    assert np.max(np.abs(e.values - expected)) <= 1e-14


def random_p_field(rng, N, M):
    """A valid p field of uniform random rows: positive, at most 1, lateral value 1
    for m >= 1."""
    g = me.make_grid(N, M, 1.0)
    pvals = rng.uniform(0.1, 1.0, size=(M + 1, N + 1))
    pvals[1:, [0, -1]] = 1.0
    return me.PField(grid=g, values=pvals)


def test_entropy_boundaries_exactly_zero_for_any_p():
    e_vals = me.entropy_from_p(random_p_field(np.random.default_rng(1), 33, 7)).values
    assert np.all(e_vals[:, 0] == 0.0) and np.all(e_vals[:, -1] == 0.0)


def test_curvature_identity_links_entropy_back_to_p():
    g = me.make_grid(50, 50, 1.0)
    p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=4))
    e = me.entropy_from_p(p)
    h2 = g.h * g.h
    for m in (0, 10, 25, 50):
        row_p = p.values[g.M - m]
        curvature = (e.values[m, 2:] - 2.0 * e.values[m, 1:-1] + e.values[m, :-2]) / h2
        # the nested trapezoid makes the curvature an exact local average of p
        smoothed = -(row_p[2:] + 2.0 * row_p[1:-1] + row_p[:-2]) / 4.0
        assert np.max(np.abs(curvature - smoothed)) <= 1e-10
        # and that average sits within quadrature accuracy of p itself
        wiggle = np.abs(row_p[2:] - 2.0 * row_p[1:-1] + row_p[:-2]) / 4.0
        assert np.all(np.abs(curvature + row_p[1:-1]) <= wiggle + 1e-10)


def test_time_derivative_matches_log_p_away_from_startup():
    errs = {}
    for NM in (50, 100, 200):
        g = me.make_grid(NM, NM, 1.0)
        p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=4))
        e = me.entropy_from_p(p)
        dt = 2.0 * (e.values[1:] - e.values[:-1]) / g.k
        logp = np.log(p.values[::-1])
        mid = 0.5 * (logp[1:] + logp[:-1])
        cut = int(0.9 * NM)  # the first forward rows carry the incompatible-corner layer
        errs[NM] = float(np.max(np.abs(dt[:cut, 1:-1] - mid[:cut, 1:-1])))
    assert errs[50] / errs[100] >= 1.5
    assert errs[100] / errs[200] >= 1.5


def test_ladder_monotone_non_increasing():
    g = me.make_grid(40, 40, 1.0)
    members = {}
    for n in (1, 2, 4):
        members[n] = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=n))
    assert np.all(members[2].values <= members[1].values + 1e-9)
    assert np.all(members[4].values <= members[2].values + 1e-9)
    e2 = me.entropy_from_p(members[2]).values
    e4 = me.entropy_from_p(members[4]).values
    assert np.all(e4 <= e2 + 1e-9)


@pytest.mark.parametrize("overshoot,clipped", [(1e-12, True), (1e-6, False)])
def test_p_above_one_is_clipped_only_within_tolerance(overshoot, clipped, monkeypatch):
    solved_step = logdiff._newton_step
    monkeypatch.setattr(logdiff, "_newton_step",
                        lambda *args: solved_step(*args) + overshoot)
    g = me.make_grid(10, 10, 1.0)
    cfg = me.LadderConfig(regularisation_n=1)  # p = 1 is the exact solution
    if clipped:
        assert np.max(me.solve_log_diffusion(g, cfg).values) == 1.0
    else:
        with pytest.raises(NumericalError, match="above 1"):
            me.solve_log_diffusion(g, cfg)


def test_newton_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(logdiff, "MAX_NEWTON_ITERS", 1)
    g = me.make_grid(200, 200, 1.0)
    with pytest.raises(ConvergenceError):
        me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=16))


@pytest.mark.parametrize("N, n, tol", [(1000, 16, "1.0e-08"), (2000, 16, "1.0e-08"),
                                       (4000, 16, "3.9e-08")])
def test_newton_stop_rule_is_the_larger_of_its_tolerance_and_round_off_floor(N, n, tol,
                                                                            monkeypatch):
    # the floor 4 eps log(n) / h^2 grows with N and n, so N = 2000, n = 16 bounds
    # every N <= 2000 at n <= 16: those grids keep the stop rule NEWTON_TOL
    monkeypatch.setattr(logdiff, "MAX_NEWTON_ITERS", 0)
    with pytest.raises(ConvergenceError,
                       match=re.escape(f"residual {tol} = max(NEWTON_TOL, 4 eps log(n) / h^2)")):
        me.solve_log_diffusion(me.make_grid(N, 1, 1.0), me.LadderConfig(regularisation_n=n))


def test_a_fine_grid_converges_to_its_round_off_floor():
    # the residual of A log p cannot fall below about 1.4e-8 here, above NEWTON_TOL
    p = me.solve_log_diffusion(me.make_grid(4000, 20, 1.0), me.LadderConfig(regularisation_n=16))
    assert np.all(np.diff(p.values, axis=0) >= 0.0)  # p rises from 1/n toward its boundary value


def test_newton_damping_underflow_raises(monkeypatch):
    # a step of -inf leaves the iterate non-positive however far it is damped
    monkeypatch.setattr(logdiff, "solve_tridiagonal",
                        lambda sub, diag, sup, rhs: np.full_like(rhs, -np.inf))
    with pytest.raises(ConvergenceError, match="Newton damping underflow"):
        me.solve_log_diffusion(me.make_grid(8, 4, 1.0), me.LadderConfig(2))


def test_newton_damping_halves_until_the_iterate_is_positive(monkeypatch):
    # the Jacobian diagonal is 2/k + 2/(h^2 w), so each solve reveals the iterate w
    g = me.make_grid(16, 4, 1.0)
    iterates = []

    def spy(sub, diag, sup, rhs):
        w = 2.0 / (g.h * g.h * (diag - 2.0 / g.k))
        iterates.append(w)
        if len(iterates) == 1:
            return -3.0 * w  # w + delta and w + delta/2 are not positive, w + delta/4 is
        return solve_tridiagonal(sub, diag, sup, rhs)

    monkeypatch.setattr(logdiff, "solve_tridiagonal", spy)
    p = me.solve_log_diffusion(g, me.LadderConfig(regularisation_n=16))
    assert isinstance(p, me.PField)
    np.testing.assert_allclose(iterates[0], 1.0 / 16.0, rtol=1e-12)
    np.testing.assert_allclose(iterates[1], iterates[0] / 4.0, rtol=1e-12)


def test_ladder_config_validation():
    # the rule SchemeConfig applies to its terminal_regularisation_n
    for n in (0, 2.5, 2**53 + 1):
        with pytest.raises(ValidationError, match="regularisation_n"):
            me.LadderConfig(regularisation_n=n)
    assert me.LadderConfig(regularisation_n=np.int64(2**53)).regularisation_n == 2**53


def reference_newton_step(prev_int, grid):
    """The Newton loop as first written: the Jacobian products and the damped
    trial iterate recomputed where they are used."""
    k, h = grid.k, grid.h
    h2 = h * h
    w = prev_int.copy()

    def residual(w_int):
        logp = np.zeros(grid.N + 1)
        logp[1:-1] = np.log(w_int)
        return 2.0 * (w_int - prev_int) / k - second_difference_interior(logp, h)

    F = residual(w)
    for _ in range(logdiff.MAX_NEWTON_ITERS):
        if float(np.max(np.abs(F))) <= logdiff.NEWTON_TOL:
            return w
        diag = 2.0 / k + 2.0 / (h2 * w)
        sub = -1.0 / (h2 * w[:-1])
        sup = -1.0 / (h2 * w[1:])
        delta = solve_tridiagonal(sub, diag, sup, -F)
        lam = 1.0
        while np.any(w + lam * delta <= 1e-30):
            lam *= 0.5
        w = w + lam * delta
        F = residual(w)
    raise ConvergenceError("reference Newton loop did not converge")


@pytest.mark.parametrize("N, M, n", [(200, 200, 16), (64, 1000, 4), (50, 30, 1)])
def test_log_diffusion_matches_reference_newton_loop(monkeypatch, N, M, n):
    g = me.make_grid(N, M, 1.0)
    cfg = me.LadderConfig(regularisation_n=n)
    p = me.solve_log_diffusion(g, cfg).values
    calls = []

    def reference_level(prev_int, grid, work, tol):
        calls.append(prev_int.size)
        return reference_newton_step(prev_int, grid)

    monkeypatch.setattr(logdiff, "_newton_step", reference_level)
    assert p.tobytes() == me.solve_log_diffusion(g, cfg).values.tobytes()
    assert calls == [N - 1] * M  # the march stepped every level through the reference


@pytest.mark.parametrize("N, M, level", [(50, 1, 50.0), (50, 10, 50.0)])
def test_damped_newton_step_matches_reference_loop(N, M, level):
    # a level far above the boundary value 1 with a long step: full Newton
    # steps would leave the positive cone, so the damping halves lam three times
    g = me.make_grid(N, M, 1.0)
    prev = np.full(N - 1, level)
    got = logdiff._newton_step(prev, g, np.zeros((7, N + 1)), logdiff.NEWTON_TOL)
    assert got.tobytes() == reference_newton_step(prev, g).tobytes()


def test_entropy_rebuild_matches_reference_expression():
    rng = np.random.default_rng(7)
    for N, M in ((2, 1), (33, 7), (1000, 3)):
        p = random_p_field(rng, N, M)
        g, pvals = p.grid, p.values
        outer = cumulative_trapezoid(cumulative_trapezoid(pvals, dx=g.h, axis=1, initial=0.0),
                                     dx=g.h, axis=1, initial=0.0)
        expected = -outer + g.x_nodes()[np.newaxis, :] * outer[:, -1:]
        expected[:, 0] = expected[:, -1] = 0.0
        assert me.entropy_from_p(p).values.tobytes() == expected[::-1].tobytes()


def test_one_rebuilt_row_has_the_bits_of_the_whole_surface():
    # forward-p rebuilds only row 0, from p's last row, to print e(0, 1/2)
    p = random_p_field(np.random.default_rng(11), 1000, 9)
    g, whole = p.grid, me.entropy_from_p(p).values
    for m in (0, 4, 9):
        row = logdiff._entropy_rows(p.values[g.M - m:g.M - m + 1], g.h, g.x_nodes())
        assert row.tobytes() == whole[m].tobytes()
