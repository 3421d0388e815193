import math
import re
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import matchentropy as me
from matchentropy import hjb
from matchentropy.errors import ConvergenceError, ValidationError
from matchentropy.grid import second_difference_interior
from matchentropy.tridiag import solve_tridiagonal

FLOOR = hjb.CONTROL_FLOOR


def hamiltonian(q, cap_d):
    """(values, minimisers) of -a*q - log a - 1 over a in [1/e, cap_d]: the solvers'
    capped_control, and the objective at it as the plain expression."""
    a = hjb.capped_control(q, cap_d)
    return -a * q - np.log(a) - 1.0, a


def brute_force_hamiltonian(q, cap_d, n_pts=1_000_000):
    """Independent minimisation of -a*q - log a - 1 on a dense uniform a-grid."""
    a = np.linspace(FLOOR, cap_d, n_pts)
    vals = -a * q - np.log(a) - 1.0
    i = int(np.argmin(vals))
    return float(vals[i]), float(a[i])


def test_hamiltonian_reference_points():
    v, a = hamiltonian(-1.0, 10.0)
    assert v == pytest.approx(0.0, abs=1e-15)
    assert a == pytest.approx(1.0, abs=1e-15)

    v, a = hamiltonian(-math.e, 10.0)
    assert a == pytest.approx(FLOOR, abs=1e-15)
    assert v == pytest.approx(1.0, abs=1e-12)  # clamp activates exactly at the floor

    v, a = hamiltonian(0.5, 10.0)
    assert a == 10.0
    assert v == pytest.approx(-5.0 - math.log(10.0) - 1.0, abs=1e-12)
    bv, ba = brute_force_hamiltonian(0.5, 10.0)
    assert v == pytest.approx(bv, abs=1e-9) and ba == pytest.approx(10.0, abs=1e-4)


def test_hamiltonian_unconstrained_branch_equals_log():
    for q in (-0.5, -1.0, -2.0, -2.5):
        v, a = hamiltonian(q, 10.0)
        assert a == pytest.approx(-1.0 / q, rel=1e-15)
        assert v == pytest.approx(math.log(-q), abs=1e-14)


def test_hamiltonian_against_brute_force_grid():
    cap = 10.0
    n_pts = 1_000_000
    da = (cap - FLOOR) / (n_pts - 1)
    rng = np.random.default_rng(42)
    qs = rng.uniform(-100.0, 1.0, size=1000)
    a_grid = np.linspace(FLOOR, cap, n_pts)
    log_a = np.log(a_grid)
    values, minimisers = hamiltonian(qs, cap)  # the array call the solvers make
    for q, v, a in zip(qs, values, minimisers):
        vals = -a_grid * q - log_a - 1.0
        i = int(np.argmin(vals))
        assert abs(a - a_grid[i]) <= da * 1.0001
        # the grid minimum can only exceed the true minimum, by at most the
        # curvature (<= e^2) times the squared grid spacing
        assert -1e-12 <= vals[i] - v <= 0.5 * math.e ** 2 * da * da + 1e-12


@given(q=st.floats(-50.0, 5.0, allow_nan=False), cap=st.floats(0.5, 100.0))
def test_hamiltonian_minimiser_satisfies_first_order_conditions(q, cap):
    v, a = hamiltonian(q, cap)
    assert FLOOR - 1e-15 <= a <= cap + 1e-15
    grad = -q - 1.0 / a  # derivative of the objective in a
    if FLOOR + 1e-9 < a < cap - 1e-9:
        assert abs(grad) <= 1e-9 * max(1.0, abs(q))
    elif a <= FLOOR + 1e-9:
        assert grad >= -1e-9
    else:
        assert grad <= 1e-9 * max(1.0, abs(q))


@given(q=st.floats(-50.0, 5.0, allow_nan=False),
       cap_lo=st.floats(0.5, 20.0), cap_hi=st.floats(0.5, 20.0))
def test_hamiltonian_value_monotone_in_cap(q, cap_lo, cap_hi):
    lo, hi = sorted((cap_lo, cap_hi))
    v_lo, _ = hamiltonian(q, lo)
    v_hi, _ = hamiltonian(q, hi)
    assert v_hi <= v_lo + 1e-12  # minimising over a larger set can only help


def one_step(sweep, v_next, grid, cap_d):
    """One backward step of a scheme: its sweep over the rows (result, v_next).
    Returns the new row and its iteration count."""
    values = np.zeros((2, len(v_next)))
    values[1] = v_next
    iters = sweep(values, grid, cap_d)
    return values[0], int(iters[0])


def test_explicit_step_zero_row_cap_e():
    g = me.make_grid(10, 300, 1.0)
    out, iters = one_step(hjb._explicit_sweep, np.zeros(11), g, math.e)
    assert iters == 0
    assert out[0] == 0.0 and out[-1] == 0.0
    # with zero diffusion term the maximiser is the cap, giving k(log a + 1)/2 = k
    assert np.allclose(out[1:-1], g.k, rtol=1e-13)


def test_explicit_step_cfl_violation_names_the_numbers():
    g = me.make_grid(100, 100, 1.0)
    cfg = me.SchemeConfig(cap_d=1e6, scheme="explicit")
    with pytest.raises(ValidationError, match="exceeds 1") as err:
        me.solve_hjb_with_iterations(g, cfg)
    msg = str(err.value)
    assert "0.01" in msg and "1e+06" in msg and "exceeds 1" in msg


def test_explicit_step_preserves_stationary_bound():
    g = me.make_grid(16, 600, 1.0)
    e_inf = me.stationary_entropy(g.x_nodes())
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = e_inf * rng.uniform(0.0, 1.0, size=e_inf.shape)
        v[0] = v[-1] = 0.0
        out, _ = one_step(hjb._explicit_sweep, v, g, 2.0)
        assert np.all(out <= e_inf + 1e-12)


def policy_controls(u, grid, cap_d):
    """The control update of the implicit sweep: minimisers at the interior nodes of u."""
    return hjb.capped_control(second_difference_interior(u, grid.h), cap_d)


def test_policy_update_reference_rows():
    g = me.make_grid(10, 10, 1.0)
    controls = policy_controls(me.stationary_entropy(g.x_nodes()), g, 10.0)
    assert np.allclose(controls, 1.0, atol=1e-10)
    controls = policy_controls(np.zeros(11), g, 10.0)
    assert np.all(controls == 10.0)


def test_policy_update_floor_via_brute_force():
    # one node with second difference exactly -4; brute-force the step objective
    g = me.make_grid(2, 2, 1.0)  # h = 1/2 so the middle node sees (0 - 2u + 0)/h^2
    u = np.array([0.0, 0.5, 0.0])  # (A u)_1 = -2*0.5/0.25 = -4
    (control,) = policy_controls(u, g, 10.0)
    a_grid = np.linspace(FLOOR, 10.0, 2_000_000)
    objective = a_grid * (-4.0) + np.log(a_grid) + 1.0  # maximised by the scheme
    best = a_grid[int(np.argmax(objective))]
    assert control == pytest.approx(best, abs=1e-5)
    assert control == pytest.approx(FLOOR, abs=1e-15)


def test_implicit_step_matches_dense_root_find(monkeypatch):
    monkeypatch.setattr(hjb, "POLICY_TOL", 1e-13)
    g = me.make_grid(4, 2, 1.0)
    u, iters = one_step(hjb._implicit_sweep, np.zeros(5), g, 10.0)
    assert iters >= 1

    def residual(u_int):
        full = np.concatenate([[0.0], u_int, [0.0]])
        q = second_difference_interior(full, g.h)
        hvals = np.array([hamiltonian(float(qq), 10.0)[0] for qq in q])
        return u_int + 0.5 * g.k * hvals

    oracle = scipy.optimize.root(residual, x0=np.full(3, 0.05), method="hybr", tol=1e-14)
    assert oracle.success
    assert np.max(np.abs(u[1:-1] - oracle.x)) <= 1e-10
    assert oracle.x == pytest.approx([0.06912911, 0.09085689, 0.06912911], abs=1e-7)


def test_implicit_step_respects_stationary_bounds():
    g = me.make_grid(32, 32, 1.0)
    e_inf = me.stationary_entropy(g.x_nodes())
    u, _ = one_step(hjb._implicit_sweep, e_inf, g, 100.0)
    assert np.all(u >= -1e-12)
    assert np.all(u <= e_inf + 1e-12)


def test_implicit_step_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(hjb, "MAX_POLICY_ITERS", 1)
    g = me.make_grid(64, 64, 1.0)
    with pytest.raises(ConvergenceError):
        one_step(hjb._implicit_sweep, me.stationary_entropy(g.x_nodes()) * 0.3, g, 1e6)


def test_solve_hjb_boundaries_bounds_symmetry():
    g = me.make_grid(60, 60, 1.0)
    surf = me.solve_hjb(g, me.SchemeConfig(cap_d=1e4))
    v = surf.values
    e_inf = me.stationary_entropy(g.x_nodes())
    assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 0.0)
    assert np.all(v <= e_inf + 1e-10) and np.all(v >= -1e-10)
    assert np.max(np.abs(v - v[:, ::-1])) <= 1e-9
    assert np.max(v) <= 0.125 + 1e-10


def test_solve_hjb_monotone_in_cap():
    g = me.make_grid(50, 50, 1.0)
    v_small = me.solve_hjb(g, me.SchemeConfig(cap_d=5.0)).values
    v_large = me.solve_hjb(g, me.SchemeConfig(cap_d=50.0)).values
    assert np.all(v_large >= v_small - 1e-12)


@settings(max_examples=60)
@given(N=st.integers(4, 40), M=st.integers(2, 40), T=st.floats(0.05, 3.0),
       caps=st.lists(st.floats(2.0, 1e6), min_size=2, max_size=2, unique=True))
def test_random_small_grids_keep_the_monotonicity_and_shape_invariants(N, M, T, caps):
    # a larger control set gives a larger value, smaller terminal data (a larger
    # ladder index) a smaller one, and every surface is bounded, time-monotone,
    # symmetric and concave; the slack is the policy stop rule summed over M levels
    g = me.make_grid(N, M, T)
    cap_lo, cap_hi = sorted(caps)
    surfaces = [me.solve_hjb(g, me.SchemeConfig(cap_d=cap, terminal_regularisation_n=n))
                for cap, n in ((cap_lo, None), (cap_hi, None), (cap_hi, 5), (cap_hi, 2))]
    e_lo, e_hi, e_n5, e_n2 = (s.values for s in surfaces)
    tol = M * hjb.POLICY_TOL * max(1.0, max(float(np.max(np.abs(e))) for e in (e_lo, e_hi)))
    assert np.max(e_lo - e_hi) <= tol
    assert np.max(e_n5 - e_n2) <= tol
    for surface in surfaces:
        report = me.check_solution_properties(surface)
        assert report.passed, report.format_table()


def test_solve_hjb_regularised_terminal_row():
    g = me.make_grid(20, 10, 1.0)
    surf = me.solve_hjb(g, me.SchemeConfig(cap_d=10.0, terminal_regularisation_n=4))
    assert np.allclose(surf.values[-1], me.stationary_entropy(g.x_nodes()) / 4.0, atol=0.0)


def test_explicit_and_implicit_agree_and_tighten():
    # halving k and h^2 together shrinks the scheme gap by about 2x
    cap = 2.0

    def gap(N, k_scale):
        h2 = (1.0 / N) ** 2
        M = int(round(1.0 / (h2 / cap * k_scale)))
        g = me.make_grid(N, M, 1.0)
        v_e = me.solve_hjb(g, me.SchemeConfig(cap_d=cap, scheme="explicit")).values
        v_i = me.solve_hjb(g, me.SchemeConfig(cap_d=cap, scheme="implicit")).values
        return float(np.max(np.abs(v_e - v_i)))

    coarse = gap(16, 1.0)
    fine = gap(23, 0.98)  # h^2 halves at N=23; k tied to h^2 through the cfl bound
    assert coarse / fine >= 1.8


def test_solve_hjb_explicit_cfl_precheck(monkeypatch):
    # the bound is checked once, before the first step: the sweep never runs
    def no_sweep(*args):
        raise AssertionError("the explicit sweep ran past a violated CFL bound")

    monkeypatch.setattr(hjb, "_explicit_sweep", no_sweep)
    g = me.make_grid(1000, 1000, 1.0)
    with pytest.raises(ValidationError, match="exceeds 1"):
        me.solve_hjb(g, me.SchemeConfig(cap_d=1e6, scheme="explicit"))


def test_optimal_control_field_values():
    g = me.make_grid(40, 20, 1.0)
    cfg = me.SchemeConfig(cap_d=1e5)
    surf = me.solve_hjb(g, cfg)
    ctrl = me.optimal_control_field(surf, cfg)
    assert np.all(ctrl.a_star[:, 0] == 1.0) and np.all(ctrl.a_star[:, -1] == 1.0)
    assert np.all(ctrl.a_star[-1, 1:-1] == 1e5)  # zero terminal data: cap everywhere
    assert np.allclose(ctrl.sigma_star ** 2, ctrl.a_star, rtol=1e-12)
    assert np.all(ctrl.a_star >= FLOOR - 1e-15)

    stationary = me.ValueSurface(
        grid=g, values=np.tile(me.stationary_entropy(g.x_nodes()), (g.M + 1, 1)))
    flat = me.optimal_control_field(stationary, cfg)
    assert np.allclose(flat.a_star[:, 1:-1], 1.0, atol=1e-9)
    assert np.allclose(flat.sigma_star[:, 1:-1], 1.0, atol=1e-9)


def test_scheme_config_validation():
    with pytest.raises(ValidationError, match="cap_d must be >= 1/e"):
        me.SchemeConfig(cap_d=0.2)
    # a real number first, not text, None or an int past the float range
    for cap in ("1e3", None, 10**400):
        with pytest.raises(ValidationError, match="cap_d must be a real number, positive"):
            me.SchemeConfig(cap_d=cap)
    with pytest.raises(ValidationError):
        me.SchemeConfig(scheme="magic")
    # a ladder index is an integer in [1, 2**53]: above that, n is used as a float
    # that other integers round to as well
    for n in (0, 2.5, 2**53 + 1):
        with pytest.raises(ValidationError, match="terminal_regularisation_n"):
            me.SchemeConfig(terminal_regularisation_n=n)
    assert me.SchemeConfig(terminal_regularisation_n=2**53).terminal_regularisation_n == 2**53


@pytest.mark.parametrize("scheme", ["implicit", "explicit"])
def test_overflowing_cfl_number_is_rejected_before_the_sweep(scheme):
    # k*cap_d/h^2 = 8e308 overflows; the implicit diagonal would overflow with it
    g = me.make_grid(8, 8, 1.0)
    with pytest.raises(ValidationError, match="overflows"):
        me.solve_hjb(g, me.SchemeConfig(cap_d=1e308, scheme=scheme))


def test_implicit_iterations_stay_small_with_warm_start():
    g = me.make_grid(200, 200, 1.0)
    _, iters = me.solve_hjb_with_iterations(g, me.SchemeConfig(cap_d=1e6))
    assert np.median(iters) <= 5


def test_minimal_grids_solve():
    # single interior node, single time step
    g = me.make_grid(2, 1, 1.0)
    s = me.solve_hjb(g, me.SchemeConfig(cap_d=10.0))
    assert s.values.shape == (2, 3)
    assert 0.0 < s.values[0, 1] <= 0.125 + 1e-10
    ge = me.make_grid(2, 50, 1.0)
    se = me.solve_hjb(ge, me.SchemeConfig(cap_d=5.0, scheme="explicit"))
    assert 0.0 < se.values[0, 1] <= 0.125 + 1e-10


def reference_explicit_step(v_next, grid, cfg):
    """One backward step of the explicit scheme as first written."""
    v = np.asarray(v_next, dtype=float)
    q = second_difference_interior(v, grid.h)
    hvals, _ = hamiltonian(q, cfg.cap_d)
    out = np.zeros_like(v)
    out[1:-1] = v[1:-1] - 0.5 * grid.k * hvals
    return out


@pytest.mark.parametrize("N, M, cap, reg_n", [
    (32, 2048, 2.0, None),  # k*cap_d/h^2 exactly 1
    (16, 600, 2.0, 1),
    (2, 50, 5.0, None),
    (23, 1100, 2.0, 3),
])
def test_explicit_sweep_matches_reference_loop(N, M, cap, reg_n):
    g = me.make_grid(N, M, 1.0)
    cfg = me.SchemeConfig(cap_d=cap, scheme="explicit", terminal_regularisation_n=reg_n)
    surface, iters = me.solve_hjb_with_iterations(g, cfg)
    ref_values = np.zeros((M + 1, N + 1))
    if reg_n is not None:
        ref_values[M] = me.stationary_entropy(g.x_nodes()) / reg_n
    for m in range(M, 0, -1):
        ref_values[m - 1] = reference_explicit_step(ref_values[m], g, cfg)
    assert surface.values.tobytes() == ref_values.tobytes()
    assert iters.tobytes() == np.zeros(M, dtype=int).tobytes()


def reference_implicit_step(v_next, grid, cfg):
    """The policy-iteration loop as first written: every quantity recomputed
    and the residual evaluated on every iteration."""
    v_next = np.asarray(v_next, dtype=float)
    k, h = grid.k, grid.h
    c = k / (2.0 * h * h)
    v_int = v_next[1:-1]
    u = v_next.copy()
    q = second_difference_interior(u, h)
    with np.errstate(divide="ignore", over="ignore"):
        raw = -1.0 / q
    a = np.where(q < 0.0, np.clip(raw, FLOOR, cfg.cap_d), cfg.cap_d)
    for it in range(1, hjb.MAX_POLICY_ITERS + 1):
        diag = 1.0 + 2.0 * c * a
        off = -c * a
        rhs = v_int + 0.5 * k * (np.log(a) + 1.0)
        u_new = np.zeros_like(u)
        u_new[1:-1] = solve_tridiagonal(off[1:], diag, off[:-1], rhs)
        delta = float(np.max(np.abs(u_new - u)))
        q = second_difference_interior(u_new, h)
        with np.errstate(divide="ignore", over="ignore"):
            raw = -1.0 / q
        a = np.where(q < 0.0, np.clip(raw, FLOOR, cfg.cap_d), cfg.cap_d)
        hvals = -a * q - np.log(a) - 1.0
        resid_raw = u_new[1:-1] + 0.5 * k * hvals - v_int
        scale = (1.0 + c * a * (np.abs(u_new[2:]) + 2.0 * np.abs(u_new[1:-1])
                                + np.abs(u_new[:-2]))
                 + 0.5 * k * np.abs(np.log(a) + 1.0) + np.abs(v_int))
        resid = float(np.max(np.abs(resid_raw) / scale))
        u = u_new
        if delta <= hjb.POLICY_TOL and resid <= hjb.POLICY_TOL:
            return u, it
    raise ConvergenceError("reference loop did not converge")


@pytest.mark.parametrize("N, M, T, cap, reg_n, tol", [
    (40, 300, 1.0, 100.0, None, 1e-12),
    (200, 200, 1.0, 1e6, 1, 1e-12),
    (100, 400, 2.0, 1e6, None, 1e-12),
    (64, 64, 1.0, 1e4, None, 1e-12),
    # a loose tolerance, where the residual test decides some steps' iteration counts
    (40, 64, 1.0, 1e6, None, 1e-5),
])
def test_implicit_step_matches_reference_loop(monkeypatch, N, M, T, cap, reg_n, tol):
    monkeypatch.setattr(hjb, "POLICY_TOL", tol)
    g = me.make_grid(N, M, T)
    cfg = me.SchemeConfig(cap_d=cap, terminal_regularisation_n=reg_n)
    surface, iters = me.solve_hjb_with_iterations(g, cfg)
    ref_values = np.zeros((M + 1, N + 1))
    if reg_n is not None:
        ref_values[M] = me.stationary_entropy(g.x_nodes()) / reg_n
    ref_iters = np.zeros(M, dtype=int)
    for m in range(M, 0, -1):
        ref_values[m - 1], ref_iters[m - 1] = reference_implicit_step(ref_values[m], g, cfg)
    assert surface.values.tobytes() == ref_values.tobytes()
    assert iters.tobytes() == ref_iters.tobytes()
    control = me.optimal_control_field(surface, cfg).a_star
    a_int = hjb.capped_control(second_difference_interior(surface.values, g.h), cap)
    assert control[:, 1:-1].tobytes() == a_int.tobytes()


def test_sweep_updates_the_control_once_per_policy_iteration(monkeypatch):
    # each level starts from the control its predecessor's last iteration left,
    # so only the terminal row adds an update of its own
    calls = {"capped_control": 0, "solve_tridiagonal": 0}

    def counted(name):
        original = getattr(hjb, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hjb, name, counted(name))
    g = me.make_grid(32, 40, 1.0)
    _, iters = me.solve_hjb_with_iterations(g, me.SchemeConfig(cap_d=1e6))
    assert iters.sum() > g.M
    assert calls["capped_control"] == iters.sum() + 1
    assert calls["solve_tridiagonal"] == iters.sum()


def test_non_convergence_message_reports_finite_change_and_residual(monkeypatch):
    monkeypatch.setattr(hjb, "MAX_POLICY_ITERS", 1)
    g = me.make_grid(64, 64, 1.0)
    with pytest.raises(ConvergenceError) as err:
        one_step(hjb._implicit_sweep, me.stationary_entropy(g.x_nodes()) * 0.3, g, 1e6)
    numbers = re.search(r"last change (\S+), scaled residual (\S+)\)", str(err.value))
    assert numbers is not None
    change, resid = (float(s) for s in numbers.groups())
    assert math.isfinite(change) and change > hjb.POLICY_TOL
    assert math.isfinite(resid) and resid > 0.0


# caps whose reciprocal does not invert back to them, so the threshold moves
NUDGED_CAPS = (93.0, 123.456, 1e300, 1.7e308)


def test_capped_control_matches_clip_bitwise():
    for cap in NUDGED_CAPS:
        assert -1.0 / (-1.0 / cap) < cap
    base = [-np.inf, -1e300, -math.e, -1.0, -0.5, -1e-300, -2.0 ** -1024, -5e-324, -0.0,
            0.0, 5e-324, 1.0, np.inf, np.nan]
    for cap in (FLOOR, 1.0, 10.0, 1e6, *NUDGED_CAPS, sys.float_info.max, np.inf):
        # the threshold -1/cap and its neighbours on both sides
        edge = [-1.0 / cap]
        for _ in range(3):
            edge = [math.nextafter(edge[0], -np.inf), *edge, math.nextafter(edge[-1], 0.0)]
        q = np.array(base + edge)
        with np.errstate(divide="ignore", over="ignore"):
            clipped = np.where(q < 0.0, np.clip(-1.0 / q, FLOOR, cap), cap)
        with np.errstate(all="raise"):
            got = hjb.capped_control(q, cap)
        assert got.tobytes() == clipped.tobytes()


def test_scaled_residual_keeps_the_plain_expressions_bits():
    # rows of mixed sign and magnitude, so that reordering the sum in the
    # scale changes its rounding
    rng = np.random.default_rng(20240)
    n, h, k = 999, 1e-3, 1e-3
    c, half_k = k / (2.0 * h * h), 0.5 * k
    work = (*np.empty((3, n)), np.empty(n + 2))
    for cap in [10.0, 1e4, 1e6] * 7:
        u = np.zeros(n + 2)
        u[1:-1] = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 1.0, n)
        v_int = u[1:-1] + rng.standard_normal(n) * 1e-6
        q = second_difference_interior(u, h)
        a = hjb.capped_control(q, cap)
        log_a = np.log(a)
        lin, off = (log_a + 1.0) * half_k, a * -c  # the sweep's step coefficients
        got = hjb._scaled_residual(u, v_int, q, a, log_a, lin, off, half_k, work)
        hvals = -a * q - log_a - 1.0
        plain = (np.abs(u[1:-1] + half_k * hvals - v_int)
                 / (1.0 + c * a * (np.abs(u[2:]) + 2.0 * np.abs(u[1:-1]) + np.abs(u[:-2]))
                    + half_k * np.abs(log_a + 1.0) + np.abs(v_int)))
        assert work[0].tobytes() == plain.tobytes()
        assert np.float64(got).tobytes() == np.float64(plain.max()).tobytes()
