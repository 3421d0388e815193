import contextlib
import dataclasses
import hashlib
import math
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import tracemalloc
import types

import numpy as np
import pytest

import matchentropy as me
from matchentropy import _workers, montecarlo
from matchentropy.errors import ValidationError
from matchentropy.montecarlo import BARRIER_CORRECTION, _BLOCK, _CHUNK, _control_evaluator
from test_workers import serve_here

PATH_ARRAYS = ("reward_samples", "qv_samples", "terminal_values", "exit_time_samples",
               "absorbed_side")


def small_control_field(NM=100, cap=1e4):
    g = me.make_grid(NM, NM, 1.0)
    cfg = me.SchemeConfig(cap_d=cap)
    surf = me.solve_hjb(g, cfg)
    return me.optimal_control_field(surf, cfg), surf


def test_bit_identical_reruns():
    ctrl, _ = small_control_field(50)
    cfg = me.SimConfig(n_paths=500, dt=0.02, base_seed=99, x0=0.5)
    a = me.simulate_paths(ctrl, cfg)
    b = me.simulate_paths(ctrl, cfg)
    assert np.array_equal(a.reward_samples, b.reward_samples)
    assert np.array_equal(a.terminal_values, b.terminal_values)
    assert np.array_equal(a.exit_time_samples, b.exit_time_samples)
    assert a.reward_mean == b.reward_mean and a.qv_mean == b.qv_mean


def assert_same_paths(stats, reference, rows=slice(None)):
    for name in PATH_ARRAYS:
        assert np.array_equal(getattr(stats, name), getattr(reference, name)[rows]), name


def test_per_path_streams_do_not_depend_on_batch(monkeypatch):
    ctrl, _ = small_control_field(50)
    # the control-field run spans two chunks; the full-length paths outlive several noise blocks
    for control, dt, n_many in ((ctrl, 0.02, _CHUNK + 37),
                                (me.VolatilityModel.full_length(1.0), 1.0 / (3 * _BLOCK), 160)):
        def run(n_paths):
            return me.simulate_paths(control, me.SimConfig(n_paths=n_paths, dt=dt, base_seed=7,
                                                           x0=0.5))
        many = run(n_many)
        assert_same_paths(run(40), many, slice(0, 40))
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        monkeypatch.setattr(montecarlo, "_BLOCK", 7)
        assert_same_paths(run(n_many), many)
        monkeypatch.undo()


# sha256 over PATH_ARRAYS, recorded with the simulator that drew each path's
# whole horizon of noise up front and looked the control up with np.interp
# (x86-64, numpy 2.4; field_dt_below_k re-recorded when the lookup became the
# left-point row); a numpy whose SIMD log or sin rounds differently will not
# reproduce them
GOLDEN_RUNS = {
    "field_dt_below_k": "11382766a5d2532f77fa49e01c1ccca1e1553f7383d8f62cc6e27ddd44274432",
    "field_stopped_early": "9e86adff7256ce2df508bb960f2881466f85cbd08ea5de8c02f154d943e50cf1",
    "full_length": "ff142c7bc9e5dd519949e9049a6f974fd613dc88ada6dcd3050466feef21bf33",
    "constant": "cc50c3187a3e0fe1de18d32cc5666e9179e662fef3d6235dd4f982b57e577b7c",
}


def test_paths_match_golden_digests():
    ctrl, _ = small_control_field(50)  # k = 0.02
    runs = {
        # dt < k, so four steps read each control row
        "field_dt_below_k": lambda: me.simulate_paths(
            ctrl, me.SimConfig(n_paths=300, dt=0.005, base_seed=11, x0=0.5)),
        "field_stopped_early": lambda: me.simulate_paths(
            ctrl, me.SimConfig(n_paths=300, dt=0.02, base_seed=9, x0=0.4), T=0.5),
        "full_length": lambda: me.simulate_paths(
            me.VolatilityModel.full_length(1.0),
            me.SimConfig(n_paths=200, dt=2.5e-3, base_seed=5, x0=0.5)),
        "constant": lambda: me.simulate_paths(
            1.0, me.SimConfig(n_paths=500, dt=0.01, base_seed=3, x0=0.3), T=1.0),
    }
    for name, simulate in runs.items():
        stats = simulate()
        digest = hashlib.sha256()
        for field in PATH_ARRAYS:
            digest.update(getattr(stats, field).tobytes())
        assert digest.hexdigest() == GOLDEN_RUNS[name], name


def test_peak_memory_does_not_grow_with_steps():
    def peak_bytes(n_steps):
        # a tiny constant diffusion keeps every path alive to T
        cfg = me.SimConfig(n_paths=64, dt=1.0 / n_steps, base_seed=3, x0=0.5)
        tracemalloc.start()
        try:
            me.simulate_paths(1e-4, cfg, T=1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak_bytes(_BLOCK)
    assert peak_bytes(16 * _BLOCK) <= 1.25 * base


def test_control_lookup_equals_np_interp_bitwise():
    ctrl, _ = small_control_field(50)
    rng = np.random.default_rng(5)
    fields = [ctrl]
    for n in (7, 97, 997, 1000):
        for _ in range(10):
            a = rng.uniform(0.5, 5.0, size=(2, n + 1))
            fields.append(me.ControlField(grid=me.make_grid(n, 1, 1.0), a_star=a))
    for field in fields:
        xs = field.grid.x_nodes()
        queries = np.concatenate([xs, np.nextafter(xs[1:], 0.0), np.nextafter(xs[:-1], 1.0),
                                  [0.0, 1.0], rng.uniform(0.0, 1.0, 10_000)])
        _, eval_a = _control_evaluator(field, None, queries.size)
        # row m on [t_m, t_{m+1}); on k = 0.02, 58 * 0.01 / k and 29 * 0.02 / k are both
        # 28.999999999999996, and each must read row 29, as the HJB step does
        times = [(0.0, 0), (0.5 * field.grid.k, 0), (field.grid.T, field.grid.M - 1)]
        if field is ctrl:
            times += [(58 * 0.01, 29), (29 * 0.02, 29)]
        for t, m in times:
            got = eval_a(t, queries, np.empty(queries.size))
            want = np.interp(queries, xs, field.a_star[m])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t


def test_full_length_evaluator_equals_benchmark_variance_bitwise():
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(0.0, 1.0, 5000), [5e-324, 0.5, np.nextafter(1.0, 0.0)]])
    x = x[(x > 0.0) & (x < 1.0)]
    for T in (1.0, 0.3, 2.5):
        _, eval_a = _control_evaluator(me.VolatilityModel.full_length(T), None, x.size)
        for t in (0.0, 0.1 * T, 0.5 * T, np.nextafter(T, 0.0)):
            got = eval_a(t, x, np.empty(x.size))
            assert got.tobytes() == (np.sin(math.pi * x) ** 2 / (math.pi ** 2 * (T - t))).tobytes()


def reference_simulate_paths(control, cfg, T=None):
    """The simulator's loop before its work buffers, kept as the bitwise
    reference: per-path Philox streams drawn 128 steps at a time and
    transposed whole, every step written as plain numpy expressions."""
    if isinstance(control, me.ControlField):
        grid = control.grid
        xs = grid.x_nodes()
        horizon = grid.T

        def eval_a(t, x):  # the left-point row a_m on [t_m, t_{m+1})
            m = min(math.floor(t / grid.k + 1e-9), grid.M - 1)
            return np.interp(x, xs, control.a_star[m])
    elif isinstance(control, me.VolatilityModel):
        horizon = control.T

        def eval_a(t, x):
            return np.sin(math.pi * x) ** 2 / (math.pi ** 2 * (control.T - t))
    else:
        horizon = T

        def eval_a(t, x):
            return np.full(x.shape, float(control))
    horizon = horizon if T is None else T
    dt, n, block = cfg.dt, cfg.n_paths, 128
    n_steps = int(round(horizon / dt))
    terminal, side = np.empty(n), np.zeros(n, dtype=np.int8)
    exit_time, reward, qv = np.full(n, horizon), np.zeros(n), np.zeros(n)
    gens = [np.random.Generator(np.random.Philox(
        key=np.array([cfg.base_seed, path], dtype=np.uint64))) for path in range(n)]
    ids, x, r, q = np.arange(n), np.full(n, cfg.x0), np.zeros(n), np.zeros(n)
    for start in range(0, n_steps, block):
        if ids.size == 0:
            break
        width = min(block, n_steps - start)
        noise = np.array([gens[i].standard_normal(width) for i in ids]).T
        cols = None
        for j in range(start, start + width):
            a = eval_a(j * dt, x)
            a_dt = a * dt
            step_sd = np.sqrt(a_dt)
            xi = noise[j - start] if cols is None else noise[j - start, cols]
            x_new = x + step_sd * xi
            shift = BARRIER_CORRECTION * step_sd
            inside = (x_new > shift) & (x_new < 1.0 - shift)
            r_new = r + 0.5 * (1.0 + np.log(a)) * dt
            q_new = q + a_dt
            if inside.all():
                x, r, q = x_new, r_new, q_new
                continue
            out = ~inside
            gone = ids[out]
            left_exit = x_new[out] <= 0.5
            side[gone] = np.where(left_exit, -1, 1)
            terminal[gone] = np.where(left_exit, 0.0, 1.0)
            exit_time[gone] = (j + 1) * dt
            reward[gone] = r_new[out]
            qv[gone] = q_new[out]
            ids, x, r, q = ids[inside], x_new[inside], r_new[inside], q_new[inside]
            cols = np.flatnonzero(inside) if cols is None else cols[inside]
            if ids.size == 0:
                break
    terminal[ids], reward[ids], qv[ids] = x, r, q
    return {"reward_samples": reward, "qv_samples": qv, "terminal_values": terminal,
            "exit_time_samples": exit_time, "absorbed_side": side}


@pytest.mark.parametrize("layout", [None, (128, 7)], ids=["default", "tiny"])
def test_paths_match_reference_loop_bitwise(layout, monkeypatch):
    if layout is not None:
        # chunk and block edges both fall in the middle of the runs
        for name, value in zip(("_CHUNK", "_BLOCK"), layout):
            monkeypatch.setattr(montecarlo, name, value)
    ctrl, _ = small_control_field(50)  # k = 0.02
    full = me.VolatilityModel.full_length(1.0)
    cases = [
        (ctrl, me.SimConfig(n_paths=300, dt=0.005, base_seed=11, x0=0.5), {}),  # dt < k
        (ctrl, me.SimConfig(n_paths=300, dt=0.02, base_seed=9, x0=0.4), {"T": 0.5}),
        (ctrl, me.SimConfig(n_paths=300, dt=0.01, base_seed=12, x0=0.6), {}),
        (ctrl, me.SimConfig(n_paths=300, dt=0.01, base_seed=2**64 - 1, x0=0.6), {}),
        (ctrl, me.SimConfig(n_paths=300, dt=0.01, base_seed=0, x0=0.3), {}),
        (1.0, me.SimConfig(n_paths=500, dt=0.01, base_seed=3, x0=0.3), {"T": 1.0}),
        (full, me.SimConfig(n_paths=200, dt=2.5e-3, base_seed=5, x0=0.5), {}),
        (full, me.SimConfig(n_paths=150, dt=2.5e-3, base_seed=6, x0=0.2), {"T": 0.75}),
    ]
    for control, cfg, kwargs in cases:
        stats = me.simulate_paths(control, cfg, **kwargs)
        reference = reference_simulate_paths(control, cfg, **kwargs)
        for name in PATH_ARRAYS:
            assert getattr(stats, name).tobytes() == reference[name].tobytes(), (name, cfg)


def test_different_seeds_differ():
    ctrl, _ = small_control_field(50)
    a = me.simulate_paths(ctrl, me.SimConfig(n_paths=100, dt=0.02, base_seed=1, x0=0.5))
    b = me.simulate_paths(ctrl, me.SimConfig(n_paths=100, dt=0.02, base_seed=2, x0=0.5))
    assert not np.array_equal(a.terminal_values, b.terminal_values)


def test_zero_reward_control_gives_exactly_zero():
    cfg = me.SimConfig(n_paths=2000, dt=1e-3, base_seed=4, x0=0.5)
    stats = me.simulate_paths(1.0 / math.e, cfg, T=1.0)
    assert np.max(np.abs(stats.reward_samples)) <= 1e-12
    assert stats.reward_mean == pytest.approx(0.0, abs=1e-12)


def test_martingale_and_reward_bound_under_unit_control():
    cfg = me.SimConfig(n_paths=20000, dt=1e-3, base_seed=12, x0=0.5)
    stats = me.simulate_paths(1.0, cfg, T=1.0)
    se_mean = float(np.std(stats.terminal_values, ddof=1)) / math.sqrt(cfg.n_paths)
    assert abs(float(np.mean(stats.terminal_values)) - 0.5) <= 3.0 * se_mean
    assert stats.reward_mean <= me.stationary_entropy(0.5) + 3.0 * stats.reward_stderr


def test_tiny_horizon_quadratic_variation_vanishes():
    cfg = me.SimConfig(n_paths=2000, dt=1e-3, base_seed=8, x0=0.5)
    stats = me.simulate_paths(1.0, cfg, T=0.01)
    assert 0.0 <= stats.qv_mean <= 0.0101
    assert max(stats.fraction_absorbed_by.values()) <= 1.0


def test_full_length_quadratic_variation_identity():
    cfg = me.SimConfig(n_paths=20000, dt=1e-3, base_seed=21, x0=0.5)
    stats = me.simulate_paths(me.VolatilityModel.full_length(1.0), cfg)
    report = me.quadratic_variation_check(stats, cfg)
    assert report.passed
    assert abs(report.terminal_gap) <= 3.0 * report.se_combined
    # the step-resolution cutoff of the final collapse keeps qv a little under 1/4
    assert stats.qv_mean == pytest.approx(0.25, abs=0.05)
    assert stats.fraction_absorbed_by[0.5] == 0.0


def test_quadratic_variation_identity_holds_below_the_grid_step():
    # dt = k/2 on a solved field: the last half-steps before T read row M - 1,
    # as the HJB step does, not the capped terminal row (a* = 1e6 at x = 1/2)
    ctrl, _ = small_control_field(100, cap=1e6)
    cfg = me.SimConfig(n_paths=20000, dt=0.005, base_seed=23, x0=0.5)
    report = me.quadratic_variation_check(me.simulate_paths(ctrl, cfg), cfg)
    assert report.passed, report


def test_quadratic_variation_check_fails_on_a_built_bias():
    # qv_samples set to X_stop^2 - x0^2 make the gap exactly 0, so no seed
    # decides the verdicts; the SE is computed here, not taken from the check
    ctrl, _ = small_control_field(50)
    cfg = me.SimConfig(n_paths=500, dt=0.02, base_seed=5, x0=0.5)
    stats = me.simulate_paths(ctrl, cfg)
    x2 = stats.terminal_values ** 2 - cfg.x0 ** 2
    se_x2 = float(np.std(x2, ddof=1)) / math.sqrt(x2.size)
    se = math.hypot(se_x2, se_x2)
    exact = me.quadratic_variation_check(dataclasses.replace(stats, qv_samples=x2), cfg)
    assert exact.terminal_gap == 0.0 and exact.passed
    assert exact.se_combined == pytest.approx(se, rel=1e-12)
    biased = me.quadratic_variation_check(
        dataclasses.replace(stats, qv_samples=x2 + 10.0 * se), cfg)
    assert biased.terminal_gap == pytest.approx(10.0 * se, rel=1e-9)
    assert not biased.passed


def test_absorbed_fractions_are_monotone_in_probe_time():
    ctrl, _ = small_control_field(100)
    cfg = me.SimConfig(n_paths=3000, dt=0.01, base_seed=31, x0=0.5)
    stats = me.simulate_paths(ctrl, cfg)
    absorbed = stats.absorbed_side != 0
    vals = [float(np.mean(absorbed & (stats.exit_time_samples <= t + 1e-12)))
            for t in (0.25, 0.5, 0.75, 1.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_exit_cdf_tracks_forward_density():
    g = me.make_grid(200, 200, 1.0)
    cfg = me.SchemeConfig(cap_d=1e6)
    ctrl = me.optimal_control_field(me.solve_hjb(g, cfg), cfg)
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(ctrl), g, 0.5)
    sim = me.SimConfig(n_paths=20000, dt=5e-3, base_seed=17, x0=0.5)
    stats = me.simulate_paths(ctrl, sim)
    absorbed_curve = dens.absorbed_mass_left + dens.absorbed_mass_right
    ts = g.t_nodes()
    absorbed = stats.absorbed_side != 0
    empirical = np.array([
        np.mean(absorbed & (stats.exit_time_samples <= t + 1e-12)) for t in ts])
    assert np.max(np.abs(empirical - absorbed_curve)) <= 0.02


def test_reward_matches_value_surface_on_small_grid():
    ctrl, surf = small_control_field(100, cap=1e4)
    cfg = me.SimConfig(n_paths=40000, dt=1e-2, base_seed=13, x0=0.5)
    stats = me.simulate_paths(ctrl, cfg)
    pde_value = surf.values[0, 50]
    assert abs(stats.reward_mean - pde_value) <= max(4.0 * stats.reward_stderr, 0.004)


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        me.SimConfig(n_paths=0, dt=0.01, base_seed=1, x0=0.5)
    with pytest.raises(ValidationError):
        me.SimConfig(n_paths=10, dt=0.0, base_seed=1, x0=0.5)
    with pytest.raises(ValidationError):
        me.SimConfig(n_paths=10, dt=0.01, base_seed=1, x0=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            me.SimConfig(n_paths=10, dt=bad, base_seed=1, x0=0.5)
        with pytest.raises(ValidationError):
            me.SimConfig(n_paths=10, dt=0.01, base_seed=1, x0=bad)
    for huge in (2**63 - 1, 10**30):
        with pytest.raises(ValidationError, match="too large for one array"):
            me.SimConfig(n_paths=huge, dt=0.01, base_seed=1, x0=0.5)
    # the seed is one 64-bit key word: a wider one would run as its low 64 bits
    for seed in (-1, 2**64, 5 + 2**64, -(2**64)):
        with pytest.raises(ValidationError, match="base_seed"):
            me.SimConfig(n_paths=10, dt=0.01, base_seed=seed, x0=0.5)
    for seed in (0, 2**64 - 1):
        assert me.SimConfig(n_paths=10, dt=0.01, base_seed=seed, x0=0.5).base_seed == seed


def test_simulation_step_constraints():
    ctrl, _ = small_control_field(20)  # k = 0.05
    with pytest.raises(ValidationError):
        me.simulate_paths(ctrl, me.SimConfig(n_paths=10, dt=0.1, base_seed=1, x0=0.5))
    with pytest.raises(ValidationError):
        me.simulate_paths(ctrl, me.SimConfig(n_paths=10, dt=0.03, base_seed=1, x0=0.5))
    with pytest.raises(ValidationError):
        me.simulate_paths(1.0, me.SimConfig(n_paths=10, dt=0.01, base_seed=1, x0=0.5))
    cfg = me.SimConfig(n_paths=10, dt=0.01, base_seed=1, x0=0.5)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            me.simulate_paths(bad, cfg, T=1.0)
    # one T rule, ahead of the step rule, for a constant and for a field alike
    for bad_T in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValidationError, match="must be positive, finite and at most"):
            me.simulate_paths(1.0, cfg, T=bad_T)
        with pytest.raises(ValidationError, match="must be positive, finite and at most"):
            me.simulate_paths(ctrl, cfg, T=bad_T)
    with pytest.raises(ValidationError, match="T=1.5 must be positive, finite and at most 1.0"):
        me.simulate_paths(ctrl, cfg, T=1.5)


def test_step_cap_is_exactly_two_to_the_53():
    # a = 1e300 carries the one path out at its first step, so no run takes long
    cfg = me.SimConfig(1, 2.0 ** -60, 0, 0.5)
    T = 2 ** 53 * cfg.dt
    stats = me.simulate_paths(1e300, cfg, T=T)
    assert stats.exit_time_samples[0] == cfg.dt
    with pytest.raises(ValidationError, match="more than 2\\*\\*53"):
        me.simulate_paths(1e300, cfg, T=math.nextafter(T, math.inf))


def test_zero_start_volatility_is_rejected():
    # sin(pi x0)^2 underflows to 0 at x0 = 1e-200, so the first reward would be log 0
    cfg = me.SimConfig(16, 0.125, 0, 1e-200)
    with pytest.raises(ValidationError, match="not positive"):
        me.simulate_paths(me.VolatilityModel.full_length(1.0), cfg)


def test_early_termination_model_runs_as_its_field():
    ctrl, _ = small_control_field(10)  # k = 0.1
    model = me.VolatilityModel.early_termination(ctrl)
    too_coarse = me.SimConfig(n_paths=10, dt=0.5, base_seed=1, x0=0.5)
    for control in (ctrl, model):
        with pytest.raises(ValidationError, match="control grid step"):
            me.simulate_paths(control, too_coarse)
    cfg = me.SimConfig(n_paths=50, dt=0.05, base_seed=3, x0=0.4)
    via_field, via_model = me.simulate_paths(ctrl, cfg), me.simulate_paths(model, cfg)
    for name in PATH_ARRAYS:
        assert getattr(via_model, name).tobytes() == getattr(via_field, name).tobytes()


def test_horizon_equal_to_the_control_horizon_runs_the_default():
    ctrl, _ = small_control_field(20)
    cfg = me.SimConfig(n_paths=200, dt=0.05, base_seed=4, x0=0.5)
    explicit, default = me.simulate_paths(ctrl, cfg, T=ctrl.grid.T), me.simulate_paths(ctrl, cfg)
    for name in PATH_ARRAYS:
        assert getattr(explicit, name).tobytes() == getattr(default, name).tobytes()


def test_asymmetric_start_martingale_and_value():
    ctrl, surf = small_control_field(200, cap=1e6)
    sim = me.SimConfig(n_paths=20000, dt=5e-3, base_seed=41, x0=0.25)
    stats = me.simulate_paths(ctrl, sim)
    se_mean = float(np.std(stats.terminal_values, ddof=1)) / math.sqrt(sim.n_paths)
    assert abs(float(np.mean(stats.terminal_values)) - 0.25) <= 3.0 * se_mean
    pde = surf.values[0, 50]
    assert abs(stats.reward_mean - pde) <= max(4.0 * stats.reward_stderr, 0.004)
    # hit probability of the far wall approximates the start point
    assert float(np.mean(stats.absorbed_side == 1)) == pytest.approx(0.25, abs=0.02)


def test_midpoint_distribution_matches_density_row():
    # the law of the stopped process at T/2: absorbed atoms plus the interior row
    g = me.make_grid(200, 200, 1.0)
    cfg = me.SchemeConfig(cap_d=1e6)
    ctrl = me.optimal_control_field(me.solve_hjb(g, cfg), cfg)
    dens = me.solve_forward_density(me.VolatilityModel.early_termination(ctrl), g, 0.5)
    m = g.time_index(0.5)
    row = dens.values[m]
    interior_cdf = np.concatenate([[0.0], np.cumsum((row[1:] + row[:-1]) * g.h / 2.0)])
    cdf = dens.absorbed_mass_left[m] + interior_cdf
    cdf[-1] += dens.absorbed_mass_right[m]

    sim = me.SimConfig(n_paths=100_000, dt=1e-3, base_seed=29, x0=0.5)
    stats = me.simulate_paths(ctrl, sim, T=0.5)
    xs = g.x_nodes()
    empirical = np.searchsorted(np.sort(stats.terminal_values), xs,
                                side="right") / sim.n_paths
    ks = float(np.max(np.abs(empirical - cdf)))
    assert ks <= 0.02


def test_constant_controls_do_not_beat_the_solved_control():
    ctrl, _ = small_control_field(100, cap=1e4)
    sim = me.SimConfig(n_paths=30000, dt=1e-2, base_seed=23, x0=0.5)
    best = me.simulate_paths(ctrl, sim)
    for a in (1.0 / math.e, 1.0, 2.0):
        other = me.simulate_paths(a, sim, T=1.0)
        se = math.hypot(best.reward_stderr, other.reward_stderr)
        assert other.reward_mean <= best.reward_mean + 3.0 * se


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def forced_split(workers):
    """A stand-in for montecarlo._process_count: `workers` processes."""
    return lambda items, work, min_work: workers


# divisible by none of 2, 3 and 5; the ranges of one and of two workers cross a chunk edge
SPLIT_PATHS = 2 * _CHUNK + 1005


@pytest.mark.parametrize("case", ["field_dt_below_k", "field_stopped_early", "full_length",
                                  "constant"])
def test_every_worker_count_gives_the_same_bits(case, monkeypatch):
    ctrl, _ = small_control_field(50)  # k = 0.02
    control, cfg, kwargs = {
        "field_dt_below_k": (ctrl, me.SimConfig(SPLIT_PATHS, 0.005, 11, 0.5), {}),
        "field_stopped_early": (ctrl, me.SimConfig(SPLIT_PATHS, 0.02, 9, 0.4), {"T": 0.5}),
        "full_length": (me.VolatilityModel.full_length(1.0),
                        me.SimConfig(SPLIT_PATHS, 0.01, 5, 0.5), {}),
        "constant": (1.0, me.SimConfig(SPLIT_PATHS, 0.01, 3, 0.3), {"T": 1.0}),
    }[case]
    reference = reference_simulate_paths(control, cfg, **kwargs)
    runs = {}
    with time_limit(120):
        for workers in (1, 2, 3, 5):  # 5 is more than most machines' cores
            monkeypatch.setattr(montecarlo, "_process_count", forced_split(workers))
            runs[workers] = me.simulate_paths(control, cfg, **kwargs)
            assert multiprocessing.active_children() == []
    for workers, stats in runs.items():
        for name in PATH_ARRAYS:
            got = getattr(stats, name).tobytes()
            assert got == getattr(runs[1], name).tobytes(), (workers, name)
            assert got == reference[name].tobytes(), (workers, name)
        assert stats.reward_mean == runs[1].reward_mean and stats.qv_mean == runs[1].qv_mean
        assert stats.fraction_absorbed_by == runs[1].fraction_absorbed_by


def _raise_memory_error():
    raise MemoryError("no room for the range")


def _raise_value_error():
    raise ValueError("bad control")


class _MemoryErrorOnLoad(float):
    """A constant control whose pickled copy raises MemoryError as it loads."""

    def __reduce__(self):
        return _raise_memory_error, ()


class _ValueErrorOnLoad(float):
    """A constant control whose pickled copy raises ValueError as it loads."""

    def __reduce__(self):
        return _raise_value_error, ()


def _send_range_job(conn, control, cfg, lo, hi):
    """Send a worker the job of paths [lo, hi) and its pickled control, as
    montecarlo._simulate_split does, and return the worker's reply."""
    conn.send((montecarlo._simulate_job, (cfg, 1.0, round(1.0 / cfg.dt), lo, hi)))
    conn.send_bytes(pickle.dumps(control))
    return conn.recv()


def test_a_worker_sends_its_range_in_order_and_leaves_interrupts_to_the_parent():
    # serve_here runs the worker loop here and checks that it ignores SIGINT
    cfg = me.SimConfig(n_paths=40, dt=0.01, base_seed=8, x0=0.5)
    whole = me.simulate_paths(1.0, cfg, T=1.0)
    reply = serve_here(lambda conn: _send_range_job(conn, 1.0, cfg, 13, 29))
    assert isinstance(reply, tuple) and len(reply) == 5
    for arr, name in zip(reply, ("terminal_values", "absorbed_side", "exit_time_samples",
                                 "reward_samples", "qv_samples")):
        assert arr.tobytes() == getattr(whole, name)[13:29].tobytes(), name


def test_a_worker_sends_its_error_as_one_status_line():
    cfg = me.SimConfig(n_paths=40, dt=0.01, base_seed=8, x0=0.5)

    def caller(conn):
        reply = _send_range_job(conn, _MemoryErrorOnLoad(1.0), cfg, 13, 29)
        with pytest.raises(EOFError):  # the worker stopped and closed its end
            conn.recv()
        return reply

    assert serve_here(caller) == "MemoryError: no room for the range"


def test_a_reply_cut_short_is_the_dead_worker_error():
    # a worker killed mid-send leaves a frame header announcing more bytes than follow
    conn, child_conn = multiprocessing.Pipe(duplex=False)
    reply = pickle.dumps((np.zeros(4),) * 5)
    os.write(child_conn.fileno(), struct.pack("!i", len(reply)) + reply[:len(reply) // 2])
    child_conn.close()
    proc = types.SimpleNamespace(join=lambda: None, exitcode=-9)
    with pytest.raises(me.NumericalError, match="worker exited with code -9 before returning"):
        _workers._receive(proc, conn, "Monte Carlo worker", "returning its paths",
                          me.NumericalError)
    conn.close()


def _send_interrupt_handler(conn):
    conn.send(signal.getsignal(signal.SIGINT) == signal.SIG_IGN)
    conn.close()


def test_workers_start_with_interrupts_ignored(monkeypatch):
    # a Ctrl-C while a worker imports numpy would print a traceback there
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    before = signal.getsignal(signal.SIGINT)
    with _workers._interrupts_ignored():
        proc = ctx.Process(target=_send_interrupt_handler, args=(send,))
        proc.start()
    send.close()
    assert signal.getsignal(signal.SIGINT) is before
    with time_limit(120):
        assert recv.recv() is True
        proc.join()
    recv.close()
    # off the main thread no handler can be set, and the workers ignore Ctrl-C themselves
    monkeypatch.setattr(_workers, "threading", types.SimpleNamespace(
        current_thread=object, main_thread=threading.main_thread))
    with _workers._interrupts_ignored():
        assert signal.getsignal(signal.SIGINT) is before


def _split_run(monkeypatch, own_range):
    """Run a two-process split whose calling-process range is `own_range`."""
    monkeypatch.setattr(montecarlo, "_process_count", forced_split(2))
    monkeypatch.setattr(montecarlo, "_simulate_range", own_range)
    cfg = me.SimConfig(n_paths=200, dt=0.01, base_seed=4, x0=0.5)
    with time_limit(120):
        return me.simulate_paths(1.0, cfg, T=1.0)


def _kill_workers():
    for child in multiprocessing.active_children():
        os.kill(child.pid, signal.SIGKILL)
        child.join()


@pytest.mark.parametrize("when", ["before_its_job", "in_the_own_range"])
def test_a_worker_that_dies_is_one_package_error(when, monkeypatch):
    simulate_range = montecarlo._simulate_range
    own_ranges = []

    def kill_workers_first(*args):
        own_ranges.append(args[-2:])
        if when == "in_the_own_range":
            _kill_workers()
        return simulate_range(*args)

    def dumps_after_killing(obj, protocol):
        _kill_workers()
        return pickle.dumps(obj, protocol)

    if when == "before_its_job":
        monkeypatch.setattr(montecarlo, "pickle", types.SimpleNamespace(
            dumps=dumps_after_killing, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
    with pytest.raises(me.NumericalError, match="worker exited with code -9 before returning"):
        _split_run(monkeypatch, kill_workers_first)
    assert own_ranges == [(0, 100)]  # a worker that died is reported after the own range
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("control, error, message", [
    (_MemoryErrorOnLoad(1.0), MemoryError, "worker raised MemoryError: no room for the range"),
    (_ValueErrorOnLoad(1.0), me.NumericalError, "worker raised ValueError: bad control"),
])
def test_a_worker_error_is_raised_quietly_in_the_caller(control, error, message, monkeypatch,
                                                        capfd):
    monkeypatch.setattr(montecarlo, "_process_count", forced_split(2))
    cfg = me.SimConfig(n_paths=200, dt=0.01, base_seed=4, x0=0.5)
    with time_limit(120), pytest.raises(error, match=message):
        me.simulate_paths(control, cfg, T=1.0)
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""  # no traceback from the worker


def test_an_interrupt_in_the_own_range_ends_the_workers(monkeypatch):
    pids = []

    def interrupted(*args):
        pids.extend(child.pid for child in multiprocessing.active_children())
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _split_run(monkeypatch, interrupted)
    assert len(pids) == 1 and multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):  # joined, so not even a zombie is left
        os.kill(pids[0], 0)
