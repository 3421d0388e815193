"""Acceptance suite: one test per agreed criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The early-termination statistics test is expected to fail: the quoted
probabilities are incompatible with the model's own dynamics (see the
assertion message, which carries the three-way cross-validation numbers).
"""

import math
import time

import numpy as np
import pytest

import matchentropy as me

REFERENCE_NM = 1000
CAP = 1e6
SEED = 11


def _criterion(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference():
    grid = me.make_grid(REFERENCE_NM, REFERENCE_NM, 1.0)
    cfg = me.SchemeConfig(cap_d=CAP)
    surface, iters = me.solve_hjb_with_iterations(grid, cfg)
    control = me.optimal_control_field(surface, cfg)
    return {"grid": grid, "cfg": cfg, "surface": surface, "iters": iters,
            "control": control}


@pytest.fixture(scope="module")
def mc_optimal(reference):
    sim = me.SimConfig(n_paths=100_000, dt=1e-3, base_seed=SEED, x0=0.5)
    return sim, me.simulate_paths(reference["control"], sim)


def test_early_termination_statistics():
    """Absorbed-probability targets 0.63/0.88/0.93 at t = 0.5/0.9/0.99."""
    started = time.time()
    grid = me.make_grid(REFERENCE_NM, REFERENCE_NM, 1.0)
    cfg = me.SchemeConfig(cap_d=CAP)
    surface = me.solve_hjb(grid, cfg)
    control = me.optimal_control_field(surface, cfg)
    density = me.solve_forward_density(
        me.VolatilityModel.early_termination(control), grid, 0.5)
    elapsed = time.time() - started
    _criterion("early-termination-statistics/runtime", elapsed < 120.0,
               f"full pipeline took {elapsed:.1f}s (target < 120s)")

    targets = {0.5: 0.63, 0.9: 0.88, 0.99: 0.93}
    measured = {t: 1.0 - me.survival_probability(density, t) for t in targets}
    deviations = {t: measured[t] - targets[t] for t in targets}
    ok = all(abs(d) <= 0.02 for d in deviations.values())
    detail = (
        "match-over probabilities "
        + ", ".join(f"t={t}: {measured[t]:.4f} (target {targets[t]:.2f})"
                    for t in targets)
        + "; the solved control satisfies a* >= 1 everywhere, so absorption is at "
          "least as fast as for a unit diffusion (89.2% by t=0.5); the quoted "
          "63/88/93 targets are unreachable for this dynamics (independently "
          "confirmed by the analytic unit-diffusion series, this finite-difference "
          "solver, and Euler-Maruyama simulation, which agree with each other "
          "to under 0.01)"
    )
    _criterion("early-termination-statistics", ok, detail)


def test_full_length_atoms():
    grid = me.make_grid(REFERENCE_NM, REFERENCE_NM, 1.0)
    density = me.solve_forward_density(me.VolatilityModel.full_length(1.0), grid, 0.5)
    survival_ok = all(
        abs(me.survival_probability(density, m * grid.k) - 1.0) <= 1e-3
        for m in range(0, int(0.99 * grid.M) + 1, 10))
    left, right = me.terminal_atoms(density)
    ok = survival_ok and abs(left - 0.5) <= 0.02 and abs(right - 0.5) <= 0.02
    _criterion("full-length-atoms", ok,
               f"atoms ({left:.4f}, {right:.4f}), interior survival >= 0.999 "
               f"through 0.99T: {survival_ok}")


def test_value_surface_invariants(reference):
    worst_lines = []
    ok = True
    for NM in (100, 200, 500, REFERENCE_NM):
        if NM == REFERENCE_NM:
            surface = reference["surface"]
        else:
            surface = me.solve_hjb(me.make_grid(NM, NM, 1.0), me.SchemeConfig(cap_d=CAP))
        report = me.check_solution_properties(surface)
        ok = ok and report.passed
        worst = max(r.worst / max(r.tolerance, 1e-300) for r in report.results)
        worst_lines.append(f"{NM}: {'pass' if report.passed else 'FAIL'} "
                           f"(worst/tol {worst:.1e})")
    _criterion("value-surface-invariants", ok, "; ".join(worst_lines))


def test_representation_cross_check():
    floor = 1e-12
    lines = []
    ok = True
    for n in (1, 2, 4):
        gaps = {}
        for NM in (100, 200):
            grid = me.make_grid(NM, NM, 1.0)
            hjb = me.solve_hjb(grid, me.SchemeConfig(cap_d=CAP,
                                                     terminal_regularisation_n=n))
            rebuilt = me.entropy_from_p(
                me.solve_log_diffusion(grid, me.LadderConfig(regularisation_n=n)))
            gaps[NM] = me.cross_solver_gap(hjb, rebuilt)
        at_floor = gaps[100] <= floor and gaps[200] <= floor
        shrink_ok = at_floor or gaps[200] <= gaps[100] / 1.4
        ok = ok and shrink_ok
        note = "round-off floor" if at_floor else f"x{gaps[100] / gaps[200]:.2f}"
        lines.append(f"n={n}: {gaps[100]:.2e} -> {gaps[200]:.2e} ({note})")
    _criterion("representation-cross-check", ok, "; ".join(lines))


def _benchmark_entropy_rows(ts, xs, T=1.0):
    return (T - ts[:, None]) * (np.log(np.sin(math.pi * xs[None, :])
                                       / (math.pi * np.sqrt(T - ts[:, None]))) + 0.5)


def _benchmark_dxx(ts, xs, T=1.0):
    return -math.pi ** 2 * (T - ts[:, None]) / np.sin(math.pi * xs[None, :]) ** 2


def _benchmark_dt(ts, xs, T=1.0):
    return -np.log(np.sin(math.pi * xs[None, :]) / (math.pi * np.sqrt(T - ts[:, None])))


def _window(grid, x_lo=0.2, x_hi=0.8, t_frac=0.9):
    xs = grid.x_nodes()
    sel = (xs >= x_lo - 1e-12) & (xs <= x_hi + 1e-12)
    m_max = int(t_frac * grid.M)
    return grid.t_nodes(), xs[sel], m_max


def _time_residual(M, N=200):
    grid = me.make_grid(N, M, 1.0)
    ts, x_in, m_max = _window(grid)
    E = _benchmark_entropy_rows(ts[:m_max + 2], x_in)
    disc = 2.0 * (E[1:] - E[:-1]) / grid.k
    exact = np.log(-_benchmark_dxx(ts[:m_max + 1], x_in))
    return float(np.max(np.abs(disc - exact)))


def _space_residual(N, M=50):
    grid = me.make_grid(N, M, 1.0)
    ts, x_in, m_max = _window(grid)
    E = _benchmark_entropy_rows(ts[:m_max + 1], x_in)
    h2 = grid.h * grid.h
    Exx = (E[:, 2:] - 2.0 * E[:, 1:-1] + E[:, :-2]) / h2
    exact = 2.0 * _benchmark_dt(ts[:m_max + 1], x_in[1:-1])
    return float(np.max(np.abs(exact - np.log(-Exx))))


def test_closed_form_residuals():
    grid = me.make_grid(64, 8, 1.0)
    e_inf = me.stationary_entropy(grid.x_nodes())
    from matchentropy.grid import second_difference_interior
    from matchentropy.hjb import capped_control
    q = second_difference_interior(e_inf, grid.h)
    a = capped_control(q, CAP)
    ham = float(np.max(np.abs(-a * q - np.log(a) - 1.0)))
    ham_ok = ham <= 1e-12

    time_res = [_time_residual(M) for M in (50, 100, 200, 400)]
    time_orders = [math.log2(a / b) for a, b in zip(time_res, time_res[1:])]
    space_res = [_space_residual(N) for N in (50, 100, 200)]
    space_orders = [math.log2(a / b) for a, b in zip(space_res, space_res[1:])]
    ok = ham_ok and min(time_orders) >= 0.9 and min(space_orders) >= 1.8
    _criterion(
        "closed-form-residuals", ok,
        f"stationary hamiltonian residual {ham:.1e}; time orders "
        f"{['%.2f' % o for o in time_orders]}; space orders "
        f"{['%.2f' % o for o in space_orders]}")


def test_monte_carlo_agreement(reference, mc_optimal):
    sim, stats = mc_optimal
    pde_value = reference["surface"].values[0, REFERENCE_NM // 2]
    reward_dev = stats.reward_mean - pde_value
    reward_ok = abs(reward_dev) <= 3.0 * stats.reward_stderr

    qv = me.quadratic_variation_check(stats, sim)
    qv_ok = qv.passed

    sub_lines = []
    sub_ok = True
    for a in (1.0 / math.e, 1.0, 2.0):
        other = me.simulate_paths(a, sim, T=1.0)
        se = math.hypot(stats.reward_stderr, other.reward_stderr)
        margin = other.reward_mean - stats.reward_mean
        good = margin <= 3.0 * se
        sub_ok = sub_ok and good
        sub_lines.append(f"a={a:.3f}: {other.reward_mean:.5f}")
    ok = reward_ok and qv_ok and sub_ok
    _criterion(
        "monte-carlo-agreement", ok,
        f"reward {stats.reward_mean:.5f} vs pde {pde_value:.5f} "
        f"({reward_dev / stats.reward_stderr:+.1f} se); qv-identity gap "
        f"{qv.terminal_gap:+.5f} ({qv.terminal_gap / qv.se_combined:+.1f} se); "
        f"constant controls {', '.join(sub_lines)} vs optimal {stats.reward_mean:.5f}")


def test_decay_envelope_holds():
    solver = me.hjb_horizon_solver(N=100, k=5e-3, cap_d=CAP)
    report = me.decay_rate_check(solver, (2.0, 5.0, 10.0, 20.0))
    _criterion("decay-envelope", report.passed,
               "; ".join(f"{r.name}: worst {r.worst:+.1e}" for r in report.results))


def test_policy_iteration_efficiency(reference):
    med = float(np.median(reference["iters"]))
    _criterion("policy-iteration-efficiency", med <= 5.0,
               f"median iterations per implicit step {med:g} (cap 5), "
               f"max {int(reference['iters'].max())}")


def test_monotone_ladder():
    grid = me.make_grid(200, 200, 1.0)
    tol = 1e-9
    prev_p = prev_e = None
    worst_p = worst_e = -np.inf
    for n in (1, 2, 4, 8, 16):
        p = me.solve_log_diffusion(grid, me.LadderConfig(regularisation_n=n))
        e = me.entropy_from_p(p)
        if prev_p is not None:
            worst_p = max(worst_p, float(np.max(p.values - prev_p.values)))
            worst_e = max(worst_e, float(np.max(e.values - prev_e.values)))
        prev_p, prev_e = p, e
    ok = worst_p <= tol and worst_e <= tol
    _criterion("monotone-ladder", ok,
               f"max nodewise increase across n: p {worst_p:.1e}, entropy {worst_e:.1e}")
