#!/usr/bin/env python3
"""Time-step study of the path simulator's absorption rule.

Runs the shipped rule (continuity-corrected barriers, reward accrued through
the exit step) on the solved optimal control of the reference grid at each
given step dt: reward versus the solved value at (0, 1/2), the pathwise
quadratic-variation identity, and the absorbed fraction at t = 0.5 versus the
forward-density curve.  Every dt must be at most the grid's time step k = 1e-3,
since the simulator rejects a coarser dt on a solved control.
"""

import argparse

import matchentropy as me
from matchentropy.montecarlo import PROBE_FRACTIONS


def run(n_paths, dts, seed):
    grid = me.make_grid(1000, 1000, 1.0)
    cfg = me.SchemeConfig(cap_d=1e6)
    surface = me.solve_hjb(grid, cfg)
    control = me.optimal_control_field(surface, cfg)
    pde_value = surface.values[0, grid.N // 2]
    density = me.solve_forward_density(
        me.VolatilityModel.early_termination(control), grid, 0.5)
    probes = [frac * grid.T for frac in PROBE_FRACTIONS]
    pde_fracs = {t: 1.0 - me.survival_probability(density, t) for t in probes}
    print(f"pde value {pde_value:.6f}; pde absorbed fractions "
          + ", ".join(f"{t}: {v:.4f}" for t, v in pde_fracs.items()))

    for dt in dts:
        sim = me.SimConfig(n_paths=n_paths, dt=dt, base_seed=seed, x0=0.5)
        stats = me.simulate_paths(control, sim)
        qv = me.quadratic_variation_check(stats, sim)
        dev = (stats.reward_mean - pde_value) / stats.reward_stderr
        print(f"dt={dt:<8g} | "
              f"reward {stats.reward_mean:.5f} ({dev:+.1f} se) | "
              f"qv gap {qv.terminal_gap:+.5f} "
              f"({qv.terminal_gap / qv.se_combined:+.1f} se) | "
              f"absorbed@{probes[0]:g} {stats.fraction_absorbed_by[probes[0]]:.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-paths", type=int, default=100_000)
    parser.add_argument("--dt", type=float, nargs="+", default=[1e-3, 5e-4, 2.5e-4])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    run(args.n_paths, args.dt, args.seed)
