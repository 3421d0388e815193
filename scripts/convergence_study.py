#!/usr/bin/env python3
"""Convergence tables for the two solver routes.

Prints the sup-norm gap between the backward solve and the entropy rebuilt
from the forward logarithmic diffusion, per ladder index and resolution,
plus the explicit/implicit scheme gap under simultaneous (k, h^2) halving.
"""

import argparse

import matchentropy as me


def cross_route_table(n_values, resolutions, cap):
    print(f"cross-route sup gap (cap_d={cap:g})")
    header = "  n    " + "".join(f"N=M={nm:<10}" for nm in resolutions) + "shrink"
    print(header)
    for n in n_values:
        gaps = []
        for nm in resolutions:
            grid = me.make_grid(nm, nm, 1.0)
            hjb = me.solve_hjb(grid, me.SchemeConfig(cap_d=cap,
                                                     terminal_regularisation_n=n))
            rebuilt = me.entropy_from_p(
                me.solve_log_diffusion(grid, me.LadderConfig(regularisation_n=n)))
            gaps.append(me.cross_solver_gap(hjb, rebuilt))
        shrink = gaps[0] / gaps[-1] if gaps[-1] > 0 else float("inf")
        cells = "".join(f"{g:<14.3e}" for g in gaps)
        print(f"  {n:<4} {cells} x{shrink:.2f}")


def scheme_gap_table(cap=2.0):
    print(f"\nexplicit vs implicit sup gap (cap_d={cap:g}, k tied to h^2 via stability)")
    for N, k_scale in ((16, 1.0), (23, 0.98), (32, 0.5)):
        h2 = (1.0 / N) ** 2
        M = int(round(1.0 / (h2 / cap * k_scale)))
        grid = me.make_grid(N, M, 1.0)
        gap = me.cross_solver_gap(
            me.solve_hjb(grid, me.SchemeConfig(cap_d=cap, scheme="explicit")),
            me.solve_hjb(grid, me.SchemeConfig(cap_d=cap, scheme="implicit")))
        print(f"  N={N:<4} M={M:<6} k={grid.k:.2e}  gap {gap:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap-d", type=float, default=1e6)
    parser.add_argument("--resolutions", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--ladder", type=int, nargs="+", default=[1, 2, 4, 8])
    args = parser.parse_args()
    cross_route_table(args.ladder, args.resolutions, args.cap_d)
    scheme_gap_table()
