"""The benchmark workloads: their operations, correctness gates and units of work.

Every call into the program goes through a module attribute
(`me_hjb.solve_hjb_with_iterations`, not an imported name), so the traced run
sees it.  Gates use functions bound at import time, before any tracing is
installed, so checking a result adds no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid

import matchentropy.checks as me_checks
import matchentropy.cli as me_cli
import matchentropy.density as me_density
import matchentropy.grid as me_grid
import matchentropy.hjb as me_hjb
import matchentropy.logdiff as me_logdiff
import matchentropy.montecarlo as me_montecarlo
from matchentropy.checks import check_solution_properties
from matchentropy.density import VolatilityModel, benchmark_entropy
from matchentropy.grid import make_grid
from matchentropy.hjb import SchemeConfig
from matchentropy.logdiff import LadderConfig
from matchentropy.montecarlo import SimConfig

MANIFEST = Path(__file__).resolve().parent / "manifest.json"
# Relative on purpose: the CLI embeds its output path in every file it writes,
# so the same string must appear in every checkout for the hashes to match.
CLI_OUT = os.path.join(".perfbench_out", "cli")

REFERENCE_GRID = make_grid(1000, 1000, 1.0)
REFERENCE_SCHEME = SchemeConfig(cap_d=1e6)
MID = REFERENCE_GRID.N // 2
X0 = 0.5
# Monte Carlo gates allow 4 standard errors, so a correct program fails one by
# chance about once in 16000 checks across the seeds a benchmark series uses.
MC_SIGMAS = 4.0


class Pass:
    """Times the operations of one pass and collects the gates they fail."""

    def __init__(self, tracer=None):
        self.times: dict[str, float] = {}
        self.failed: set[str] = set()
        self.messages: list[str] = []
        self.facts: dict[str, float] = {}
        self._tracer = tracer

    def run(self, op, fn, *args):
        start = time.perf_counter()
        if self._tracer is None:
            result = fn(*args)
        else:
            result = self._tracer.call(f"op.{op}", fn, args)
        self.times[op] = time.perf_counter() - start
        return result

    def check(self, op, ok, detail):
        if not ok:
            self.failed.add(op)
            self.messages.append(f"{op}: {detail}")


def ledger_defect(density) -> float:
    """Worst |interior mass + absorbed mass - 1| over all time levels."""
    grid = density.grid
    ledger = (trapezoid(density.values, dx=grid.h, axis=1)
              + density.absorbed_mass_left + density.absorbed_mass_right)
    return float(np.max(np.abs(ledger - 1.0)))


def _absorbed(density, t: float) -> float:
    m = density.grid.time_index(t)
    return float(density.absorbed_mass_left[m] + density.absorbed_mass_right[m])


def _interior_node_steps(grid) -> int:
    return (grid.N - 1) * grid.M


class PdeReference:
    """The deterministic PDE routes and the invariant suite; no Monte Carlo, no files."""

    ops = ("reference_hjb", "densities", "cross_route", "properties", "decay", "explicit")
    # Absorbed mass of the early-termination density at t = 0.5, 0.9, 0.99.
    ABSORBED = {0.5: 0.896, 0.9: 0.990, 0.99: 0.997}
    DECAY_HORIZONS = (2.0, 5.0, 10.0, 20.0)
    DECAY_N, DECAY_K = 100, 5e-3
    # Explicit scheme at CFL number k*cap_d/h^2 exactly 1.
    EXPLICIT_GRID = make_grid(32, 2048, 1.0)
    EXPLICIT_SCHEME = SchemeConfig(cap_d=2.0, scheme="explicit")
    LADDER_N = 16

    def __init__(self, seed: int):
        # Every input is fixed, so the seed selects nothing here.
        # reference HJB, two densities, log diffusion, regularised HJB, decay solves, explicit
        decay = sum(_interior_node_steps(make_grid(self.DECAY_N, round(T / self.DECAY_K), T))
                    for T in self.DECAY_HORIZONS)
        self.node_steps = (5 * _interior_node_steps(REFERENCE_GRID) + decay
                           + _interior_node_steps(self.EXPLICIT_GRID))

    def work(self, p: Pass) -> float:
        return self.node_steps

    def run_pass(self, p: Pass) -> None:
        g = REFERENCE_GRID

        def reference_hjb():
            surface, _ = me_hjb.solve_hjb_with_iterations(g, REFERENCE_SCHEME)
            return surface, me_hjb.optimal_control_field(surface, REFERENCE_SCHEME)

        def densities():
            early = VolatilityModel.early_termination(control)
            return (me_density.solve_forward_density(early, g, X0),
                    me_density.solve_forward_density(VolatilityModel.full_length(g.T), g, X0))

        def cross_route():
            ladder = LadderConfig(regularisation_n=self.LADDER_N)
            rebuilt = me_logdiff.entropy_from_p(me_logdiff.solve_log_diffusion(g, ladder))
            regularised = me_hjb.solve_hjb(
                g, SchemeConfig(cap_d=REFERENCE_SCHEME.cap_d,
                                terminal_regularisation_n=self.LADDER_N))
            return me_checks.cross_solver_gap(regularised, rebuilt)

        def decay():
            solver = me_checks.hjb_horizon_solver(N=self.DECAY_N, k=self.DECAY_K)
            return me_checks.decay_rate_check(solver, self.DECAY_HORIZONS)

        surface, control = p.run("reference_hjb", reference_hjb)

        early, full = p.run("densities", densities)
        for density in (early, full):
            defect = ledger_defect(density)
            p.check("densities", defect <= 1e-12, f"mass ledger defect {defect:.3e} > 1e-12")
        for t, want in self.ABSORBED.items():
            got = _absorbed(early, t)
            p.check("densities", abs(got - want) <= 1e-3,
                    f"absorbed mass at t={t} is {got:.6f}, expected {want} +/- 1e-3")

        gap = p.run("cross_route", cross_route)
        gap_tol = 5.0 * (g.k + g.h ** 2)
        p.check("cross_route", gap <= gap_tol, f"cross-route gap {gap:.3e} > {gap_tol:.3e}")
        p.facts["cross_route_gap"] = gap

        report = p.run("properties", me_checks.check_solution_properties, surface)
        p.check("properties", report.passed, report.format_table())

        report = p.run("decay", decay)
        p.check("decay", report.passed, report.format_table())

        explicit = p.run("explicit", me_hjb.solve_hjb, self.EXPLICIT_GRID, self.EXPLICIT_SCHEME)
        report = check_solution_properties(explicit)
        p.check("explicit", report.passed, report.format_table())


class McPaths:
    """Two Monte Carlo runs that use the path simulator in opposite ways."""

    ops = ("mc_early", "mc_full")
    EARLY_PATHS, EARLY_DT = 100_000, 1e-3
    FULL_PATHS, FULL_DT = 8192, 2e-4

    def __init__(self, seed: int):
        self.seed = seed
        self.full_reference = benchmark_entropy(0.0, X0, REFERENCE_GRID.T)
        surface = me_hjb.solve_hjb(REFERENCE_GRID, REFERENCE_SCHEME)
        control = me_hjb.optimal_control_field(surface, REFERENCE_SCHEME)
        density = me_density.solve_forward_density(
            VolatilityModel.early_termination(control), REFERENCE_GRID, X0)
        self.absorbed_half = _absorbed(density, 0.5)

    def work(self, p: Pass) -> float:
        return self.EARLY_PATHS + self.FULL_PATHS

    def _gate_paths(self, p: Pass, op: str, stats, qv, target: float) -> None:
        z = abs(stats.reward_mean - target) / stats.reward_stderr
        p.check(op, z <= MC_SIGMAS,
                f"reward {stats.reward_mean:.6f} is {z:.2f} SE from {target:.6f}")
        z = abs(qv.terminal_gap) / qv.se_combined
        p.check(op, z <= MC_SIGMAS, f"quadratic-variation gap is {z:.2f} combined SE")

    def run_pass(self, p: Pass) -> None:
        g = REFERENCE_GRID
        early_cfg = SimConfig(n_paths=self.EARLY_PATHS, dt=self.EARLY_DT,
                              base_seed=self.seed, x0=X0)
        full_cfg = SimConfig(n_paths=self.FULL_PATHS, dt=self.FULL_DT,
                             base_seed=self.seed, x0=X0)

        def mc_early():
            surface, _ = me_hjb.solve_hjb_with_iterations(g, REFERENCE_SCHEME)
            control = me_hjb.optimal_control_field(surface, REFERENCE_SCHEME)
            stats = me_montecarlo.simulate_paths(control, early_cfg)
            return (float(surface.values[0, MID]), stats,
                    me_montecarlo.quadratic_variation_check(stats, early_cfg))

        def mc_full():
            stats = me_montecarlo.simulate_paths(VolatilityModel.full_length(g.T), full_cfg)
            return stats, me_montecarlo.quadratic_variation_check(stats, full_cfg)

        e_mid, stats, qv = p.run("mc_early", mc_early)
        self._gate_paths(p, "mc_early", stats, qv, e_mid)
        got = stats.fraction_absorbed_by[0.5]
        p.check("mc_early", abs(got - self.absorbed_half) <= 0.01,
                f"absorbed fraction at t=0.5 is {got:.4f}, density gives "
                f"{self.absorbed_half:.4f}")

        stats, qv = p.run("mc_full", mc_full)
        self._gate_paths(p, "mc_full", stats, qv, self.full_reference)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = me_cli.main([*argv, "--output", CLI_OUT])
    return code, out.getvalue()


def _new_files(before: set[str]) -> dict[str, str]:
    return {name: _sha256(os.path.join(CLI_OUT, name))
            for name in sorted(set(os.listdir(CLI_OUT)) - before)}


class CliOutputs:
    """CLI commands at the reference configuration: serialisation-bound, about 300 MB per pass."""

    COMMANDS = {
        "solve": ["solve"],
        "forward-p": ["forward-p", "--format", "json"],
        "density": ["density"],
        "reproduce-figures": ["reproduce-figures"],
    }
    ops = (*COMMANDS, "read_back")

    def __init__(self, seed: int):
        # Every input is fixed, so the seed selects nothing here.
        self.manifest = json.loads(MANIFEST.read_text())
        self.reference = me_hjb.solve_hjb(REFERENCE_GRID, REFERENCE_SCHEME).values

    def work(self, p: Pass) -> float:
        return p.facts.get("bytes_written", 0) / 1e6

    def run_pass(self, p: Pass) -> None:
        shutil.rmtree(CLI_OUT, ignore_errors=True)
        os.makedirs(CLI_OUT)
        for op, argv in self.COMMANDS.items():
            before = set(os.listdir(CLI_OUT))
            code, console = p.run(op, _cli_call, argv)
            p.check(op, code == 0, f"exit code {code}: {console.strip()[-500:]}")
            written = _new_files(before)
            mismatched = sorted(set(written.items()) ^ set(self.manifest[op].items()))
            p.check(op, not mismatched,
                    f"outputs differ from the manifest: {sorted({n for n, _ in mismatched})}")
        p.facts["bytes_written"] = sum(os.path.getsize(os.path.join(CLI_OUT, name))
                                       for name in os.listdir(CLI_OUT))

        ts, xs, values = p.run("read_back", me_grid.field_from_csv,
                               os.path.join(CLI_OUT, "solve_surface.csv"))
        exact = (np.array_equal(ts, REFERENCE_GRID.t_nodes())
                 and np.array_equal(xs, REFERENCE_GRID.x_nodes())
                 and np.array_equal(values, self.reference))
        p.check("read_back", exact, "solve_surface.csv does not round-trip exactly")


WORKLOADS = {"pde_reference": PdeReference, "mc_paths": McPaths, "cli_outputs": CliOutputs}


def measure_pass(workload, tracer=None) -> tuple[Pass, list | None]:
    """Run one pass, traced when a tracer is given; returns it with its spans."""
    p = Pass(tracer)
    if tracer is not None:
        tracer.install()
    try:
        workload.run_pass(p)
    except Exception:  # the operation that raised fails, and so does every one after it
        traceback.print_exc()
        p.failed.update(op for op in workload.ops if op not in p.times)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return p, (tracer.take() if tracer is not None else None)


def write_manifest() -> None:
    """Record the sha256 of every file each CLI command writes, as manifest.json."""
    shutil.rmtree(CLI_OUT, ignore_errors=True)
    os.makedirs(CLI_OUT)
    manifest = {}
    for op, argv in CliOutputs.COMMANDS.items():
        before = set(os.listdir(CLI_OUT))
        code, console = _cli_call(argv)
        if code != 0:
            sys.exit(f"{op} exited with {code}: {console}")
        manifest[op] = _new_files(before)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
