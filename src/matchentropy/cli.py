"""Command-line front end tying the solvers, densities, simulation and checks
into reproducible runs that emit plot-ready data.

Exit codes: 0 success, 1 validation, 2 numerical failure (a Monte Carlo
worker that died or failed included), 3 check failure, 4 I/O or memory.  Flags
override config-file values, which override the defaults (N = M = 1000,
T = 1, cap_d = 1e6).  Every emitted file embeds the
fully resolved configuration, so identical configs give byte-identical output.

Every input is checked once, as RunConfig is built and before the config is
echoed.  For the commands that write full fields (solve, forward-p, density
and reproduce-figures) `run` then starts file-writing workers before the
command's first solve: one process, the caller included, per
_MIN_WORKER_VALUES values of a full field, sized and split as `_workers`
describes.  The workers format and write shares of each full field with the
same bytes, and end with the command; a worker that dies or fails is exit 4.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._workers import _process_count, _started
from .checks import (check_solution_properties, cross_solver_check, decay_rate_check,
                     hjb_horizon_solver, merge_reports)
from .density import (EARLY_TERMINATION, FULL_LENGTH, VolatilityModel, _start_node,
                      solve_forward_density, terminal_atoms)
from .errors import NumericalError, ValidationError
from .grid import Grid, dump_json, field_to_csv, make_grid, second_difference_interior
from .hjb import (SchemeConfig, _check_cfl, optimal_control_field, solve_hjb,
                  solve_hjb_with_iterations)
from .logdiff import LadderConfig, _entropy_rows, entropy_from_p, solve_log_diffusion
from .montecarlo import (PROBE_FRACTIONS, SimConfig, _check_start, _control_evaluator,
                         _step_count, quadratic_variation_check, simulate_paths)

# fewest field values per process writing a field, the caller included: a
# spawned worker takes about 0.3 s to start, as long as formatting 400k values
# takes at about 0.75 us each
_MIN_WORKER_VALUES = 400_000


@dataclass
class RunConfig:
    """Every input of one CLI run, checked once.

    Construction builds the run's grid, scheme and simulation configs, whose
    own checks cover every numeric input, and keeps them as `grid`,
    `scheme_config` and `sim_config`, attributes but not fields (the echo, the
    output files and `==` do not see them).  It then checks what the command
    runs on that grid: for density and reproduce-figures the probe levels (kept
    as `probe_levels`) and the start node, the CFL number for each command that
    solves the HJB on it, and for simulate the Monte Carlo step and start rules.
    """

    command: str
    grid_n: int = 1000
    grid_m: int = 1000
    horizon: float = 1.0
    cap_d: float = 1e6
    scheme: str = "implicit"
    model: str = EARLY_TERMINATION
    regularisation_n: int | None = None
    n_paths: int = 100_000
    seed: int = 20240
    dt: float = 1e-3
    x0: float = 0.5
    output_path: str = "."
    format: str = "csv"

    def __post_init__(self):
        # the command is checked by the parser, its only source
        if self.model not in (EARLY_TERMINATION, FULL_LENGTH):
            raise ValidationError(
                f"model must be {EARLY_TERMINATION} or {FULL_LENGTH}, got {self.model!r}")
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {self.format!r}")
        # the library checks every other input as it builds these, before anything is echoed
        self.grid = make_grid(self.grid_n, self.grid_m, self.horizon)
        self.scheme_config = SchemeConfig(self.cap_d, self.scheme,
                                          terminal_regularisation_n=self.regularisation_n)
        self.sim_config = SimConfig(self.n_paths, self.dt, self.seed, self.x0)
        # every output file's header and the config echo hold the path as one line of UTF-8
        if not (self.output_path and self.output_path.isprintable()):
            raise ValidationError(
                f"output_path must be non-empty printable text, got {self.output_path!r}")
        if self.command in ("density", "reproduce-figures"):
            self.probe_levels = _probe_levels(self.grid)
            _start_node(self.grid, self.x0)
        if self.command in ("solve", "check", "reproduce-figures") or (
                self.command in ("density", "simulate") and self.model == EARLY_TERMINATION):
            _check_cfl(self.grid, self.scheme_config)
        if self.command == "simulate":
            _step_count(self.grid.T, self.dt, None if self.model == FULL_LENGTH else self.grid.k)
            if self.model == FULL_LENGTH:  # a solved field's a* >= 1/e meets the start rule
                *_, eval_a = _control_evaluator(VolatilityModel.full_length(self.grid.T), None, 1)
                _check_start(eval_a, self.x0)


# The parser of each RunConfig field, for its command-line flag and its config-file line.
_FIELD_PARSERS = {
    "command": str, "grid_n": int, "grid_m": int, "horizon": float, "cap_d": float,
    "scheme": str, "model": str, "regularisation_n": int, "n_paths": int, "seed": int,
    "dt": float, "x0": float, "output_path": str, "format": str,
}


def config_as_dict(config: RunConfig) -> dict:
    return {name: getattr(config, name) for name in _FIELD_PARSERS}


def serialise_config(config: RunConfig) -> str:
    """Flat key=value text; parse_config_file inverts it."""
    return "".join(f"{name}={'' if val is None else val}\n"
                   for name, val in config_as_dict(config).items())


def _coerce(name: str, raw: str):
    if name not in _FIELD_PARSERS:
        raise ValidationError(f"unknown config key {name!r}")
    raw = raw.strip()
    if raw == "":
        # serialise_config writes regularisation_n=None as an empty value
        if name == "regularisation_n":
            return None
        raise ValidationError(f"config key {name}: empty value")
    try:
        return _FIELD_PARSERS[name](raw)
    except ValueError as exc:
        raise ValidationError(f"config key {name}: cannot parse {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        values[key.strip()] = _coerce(key.strip(), raw)
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command-line error as a ValidationError: one line, exit 1."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="matchentropy", description=__doc__.splitlines()[0],
                             argument_default=argparse.SUPPRESS)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", dest="config_file")
    for name, parse in _FIELD_PARSERS.items():
        if name != "command":
            flag = "--output" if name == "output_path" else "--" + name.replace("_", "-")
            parser.add_argument(flag, dest=name, type=parse)
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve argv (+ optional config file) into a RunConfig, echoed to stderr."""
    flags = vars(_build_parser().parse_args(argv))
    config_file = flags.pop("config_file", None)
    values = parse_config_file(config_file) if config_file else {}
    values.pop("command", None)  # the command on the command line governs
    config = RunConfig(**{**values, **flags})
    print("resolved config:", file=sys.stderr)
    for line in serialise_config(config).splitlines():
        print(f"  {line}", file=sys.stderr)
    return config


def _meta(config: RunConfig) -> dict:
    meta = {"matchentropy_version": __version__}
    meta.update(config_as_dict(config))
    return meta


def _outpath(config: RunConfig, name: str) -> str:
    os.makedirs(config.output_path, exist_ok=True)
    return os.path.join(config.output_path, name)


def _json_payload(config: RunConfig, body: dict) -> dict:
    return {"version": __version__, "config": config_as_dict(config), **body}


def _write_field(config: RunConfig, workers, stem: str, label: str, values, **extra) -> None:
    """Write a full field as stem.csv, or with --format json as stem.json with
    `extra` beside the grid in its envelope."""
    grid = config.grid
    if config.format == "json":
        payload = _json_payload(config, {"grid": {"N": grid.N, "M": grid.M, "T": grid.T}, **extra})
        dump_json(payload, _outpath(config, stem + ".json"), values=values, workers=workers)
    else:
        field_to_csv(grid, values, _outpath(config, stem + ".csv"), label, _meta(config),
                     workers=workers)


def _cmd_solve(config: RunConfig, workers) -> int:
    grid, cfg = config.grid, config.scheme_config
    surface, iters = solve_hjb_with_iterations(grid, cfg)
    control = optimal_control_field(surface, cfg)
    mid = grid.N // 2
    e_mid = surface.values[0, mid]
    _write_field(config, workers, "solve_surface", "value", surface.values)
    del surface  # released before sigma is built: two full fields at a time
    field_to_csv(grid, control.a_star, _outpath(config, "solve_control.csv"),
                 "a", _meta(config), workers=workers)
    field_to_csv(grid, control.sigma_star, _outpath(config, "solve_volatility.csv"),
                 "sigma", _meta(config), workers=workers)
    print(f"solved {config.scheme} scheme on {grid.N}x{grid.M}: "
          f"e(0, {grid.x_nodes()[mid]:g}) = {e_mid:.6f}, "
          f"median policy iterations = {float(np.median(iters)):g}")
    return 0


def _cmd_forward_p(config: RunConfig, workers) -> int:
    grid = config.grid
    n = config.regularisation_n if config.regularisation_n is not None else 16
    p = solve_log_diffusion(grid, LadderConfig(regularisation_n=n))
    _write_field(config, workers, "forward_p", "p", p.values, regularisation_n=n)
    # row 0 of the rebuilt surface, which reads p's last row, is all that is printed
    x = grid.x_nodes()
    e0 = _entropy_rows(p.values[-1:], grid.h, x)[0]
    mid = grid.N // 2
    print(f"forward p solved with initial value 1/{n}: "
          f"rebuilt e(0, {x[mid]:g}) = {e0[mid]:.6f}")
    return 0


def _volatility_model(config: RunConfig) -> VolatilityModel:
    """The model config.model names: the solved optimal control for early
    termination, or the closed-form full-length benchmark."""
    if config.model == FULL_LENGTH:
        return VolatilityModel.full_length(config.grid.T)
    surface = solve_hjb(config.grid, config.scheme_config)
    return VolatilityModel.early_termination(
        optimal_control_field(surface, config.scheme_config))


def _probe_levels(grid: Grid) -> list[tuple[float, int]]:
    """(fraction, time level) of each of PROBE_FRACTIONS whose time fraction*T
    is a time level of `grid`; a probe between two levels is left out, and a
    grid with none of them is an input error."""
    levels = []
    for frac in PROBE_FRACTIONS:
        with contextlib.suppress(ValidationError):
            levels.append((frac, grid.time_index(frac * grid.T)))
    if not levels:
        named = ", ".join(f"{frac:g}" for frac in PROBE_FRACTIONS)
        raise ValidationError(f"no probe time ({named} of T) is a time level of the grid, "
                              f"k = {grid.k:g}")
    return levels


def _density_summary(grid, density, probe_levels) -> dict:
    probes = {f"{frac:g}": float(density.interior_mass[m]) for frac, m in probe_levels}
    atoms = terminal_atoms(density)
    return {
        "times": [float(t) for t in grid.t_nodes()],
        "interior_mass": density.interior_mass.tolist(),
        "absorbed_left": [float(v) for v in density.absorbed_mass_left],
        "absorbed_right": [float(v) for v in density.absorbed_mass_right],
        "interior_mass_at_probe_fractions": probes,
        "terminal_atoms": {"left": atoms[0], "right": atoms[1]},
    }


def _cmd_density(config: RunConfig, workers) -> int:
    grid = config.grid
    density = solve_forward_density(_volatility_model(config), grid, config.x0)
    field_to_csv(grid, density.values, _outpath(config, "density.csv"), "q", _meta(config),
                 workers=workers)
    summary = _density_summary(grid, density, config.probe_levels)
    dump_json(_json_payload(config, summary), _outpath(config, "density_summary.json"))
    probes = summary["interior_mass_at_probe_fractions"]
    pretty = ", ".join(f"t={f}T: {v:.4f}" for f, v in probes.items())
    print(f"density propagated under {config.model}; interior mass {pretty}")
    return 0


def _cmd_simulate(config: RunConfig, workers) -> int:
    stats = simulate_paths(_volatility_model(config), config.sim_config)
    qv = quadratic_variation_check(stats, config.sim_config)
    report = {
        "reward_mean": stats.reward_mean,
        "reward_stderr": stats.reward_stderr,
        "qv_mean": stats.qv_mean,
        "qv_identity_gap": qv.terminal_gap,
        "qv_identity_se": qv.se_combined,
        "absorbed_by": {f"{t:g}": v for t, v in stats.fraction_absorbed_by.items()},
        "n_paths": config.n_paths,
        "seed": config.seed,
    }
    dump_json(_json_payload(config, report), _outpath(config, "simulate.json"))
    print(f"simulated {config.n_paths} paths: reward {stats.reward_mean:.6f} "
          f"+/- {stats.reward_stderr:.6f}, qv {stats.qv_mean:.6f}")
    return 0


def _cmd_check(config: RunConfig, workers) -> int:
    grid = config.grid
    surface = solve_hjb(grid, config.scheme_config)
    properties = check_solution_properties(surface)

    n = config.regularisation_n if config.regularisation_n is not None else 1
    small = make_grid(min(grid.N, 200), min(grid.M, 200), grid.T)
    hjb_reg = solve_hjb(small, SchemeConfig(cap_d=config.cap_d, terminal_regularisation_n=n))
    rebuilt = entropy_from_p(solve_log_diffusion(small, LadderConfig(regularisation_n=n)))

    decay = decay_rate_check(hjb_horizon_solver(N=100, k=5e-3, cap_d=config.cap_d),
                             (2.0, 5.0, 10.0, 20.0))
    report = merge_reports(properties, cross_solver_check(hjb_reg, rebuilt, n), decay)
    dump_json(_json_payload(config, report.as_dict()), _outpath(config, "check_report.json"))
    print(report.format_table())
    return 0 if report.passed else 3


def _cmd_reproduce_figures(config: RunConfig, workers) -> int:
    grid, cfg = config.grid, config.scheme_config
    probes = config.probe_levels
    surface = solve_hjb(grid, cfg)
    control = optimal_control_field(surface, cfg)
    meta = _meta(config)

    probe_ts = [frac * grid.T for frac, _ in probes]
    probe_ms = [m for _, m in probes]

    # the surface's probe rows and full field are all that is read of it, so it
    # is released before the densities: two full fields at a time, not three
    a_probe = control.a_star[probe_ms]
    dxx = np.zeros_like(a_probe)
    dxx[:, 1:-1] = second_difference_interior(surface.values[probe_ms], grid.h)
    dxx[:, 0] = -a_probe[:, 0] ** -1
    dxx[:, -1] = -a_probe[:, -1] ** -1
    field_to_csv(grid, surface.values, _outpath(config, "fig2_entropy_surface.csv"),
                 "value", meta, workers=workers)
    del surface

    percentages = {}
    for model in (VolatilityModel.early_termination(control), VolatilityModel.full_length(grid.T)):
        density = solve_forward_density(model, grid, config.x0)
        field_to_csv(grid, density.values[probe_ms],
                     _outpath(config, f"fig1_density_{model.kind}.csv"), "q", meta, times=probe_ts)
        percentages[model.kind] = {
            f"{t:g}": float(density.interior_mass[m]) for t, m in zip(probe_ts, probe_ms)
        }
        del density  # released before the next model's solve
    dump_json(_json_payload(config, {"interior_mass": percentages}),
              _outpath(config, "fig1_percentages.json"))

    for fname, rows, label in (
        ("fig3_second_derivative.csv", dxx, "dxx_e"),
        ("fig3_volatility.csv", np.sqrt(a_probe), "sigma"),
    ):
        field_to_csv(grid, rows, _outpath(config, fname), label, meta, times=probe_ts)

    named = ", ".join(f"{t:g}" for t in probe_ts)
    print(f"figure data written to {config.output_path} at t = {named}")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "forward-p": _cmd_forward_p,
    "density": _cmd_density,
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "reproduce-figures": _cmd_reproduce_figures,
}
COMMANDS = tuple(_DISPATCH)


def run(config: RunConfig) -> int:
    """Dispatch a resolved config to its command; returns the process exit status.
    The file-writing workers for the command's full fields start here, before
    its first solve, so their start (about 0.3 s) overlaps the solve; none
    outlives the command, and simulate and check, which write no full field,
    start none."""
    rows = config.grid.M + 1
    values = 0 if config.command in ("simulate", "check") else rows * (config.grid.N + 1)
    with _started(_process_count(rows, values, _MIN_WORKER_VALUES) - 1) as workers:
        return _DISPATCH[config.command](config, workers)


def main(argv=None) -> int:
    try:
        return run(parse_config(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # --help; a command-line error raises ValidationError instead
        return 0 if not exc.code else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
