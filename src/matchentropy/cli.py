"""Command-line front end tying the solvers, densities, simulation and checks
into reproducible runs that emit plot-ready data.

Exit codes: 0 success, 1 validation, 2 numerical failure, 3 check failure,
4 I/O.  Flags override config-file values, which override the defaults
(N = M = 1000, T = 1, cap_d = 1e6).  Every emitted file embeds the fully
resolved configuration, so identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checks import (CheckReport, check_solution_properties, cross_solver_gap, decay_rate_check,
                     hjb_horizon_solver, merge_reports, CheckResult)
from .density import (VolatilityModel, solve_forward_density, survival_probability,
                      terminal_atoms)
from .errors import MatchEntropyError, NumericalError, ValidationError
from .grid import dump_json, field_to_csv, make_grid, second_difference_interior
from .hjb import (SchemeConfig, optimal_control_field, solve_hjb,
                  solve_hjb_with_iterations)
from .logdiff import LadderConfig, entropy_from_p, solve_log_diffusion
from .montecarlo import SimConfig, quadratic_variation_check, simulate_paths

COMMANDS = ("solve", "forward-p", "density", "simulate", "check", "reproduce-figures")
OUTDIR_ENV = "MATCHENTROPY_OUTDIR"
PROBE_FRACTIONS = (0.5, 0.9, 0.99)


@dataclass
class RunConfig:
    command: str
    grid_n: int = 1000
    grid_m: int = 1000
    horizon: float = 1.0
    cap_d: float = 1e6
    scheme: str = "implicit"
    model: str = "early_termination"
    regularisation_n: int | None = None
    n_paths: int = 100_000
    seed: int = 20240
    dt: float = 1e-3
    x0: float = 0.5
    output_path: str = ""
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.model not in ("early_termination", "full_length"):
            raise ValidationError(f"unknown model {self.model!r}")
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {self.format!r}")
        # the library checks every numeric input; run them here, before anything is echoed
        make_grid(self.grid_n, self.grid_m, self.horizon)
        SchemeConfig(self.cap_d, self.scheme, terminal_regularisation_n=self.regularisation_n)
        SimConfig(self.n_paths, self.dt, self.seed, self.x0)
        if not self.output_path:
            self.output_path = os.environ.get(OUTDIR_ENV, ".")


def serialise_config(config: RunConfig) -> str:
    """Flat key=value text; parse_config_file inverts it."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        val = getattr(config, f.name)
        lines.append(f"{f.name}={'' if val is None else val}")
    return "\n".join(lines) + "\n"


def config_as_dict(config: RunConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(RunConfig)}


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_INT_FIELDS = {"grid_n", "grid_m", "n_paths", "seed", "regularisation_n"}
_FLOAT_FIELDS = {"horizon", "cap_d", "dt", "x0"}


def _coerce(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ValidationError(f"unknown config key {name!r}")
    raw = raw.strip()
    if raw == "":
        # serialise_config writes regularisation_n=None as an empty value
        if name == "regularisation_n":
            return None
        raise ValidationError(f"config key {name}: empty value")
    try:
        if name in _INT_FIELDS:
            return int(raw)
        if name in _FLOAT_FIELDS:
            return float(raw)
    except ValueError as exc:
        raise ValidationError(f"config key {name}: cannot parse {raw!r}") from exc
    return raw


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            values[key.strip()] = _coerce(key.strip(), raw)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchentropy", exit_on_error=False,
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, exit_on_error=False, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", dest="config_file")
        p.add_argument("--grid-n", dest="grid_n", type=int)
        p.add_argument("--grid-m", dest="grid_m", type=int)
        p.add_argument("--horizon", type=float)
        p.add_argument("--cap-d", dest="cap_d", type=float)
        p.add_argument("--scheme", choices=("explicit", "implicit"))
        p.add_argument("--model", choices=("early_termination", "full_length"))
        p.add_argument("--regularisation-n", dest="regularisation_n", type=int)
        p.add_argument("--n-paths", dest="n_paths", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--x0", type=float)
        p.add_argument("--output", dest="output_path")
        p.add_argument("--format", choices=("csv", "json"))
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve argv (+ optional config file) into a RunConfig, echoed to stderr."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise ValidationError(str(exc)) from exc
    values = {}
    flag_values = {k: v for k, v in vars(ns).items() if k not in ("command", "config_file")}
    config_file = getattr(ns, "config_file", None)
    if config_file:
        values.update(parse_config_file(config_file))
    values.pop("command", None)  # the subcommand on the command line governs
    values.update(flag_values)
    config = RunConfig(command=ns.command, **values)
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


def _grid_and_scheme(config: RunConfig):
    grid = make_grid(config.grid_n, config.grid_m, config.horizon)
    cfg = SchemeConfig(cap_d=config.cap_d, scheme=config.scheme,
                       terminal_regularisation_n=config.regularisation_n)
    return grid, cfg


def _cmd_solve(config: RunConfig) -> int:
    grid, cfg = _grid_and_scheme(config)
    surface, iters = solve_hjb_with_iterations(grid, cfg)
    control = optimal_control_field(surface, cfg)
    if config.format == "json":
        payload = _json_payload(config, {"grid": {"N": grid.N, "M": grid.M, "T": grid.T}})
        dump_json(payload, _outpath(config, "solve_surface.json"), values=surface.values)
    else:
        field_to_csv(grid, surface.values, _outpath(config, "solve_surface.csv"),
                     "value", _meta(config))
    field_to_csv(grid, control.a_star, _outpath(config, "solve_control.csv"),
                 "a", _meta(config))
    field_to_csv(grid, control.sigma_star, _outpath(config, "solve_volatility.csv"),
                 "sigma", _meta(config))
    mid = grid.N // 2
    print(f"solved {config.scheme} scheme on {grid.N}x{grid.M}: "
          f"e(0, {grid.x_nodes()[mid]:g}) = {surface.values[0, mid]:.6f}, "
          f"median policy iterations = {float(np.median(iters)):g}")
    return 0


def _cmd_forward_p(config: RunConfig) -> int:
    grid = make_grid(config.grid_n, config.grid_m, config.horizon)
    n = config.regularisation_n if config.regularisation_n is not None else 16
    p = solve_log_diffusion(grid, LadderConfig(regularisation_n=n))
    if config.format == "json":
        payload = _json_payload(config, {"grid": {"N": grid.N, "M": grid.M, "T": grid.T},
                                         "regularisation_n": n})
        dump_json(payload, _outpath(config, "forward_p.json"), values=p.values)
    else:
        field_to_csv(grid, p.values, _outpath(config, "forward_p.csv"), "p", _meta(config))
    entropy = entropy_from_p(p)
    mid = grid.N // 2
    print(f"forward p solved with initial value 1/{n}: "
          f"rebuilt e(0, {grid.x_nodes()[mid]:g}) = {entropy.values[0, mid]:.6f}")
    return 0


def _density_for(config: RunConfig):
    grid, cfg = _grid_and_scheme(config)
    if config.model == "early_termination":
        surface = solve_hjb(grid, cfg)
        model = VolatilityModel.early_termination(optimal_control_field(surface, cfg))
    else:
        model = VolatilityModel.full_length(grid.T)
    return grid, solve_forward_density(model, grid, config.x0)


def _density_summary(grid, density) -> dict:
    times = grid.t_nodes()
    interior = [float(survival_probability(density, t)) for t in times]
    probes = {}
    for frac in PROBE_FRACTIONS:
        t = frac * grid.T
        try:
            probes[f"{frac:g}"] = float(survival_probability(density, t))
        except ValidationError:
            continue
    atoms = terminal_atoms(density)
    return {
        "times": [float(t) for t in times],
        "interior_mass": interior,
        "absorbed_left": [float(v) for v in density.absorbed_mass_left],
        "absorbed_right": [float(v) for v in density.absorbed_mass_right],
        "interior_mass_at_probe_fractions": probes,
        "terminal_atoms": {"left": atoms[0], "right": atoms[1]},
    }


def _cmd_density(config: RunConfig) -> int:
    grid, density = _density_for(config)
    field_to_csv(grid, density.values, _outpath(config, "density.csv"), "q", _meta(config))
    summary = _density_summary(grid, density)
    dump_json(_json_payload(config, summary), _outpath(config, "density_summary.json"))
    probes = summary["interior_mass_at_probe_fractions"]
    pretty = ", ".join(f"t={f}T: {v:.4f}" for f, v in probes.items())
    print(f"density propagated under {config.model}; interior mass {pretty}")
    return 0


def _cmd_simulate(config: RunConfig) -> int:
    grid, cfg = _grid_and_scheme(config)
    if config.model == "early_termination":
        surface = solve_hjb(grid, cfg)
        control = optimal_control_field(surface, cfg)
    else:
        control = VolatilityModel.full_length(grid.T)
    sim = SimConfig(n_paths=config.n_paths, dt=config.dt, base_seed=config.seed,
                    x0=config.x0)
    stats = simulate_paths(control, sim)
    qv = quadratic_variation_check(stats, sim)
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


def _cmd_check(config: RunConfig) -> int:
    grid, cfg = _grid_and_scheme(config)
    surface = solve_hjb(grid, cfg)
    properties = check_solution_properties(surface)

    n = config.regularisation_n if config.regularisation_n is not None else 1
    small_n = min(grid.N, 200)
    small_m = min(grid.M, 200)
    small = make_grid(small_n, small_m, grid.T)
    hjb_reg = solve_hjb(small, SchemeConfig(cap_d=config.cap_d, terminal_regularisation_n=n))
    rebuilt = entropy_from_p(solve_log_diffusion(small, LadderConfig(regularisation_n=n)))
    gap = cross_solver_gap(hjb_reg, rebuilt)
    gap_tol = 5.0 * (small.k + small.h ** 2)
    route_check = CheckReport(results=(CheckResult(
        name=f"cross_solver_gap_n={n}", passed=gap <= gap_tol, worst=gap,
        tolerance=gap_tol, location=None),))

    decay = decay_rate_check(hjb_horizon_solver(N=100, k=5e-3, cap_d=config.cap_d),
                             (2.0, 5.0, 10.0, 20.0), alpha=2)
    report = merge_reports(properties, route_check, decay)
    dump_json(_json_payload(config, report.as_dict()), _outpath(config, "check_report.json"))
    print(report.format_table())
    return 0 if report.passed else 3


def _cmd_reproduce_figures(config: RunConfig) -> int:
    grid, cfg = _grid_and_scheme(config)
    surface = solve_hjb(grid, cfg)
    control = optimal_control_field(surface, cfg)
    meta = _meta(config)

    probe_ts = [frac * grid.T for frac in PROBE_FRACTIONS]
    probe_ms = [grid.time_index(t) for t in probe_ts]

    percentages = {}
    for name, model in (
        ("early_termination", VolatilityModel.early_termination(control)),
        ("full_length", VolatilityModel.full_length(grid.T)),
    ):
        density = solve_forward_density(model, grid, config.x0)
        field_to_csv(grid, density.values[probe_ms], _outpath(config, f"fig1_density_{name}.csv"),
                     "q", meta, times=probe_ts)
        percentages[name] = {
            f"{t:g}": float(survival_probability(density, t)) for t in probe_ts
        }
    dump_json(_json_payload(config, {"interior_mass": percentages}),
              _outpath(config, "fig1_percentages.json"))

    field_to_csv(grid, surface.values, _outpath(config, "fig2_entropy_surface.csv"),
                 "value", meta)

    a_probe = control.a_star[probe_ms]
    dxx = np.zeros_like(a_probe)
    dxx[:, 1:-1] = second_difference_interior(surface.values[probe_ms], grid.h)
    dxx[:, 0] = -a_probe[:, 0] ** -1
    dxx[:, -1] = -a_probe[:, -1] ** -1
    for fname, rows, label in (
        ("fig3_second_derivative.csv", dxx, "dxx_e"),
        ("fig3_volatility.csv", control.sigma_star[probe_ms], "sigma"),
    ):
        field_to_csv(grid, rows, _outpath(config, fname), label, meta, times=probe_ts)

    print(f"figure data written to {config.output_path}")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "forward-p": _cmd_forward_p,
    "density": _cmd_density,
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "reproduce-figures": _cmd_reproduce_figures,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config to its command; returns the process exit status."""
    return _DISPATCH[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # --help and argparse-internal exits
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        return run(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    except MatchEntropyError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
