import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import matchentropy as me
from matchentropy import cli, grid as me_grid, hjb
from matchentropy.checks import CheckReport, CheckResult
from test_montecarlo import time_limit


SMALL = ["--grid-n", "24", "--grid-m", "12", "--cap-d", "100"]


def test_parse_defaults_match_reference_run(capsys):
    config = cli.parse_config(["solve"])
    assert config.grid_n == 1000 and config.grid_m == 1000
    assert config.horizon == 1.0 and config.cap_d == 1e6
    assert config.scheme == "implicit" and config.format == "csv"
    assert "resolved config:" in capsys.readouterr().err


def test_flags_override_config_file_overrides_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("grid_n=50\nhorizon=2.0\n# comment line\n\n")
    config = cli.parse_config(["solve", "--config", str(cfg_file), "--grid-n", "30"])
    assert config.grid_n == 30      # flag beats file
    assert config.horizon == 2.0    # file beats default
    assert config.grid_m == 1000    # default survives


def test_config_round_trip_is_identical(tmp_path, capsys):
    original = cli.parse_config(["solve", "--grid-n", "30", "--seed", "17",
                                 "--output", str(tmp_path)])
    cfg_file = tmp_path / "echo.cfg"
    cfg_file.write_text(cli.serialise_config(original))
    reparsed = cli.parse_config(["solve", "--config", str(cfg_file)])
    assert reparsed == original


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("volume=11\n")
    assert cli.main(["solve", "--config", str(cfg_file)]) == 1


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(cli.RunConfig)
                                 if f.name != "regularisation_n"])
def test_empty_config_value_exits_with_one_line_error(key, tmp_path, capsys):
    # only regularisation_n may be empty: serialise_config writes None that way
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text(f"{key}=\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_file), *SMALL, "--n-paths", "10",
                     "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


# The RunConfig field that each field of the solver configs is built from.
SOLVER_FIELD_SOURCES = {
    me.SchemeConfig: {"cap_d": "cap_d", "scheme": "scheme",
                      "terminal_regularisation_n": "regularisation_n"},
    me.LadderConfig: {"regularisation_n": "regularisation_n"},
    me.SimConfig: {"n_paths": "n_paths", "dt": "dt", "base_seed": "seed", "x0": "x0"},
}


def test_field_parsers_cover_every_config_field(tmp_path, monkeypatch, capsys):
    assert list(cli._FIELD_PARSERS) == [f.name for f in dataclasses.fields(cli.RunConfig)]
    for cls, sources in SOLVER_FIELD_SOURCES.items():
        assert [f.name for f in dataclasses.fields(cls)] == list(sources)
        assert set(sources.values()) <= set(cli._FIELD_PARSERS)
    config = cli.parse_config(["forward-p", "--grid-n", "8", "--grid-m", "4", "--cap-d", "7",
                               "--scheme", "explicit", "--regularisation-n", "3",
                               "--n-paths", "5", "--dt", "0.25", "--seed", "11",
                               "--x0", "0.375", "--output", str(tmp_path)])
    ladders = []
    solve = cli.solve_log_diffusion
    monkeypatch.setattr(cli, "solve_log_diffusion",
                        lambda grid, cfg: ladders.append(cfg) or solve(grid, cfg))
    assert cli.run(config) == 0
    for cls, built in ((me.SchemeConfig, config.scheme_config),
                       (me.LadderConfig, ladders[0]), (me.SimConfig, config.sim_config)):
        for name, source in SOLVER_FIELD_SOURCES[cls].items():
            assert getattr(built, name) == getattr(config, source), (cls.__name__, name)


def test_run_config_keeps_its_solver_objects_out_of_its_fields(capsys):
    # dt = k = 1/M: a coarser dt is an input simulate rejects as its config is built
    config = cli.parse_config(["simulate", "--grid-n", "30", "--cap-d", "50", "--dt", "0.001"])
    assert config.grid.N == 30 and config.grid.M == 1000
    assert config.scheme_config.cap_d == 50.0 and config.sim_config.dt == 0.001
    assert "grid" not in {f.name for f in dataclasses.fields(config)}


@pytest.mark.parametrize("argv,config_bytes", [
    pytest.param([], None, id="no-command"),
    pytest.param(["solve", "--no-such-flag"], None, id="unknown-flag"),
    # the same values as flags are among BAD_INPUTS below
    pytest.param(["solve"], b"scheme=magic", id="scheme-file"),
    pytest.param(["solve"], b"model=x", id="model-file"),
    pytest.param(["solve"], b"format=xml", id="format-file"),
    pytest.param(["solve"], b"grid_n=abc", id="unparsable-file"),
    pytest.param(["solve"], b"grid_n 8", id="no-equals-file"),
    # bytes no flag can carry
    pytest.param(["solve"], b"# caf\xe9 latin-1\ngrid_n=8", id="non-utf8-file"),
    pytest.param(["solve"], b"output_path=out\x00/x", id="nul-output-file"),
    # a path no output header can hold as one line of UTF-8
    pytest.param(["solve", "--output", "out\nx"], None, id="line-break-output"),
    pytest.param(["solve", "--output", "out\udcff"], None, id="undecodable-output"),
    pytest.param(["solve", "--output", ""], None, id="empty-output"),
])
def test_cli_errors_are_one_line(argv, config_bytes, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if config_bytes is not None:
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(config_bytes + b"\n")
        argv = [*argv, "--config", str(cfg_file)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists() and not any(path.is_dir() for path in tmp_path.iterdir())


def test_missing_config_file_exits_four_with_one_line(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--output", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure:") and len(err.splitlines()) == 1
    assert "absent.cfg" in err and not (tmp_path / "out").exists()


def test_validation_exit_codes(capsys):
    assert cli.main(["solve", "--grid-n", "0"]) == 1
    assert cli.main(["solve", "--no-such-flag"]) == 1
    assert cli.main(["solve", "--x0", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


BAD_INPUTS = [("--grid-n", "1"), ("--grid-m", "0"),
              ("--horizon", "nan"), ("--horizon", "inf"), ("--horizon", "0"),
              ("--cap-d", "nan"), ("--cap-d", "0.1"), ("--regularisation-n", "0"),
              ("--n-paths", "0"),
              ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--dt", "-1"),
              ("--x0", "nan"), ("--x0", "0"), ("--x0", "1"),
              ("--scheme", "magic"), ("--model", "x"), ("--format", "xml"),
              # a zero step, an overflowing k/h^2 and sizes numpy cannot index:
              # each fails before anything is allocated
              ("--horizon", "5e-324"), ("--horizon", "1e308"),
              ("--grid-n", str(2**63 - 1)), ("--grid-n", str(10**30)),
              ("--grid-m", str(2**63 - 1)), ("--grid-m", str(10**30)),
              ("--n-paths", str(2**63 - 1)),
              # seeds outside one 64-bit key word
              ("--seed", "-1"), ("--seed", "18446744073709551616")]


@pytest.mark.parametrize("command,flag,value", [
    pytest.param(command, flag, value,
                 id=f"{flag}-{value}" if command == "simulate" else f"{command}{flag}-{value}")
    for command in cli.COMMANDS for flag, value in BAD_INPUTS])
def test_non_finite_inputs_exit_with_one_line_error(command, flag, value, tmp_path, capsys):
    # every command rejects every bad input at parse time, before the config echo
    out = tmp_path / "out"
    assert cli.main([command, *SMALL, "--n-paths", "10", flag, value,
                     "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


def _message_lines(err: str) -> list[str]:
    """The stderr lines of a run other than its resolved-config echo."""
    return [line for line in err.splitlines()
            if line != "resolved config:" and not line.startswith("  ")]


def test_overflowing_cfl_number_exits_with_one_line_error(tmp_path, capsys):
    assert cli.main(["solve", "--grid-n", "8", "--grid-m", "8", "--cap-d", "1e308",
                     "--output", str(tmp_path)]) == 1
    (message,) = _message_lines(capsys.readouterr().err)
    assert message.startswith("error: k*cap_d/h^2 overflows")


def test_memory_error_exits_four_with_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(grid, cfg):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000001, 1001)")

    monkeypatch.setattr(cli, "solve_hjb_with_iterations", exhausted)
    assert cli.main(["solve", *SMALL, "--output", str(tmp_path)]) == 4
    (message,) = _message_lines(capsys.readouterr().err)
    assert message.startswith("out of memory: Unable to allocate")


def test_numerical_failure_exits_two_with_one_line(tmp_path, monkeypatch, capsys):
    def diverged(grid, cfg):
        raise me.ConvergenceError("policy iteration did not converge in 50 iterations")

    monkeypatch.setattr(cli, "solve_hjb_with_iterations", diverged)
    assert cli.main(["solve", *SMALL, "--output", str(tmp_path)]) == 2
    (message,) = _message_lines(capsys.readouterr().err)
    assert message == "numerical failure: policy iteration did not converge in 50 iterations"


# Every value each field flag draws in the property test below: non-finite,
# zero, negative, subnormal, huge, past int64, empty, non-numeric, fractional.
EXTREME_VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e308", "-1e308",
                  str(2**63 - 1), str(10**30), "", "abc", "1.5"]
FIELD_FLAGS = ["--output" if name == "output_path" else "--" + name.replace("_", "-")
               for name in cli._FIELD_PARSERS if name != "command"]
PROPERTY_BASE = ["--grid-n", "8", "--grid-m", "8", "--n-paths", "16", "--dt", "0.125"]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(cli.COMMANDS),
       flags=st.dictionaries(st.sampled_from(FIELD_FLAGS), st.sampled_from(EXTREME_VALUES),
                             min_size=1, max_size=3))
# extreme simulate inputs, which no derandomised draw makes; these only show that
# they exit with a documented code (the horizon one may exit 0 with every path
# absorbed), and test_simulations_the_simulator_cannot_run_exit_one_at_once pins
# the step cap's exit 1
@example(command="simulate", flags={"--horizon": str(10**30)})
@example(command="simulate", flags={"--dt": "5e-324"})
def test_extreme_field_values_exit_with_a_documented_code(command, flags, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, *PROPERTY_BASE]
    for flag, value in flags.items():
        argv += [flag, value]  # a drawn flag overrides its base value
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    messages = _message_lines(err.getvalue())
    if code == 3:  # a failed check reports through its table on stdout
        assert not messages and out.getvalue().splitlines()[-1].endswith("checks passed")
    elif code != 0:
        assert len(messages) == 1, messages


SRC = Path(me.__file__).resolve().parent.parent


def _run_python(*args: str, cwd) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package, with a time limit."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("flags", [
    # a(0, x0) = sin(pi x0)^2 / pi^2 underflows to 0, so log a would be -inf
    ["--model", "full_length", "--x0", "1e-200"],
    ["--model", "full_length", "--x0", "5e-324"],
    # more than 2**53 steps: the simulation would run until killed
    ["--horizon", "1e30"],
    ["--dt", "1e-300"],
])
def test_simulations_the_simulator_cannot_run_exit_one_at_once(flags, tmp_path):
    done = _run_python("-m", "matchentropy.cli", "simulate", *PROPERTY_BASE, *flags,
                       "--output", "out", cwd=tmp_path)
    assert done.returncode == 1
    (message,) = _message_lines(done.stderr)
    assert message.startswith("error:") and "Warning" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy_integrate(tmp_path):
    # the package reaches scipy only for LAPACK's dgtsv, imported on the first
    # solve: scipy.linalg alone would add about 0.3 s to every CLI start and to
    # every Monte Carlo worker, which imports matchentropy.montecarlo
    for module in ("matchentropy.cli", "matchentropy.montecarlo"):
        probe = (f"import sys, {module}; print([m for m in sys.modules "
                 "if m.startswith(('scipy', 'multiprocessing'))])")
        done = _run_python("-c", probe, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]", module


# `simulate` with its paths split in two, whatever the machine's core count
SPLIT_SIMULATE = ("import sys; from matchentropy import cli, montecarlo; "
                  "montecarlo._process_count = lambda items, work, min_work: 2; "
                  "sys.exit(cli.main())")


def _spawned_workers(pid: int) -> list[int]:
    """Children of `pid` that run multiprocessing's spawn entry point."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            children = [int(c) for c in fh.read().split()]
    except FileNotFoundError:
        return []
    workers = []
    for child in children:
        try:
            with open(f"/proc/{child}/cmdline", "rb") as fh:
                if b"spawn_main" in fh.read():
                    workers.append(child)
        except FileNotFoundError:
            pass
    return workers


def test_killed_worker_is_one_error_line_and_leaves_no_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", SPLIT_SIMULATE, "simulate", "--grid-n", "100",
            "--grid-m", "100", "--model", "full_length", "--n-paths", "4000", "--dt", "1e-4",
            "--output", "out"]
    proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        workers = []
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            workers = _spawned_workers(proc.pid)
            time.sleep(0.01)
        assert len(workers) == 1, "no worker appeared"
        os.kill(workers[0], signal.SIGKILL)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert proc.returncode == 2
    (message,) = _message_lines(err)
    assert message.startswith("numerical failure:") and "code -9" in message
    assert not os.path.exists(f"/proc/{workers[0]}")
    assert not (tmp_path / "out" / "simulate.json").exists()


# `solve` with its fields split between the caller and one writer, whatever the machine
SPLIT_WRITE = ("import os, sys; from matchentropy import cli; "
               "cli._MIN_WORKER_VALUES = 1; os.sched_getaffinity = lambda pid: {0, 1}; "
               "sys.exit(cli.main())")


def test_killed_writer_worker_is_one_error_line_and_leaves_no_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", SPLIT_WRITE, "solve", *SMALL, "--output", "out"]
    proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        workers = []
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            workers = _spawned_workers(proc.pid)
            time.sleep(0.01)
        assert len(workers) == 1, "no worker appeared"
        os.kill(workers[0], signal.SIGKILL)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert proc.returncode == 4
    (message,) = _message_lines(err)
    assert message.startswith("i/o failure:") and "code -9" in message
    assert not os.path.exists(f"/proc/{workers[0]}")


def _force_writer_split(monkeypatch, cpus=2):
    monkeypatch.setattr(cli, "_MIN_WORKER_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("argv", [["solve"], ["forward-p", "--format", "json"], ["density"],
                                  ["reproduce-figures"]], ids=lambda argv: argv[0])
def test_a_writer_split_gives_the_same_files(argv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert cli.main([*argv, *SMALL, "--output", str(out)]) == 0
    serial = {path.name: path.read_bytes() for path in out.iterdir()}
    _force_writer_split(monkeypatch)
    with time_limit(120):
        assert cli.main([*argv, *SMALL, "--output", str(out)]) == 0
    assert multiprocessing.active_children() == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == serial


def test_one_cpu_or_a_small_field_starts_no_writer(tmp_path, monkeypatch, capsys):
    def no_start(method):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_start)
    assert cli.main(["solve", *SMALL, "--output", str(tmp_path / "small")]) == 0
    _force_writer_split(monkeypatch, cpus=1)
    assert cli.main(["solve", *SMALL, "--output", str(tmp_path / "one_cpu")]) == 0


_CSV_ROWS = me_grid._csv_rows


def _rows_failing_in_a_worker(values, *args):
    if multiprocessing.parent_process() is not None:
        raise MemoryError("no room for the rows")
    return _CSV_ROWS(values, *args)


def test_a_writer_worker_memory_error_exits_four_in_one_line(tmp_path, monkeypatch, capfd):
    _force_writer_split(monkeypatch)
    monkeypatch.setattr(me_grid, "_csv_rows", _rows_failing_in_a_worker)
    with time_limit(120):
        assert cli.main(["solve", *SMALL, "--output", str(tmp_path / "out")]) == 4
    assert multiprocessing.active_children() == []
    (message,) = _message_lines(capfd.readouterr().err)  # no traceback from the worker
    assert message == ("out of memory: a file-writing worker raised MemoryError: "
                       "no room for the rows")


def test_explicit_scheme_cfl_precheck_fails_fast(capsys):
    # reference resolution with the default cap violates k*d/h^2 <= 1
    assert cli.main(["solve", "--scheme", "explicit"]) == 1
    assert "k*cap_d/h^2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve"], ["density"], ["reproduce-figures"]],
                         ids=lambda argv: argv[0])
def test_an_unstable_explicit_scheme_fails_before_any_worker_starts(argv, tmp_path, monkeypatch,
                                                                    capsys):
    def no_start(method):
        raise AssertionError("a worker process was started")

    _force_writer_split(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_context", no_start)
    out = tmp_path / "out"
    assert cli.main([*argv, *SMALL, "--scheme", "explicit", "--output", str(out)]) == 1
    (message,) = _message_lines(capsys.readouterr().err)
    assert message.startswith("error: explicit scheme unstable: k*cap_d/h^2")
    assert not out.exists()


def test_the_full_length_density_runs_with_an_unstable_explicit_scheme(tmp_path, capsys):
    # they solve no HJB, so the scheme is not their input (forward-p: see the parser test)
    for argv in (["density"], ["simulate", "--n-paths", "16", "--dt", "0.01"]):
        assert cli.main([*argv, "--model", "full_length", *SMALL, "--scheme", "explicit",
                         "--output", str(tmp_path)]) == 0


# simulate inputs that the Monte Carlo step and start rules reject, on an 8 x 8
# grid (k = 0.125), with the message each gives; the first four are early-model runs
SIMULATE_INPUT_ERRORS = [
    (["--dt", "0.5"], "dt=0.5 exceeds the control grid step 0.125"),
    (["--dt", "0.03"], "dt=0.03 must divide the horizon 1.0 evenly"),
    (["--dt", "1e-300"], "horizon/dt = 1e+300 steps is more than 2**53"),
    (["--horizon", "1e30"], "horizon/dt = 1e+33 steps is more than 2**53"),
    (["--model", "full_length", "--dt", "0.03"], "dt=0.03 must divide the horizon 1.0 evenly"),
    (["--model", "full_length", "--x0", "1e-200"],
     "the diffusion coefficient a(0, x0=1e-200) is 0.0, not positive"),
]


@pytest.mark.parametrize("argv,error", [
    *[pytest.param([*command, *SMALL, "--scheme", "explicit"],
                   "explicit scheme unstable", id=f"unstable-{command[0]}")
      for command in (["solve"], ["check"], ["reproduce-figures"], ["density"], ["simulate"])],
    *[pytest.param(["simulate", "--grid-n", "8", "--grid-m", "8", *flags], re.escape(error),
                   id="simulate" + "".join(flags)) for flags, error in SIMULATE_INPUT_ERRORS],
    *[pytest.param([command, "--grid-n", "8", "--grid-m", "3"], "no probe time",
                   id=f"no-probe-{command}") for command in ("density", "reproduce-figures")],
    *[pytest.param([command, "--grid-n", "3", "--x0", "0.5"], "x = 0.5 is not a grid node",
                   id=f"start-between-nodes-{command}")
      for command in ("density", "reproduce-figures")],
])
def test_each_command_input_is_checked_as_its_config_is_built(argv, error, tmp_path, capsys):
    # one check point: the config itself raises, before its echo and any output
    out = tmp_path / "out"
    with pytest.raises(me.ValidationError, match=error):
        cli.parse_config([*argv, "--output", str(out)])
    assert "resolved config:" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,error", SIMULATE_INPUT_ERRORS,
                         ids=["simulate" + "".join(flags) for flags, _ in SIMULATE_INPUT_ERRORS])
def test_a_simulate_input_error_exits_one_before_any_hjb_sweep(flags, error, tmp_path,
                                                               monkeypatch, capsys):
    sweeps = []
    sweep = hjb._implicit_sweep
    monkeypatch.setattr(hjb, "_implicit_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--grid-n", "8", "--grid-m", "8", *flags,
                     "--output", str(out)]) == 1
    assert _message_lines(capsys.readouterr().err) == [f"error: {error}"]
    assert sweeps == []
    assert not out.exists()


def test_explicit_scheme_runs_when_stable(tmp_path, capsys):
    out = tmp_path / "exp"
    assert cli.main(["solve", "--scheme", "explicit", "--grid-n", "10",
                     "--grid-m", "300", "--cap-d", "2", "--output", str(out)]) == 0
    assert (out / "solve_surface.csv").exists()


def _traced_peak(command, n, out) -> int:
    """The traced peak of one in-process run of `command` on an n x n grid.  No
    writer starts below 400k field values, so every array is traced (after a
    first solve has imported LAPACK)."""
    assert cli.main(["solve", "--grid-n", "4", "--grid-m", "4", "--output", str(out)]) == 0
    tracemalloc.start()
    try:
        assert cli.main([command, "--grid-n", str(n), "--grid-m", str(n),
                         "--output", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_holds_two_full_fields_at_a_time(tmp_path, capsys):
    # the surface is written and released before sigma is built
    n = 500
    assert _traced_peak("solve", n, tmp_path) < 2.5 * (n + 1) ** 2 * 8


@pytest.mark.parametrize("command, fields", [("reproduce-figures", 2), ("forward-p", 1)])
def test_a_field_command_holds_its_fields_and_a_quarter_more(command, fields, tmp_path, capsys):
    # reproduce-figures writes and releases the surface before the densities, so
    # it holds the control and one density; forward-p rebuilds only the entropy
    # row it prints, so it holds p alone
    n = 400
    assert _traced_peak(command, n, tmp_path) <= 1.25 * fields * (n + 1) ** 2 * 8


def test_solve_writes_surface_and_control_fields(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["solve", *SMALL, "--output", str(out)]) == 0
    surface = out / "solve_surface.csv"
    vol = out / "solve_volatility.csv"
    assert surface.exists() and vol.exists() and (out / "solve_control.csv").exists()
    head = surface.read_text().splitlines()
    assert head[0].startswith("# matchentropy_version = ")
    assert any(line.startswith("# cap_d = ") for line in head[:20])
    ts, xs, vals = me.field_from_csv(str(surface))
    assert vals.shape == (13, 25)
    assert np.all(vals[:, 0] == 0.0)


def test_identical_configs_give_byte_identical_outputs(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["solve", *SMALL]
    assert cli.main([*args, "--output", str(out1)]) == 0
    assert cli.main([*args, "--output", str(out2)]) == 0
    a = (out1 / "solve_surface.csv").read_text().replace(str(out1), "")
    b = (out2 / "solve_surface.csv").read_text().replace(str(out2), "")
    assert a == b


def test_solve_json_format(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["solve", *SMALL, "--format", "json", "--output", str(out)]) == 0
    payload = json.loads((out / "solve_surface.json").read_text())
    assert payload["config"]["grid_n"] == 24
    assert payload["grid"] == {"N": 24, "M": 12, "T": 1.0}
    assert len(payload["values"]) == 13


def test_forward_p_command(tmp_path, capsys):
    out = tmp_path / "p"
    assert cli.main(["forward-p", "--grid-n", "30", "--grid-m", "15",
                     "--regularisation-n", "4", "--output", str(out)]) == 0
    ts, xs, vals = me.field_from_csv(str(out / "forward_p.csv"))
    assert np.all(vals[0] == 0.25)
    assert np.all(vals[1:, 0] == 1.0)
    # the printed e(0, 1/2) is the whole rebuilt surface's
    rebuilt = me.entropy_from_p(me.PField(grid=me.make_grid(30, 15, 1.0), values=vals))
    assert capsys.readouterr().out.split(" = ")[-1] == f"{rebuilt.values[0, 15]:.6f}\n"


def test_density_command_reports_probe_masses(tmp_path, capsys):
    out = tmp_path / "d"
    assert cli.main(["density", "--grid-n", "100", "--grid-m", "100",
                     "--cap-d", "1000", "--output", str(out)]) == 0
    sidecar = json.loads((out / "density_summary.json").read_text())
    for key in ("times", "interior_mass", "absorbed_left", "absorbed_right"):
        assert len(sidecar[key]) == 101
    probes = sidecar["interior_mass_at_probe_fractions"]
    assert set(probes) == {"0.5", "0.9", "0.99"}
    assert 0.0 < probes["0.5"] < 1.0
    ledger = (np.array(sidecar["interior_mass"]) + np.array(sidecar["absorbed_left"])
              + np.array(sidecar["absorbed_right"]))
    assert np.max(np.abs(ledger - 1.0)) <= 1e-6


def test_density_full_length_has_no_early_absorption(tmp_path, capsys):
    out = tmp_path / "dfl"
    assert cli.main(["density", "--model", "full_length", "--grid-n", "100",
                     "--grid-m", "100", "--output", str(out)]) == 0
    sidecar = json.loads((out / "density_summary.json").read_text())
    assert max(sidecar["absorbed_left"]) == 0.0
    assert sidecar["terminal_atoms"]["left"] == pytest.approx(0.5, abs=0.05)


def test_simulate_command_writes_report(tmp_path, capsys):
    out = tmp_path / "s"
    assert cli.main(["simulate", "--grid-n", "50", "--grid-m", "50", "--cap-d", "100",
                     "--n-paths", "500", "--dt", "0.02", "--seed", "5",
                     "--output", str(out)]) == 0
    report = json.loads((out / "simulate.json").read_text())
    for key in ("reward_mean", "reward_stderr", "qv_mean", "absorbed_by",
                "n_paths", "seed"):
        assert key in report
    assert report["n_paths"] == 500 and report["seed"] == 5


def test_simulate_full_length_model(tmp_path, capsys):
    out = tmp_path / "sfl"
    assert cli.main(["simulate", "--model", "full_length", "--grid-n", "20",
                     "--grid-m", "20", "--n-paths", "300", "--dt", "0.05",
                     "--output", str(out)]) == 0
    report = json.loads((out / "simulate.json").read_text())
    # the benchmark keeps paths interior; only the coarse-step barrier band absorbs
    assert report["absorbed_by"]["0.5"] <= 0.02


def test_check_command_passes_on_defaults_grid_scaled_down(tmp_path, capsys):
    out = tmp_path / "c"
    assert cli.main(["check", "--grid-n", "64", "--grid-m", "64",
                     "--output", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["summary"]["failed"] == 0
    table = capsys.readouterr().out
    assert "checks passed" in table


def test_check_command_exit_three_on_failure(tmp_path, capsys, monkeypatch):
    failing = CheckReport(results=(CheckResult(
        name="forced", passed=False, worst=1.0, tolerance=0.0, location=None),))
    monkeypatch.setattr(cli, "check_solution_properties", lambda surface: failing)
    assert cli.main(["check", "--grid-n", "16", "--grid-m", "8",
                     "--output", str(tmp_path)]) == 3


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    assert cli.main(["solve", *SMALL, "--output", str(blocker)]) == 4


def test_output_dir_defaults_to_the_working_directory(capsys):
    assert cli.parse_config(["solve"]).output_path == "."


def test_reproduce_figures_emits_plot_data(tmp_path, capsys):
    out = tmp_path / "figs"
    assert cli.main(["reproduce-figures", "--grid-n", "100", "--grid-m", "100",
                     "--output", str(out)]) == 0
    expected = [
        "fig1_density_early_termination.csv",
        "fig1_density_full_length.csv",
        "fig1_percentages.json",
        "fig2_entropy_surface.csv",
        "fig3_second_derivative.csv",
        "fig3_volatility.csv",
    ]
    for name in expected:
        assert (out / name).exists(), name
    pct = json.loads((out / "fig1_percentages.json").read_text())
    assert set(pct["interior_mass"]) == {"early_termination", "full_length"}
    # the closed-form benchmark keeps all its mass interior before the end
    assert min(pct["interior_mass"]["full_length"].values()) >= 0.999
    # volatility rows carry the boundary value 1 at every probe time
    ts, xs, sigma = me.field_from_csv(str(out / "fig3_volatility.csv"))
    assert np.all(sigma[:, 0] == 1.0) and np.all(sigma[:, -1] == 1.0)


def test_probes_off_the_time_levels_are_left_out_of_the_figures(tmp_path, capsys):
    # at M = 50 the probe t = 0.99 lies between two time levels: density and
    # reproduce-figures both write the other probes and exit 0
    out = tmp_path / "figs"
    assert cli.main(["reproduce-figures", "--grid-n", "20", "--grid-m", "50",
                     "--output", str(out)]) == 0
    assert "at t = 0.5, 0.9" in capsys.readouterr().out
    for name in ("fig1_density_early_termination.csv", "fig1_density_full_length.csv",
                 "fig3_second_derivative.csv", "fig3_volatility.csv"):
        ts, _, _ = me.field_from_csv(out / name)
        assert list(ts) == [0.5, 0.9], name
    pct = json.loads((out / "fig1_percentages.json").read_text())["interior_mass"]
    assert {kind: set(masses) for kind, masses in pct.items()} == {
        "early_termination": {"0.5", "0.9"}, "full_length": {"0.5", "0.9"}}
    assert cli.main(["density", "--grid-n", "20", "--grid-m", "50", "--output", str(out)]) == 0
    summary = json.loads((out / "density_summary.json").read_text())
    assert set(summary["interior_mass_at_probe_fractions"]) == {"0.5", "0.9"}


def test_figures_with_no_probe_on_a_time_level_exit_one_before_solving(tmp_path, capsys):
    # at M = 3 (k = 1/3) the probes 0.5, 0.9 and 0.99 all lie between time levels
    out = tmp_path / "figs"
    assert cli.main(["reproduce-figures", "--grid-n", "8", "--grid-m", "3",
                     "--output", str(out)]) == 1
    (message,) = _message_lines(capsys.readouterr().err)
    assert message.startswith("error: no probe time")
    assert not out.exists()


def test_density_with_no_probe_on_a_time_level_exits_one_like_the_figures(
        tmp_path, capsys, monkeypatch):
    # both commands read one probe rule: the same one-line error, before any solve
    def no_solve(*args):
        raise AssertionError("solved before the probe check")

    for name in ("solve_hjb", "solve_forward_density"):
        monkeypatch.setattr(cli, name, no_solve)
    messages = []
    for command in ("density", "reproduce-figures"):
        out = tmp_path / command
        assert cli.main([command, "--grid-n", "8", "--grid-m", "3", "--output", str(out)]) == 1
        (message,) = _message_lines(capsys.readouterr().err)
        messages.append(message)
        assert not out.exists()
    assert messages[0] == messages[1]
    assert messages[0].startswith("error: no probe time (0.5, 0.9, 0.99 of T)")


def test_density_start_between_nodes_exits_one_before_solving(tmp_path, capsys, monkeypatch):
    # at N = 3 the start 0.5 lies between the nodes 1/3 and 2/3: the density's
    # Dirac is not moved to a node, while simulate starts its paths at 0.5
    assert cli.main(["simulate", "--grid-n", "3", "--grid-m", "100", "--x0", "0.5",
                     "--n-paths", "16", "--dt", "0.01", "--output", str(tmp_path / "sim")]) == 0
    capsys.readouterr()

    def no_solve(*args):
        raise AssertionError("solved before the start-node check")

    for name in ("solve_hjb", "solve_forward_density"):
        monkeypatch.setattr(cli, name, no_solve)
    for grid_n, x0, error in (
            ("3", "0.5", "x = 0.5 is not a grid node (h = 1/3); "
                         "the nearest nodes are 0.333333 and 0.666667"),
            # within 1e-9 h of the node 0: a node, but a boundary one
            ("4", "1e-12", "x0=1e-12 lies on a boundary node at this resolution")):
        for command in ("density", "reproduce-figures"):
            out = tmp_path / command
            assert cli.main([command, "--grid-n", grid_n, "--grid-m", "100", "--x0", x0,
                             "--output", str(out)]) == 1
            (message,) = _message_lines(capsys.readouterr().err)
            assert message == "error: " + error
            assert not out.exists()


# sha256 of every file each command writes at a small config.  M = 300 puts the
# 0.99 probe row at a t that prints differently from t_nodes()[297], so the
# figure CSVs pin the probe times they are written with.
GOLDEN_ARGS = ["--grid-n", "40", "--grid-m", "300", "--cap-d", "100"]
GOLDEN_EXTRA = {"simulate": ["--n-paths", "200", "--dt", "0.0025"]}
GOLDEN_DIGESTS = {
    "solve": {
        "solve_control.csv": "a6280c5976ed626d23ccd4def2690cebdf7a33c3de73dd64da0f3fefa0247cb8",
        "solve_surface.csv": "49b30a8bf7125acf7f97937465b39ae7c74a76b70b4efa1c227bd14f96872ca4",
        "solve_volatility.csv":
            "22b587e485296cdf6efcb473eb37fedaf86416b876660dcc363c4e1f19d04b87",
    },
    "forward-p": {
        "forward_p.csv": "15a5c800b1850430e8449a14c4a3e64a6624d85401a49ab32cb0ce9b3b5d364e",
    },
    "density": {
        "density.csv": "7d53cf6e276373af827f861d983b6a2ca315b1e2412abf0c19e1fcf7513866e2",
        "density_summary.json":
            "726ebabb78067331e0c22ff790bb2e1a23426e1aa830635168b24ab46f4c949e",
    },
    "simulate": {
        "simulate.json": "1968f9dcd666e8d236092ac9a3c3fa2171bde32f1fd579da7606bcaa31b1ff7b",
    },
    "check": {
        "check_report.json": "3d3ee6702b85c6414b05bc6fc6c40730a61a7f6e94dc22560a28ce8b129e248d",
    },
    "reproduce-figures": {
        "fig1_density_early_termination.csv":
            "6b3bef669a2929bacece7c38c5a139358539d8a3a9a08c7483d2f1065a042dcf",
        "fig1_density_full_length.csv":
            "0fed2975e5863b5717d272398638334bd168c86a72d055401b74fb227b197481",
        "fig1_percentages.json":
            "272441a15f7a1000ec03d042a43fede236bcc8f56518f5f09cf59e0278697f37",
        "fig2_entropy_surface.csv":
            "c7179614572deb7d299378334a3d327f9c35f8f51be47d1f1e51055c6e64f74c",
        "fig3_second_derivative.csv":
            "c42e68b2a0b443e23ef4cde91a8f7d03ca0269d98924811a56f539d3a8405b7a",
        "fig3_volatility.csv":
            "51dd748b8212dbc7202dfbee42f7194a8e6906eb958dc9481fbf07a83f62ee9e",
    },
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_outputs_match_golden_digests(command, tmp_path, monkeypatch, capsys):
    # files embed their output path, so write to the same relative path each time
    monkeypatch.chdir(tmp_path)
    argv = [command, *GOLDEN_ARGS, *GOLDEN_EXTRA.get(command, []), "--output", "out"]
    assert cli.main(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path / "out"))}
    assert digests == GOLDEN_DIGESTS[command]


def test_main_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["solve", "--help"]) == 0
