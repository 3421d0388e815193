import inspect
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from matchentropy import hjb

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("convergence_study.py", ["--resolutions", "8", "16", "--ladder", "1", "2"]),
    ("mc_bias_study.py", ["--n-paths", "200", "--dt", "1e-3", "5e-4"]),
    ("peak_memory.py", ["--grid-n", "4", "--grid-m", "4"]),
])
def test_study_scripts_run(script, args, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if script == "mc_bias_study.py":  # one result line per step
        assert [line.split()[0] for line in out.splitlines() if "| reward" in line] == [
            "dt=0.001", "dt=0.0005"]
    if script == "peak_memory.py":  # one peak per field-writing command and the read, in MB
        assert [line.split()[0::2] for line in out.splitlines()] == [
            [command, "MB"] for command in ("solve", "forward-p", "density", "reproduce-figures",
                                            "read-back")]


def test_line_trace_lists_only_lines_no_test_ran():
    # tests/test_tridiag.py runs every line of tridiag.py and none of the HJB sweep
    root = SCRIPTS.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(SCRIPTS)])}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "line_trace",
                          "-p", "no:cacheprovider", "tests/test_tridiag.py"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "subprocess are not traced" in run.stdout
    listed = [line.split(":")[:2] for line in run.stdout.splitlines()
              if line.startswith(os.path.join("src", "matchentropy", ""))]
    assert not [line for name, line in listed if name.endswith("tridiag.py")]
    body, first = inspect.getsourcelines(hjb._implicit_sweep)
    sweep = range(first + 1, first + len(body))
    assert [line for name, line in listed if name.endswith("hjb.py") and int(line) in sweep]
