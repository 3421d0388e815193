import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("convergence_study.py", ["--resolutions", "8", "16", "--ladder", "1", "2"]),
    ("mc_bias_study.py", ["--n-paths", "200"]),
])
def test_study_scripts_run(script, args, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
