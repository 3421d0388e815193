"""The traced benchmark wraps package functions by the names its callers use.

perfbench/tracing.py patches module attributes such as
`matchentropy.cli.solve_hjb_with_iterations`; renaming one, or calling it
through another name, must fail here and not only in a traced benchmark run.
"""

from pathlib import Path

import pytest

import matchentropy.cli as me_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMALL = ["--grid-n", "20", "--grid-m", "10", "--cap-d", "100"]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(module, attr) is original for module, attr, original in patched)


def test_traced_cli_commands_record_every_layer(tracing, tmp_path, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (["solve"], ["forward-p", "--format", "json"], ["density"]):
            assert me_cli.main([*argv, *SMALL, "--output", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert {"cli.solve", "cli.forward-p", "cli.density", "hjb.solve.implicit",
            "hjb.control_field", "tridiag.hjb", "logdiff.solve", "tridiag.logdiff",
            "logdiff.rebuild", "density.early", "tridiag.density", "grid.field_to_csv",
            "grid.dump_json"} <= {span[0] for span in spans}
    metrics = tracing.layer_metrics(spans, {})
    # solve writes three 11 x 21 fields as CSV and density one; forward-p writes JSON
    assert metrics["grid.csv_rows"] == 4 * 11 * 21
    assert metrics["tridiag.calls.hjb"] >= 2 * 10 and metrics["tridiag.calls.density"] == 10
