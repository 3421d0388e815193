"""Spans around calls into matchentropy's layers, for the traced run.

The package modules import each other's names with `from .x import y`, so a
name is wrapped where its caller looks it up (for example
`matchentropy.hjb.solve_tridiagonal`, not `matchentropy.tridiag`).  Spans are
kept in memory as [name, start, end, parent, note] and written out at the end
of the run.  Nothing under `src/` is changed: every span sits on a call that
crosses a module boundary.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

import numpy as np

import matchentropy.checks as me_checks
import matchentropy.cli as me_cli
import matchentropy.density as me_density
import matchentropy.grid as me_grid
import matchentropy.hjb as me_hjb
import matchentropy.logdiff as me_logdiff
import matchentropy.montecarlo as me_montecarlo
from workloads import CliOutputs, ledger_defect

# Per-layer metrics that count work.  They must repeat exactly between two
# traced passes of one run; a mismatch is reported as a failed operation.
COUNTERS = (
    "tridiag.calls.hjb", "tridiag.calls.logdiff", "tridiag.calls.density",
    "tridiag.calls.decay", "tridiag.mean_unknowns",
    "hjb.policy_iters", "hjb.policy_iters_max", "logdiff.newton_iters",
    "montecarlo.path_steps.early", "montecarlo.path_steps.full",
    "grid.csv_rows", "grid.bytes_written", "trace.spans",
)


class Tracer:
    """Records nested spans for calls made through patched module attributes.

    With memory=True the Monte Carlo calls also run under tracemalloc for their
    peak traced allocation.  That slows them several times over, so a run
    takes its memory figures from a pass of their own.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, note=None, memory=False):
        """Run fn inside a span; note(args, result) adds fields after the span ends."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        if memory:
            tracemalloc.start()
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            if memory:
                rec[4]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if note is not None:
            rec[4].update(note(args, result))
        return result

    def patch(self, module, attr, name, note=None, memory=False):
        """Wrap module.attr; `name` is a span name or a function of the call's args."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            return self.call(label, original, args, kwargs, note, memory and self.memory)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self):
        for module in (me_hjb, me_logdiff, me_density):
            caller = module.__name__.rsplit(".", 1)[1]
            self.patch(module, "solve_tridiagonal", f"tridiag.{caller}",
                       note=lambda args, _: {"unknowns": int(args[1].size)})
        for module in (me_hjb, me_cli):
            self.patch(module, "solve_hjb_with_iterations",
                       lambda args: f"hjb.solve.{args[1].scheme}", note=_policy_note)
            self.patch(module, "optimal_control_field", "hjb.control_field")
        for module in (me_logdiff, me_cli):
            self.patch(module, "solve_log_diffusion", "logdiff.solve")
            self.patch(module, "entropy_from_p", "logdiff.rebuild")
        for module in (me_density, me_cli):
            self.patch(module, "solve_forward_density",
                       lambda args: "density." + ("full" if args[0].kind == me_density.FULL_LENGTH
                                                  else "early"),
                       note=_ledger_note)
        self.patch(me_montecarlo, "simulate_paths",
                   lambda args: "montecarlo." + ("early" if isinstance(args[0], me_hjb.ControlField)
                                                 else "full"),
                   note=_path_note, memory=True)
        self.patch(me_montecarlo, "quadratic_variation_check", "montecarlo.qv_check")
        self.patch(me_checks, "check_solution_properties", "checks.properties")
        self.patch(me_checks, "decay_rate_check", "checks.decay")
        self.patch(me_cli, "field_to_csv", "grid.field_to_csv",
                   note=lambda args, _: {"rows": int(args[1].size)})
        self.patch(me_cli, "dump_json", "grid.dump_json")
        self.patch(me_grid, "field_from_csv", "grid.field_from_csv")
        self.patch(me_cli, "main", lambda args: f"cli.{args[0][0]}")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _policy_note(args, result):
    iters = result[1]
    return {"policy_iters": int(iters.sum()),
            "policy_iters_max": int(iters.max()) if iters.size else 0}


def _ledger_note(args, density):
    return {"ledger_defect": ledger_defect(density)}


def _path_note(args, stats):
    control, dt = args[0], args[1].dt
    horizon = control.grid.T if isinstance(control, me_hjb.ControlField) else control.T
    steps = np.rint(stats.exit_time_samples / dt)
    horizon_steps = round(horizon / dt)
    return {"path_steps": int(steps.sum()),
            "possible_steps": int(stats.exit_time_samples.size * horizon_steps)}


def layer_metrics(spans: list[list], facts: dict) -> dict:
    """Per-layer figures of one traced pass; `facts` holds what the pass measured itself."""
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    in_decay = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]
        in_decay[i] = name == "checks.decay" or (parent >= 0 and in_decay[parent])

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    unknowns = 0
    for i, (name, _, _, _, note) in enumerate(spans):
        total[name] += duration[i]
        self_time[name] += duration[i] - covered[i]
        key = "tridiag.decay" if name == "tridiag.hjb" and in_decay[i] else name
        calls[key] += 1
        unknowns += note.get("unknowns", 0)
        if note:
            notes[name].append(note)

    def note_sum(name, field):
        return sum(n[field] for n in notes[name])

    hjb_spans = ("hjb.solve.implicit", "hjb.solve.explicit")
    tridiag_calls = sum(calls[f"tridiag.{c}"] for c in ("hjb", "logdiff", "density", "decay"))
    out = {
        "tridiag.calls.hjb": calls["tridiag.hjb"],
        "tridiag.calls.logdiff": calls["tridiag.logdiff"],
        "tridiag.calls.density": calls["tridiag.density"],
        "tridiag.calls.decay": calls["tridiag.decay"],
        "tridiag.solve_s": sum(total[f"tridiag.{m}"] for m in ("hjb", "logdiff", "density")),
        "tridiag.mean_unknowns": unknowns / tridiag_calls if tridiag_calls else 0.0,
        "hjb.solve_s": sum(total[n] for n in hjb_spans),
        "hjb.self_s": sum(self_time[n] for n in hjb_spans),
        "hjb.policy_iters": sum(note_sum(n, "policy_iters") for n in hjb_spans),
        "hjb.policy_iters_max": max((x["policy_iters_max"] for n in hjb_spans
                                     for x in notes[n]), default=0),
        "hjb.control_field_s": total["hjb.control_field"],
        "hjb.explicit_s": total["hjb.solve.explicit"],
        "logdiff.solve_s": total["logdiff.solve"],
        "logdiff.self_s": self_time["logdiff.solve"],
        "logdiff.newton_iters": calls["tridiag.logdiff"],
        "logdiff.rebuild_s": total["logdiff.rebuild"],
        "density.early_s": total["density.early"],
        "density.full_s": total["density.full"],
        "density.ledger_defect": max((x["ledger_defect"] for n in ("density.early", "density.full")
                                      for x in notes[n]), default=0.0),
        "montecarlo.qv_check_s": total["montecarlo.qv_check"],
        "grid.field_to_csv_s": total["grid.field_to_csv"],
        "grid.csv_rows": note_sum("grid.field_to_csv", "rows"),
        "grid.dump_json_s": total["grid.dump_json"],
        "grid.bytes_written": facts.get("bytes_written", 0),
        "grid.field_from_csv_s": total["grid.field_from_csv"],
        "checks.properties_s": total["checks.properties"],
        "checks.decay_s": total["checks.decay"],
        "checks.cross_route_gap": facts.get("cross_route_gap", 0.0),
        "trace.spans": len(spans),
    }
    for kind in ("early", "full"):
        name = f"montecarlo.{kind}"
        possible = note_sum(name, "possible_steps")
        out[f"{name}_s"] = total[name]
        out[f"montecarlo.path_steps.{kind}"] = note_sum(name, "path_steps")
        out[f"montecarlo.alive_fraction.{kind}"] = (
            note_sum(name, "path_steps") / possible if possible else 0.0)
        out[f"montecarlo.peak_traced_mb.{kind}"] = max(
            (x.get("peak_bytes", 0) for x in notes[name]), default=0) / 1e6
    for cmd in CliOutputs.COMMANDS:
        out[f"cli.cmd_s.{cmd}"] = total[f"cli.{cmd}"]
        out[f"cli.self_s.{cmd}"] = self_time[f"cli.{cmd}"]
    return out
