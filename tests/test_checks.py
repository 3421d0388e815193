import json
import math

import numpy as np
import pytest

import matchentropy as me
from matchentropy.checks import cross_solver_check, decay_envelope
from matchentropy.errors import ValidationError


def stationary_surface(NM=40):
    g = me.make_grid(NM, NM, 1.0)
    row = me.stationary_entropy(g.x_nodes())
    return me.ValueSurface(grid=g, values=np.tile(row, (g.M + 1, 1)))


def test_property_checks_pass_on_stationary_surface():
    report = me.check_solution_properties(stationary_surface())
    assert report.passed
    assert {r.name for r in report.results} == {
        "lower_bound_zero", "upper_bound_stationary", "time_monotonicity",
        "symmetry", "concavity"}


def test_property_checks_pass_on_zero_surface():
    g = me.make_grid(20, 20, 1.0)
    report = me.check_solution_properties(me.ValueSurface(grid=g, values=np.zeros((21, 21))))
    assert report.passed


def test_property_checks_flag_a_raised_node():
    g = me.make_grid(20, 20, 1.0)
    vals = np.zeros((21, 21))
    vals[7, 9] = 0.2  # above the stationary profile
    report = me.check_solution_properties(me.ValueSurface(grid=g, values=vals))
    by_name = {r.name: r for r in report.results}
    assert not by_name["upper_bound_stationary"].passed
    assert by_name["upper_bound_stationary"].location == (7, 9)
    assert not report.passed
    assert report.summary()["failed"] >= 1


def test_cross_solver_gap_basics():
    s = stationary_surface(64)
    assert me.cross_solver_gap(s, s) == 0.0
    g = s.grid
    ones = me.PField(grid=g, values=np.ones((g.M + 1, g.N + 1)))
    rebuilt = me.entropy_from_p(ones)
    assert me.cross_solver_gap(s, rebuilt) <= 1e-12
    other = stationary_surface(32)
    with pytest.raises(ValidationError):
        me.cross_solver_gap(s, other)
    # check's pass rule on the gap: at most 5 (k + h^2), named by the ladder index
    tol = 5.0 * (g.k + g.h ** 2)
    for bump, passed in ((0.0, True), (0.99 * tol, True), (1.01 * tol, False)):
        vals = np.array(rebuilt.values)
        vals[3, 7] += bump
        bumped = me.ValueSurface(grid=g, values=vals)
        (result,) = cross_solver_check(s, bumped, 7).results
        assert (result.name, result.passed, result.worst, result.tolerance, result.location) == (
            "cross_solver_gap_n=7", passed, me.cross_solver_gap(s, bumped), tol, None)


def test_decay_envelope_arithmetic():
    # rate constant (alpha-1)/(pi alpha^2) at alpha=2 is 1/(4 pi)
    rate = 1.0 / (4.0 * math.pi)
    assert rate == pytest.approx(0.07957747, abs=1e-8)
    val = decay_envelope(0.5, 20.0)
    assert val == pytest.approx(0.25 * math.exp(-20.0 * rate), abs=1e-15)
    assert val == pytest.approx(0.0509, abs=2e-4)
    edges = decay_envelope(np.array([0.0, 1.0]), 5.0)
    assert np.all(edges == 0.0)


def test_decay_rate_check_small_run():
    solver = me.hjb_horizon_solver(N=50, k=0.02, cap_d=1e4)
    report = me.decay_rate_check(solver, (1.0, 2.0, 4.0))
    assert report.passed
    names = [r.name for r in report.results]
    assert names[-1] == "decay_distance_monotone"
    assert len(names) == 4


def test_report_serialisation_and_table():
    report = me.check_solution_properties(stationary_surface(16))
    payload = report.as_dict()
    assert payload["summary"] == {"total": 5, "passed": 5, "failed": 0}
    json.dumps(payload)  # must be json-serialisable
    table = report.format_table()
    assert "pass" in table and "5/5 checks passed" in table
    merged = me.merge_reports(report, report)
    assert merged.summary()["total"] == 10


def test_solved_surfaces_pass_property_checks_at_modest_resolutions():
    for NM in (50, 100):
        g = me.make_grid(NM, NM, 1.0)
        surf = me.solve_hjb(g, me.SchemeConfig(cap_d=1e6))
        report = me.check_solution_properties(surf)
        assert report.passed, report.format_table()


def _separate_decay_report(solver, T_values):
    """The decay report built from one solve per horizon, as the check once did."""
    results = []
    distances = []
    for T in T_values:
        surface = solver(float(T))
        g = surface.grid
        x = g.x_nodes()
        dist = np.abs(surface.values[0] - me.stationary_entropy(x))
        bound = decay_envelope(x, float(T)) + 10.0 * (g.k + g.h * g.h)
        worst = float(np.max(dist - bound))
        results.append(me.CheckResult(name=f"decay_bound_T={T:g}", passed=worst <= 0.0,
                                      worst=worst, tolerance=0.0,
                                      location=(0, int(np.argmax(dist - bound)))))
        distances.append(float(np.max(dist)))
    drift = max((b - a for a, b in zip(distances, distances[1:])), default=0.0)
    results.append(me.CheckResult(name="decay_distance_monotone", passed=drift <= 1e-12,
                                  worst=drift, tolerance=1e-12, location=None))
    return me.CheckReport(results=tuple(results))


@pytest.mark.parametrize("N, k, T_values", [
    (50, 0.02, (1.0, 2.0, 4.0)),
    (40, 0.01, (0.5, 3.0, 1.5)),
])
def test_decay_one_sweep_matches_separate_solves(N, k, T_values):
    solver = me.hjb_horizon_solver(N=N, k=k, cap_d=1e4)
    expected = _separate_decay_report(solver, T_values)
    assert me.decay_rate_check(solver, T_values).as_dict() == expected.as_dict()


def test_decay_check_solves_once_with_the_longest_horizon():
    solver = me.hjb_horizon_solver(N=20, k=0.05, cap_d=1e4)
    calls = []

    def counting(T):
        calls.append(T)
        return solver(T)

    me.decay_rate_check(counting, (1.0, 3.0, 2.0))
    assert calls == [3.0]


def test_decay_check_rejects_horizons_off_the_step_grid():
    solver = me.hjb_horizon_solver(N=20, k=0.05, cap_d=1e4)
    # every horizon is a whole number of steps by grid._step_count, the rule the
    # simulator's dt obeys: a shorter one, or the longest one the solver runs
    for bad, T in (((1.0, 1.03, 2.0), "1.03"), ((1.0, 2.03), "2.03"), ((2.03,), "2.03"),
                   ((1.0, 2.0000001), "2.0000001")):  # 2e-6 steps off: past the 1e-9
        with pytest.raises(ValidationError, match=f"k=0.05 must divide the horizon {T} evenly"):
            me.decay_rate_check(solver, bad)
    # no grid of steps k = 0.1 ends at T = 1.04
    with pytest.raises(ValidationError, match="k=0.1 must divide the horizon 1.04 evenly"):
        me.decay_rate_check(me.hjb_horizon_solver(N=20, k=0.1), (1.04,))
    # 0.3 / 0.1 is 2.9999999999999996 steps: whole to within 1e-9
    assert me.decay_rate_check(me.hjb_horizon_solver(N=20, k=0.1, cap_d=1e4), (0.3,)).passed
    with pytest.raises(ValidationError, match="at least one horizon"):
        me.decay_rate_check(solver, ())
    for bad in ((1.0, 0.0), (1.0, -2.0), (1.0, math.nan), (math.inf,)):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            me.decay_rate_check(solver, bad)
    with pytest.raises(ValidationError, match="k=0.0 must be positive and finite"):
        me.decay_rate_check(me.hjb_horizon_solver(k=0.0), (1.0,))
    # a solver that stops short of the longest horizon has no row for it
    with pytest.raises(ValidationError, match="1.5 is longer than the solved surface's 1.0"):
        me.decay_rate_check(lambda T: solver(T / 2.0), (1.5, 2.0))
    # 1e308 / k overflows to inf; 1e300 / k is a finite count no array can hold
    for T in (1e308, 1e300):
        with pytest.raises(ValidationError, match=r"steps is more than 2\*\*53"):
            me.decay_rate_check(me.hjb_horizon_solver(), [T])


def test_decay_check_rejects_a_horizon_shorter_than_one_step():
    solver = me.hjb_horizon_solver(N=20, k=0.05, cap_d=1e4)
    with pytest.raises(ValidationError, match="k=0.05 must divide the horizon 1e-10 evenly"):
        me.decay_rate_check(solver, (1e-10, 1.0))
