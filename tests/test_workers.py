"""The worker protocol both process splits share: the size rule, the range cut
and the loop every spawned worker runs."""

import multiprocessing
import os
import signal
import threading

import pytest

from matchentropy import _workers

MC_STEPS = 8_000_000  # montecarlo._MIN_WORKER_STEPS
VALUES = 400_000  # cli._MIN_WORKER_VALUES
UNASKED = "unasked"  # os.cpu_count() must not be called


def serve_here(caller):
    """Run _workers._serve in this thread, as a spawned worker runs it, while
    caller(conn) drives the other end of its pipe from a thread and then closes
    it; return what caller returned.  The loop must leave SIGINT ignored."""
    conn, child_conn = multiprocessing.Pipe()
    results = []

    def drive():
        with conn:
            results.append(caller(conn))

    thread = threading.Thread(target=drive)
    previous = signal.getsignal(signal.SIGINT)
    thread.start()
    try:
        _workers._serve(child_conn)
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)
        thread.join(timeout=60)
    assert not thread.is_alive() and child_conn.closed
    return results[0]


def _echo(conn, value):
    return value


def _next_message(conn):
    return conn.recv()


def _interrupts_ignored(conn):
    return signal.getsignal(signal.SIGINT) is signal.SIG_IGN


def _fail(conn, message):
    raise ValueError(message)


def test_serve_replies_in_job_order_and_stops_at_an_error_or_eof():
    def caller(conn):
        conn.send((_echo, (1,)))
        conn.send((_next_message, ()))
        conn.send("read by the job")
        conn.send((_interrupts_ignored, ()))
        conn.send((_fail, ("bad job\nsecond line",)))
        conn.send((_echo, (5,)))  # after the error: never run
        replies = [conn.recv() for _ in range(4)]
        # it stopped at its error and closed its end, the last job unread
        with pytest.raises((EOFError, ConnectionResetError)):
            conn.recv()
        return replies

    assert serve_here(caller) == [1, "read by the job", True, "ValueError: bad job"]

    def three_jobs(conn):
        for n in range(3):
            conn.send((_echo, (n,)))
        return [conn.recv() for _ in range(3)]

    # once the caller closes its end, the loop stops without a reply
    assert serve_here(three_jobs) == [0, 1, 2]
    assert serve_here(lambda conn: None) is None


def _limit_cpus(monkeypatch, cpus, cpu_count):
    """An affinity mask of `cpus` CPUs, or with `cpus` None no mask and
    os.cpu_count() returning `cpu_count` (or failing the test if UNASKED)."""
    def asked():
        raise AssertionError("a split too small for two processes asked for the CPU count")

    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:  # the mask, not os.cpu_count(), is read where the OS keeps one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", asked if cpu_count == UNASKED else lambda: cpu_count)


@pytest.mark.parametrize("items, work, min_work, cpus, cpu_count, processes", [
    # Monte Carlo runs: `items` paths of `work` path-steps in all
    (1, 10 * MC_STEPS, MC_STEPS, 8, UNASKED, 1),
    (1000, 1000 * (MC_STEPS // 1000 - 1), MC_STEPS, 8, UNASKED, 1),
    (100_001, 100_001 * 64 * MC_STEPS, MC_STEPS, 5, UNASKED, 5),
    (100_001, 100_001 * 64 * MC_STEPS, MC_STEPS, 256, UNASKED, 256),
    (50, 50 * 100, MC_STEPS, None, UNASKED, 1),
    (4, 4 * (2 * MC_STEPS // 4 - 1), MC_STEPS, None, UNASKED, 1),
    (100, 100 * 64 * MC_STEPS, MC_STEPS, None, 3, 3),
    (100, 100 * 64 * MC_STEPS, MC_STEPS, None, None, 1),  # undeterminable
    # full fields: `items` rows of `work` values in all; the writers are one fewer
    (1001, 799_999, VALUES, 8, UNASKED, 1),
    (1001, 800_000, VALUES, 8, UNASKED, 2),
    (1001, 1_002_001, VALUES, 2, UNASKED, 2),
    (1001, 1_002_001, VALUES, 32, UNASKED, 2),
    (1001, 2_000_000, VALUES, 4, UNASKED, 4),
    (1001, 10_000_000, VALUES, 4, UNASKED, 4),
    (1001, 10_000_000, VALUES, 1, UNASKED, 1),
    (2, 10_000_000, VALUES, 4, UNASKED, 2),  # fewer rows than work // min_work
], ids=["paths_one_path", "paths_short_run", "paths_5_cpus", "paths_256_cpus",
        "paths_small_run_no_mask", "paths_below_two_no_mask", "paths_no_mask_3_cpus",
        "paths_no_mask_no_count", "values_799999_8_cpus", "values_800000_8_cpus",
        "values_1002001_2_cpus", "values_1002001_32_cpus", "values_2000000_4_cpus",
        "values_10000000_4_cpus", "values_10000000_1_cpu", "values_two_rows_4_cpus"])
def test_process_count_and_ranges(items, work, min_work, cpus, cpu_count, processes,
                                  monkeypatch):
    _limit_cpus(monkeypatch, cpus, cpu_count)
    assert _workers._process_count(items, work, min_work) == processes
    ranges = _workers._ranges(items, processes)
    assert len(ranges) == processes
    assert ranges[0][0] == 0 and ranges[-1][1] == items
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    sizes = [hi - lo for lo, hi in ranges]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
