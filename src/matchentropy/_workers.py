"""Spawned worker processes: one protocol for the Monte Carlo split and the field writers.

`_process_count` sizes a split: one process, the caller included, per
`min_work` units of its work, at most one per item (path or row) and one per
CPU.  `_ranges` cuts the items into that many contiguous, near-equal ranges;
the caller does the first, and `_started` starts a worker for each other.
Every worker runs `_serve` on its own pipe.  `_send_jobs` sends it its job
(fn, args) and then its data (a Monte Carlo run's pickled control, or a
writer's rows as a float64 buffer), which the split's job function
(`montecarlo._simulate_job`, `grid._write_job`) reads.  The worker replies
with the job's result, or its exception as one line, which `_receive` raises
in the caller as the package error.  However the caller leaves the
`_started` block, every worker is ended and joined, so none outlives its
call or CLI command.

Spawn, not fork: forking a process that holds BLAS threads warns from Python
3.12 on, and the package supports 3.10 and later.  Spawn costs about 0.3 s
per worker (a fresh interpreter that imports numpy and this package), and
its workers run the caller's main module as `__mp_main__`, so a script that
starts them (a large `simulate_paths` call, or `cli.main` on a large grid)
must keep its own work under `if __name__ == "__main__":`.  Spawn also
starts multiprocessing's resource tracker with a process's first worker; it
is no worker, and it exits with the caller.  multiprocessing is imported
only when a worker starts, so importing the package stays cheap.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one
    (`taskset` limits it), os.cpu_count() elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_count(items: int, work: int, min_work: int) -> int:
    """Processes worth running for `work` units over `items` items, the caller
    included: one per `min_work` units, at most one per item and one per CPU,
    and at least one.  A split too small for two asks for no CPU count."""
    count = min(work // min_work, items)
    if count > 1:
        count = min(count, _cpu_count())
    return max(1, count)


def _ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """`parts` contiguous, near-equal ranges of [0, n), but at most n (one if n is 0)."""
    parts = max(1, min(parts, n))
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


@contextlib.contextmanager
def _interrupts_ignored():
    """Ignore SIGINT in the main thread while workers start: a spawned child keeps
    an ignored signal through exec, so a Ctrl-C while it imports cannot print a
    traceback there.  A Ctrl-C within these few milliseconds is lost.  Elsewhere,
    or with a handler set outside Python, the workers ignore it once they run."""
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGINT) is None):
        yield
        return
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


@contextlib.contextmanager
def _started(count: int):
    """Start `count` spawned workers, each running `_serve` on its own pipe, and
    yield their (process, caller's end of the pipe) pairs.  On leaving, each
    worker is terminated (a no-op on one that has exited) and joined, and its
    pipe is closed."""
    workers = []
    try:
        if count > 0:
            import multiprocessing
            ctx = multiprocessing.get_context("spawn")
            with _interrupts_ignored():
                for _ in range(count):
                    conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(target=_serve, args=(child_conn,))
                    proc.start()
                    workers.append((proc, conn))
                    child_conn.close()
        yield workers
    finally:
        for proc, conn in workers:
            proc.terminate()
            proc.join()
            conn.close()


def _serve(conn) -> None:
    """Body of every spawned worker: for each job (fn, args) until the caller
    closes the pipe, reply with fn(conn, *args).  An exception is sent as one
    line instead, and the worker stops."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the caller ends its workers
    with conn:
        while True:
            try:
                fn, args = conn.recv()
                reply = fn(conn, *args)
            except EOFError:  # the caller has closed its end: the call or command has ended
                return
            except Exception as exc:
                conn.send(_error_line(exc))
                return
            conn.send(reply)


def _error_line(exc: BaseException) -> str:
    """The one line a worker sends in place of its result."""
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


def _send_jobs(jobs) -> None:
    """Send each (caller's pipe end, job, data) of `jobs`: the job, then the data unpickled."""
    for conn, job, data in jobs:
        try:
            conn.send(job)
            conn.send_bytes(data)
        except OSError:  # the worker has gone; _receive reports it
            pass


def _receive(proc, conn, worker: str, task: str, error: type):
    """The reply of `worker` to its job.  Its error line is raised as MemoryError
    for a MemoryError and as `error` otherwise; no reply, or one cut short, is
    raised as `error` naming the exit code, once the worker has exited."""
    try:
        reply = conn.recv()
    except (EOFError, OSError):  # no reply, or one cut short
        reply = None
    if reply is not None and not isinstance(reply, str):
        return reply
    proc.join()
    if reply is None:
        raise error(f"a {worker} exited with code {proc.exitcode} before {task}")
    message = f"a {worker} raised {reply}"
    if reply.startswith("MemoryError"):
        raise MemoryError(message)
    raise error(message)
