"""Spawned worker processes shared by the Monte Carlo split and the field writers.

A worker is a fresh interpreter from multiprocessing's `spawn` method, with one
pipe to the caller.  It replies to each job with one message: its result, or
its exception as one line, which `_receive` raises in the caller as the
package error.  `_started` starts workers and, however the caller leaves it,
ends and joins every one, so none outlives its call or CLI command.

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
def _started(target, job_args):
    """Start one spawned worker target(conn, *args) per tuple of `job_args`, each
    with its own pipe, and yield their (process, caller's end of the pipe) pairs.
    On leaving, each worker is terminated (a no-op on one that has exited) and
    joined, and its pipe is closed."""
    workers = []
    try:
        if job_args:
            import multiprocessing
            ctx = multiprocessing.get_context("spawn")
            # start arguments this small fit the start pipe's buffer, so no start
            # waits for the child before it to import numpy and this package
            with _interrupts_ignored():
                for args in job_args:
                    conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(target=target, args=(child_conn, *args))
                    proc.start()
                    workers.append((proc, conn))
                    child_conn.close()
        yield workers
    finally:
        for proc, conn in workers:
            proc.terminate()
            proc.join()
            conn.close()


def _error_line(exc: BaseException) -> str:
    """The one line a worker sends in place of its result."""
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


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
