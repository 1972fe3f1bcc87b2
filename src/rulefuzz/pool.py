"""Persistent worker processes that run a call's shares on every core.

run() takes one job per share, each a function and its arguments.  The
caller runs the first job itself; each other job is pickled to one
`sys.executable` worker over its pipes, and the replies are read back in
share order.  Callers deal at most processes() jobs, one per CPU; a
worker starts on the first call that has a job for it and ends when the
caller exits, so on one CPU there are none and every call is one job in
the caller.

A job that raises, in the caller or in a worker, is re-raised once every
reply has been read, so the pipes stay in step and the workers stay up.
A worker that dies, or a Ctrl-C in the caller, kills every worker and
fails the call; the next call starts new ones.  Workers ignore Ctrl-C:
it is the caller's to handle.

A worker's job function is pickled by reference, so it must be a
module-level function of a module the worker can import; the caller's
job may be any callable.  Calls from several threads take turns.
"""
from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Sequence

Job = tuple[Callable[..., Any], tuple]  # (function, arguments)


def _serve_jobs() -> None:
    """A worker's loop: read a pickled job, write back (ok, result or exception)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            fn, args = pickle.load(stdin)
        except EOFError:  # the caller closed the pipe or exited
            return
        try:
            reply = True, fn(*args)
        except Exception as exc:
            reply = False, exc
        # pickled whole before any byte is written: a reply that cannot be
        # pickled ends the worker, not the caller's framing
        stdout.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        stdout.flush()


# Started as calls need them and kept for the life of the process; the
# lock keeps two threads from interleaving pickles on one pipe.
_workers: list[subprocess.Popen] | None = None
_workers_lock = threading.Lock()


def processes() -> int:
    """How many shares a call can run at once: the caller and one per worker, one per CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _start_workers(n: int) -> list[subprocess.Popen]:
    # A worker imports the rulefuzz this process runs, whatever its cwd.
    env = dict(os.environ)
    root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    command = [sys.executable, "-c", "from rulefuzz.pool import _serve_jobs; _serve_jobs()"]
    return [
        subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        for _ in range(n)
    ]


@atexit.register
def _stop_workers(kill: bool = False) -> None:
    """End the workers and wait for them; the next call starts new ones."""
    global _workers
    workers, _workers = _workers or [], None
    for worker in workers:
        if kill:
            worker.kill()
        with contextlib.suppress(OSError):  # a dead worker's pipe is broken
            worker.stdin.close()  # EOF ends an idle worker
    for worker in workers:
        worker.wait()
        worker.stdout.close()


def run(jobs: Sequence[Job]) -> list:
    """[fn(*args) for fn, args in jobs]: jobs[0] in the caller, the rest in workers.

    The first exception, in share order, is raised after every reply has
    been read.  A worker that dies fails the call with its exit code.
    """
    global _workers
    (local, local_args), *remote = jobs
    if not remote:
        return [local(*local_args)]
    with _workers_lock:
        _workers = _workers or []
        if len(remote) > len(_workers):
            _workers += _start_workers(len(remote) - len(_workers))
        busy = _workers[: len(remote)]
        worker = None
        try:
            for worker, job in zip(busy, remote):
                pickle.dump(job, worker.stdin, pickle.HIGHEST_PROTOCOL)
                worker.stdin.flush()
            try:
                replies = [(True, local(*local_args))]
            except Exception as exc:
                replies = [(False, exc)]
            for worker in busy:
                replies.append(pickle.load(worker.stdout))
        except BaseException as exc:
            _stop_workers(kill=True)  # an unfinished exchange leaves the pipes out of step
            broken = (OSError, EOFError, pickle.UnpicklingError)
            if worker is not None and isinstance(exc, broken):
                raise RuntimeError(
                    f"pool worker {worker.pid} exited with code {worker.returncode}"
                ) from exc
            raise
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]
