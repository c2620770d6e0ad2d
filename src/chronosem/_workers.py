"""The run's one pool of forked workers, and the one rule for when it
forks: see :func:`solver`."""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterable

_MAX_WORKERS = 4  # measured only up to 2 cores
_DEPTH = 2  # keys handed to one worker and not yet collected


def _default_workers() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return min(cores, _MAX_WORKERS)


def _broken() -> Exception:
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool("a worker process died")


def _serve(conn, parent_ends: list, fn: Callable) -> None:
    """A worker process: send back ``(key, fn(key))`` for each key
    received; an exception is sent back as the result.

    The fork copied the caller's ends of the pipes made so far, this
    worker's own among them; closing them lets the worker see end of file,
    and exit, when the caller's process dies.  The worker inherits a mask
    that blocks SIGINT, so a Ctrl-C, which reaches the whole process group,
    never interrupts it; the caller decides whether to stop it.
    """
    for end in parent_ends:
        end.close()
    while True:
        try:
            key = conn.recv()
        except (EOFError, OSError):  # the caller's process is gone
            return
        try:
            result = fn(key)
        except Exception as exc:
            result = exc
        try:
            conn.send((key, result))
        except OSError:
            return


class _Pool:
    """Forked workers that compute ``fn`` of the guessed keys; the caller
    computes any other key.  A worker that dies raises ``BrokenProcessPool``."""

    def __init__(self, fn: Callable, workers: int, ctx):
        self.fn = fn
        self.procs = []
        self.sent: dict = {}  # each worker's pipe: its keys not yet collected, oldest first
        self.done: dict = {}
        if not workers:
            return
        # the workers inherit SIGINT blocked and keep it so (see _serve); the
        # caller gets a Ctrl-C sent meanwhile once the forks are done
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(workers):
                here, there = ctx.Pipe()
                ends = [*self.sent, here]
                proc = ctx.Process(target=_serve, args=(there, ends, fn), daemon=True)
                proc.start()
                there.close()
                self.sent[here] = []
                self.procs.append(proc)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def _collect(self, conn) -> None:
        """Receive the oldest outstanding result on a worker's pipe."""
        try:
            key, result = conn.recv()
        except (EOFError, OSError):
            raise _broken() from None
        self.sent[conn].remove(key)
        self.done[key] = result

    def _send(self, conn, key) -> None:
        try:
            conn.send(key)
        except OSError:
            raise _broken() from None
        self.sent[conn].append(key)

    def _ready(self, timeout) -> list:
        """The pipes with a finished result, waiting up to ``timeout``;
        ``wait``, unlike ``select``, takes a descriptor of any number."""
        from multiprocessing.connection import wait

        return wait([conn for conn, sent in self.sent.items() if sent], timeout)

    def _top_up(self, guesses: Iterable) -> None:
        """Hand out the first guesses no worker holds, the least busy worker
        first, so each keeps ``_DEPTH`` keys."""
        for guess in guesses:
            conn = min(self.sent, key=lambda c: len(self.sent[c]))
            if len(self.sent[conn]) == _DEPTH:
                return
            if guess not in self.done and all(guess not in sent for sent in self.sent.values()):
                self._send(conn, guess)

    def __call__(self, key, ahead: Callable[[], Iterable]):
        guesses = None

        def collect(timeout) -> None:
            """Collect the finished results, then hand out guesses to the
            workers with room; a worker whose queue holds only stale
            guesses is thus fed again."""
            nonlocal guesses
            for conn in self._ready(timeout):
                self._collect(conn)
            if any(len(sent) < _DEPTH for sent in self.sent.values()):
                if guesses is None:
                    guesses = ahead()
                self._top_up(guesses)

        collect(0)
        self.done = {k: r for k, r in self.done.items() if k >= key}
        while key not in self.done and any(key in sent for sent in self.sent.values()):
            collect(None)
        result = self.done.pop(key) if key in self.done else self.fn(key)
        if isinstance(result, Exception):
            raise result
        return result

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        for conn in self.sent:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()
            proc.close()


def solver(fn: Callable) -> _Pool:
    """``solve(key, ahead)``: ``fn(key)``, for keys asked for in increasing
    order.  ``ahead()`` lists the keys likely to be asked for next, and
    forked workers compute them while the caller waits for, or computes,
    the current one.  A result is used only for the key it was computed
    for, so a wrong guess wastes a worker's time and changes no result.

    No worker starts, so the caller computes every key, with one usable
    core, without ``fork``, when another thread is alive (a fork then
    risks a deadlock) or in a daemon process (which may not have children).
    Workers leave through ``os._exit``, so they never flush the caller's
    open files, and they are stopped when the block exits, however it
    exits.
    """
    import multiprocessing  # imported here, so the CLI's start-up does not pay for it

    workers = _default_workers()
    if (
        workers == 1
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        workers = 0
    return _Pool(fn, workers, multiprocessing.get_context("fork") if workers else None)
