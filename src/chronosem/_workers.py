"""The run's one pool of forked workers, and the one rule for when it
forks: see :func:`solver`."""

from __future__ import annotations

import os
import select
import threading
from collections.abc import Callable, Iterable
from contextlib import contextmanager

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
    and exit, when the caller's process dies.
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
    """Forked workers that compute ``fn`` of the guessed keys.  A worker
    that dies raises ``BrokenProcessPool`` in the caller."""

    def __init__(self, fn: Callable, workers: int, ctx):
        self.fn = fn
        self.conns, self.fds, self.procs = [], [], []
        self.sent: list[list] = []  # per worker, oldest first
        self.done: dict = {}
        for _ in range(workers):
            here, there = ctx.Pipe()
            ends = [*self.conns, here]
            proc = ctx.Process(target=_serve, args=(there, ends, fn), daemon=True)
            proc.start()
            there.close()
            self.conns.append(here)
            self.fds.append(here.fileno())
            self.procs.append(proc)
            self.sent.append([])

    def _collect(self, w: int) -> None:
        """Receive worker w's oldest outstanding result."""
        try:
            key, result = self.conns[w].recv()
        except (EOFError, OSError):
            raise _broken() from None
        self.sent[w].remove(key)
        self.done[key] = result

    def _send(self, w: int, key) -> None:
        try:
            self.conns[w].send(key)
        except OSError:
            raise _broken() from None
        self.sent[w].append(key)

    def _ready(self, timeout) -> list[int]:
        """The workers with a finished result, waiting up to ``timeout``."""
        busy = [f for f, sent in zip(self.fds, self.sent) if sent]
        return [self.fds.index(f) for f in select.select(busy, [], [], timeout)[0]]

    def _top_up(self, guesses: Iterable) -> None:
        """Hand out the first guesses no worker holds, the least busy worker
        first, so each keeps ``_DEPTH`` keys."""
        for guess in guesses:
            w = min(range(len(self.sent)), key=lambda i: len(self.sent[i]))
            if len(self.sent[w]) == _DEPTH:
                return
            if guess not in self.done and all(guess not in sent for sent in self.sent):
                self._send(w, guess)

    def __call__(self, key, ahead: Callable[[], Iterable]):
        guesses = None

        def collect(timeout) -> None:
            """Collect the finished results, then hand out guesses to the
            workers with room; a worker whose queue holds only stale
            guesses is thus fed again."""
            nonlocal guesses
            for w in self._ready(timeout):
                self._collect(w)
            if any(len(sent) < _DEPTH for sent in self.sent):
                if guesses is None:
                    guesses = ahead()
                self._top_up(guesses)

        collect(0)
        self.done = {k: r for k, r in self.done.items() if k >= key}
        while key not in self.done and any(key in sent for sent in self.sent):
            collect(None)
        result = self.done.pop(key) if key in self.done else self.fn(key)
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()
            proc.close()


@contextmanager
def solver(fn: Callable):
    """``solve(key, ahead)``: ``fn(key)``, for keys asked for in increasing
    order.  ``ahead()`` lists the keys likely to be asked for next, and
    forked workers compute them while the caller waits for, or computes,
    the current one.  A result is used only for the key it was computed
    for, so a wrong guess wastes a worker's time and changes no result.

    Every key is computed inline, with the same result, with one worker,
    without ``fork``, when another thread is alive (a fork then risks a
    deadlock) or in a daemon process (which may not have children).
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
        yield lambda key, ahead: fn(key)
        return
    pool = _Pool(fn, workers, multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.close()
