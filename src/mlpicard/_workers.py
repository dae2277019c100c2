"""The process's one worker pool, shared by CLI cells and replication slices.

A semaphore counts the spare cores: every core of the affinity mask but
the one the calling thread runs on.  A caller always works itself and adds
helpers only for spare cores it claims without blocking, so cells and
slices together never run on more threads than there are cores.  The pool
starts on the first helper, never at import.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    CORES = os.cpu_count() or 1

_spare = threading.Semaphore(CORES - 1)
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def claim(limit: int) -> int:
    """Claim up to limit spare cores without blocking; returns how many."""
    got = 0
    while got < limit and _spare.acquire(blocking=False):
        got += 1
    return got


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, CORES - 1),
                                       thread_name_prefix="mlpicard")
        return _pool


def fan_out(fn, items: list, helpers: int) -> list:
    """[fn(item) for item in items] on the calling thread plus helpers
    threads, one for each core the caller has claimed; fan_out releases
    those cores.  Every thread takes the next item from one shared index;
    after a failure the others take no new item, and the first error is
    raised once every helper has stopped."""
    results = [None] * len(items)
    lock = threading.Lock()
    state = {"next": 0}

    def work():
        while True:
            with lock:
                i = state["next"]
                state["next"] = i + 1
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except BaseException:
                with lock:
                    state["next"] = len(items)
                raise

    def helper():
        try:
            work()
        finally:
            _spare.release()

    futures = [_executor().submit(helper) for _ in range(helpers)]
    try:
        work()
    finally:
        for f in futures:
            f.exception()
    for f in futures:
        f.result()
    return results
