"""Per-call thread pools for the stages that split a field's work.

The FDWB draws and the batches of a field's block ensembles hand
independent tasks to ``map_ordered`` and get the results back in task
order, so what they compute from them does not depend on how many
threads ran.  Tasks must call only numpy and private helpers: numpy
releases the GIL in its transforms and loops, and a public freqboot name
may be wrapped by a caller's instrumentation that is not thread-safe.
The calling thread's own first job (``first``) may call them: a
field's bootstrap draws, filled beside the batches of its ladder of
block sizes.

Worker processes that share the CPUs count how many of them are running
a chunk of work (``share``, ``working``), and while k of them are,
``cpus()`` in each is its share of the CPUs, so processes times threads
stay within the CPUs; a worker left running alone uses them all.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# in a worker process: the shared count of workers running a chunk
_busy = None


def cpus() -> int:
    """CPUs this process may use: those it may run on, divided among the
    worker processes running a chunk."""
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    if _busy is not None:
        return max(1, n // max(1, _busy.value))
    return n


def share(busy) -> None:
    """A worker pool's initializer: this process shares the CPUs with the
    workers counted in ``busy``, a ``multiprocessing.Value('i')``."""
    global _busy
    _busy = busy


@contextmanager
def working():
    """Count this worker process in its pool's busy count inside the
    block; a no-op outside a pool's workers."""
    if _busy is None:
        yield
        return
    with _busy.get_lock():
        _busy.value += 1
    try:
        yield
    finally:
        with _busy.get_lock():
            _busy.value -= 1


def map_ordered(fn, tasks, first=None) -> list:
    """``[fn(t) for t in tasks]``, on up to one thread per CPU when there
    are two or more jobs: the tasks, and ``first`` when one is given.

    The calling thread takes tasks too, so k threads need a pool of k - 1.
    Its allocations reuse memory the process already holds, while each
    pool thread allocates from a malloc arena of its own; on a 512 x 512
    field's block ensemble each pool thread added about 7 MiB of peak RSS
    (glibc, numpy 2.4).

    ``first``, a callable of no arguments whose result is dropped, is the
    calling thread's first job: it runs it while the pool threads start
    on the tasks, then takes tasks with them; on one thread it runs
    before the tasks.  Being on the calling thread, it may call public
    freqboot names, but it must start no threads: the pool's hold the
    other CPUs.
    """
    tasks = list(tasks)
    k = min(cpus(), len(tasks) + (first is not None))
    if k < 2:
        if first is not None:
            first()
        return [fn(t) for t in tasks]
    results = [None] * len(tasks)
    todo = iter(range(len(tasks)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(tasks[i])

    # a pool per call: a pool object inherited by a forked worker process
    # has no threads behind it
    with ThreadPoolExecutor(k - 1) as pool:
        helpers = [pool.submit(work) for _ in range(k - 1)]
        if first is not None:
            first()
        work()
        for h in helpers:
            h.result()
    return results
