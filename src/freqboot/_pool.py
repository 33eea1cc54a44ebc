"""Per-call thread pools for the stages that split a large field's work.

The FDWB draws and the block ensemble hand independent tasks to
``map_ordered`` and get the results back in task order, so what they
compute from them does not depend on how many threads ran.  Tasks must
call only numpy and private helpers: numpy releases the GIL in its
transforms and loops, and a public freqboot name may be wrapped by a
caller's instrumentation that is not thread-safe.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, on up to one thread per CPU when there
    are two or more tasks.

    The calling thread takes tasks too, so k threads need a pool of k - 1.
    Its allocations reuse memory the process already holds, while each
    pool thread allocates from a malloc arena of its own; on a 512 x 512
    field's block ensemble each pool thread added about 7 MiB of peak RSS
    (glibc, numpy 2.4).
    """
    tasks = list(tasks)
    k = min(cpus(), len(tasks))
    if k < 2:
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
        work()
        for h in helpers:
            h.result()
    return results
