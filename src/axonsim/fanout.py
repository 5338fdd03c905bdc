"""The one fan-out path: a process-pool map for the sweep, the Monte Carlo
suites and the split snapshot exports.

No other module starts a process.  This one imports nothing from the
package, so any module, ``csvtext`` included, can import it without a cycle.
"""

from __future__ import annotations

import concurrent.futures
import os
import warnings


# Set only inside pool worker processes, by the pool's initializer.
_WORKER_FUNC = None


def default_workers() -> int:
    """Worker processes for the suites and the snapshot exports: the CPUs
    this process may run on (all of them where the platform cannot say), at
    most 4; 1 inside a pool worker, whose siblings already use those CPUs."""
    if _WORKER_FUNC is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, 4)


def pool_forks() -> bool:
    """Whether :func:`parallel_map`'s workers are forked from this process.

    A forked worker shares the parent's memory and imports; any other start
    method (``spawn`` on macOS and Windows, ``forkserver`` on Linux from
    Python 3.14) pickles ``func`` to each worker, which imports numpy and
    scipy again.
    """
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True)
    return (method or multiprocessing.get_all_start_methods()[0]) == "fork"


def _init_worker(func) -> None:
    global _WORKER_FUNC
    _WORKER_FUNC = func


def _call_worker_func(task):
    return _WORKER_FUNC(task)


def parallel_map(func, tasks: list, workers: int) -> list:
    """``[func(t) for t in tasks]``, fanned over up to ``workers`` processes.

    ``func`` reaches each worker once, through the pool's initializer, so a
    ``functools.partial`` over large arrays crosses once per worker rather
    than once per task; tasks go one at a time and results keep task order.
    With ``workers <= 1`` or at most one task the map is serial.  It also
    runs serially, with a ``RuntimeWarning``, when the pool cannot be
    created.  An exception raised by a task, or a worker that dies
    (``BrokenProcessPool``), propagates: no task is run twice.  Every worker
    has exited when the call returns or raises.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [func(t) for t in tasks]
    try:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(func,))
    except (OSError, NotImplementedError) as exc:
        warnings.warn(f"process pool unavailable ({exc!r}); running "
                      f"{len(tasks)} tasks serially", RuntimeWarning, stacklevel=2)
        return [func(t) for t in tasks]
    with pool:
        return list(pool.map(_call_worker_func, tasks, chunksize=1))
