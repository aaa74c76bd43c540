"""Array work split into contiguous row parts, one thread per part.

numpy's element-wise loops over more than a few hundred elements, and
scipy's ``cdist``, release the interpreter lock, so threads running them
on disjoint rows of one output array run on separate cores.
Each element is computed by the same operations whichever part holds its
row, so the result is bit for bit that of one call over every row.

The number of parts is the number of CPUs this process may run on
(``os.sched_getaffinity``, so ``taskset`` limits it; ``os.cpu_count``
where that call does not exist), fewer when the rows or the work run out.
A part is worth its thread only for at least PART_WORK element operations;
below twice that the work runs whole in the caller's thread. BLAS threads
are left as they are.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# element operations (one subtract-multiply-add on a double, about 0.2 ns
# in pdist on a Sapphire Rapids core) a part needs to repay its thread; a
# one-thread pool takes some 30 us to start and join there
PART_WORK = 1 << 20


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def in_row_parts(work, cost) -> None:
    """Run ``work(r0, r1)`` over contiguous row ranges covering every row once.

    ``cost[r]`` is the work of the rows before row r in element operations,
    nondecreasing from ``cost[0] == 0`` to the total at ``cost[-1]``, so
    there are ``len(cost) - 1`` rows; the ranges split that total evenly.
    The caller's thread runs the first range and the others run in a pool
    that is shut down, its threads joined, before this returns. An error
    raised by a range surfaces here, the first range's before the second's,
    as a serial run would raise it.
    """
    rows = len(cost) - 1
    parts = max(1, min(_cpu_count(), rows, int(cost[-1] // PART_WORK)))
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, parts) / parts)
    # a row heavier than a part's share swallows the cuts that fall in it
    bounds = np.unique(np.concatenate(([0], cuts, [rows]))).tolist()
    ranges = list(zip(bounds[:-1], bounds[1:]))
    if len(ranges) < 2:
        work(0, rows)
        return
    with ThreadPoolExecutor(len(ranges) - 1, thread_name_prefix="gridmap-part") as pool:
        futures = [pool.submit(work, r0, r1) for r0, r1 in ranges[1:]]
        work(*ranges[0])
        for future in futures:
            future.result()
