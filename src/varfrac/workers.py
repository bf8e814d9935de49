"""The fork map shared by the chain engine and the Talbot inverter.

`_map_ranges(fn, n, threads)` cuts the indices 0..n-1 into contiguous ranges,
runs the first in the calling process and each other one in a process forked
for the call, and returns fn's results in range order. Callers assemble and
reduce the results themselves, so what they return does not depend on the
number of ranges.
"""

from __future__ import annotations

import os
import pickle

import numpy as np


def _ranges(n_traj, threads):
    """min(threads, usable CPUs, n_traj) contiguous id ranges of equal size (+-1)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = max(1, min(threads, cpus or 1, n_traj)) if hasattr(os, "fork") else 1
    cuts = [n_traj * w // parts for w in range(parts + 1)]
    return [np.arange(lo, hi, dtype=np.uint64) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _map_ranges(fn, n_traj, threads):
    """fn(ids) over the ranges of _ranges, in range order. Range 0 runs here,
    each other one in a process forked for this call; a worker's exception
    is raised here with its own type, and every worker is reaped on return."""
    ranges = _ranges(n_traj, threads)
    pids, pipes = [], []
    try:
        for ids in ranges[1:]:
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _work(fn, ids, pipes, sink)
            pids.append(pid)
        results = [fn(ranges[0])]
        for ok, out in map(pickle.load, pipes):
            if not ok:
                raise out
            results.append(out)
        return results
    finally:
        for fh in pipes:
            fh.close()  # a worker still writing gets EPIPE and exits
        for pid in pids:
            os.waitpid(pid, 0)


def _work(fn, ids, pipes, sink):
    """A forked worker: pickle (ok, fn(ids) or its exception) to sink, exit."""
    try:
        for fh in pipes:
            fh.close()
        try:
            out = (True, fn(ids))
        except BaseException as exc:  # the parent raises it
            out = (False, exc)
        with sink:
            pickle.dump(out, sink, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)
