"""The fork map that the chain engine and the Talbot inverter share."""

import contextlib
import os
import signal

import numpy as np
import pytest

from varfrac import workers
from varfrac.errors import StepBudgetExceeded

from conftest import USABLE_CPUS, two_workers


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang, such as a worker that never exits, into a failure."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@two_workers
def test_ranges_cut_ids_evenly():
    assert [len(r) for r in workers._ranges(1_000, 2)] == [500, 500]


@pytest.mark.parametrize("n_traj", [1, 7, 1_000])
def test_ranges_never_outnumber_usable_cpus(n_traj):
    # No process is started: the cap is read from the cuts alone.
    ranges = workers._ranges(n_traj, 10**6)
    assert 1 <= len(ranges) <= min(USABLE_CPUS, n_traj)
    assert max(map(len, ranges)) - min(map(len, ranges)) <= 1
    assert np.array_equal(np.concatenate(ranges), np.arange(n_traj, dtype=np.uint64))


@two_workers
def test_worker_failure_reaches_the_caller_with_its_type():
    def fn(ids):
        if ids[0] != 0:
            raise StepBudgetExceeded(f"range from {int(ids[0])}")
        return ids

    with _deadline(60), pytest.raises(StepBudgetExceeded, match="range from 500"):
        workers._map_ranges(fn, 1_000, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@two_workers
def test_failure_here_frees_a_worker_still_writing():
    # The worker's result outgrows a pipe's buffer, so it blocks writing
    # until range 0 fails here and its pipe is closed.
    def fn(ids):
        if ids[0] == 0:
            raise ValueError("range 0")
        return np.zeros(1 << 20)

    with _deadline(60), pytest.raises(ValueError, match="range 0"):
        workers._map_ranges(fn, 1_000, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
