import os

import numpy as np
import pytest

from varfrac.model import make_model

CONSTANT_ORDER = {
    "alpha": 0.5,
    "order_field": {"kind": "constant", "value": 1.0},
    "a_lo": 1.0,
    "a_hi": 1.0,
    "spatial": {"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0},
    "dim": 1,
}

VARIABLE_ORDER = {
    "alpha": 0.4,
    "order_field": {"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 1.0, "freq_t": 0.0},
    "a_lo": 0.5,
    "a_hi": 1.5,
    "spatial": {"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0},
    "dim": 1,
}

USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
two_workers = pytest.mark.skipif(USABLE_CPUS < 2 or not hasattr(os, "fork"),
                                 reason="one usable CPU: every call runs one range")

STABLE_HALF = {
    "alpha": 0.5,
    "order_field": {"kind": "constant", "value": 1.0},
    "a_lo": 1.0,
    "a_hi": 1.0,
    "spatial": {"kind": "stable1d", "beta": 0.5,
                "m": {"kind": "constant", "value": 0.25}, "m_lo": 0.25, "m_hi": 0.25},
    "dim": 1,
}


@pytest.fixture(scope="session")
def const_model():
    return make_model(CONSTANT_ORDER)


@pytest.fixture(scope="session")
def varorder_model():
    return make_model(VARIABLE_ORDER)


@pytest.fixture(scope="session")
def stable_model():
    return make_model(STABLE_HALF)


@pytest.fixture(scope="session")
def ones():
    return lambda x: np.ones_like(np.asarray(x, dtype=float))


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process unreaped: every chain worker
    must be waited for before its call returns, also when a range raises."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process unreaped")
