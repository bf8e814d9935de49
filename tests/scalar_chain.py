"""Scalar reference chain for the replay tests.

One trajectory stepped in plain Python, written apart from the lane kernel
`ctrw._advance`: replaying it from the same streams must give the ensemble's
bits exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varfrac.model import Model, gamma_at
from varfrac.streams import uniforms


@dataclass(frozen=True)
class ChainState:
    """One enhanced-chain state: position, accumulated waiting time, step count."""

    x: np.ndarray
    s: float
    k: int = 0


def step_chain(state: ChainState, tau, model: Model, kernel_family, law, u_jump, u_wait):
    """One transition of the enhanced chain.

    The waiting increment is tau^(1/(alpha a(s, x))) * r with the order field
    read at the pre-step state, and the spatial increment is tau^(1/beta) * y;
    both coordinates move jointly.
    """
    x = np.atleast_1d(np.asarray(state.x, dtype=float))
    gam = float(gamma_at(model, state.s, x[0]))
    r = float(law.sample(gam, u_wait))
    # The exponent is a one-element array, as in the chain: numpy's scalar
    # power can round the last bit differently from its array loop.
    s_new = state.s + float(np.power(tau, 1.0 / np.full(1, gam))[0]) * r
    y = kernel_family.sample(x, np.asarray([u_jump]))
    x_new = x + tau ** (1.0 / model.beta) * np.asarray(y)
    return ChainState(x=x_new, s=s_new, k=state.k + 1)


class TrajectoryStream:
    """Sequential view of one trajectory's stream (same bits the vectorized
    engine consumes), for scalar chain stepping."""

    def __init__(self, seed: int, traj_index: int):
        self.seed = int(seed)
        self.traj = np.asarray([traj_index], dtype=np.uint64)
        self.step = 0

    def next_pair(self):
        """Uniform pair (u_jump, u_wait) for the next step."""
        self.step += 1
        u_jump = uniforms(self.seed, self.traj, self.step, 0)[0]
        u_wait = uniforms(self.seed, self.traj, self.step, 1)[0]
        return u_jump, u_wait


def replay_to_horizon(traj_index, x0, t, tau, seed, model: Model, kernel_family, law):
    """Final state of trajectory traj_index, stepped one transition at a time
    from (x0, 0) until its accumulated time reaches t."""
    state = ChainState(x=np.atleast_1d(np.asarray(x0, dtype=float)), s=0.0)
    stream = TrajectoryStream(seed, traj_index)
    while state.s < t:
        u_jump, u_wait = stream.next_pair()
        state = step_chain(state, tau, model, kernel_family, law, u_jump, u_wait)
    return state
