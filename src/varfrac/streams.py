"""Stateless counter-based uniform streams.

Each trajectory owns a stream keyed by (seed, trajectory index); variate k of
channel c is a pure function of (seed, index, k, c). Workers can therefore
partition trajectories arbitrarily and always reproduce the same numbers,
and the whole block for a step vectorizes over trajectories.

The mixer is the 64-bit finalizer used by splitmix-style generators, applied
twice over a keyed combination of the inputs. Scalar key material is mixed
in plain Python integers (wraparound by masking); only the vectorized part
touches uint64 arrays, whose overflow is silent modular arithmetic.
"""

from __future__ import annotations

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_PHI = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_C3 = 0xD6E8FEB86659FD93

_PHI_U = np.uint64(_PHI)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_C1_U = np.uint64(_C1)
_C2_U = np.uint64(_C2)


def _mix_int(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * _C1) & _M64
    x = ((x ^ (x >> 27)) * _C2) & _M64
    return x ^ (x >> 31)


def _mix_arr(x):
    """_mix_int over a uint64 array, in place: x is overwritten. In-place
    updates skip one allocation per operation, which counts on narrow lanes."""
    x ^= x >> _SH30
    x *= _C1_U
    x ^= x >> _SH27
    x *= _C2_U
    x ^= x >> _SH31
    return x


def uniforms(seed: int, traj, step, channel: int):
    """Open-interval uniforms in (0, 1) for the given trajectories.

    traj may be an integer array or scalar; the result matches its shape.
    step is one step for all trajectories or an array with one step per
    trajectory; both forms give the same bits for the same (traj, step).
    """
    traj = np.asarray(traj, dtype=np.uint64)
    if traj.ndim == 0:
        # numpy's scalar path warns on the intended uint64 wraparound
        return uniforms(seed, traj[None], step, channel)[0]
    key = _mix_int((int(seed) & _M64) * _PHI + _C3)
    channel_key = (int(channel) * _C2 + _PHI) & _M64
    if np.ndim(step):
        step_key = np.asarray(step, dtype=np.uint64) * _C1_U + np.uint64(channel_key)
    else:
        step_key = np.uint64((int(step) * _C1 + channel_key) & _M64)
    h = _mix_arr(traj * _PHI_U + np.uint64(key))
    h ^= step_key
    h = _mix_arr(h)
    return ((h >> _SH11).astype(np.float64) + 0.5) * (2.0**-53)


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
