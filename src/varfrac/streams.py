"""Stateless counter-based uniform streams.

Each trajectory owns a stream keyed by (seed, trajectory index); variate k of
channel c is a pure function of (seed, index, k, c). Workers can therefore
partition trajectories arbitrarily and always reproduce the same numbers,
and the whole block for a step vectorizes over trajectories.

The mixer is the 64-bit finalizer used by splitmix-style generators, applied
twice: once over (seed, index), which `lane_keys` returns and a chain lane
keeps while it holds the index, and once over that key combined with (k, c).
Scalar key material is mixed in plain Python integers (wraparound by
masking); only the vectorized part touches uint64 arrays, whose overflow is
silent modular arithmetic.
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


def lane_keys(seed: int, traj):
    """The step-free half of the stream hash, one per trajectory id: a chain
    lane computes it once when it takes an id."""
    key = _mix_int((int(seed) & _M64) * _PHI + _C3)
    return _mix_arr(np.asarray(traj, dtype=np.uint64) * _PHI_U + np.uint64(key))


def keyed_uniforms(keys, step, channels=(0, 1)):
    """Row c is uniforms(seed, traj, step, channels[c]) for the lanes whose
    lane_keys(seed, traj) are keys; all channels share one mix. step is one
    step for every lane or one per lane, taken as uint64 either way."""
    h = np.array([(int(c) * _C2 + _PHI) & _M64 for c in channels], dtype=np.uint64)
    h = h.reshape((-1,) + (1,) * np.ndim(keys))
    h = _mix_arr((np.asarray(step, dtype=np.uint64) * _C1_U + h) ^ keys)
    return ((h >> _SH11).astype(np.float64) + 0.5) * (2.0**-53)


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
    return keyed_uniforms(lane_keys(seed, traj), step, (channel,))[0]
