"""The enhanced chain (position, accumulated waiting time), its horizon
hitting time, and Monte Carlo functionals of the time-changed walk.

One kernel, `_advance`, moves every chain over a fixed-width lane vector: a
lane carries a trajectory id with its own step count, position and time, and
takes the next id of its worker's range when its trajectory ends. On the
fixed-step path every lane starts and ends together, so its lanes move in
lockstep and share one step count. Step k of trajectory i reads only the
variates keyed by (seed, i, k), so lane width and worker count (at least 1)
are free to vary. A lane hashes (seed, i) once when it takes id i; each step
mixes only (k, channel) into that key. Once no id waits for a lane, a thinned
vector of L lanes advances _LANES // L steps per pass when the jump law
ignores position and the order ignores time: positions then follow from the
jumps alone and times from the positions, so both are running sums over the
pass, added in step order, and the bits are those of one step per pass. The
reduction is fixed: the caller sums F over the same `_CHUNK`-id blocks and
combines them in block order with exact compensated summation, so estimates
are bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFunctional, StepBudgetExceeded
from .model import gamma_at
from .streams import keyed_uniforms, lane_keys, uniforms  # noqa: F401 (tracers wrap it)
from .workers import _map_ranges

DEFAULT_STEP_CAP = 10**8
_CHUNK = 4096  # ids per reduction block of F
_LANES = 16384  # lane-vector width of one worker


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_traj: int


@dataclass(frozen=True)
class DensityGrid:
    """Histogram estimate of the pair law at a ladder of elapsed times.

    masses[i] is the joint probability mass on (y, v) cells at u_values[i];
    each slice sums to 1 exactly (positions are clipped into the y range and
    the final v bin absorbs everything above its lower edge).
    """

    u_values: np.ndarray
    y_edges: np.ndarray
    v_edges: np.ndarray
    masses: np.ndarray
    n_traj: int


def _advance(model, kern, law, x0, s0, tau, seed, ids, ends, step_cap):
    """Run trajectories ids over at most _LANES lanes; return their final
    (positions, step counts) ordered like ids.

    A pass advances every lane by `width` steps: ends(pos, k, x, s) sees the
    lanes' indices into ids and the pass's (width, lanes) step counts,
    positions and times, and marks the steps at which a trajectory ends. A
    lane stops at its first mark and restarts on the next id, or is dropped
    once none are left.
    """
    if not 0.0 < float(tau) < math.inf:
        raise ValueError(f"tau must be a finite number > 0, got {tau!r}")
    n = len(ids)
    h_x = tau ** (1.0 / model.beta)
    x_start = float(x0)
    # Jumps that ignore position make a lane's path independent of its
    # clock, and an order that ignores time makes the clock a function of
    # the path: a pass may then take many steps.
    blocked = kern.position_free and model.order_field.time_independent
    pos = np.arange(min(n, _LANES))
    lane_ids = ids[pos]
    keys = lane_keys(seed, lane_ids)
    x = np.full(len(pos), x_start)
    s = np.full(len(pos), float(s0))
    k = np.zeros(len(pos), dtype=np.uint64)
    out_x = np.empty(n)
    out_k = np.empty(n, dtype=np.int64)
    next_pos = len(pos)
    # Each pass writes its (width, lanes) step counts into steps_buf, and its
    # positions and times, after the state before the pass as row 0, into
    # path_buf and clock_buf.
    most = _LANES if blocked else len(pos)
    steps_buf = np.empty(most, dtype=np.uint64)
    path_buf = np.empty(most + len(pos))
    clock_buf = np.empty(most + len(pos))
    top = 0  # no lane's step count exceeds top
    # A constant order fixes gamma and the waiting scale tau^(1/gamma) for the
    # call. The scale's exponent is a one-element array, so numpy takes the
    # array loop of the per-lane form, not its scalar power.
    per_lane = model.order_field.kind != "constant"
    if not per_lane:
        gam = float(gamma_at(model, 0.0, 0.0))
        scale = np.power(tau, 1.0 / np.full(1, gam))
    while len(pos):
        lanes_now = len(pos)
        width = _LANES // lanes_now if blocked and next_pos == n else 1
        if top + width > step_cap:
            top = int(k.max())
            if top >= step_cap:
                raise StepBudgetExceeded(f"exceeded {step_cap} steps before reaching the horizon")
            width = min(width, step_cap - top)
        top += width
        # Row j of steps, and row j + 1 of path and clock, is step j + 1 of
        # the pass.
        steps = steps_buf[: width * lanes_now].reshape(width, lanes_now)
        np.add(k, np.arange(1, width + 1, dtype=np.uint64)[:, None], out=steps)
        u_jump, u_wait = keyed_uniforms(keys[None], steps)
        path = path_buf[: (width + 1) * lanes_now].reshape(width + 1, lanes_now)
        path[0] = x
        np.multiply(h_x, kern.sample(x[None], u_jump), out=path[1:])
        _running_sum(path)
        if per_lane:
            gam = gamma_at(model, s, path[:-1])
            scale = np.power(tau, 1.0 / gam)
        clock = clock_buf[: (width + 1) * lanes_now].reshape(width + 1, lanes_now)
        clock[0] = s
        np.multiply(scale, law.sample(gam, u_wait), out=clock[1:])
        _running_sum(clock)
        # Views of the last rows: the next pass copies them to row 0 before
        # it writes any other row.
        x, s = path[-1], clock[-1]
        k += width
        done = ends(pos, steps, path[1:], clock[1:])
        lanes = done.any(axis=0).nonzero()[0]
        if not len(lanes):
            continue
        rows = done[:, lanes].argmax(axis=0)
        out_x[pos[lanes]] = path[rows + 1, lanes]
        out_k[pos[lanes]] = steps[rows, lanes]
        fresh = lanes[: n - next_pos]
        if len(fresh):
            pos[fresh] = np.arange(next_pos, next_pos + len(fresh))
            next_pos += len(fresh)
            lane_ids[fresh] = ids[pos[fresh]]
            keys[fresh] = lane_keys(seed, lane_ids[fresh])
            x[fresh] = x_start
            s[fresh] = s0
            k[fresh] = 0
        if len(fresh) < len(lanes):
            keep = np.ones(len(pos), dtype=bool)
            keep[lanes[len(fresh):]] = False
            pos, lane_ids, keys, x, s, k = (a[keep] for a in (pos, lane_ids, keys, x, s, k))
    return out_x, out_k


def _running_sum(a):
    """a[j] += a[j - 1] for j = 1, 2, ... in place: the additions of a step
    loop, in its order. Row by row unless rows outnumber columns, since
    accumulate pays per column."""
    if len(a) <= a.shape[1]:
        for j in range(1, len(a)):
            a[j] += a[j - 1]
    else:
        np.add.accumulate(a, axis=0, out=a)


def _run_chunk_to_horizon(model, kern, law, x0, s0, t, tau, seed, ids, step_cap):
    """(final positions, step counts) of trajectories ids run to horizon t."""
    return _advance(model, kern, law, x0, s0, tau, seed, ids,
                    lambda pos, k, x, s: s >= t, step_cap)


def _run_chunk_fixed_steps(model, kern, law, x0, s0, tau, seed, ids, step_counts):
    """{count: (x, s) at that step} for trajectories ids, ordered like ids.
    Every lane starts together and ends at the last count, so refills restart
    the whole vector and all lanes are always on the same step: row j of a
    pass is one step count."""
    targets = sorted({int(c) for c in step_counts})
    snaps = {c: (np.empty(len(ids)), np.empty(len(ids))) for c in targets}
    last = targets[-1]

    def ends(pos, k, x, s):
        first = int(k[0, 0])
        for c in targets:
            if first <= c < first + len(k):
                snaps[c][0][pos] = x[c - first]
                snaps[c][1][pos] = s[c - first]
        return k == last

    _advance(model, kern, law, x0, s0, tau, seed, ids, ends, last)  # no pass runs past last
    return snaps


def _hitting(x0, s0, t, tau, n_traj, seed, model, kern, law, threads):
    if t <= s0:
        raise ValueError("horizon must exceed the initial accumulated time")
    parts = _map_ranges(lambda ids: _run_chunk_to_horizon(
        model, kern, law, x0, s0, t, tau, seed, ids, DEFAULT_STEP_CAP), n_traj, threads)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def estimate_functional(F, x0, s0, t, tau, n_traj, seed, *, model, kernel_family, law,
                        threads: int = 1) -> MCEstimate:
    """Monte Carlo mean of F over the time-changed walk at horizon t.

    Deterministic in (seed, config): trajectory i always uses stream
    (seed, i), F is summed over fixed _CHUNK-id blocks, and the blocks are
    combined in block order regardless of threads. Raises
    NonFiniteFunctional if F is not finite on some trajectory.
    """
    if n_traj < 100:
        raise ValueError("n_traj must be at least 100")
    xs, _ = _hitting(x0, s0, t, tau, n_traj, seed, model, kernel_family, law, threads)
    sums, sums_sq = [], []
    for lo in range(0, n_traj, _CHUNK):
        hi = min(lo + _CHUNK, n_traj)
        vals = np.asarray(F(xs[lo:hi]), dtype=float)
        if vals.shape != (hi - lo,):
            vals = np.broadcast_to(vals, (hi - lo,)).astype(float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteFunctional("the functional is not finite on some trajectory")
        sums.append(float(np.sum(vals)))
        sums_sq.append(float(np.sum(vals * vals)))
    mean = math.fsum(sums) / n_traj
    var = max(math.fsum(sums_sq) / n_traj - mean * mean, 0.0) * n_traj / max(n_traj - 1, 1)
    return MCEstimate(mean=mean, std_error=math.sqrt(var / n_traj), n_traj=n_traj)


def sample_hitting(x0, s0, t, tau, n_traj, seed, *, model, kernel_family, law,
                   threads: int = 1):
    """Raw ensemble results: final positions and hitting step times."""
    xs, ks = _hitting(x0, s0, t, tau, n_traj, seed, model, kernel_family, law, threads)
    return xs, ks * tau


def sample_chain_at_steps(x0, s0, tau, step_counts, n_traj, seed, *, model, kernel_family,
                          law, threads: int = 1):
    """Ensemble snapshots of (position, accumulated time) at fixed step counts.

    Returns {step_count: (x array, s array)} with trajectories in index order.
    """
    if min(int(c) for c in step_counts) < 1:
        raise ValueError("every step count must be at least 1")
    parts = _map_ranges(lambda ids: _run_chunk_fixed_steps(
        model, kernel_family, law, x0, s0, tau, seed, ids, step_counts), n_traj, threads)
    return {c: (np.concatenate([p[c][0] for p in parts]),
                np.concatenate([p[c][1] for p in parts])) for c in parts[0]}


def dump_trajectories(path, x0, s0, t, tau, n_traj, seed, *, model, kernel_family,
                      law) -> None:
    """Write the first n_traj trajectories as CSV rows (traj, step, x, s),
    replaying the exact streams the estimators consume."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj", "step", "x", "s"])

        def record(pos, k, x, s):
            done = s >= t
            rows = done[:, 0].argmax() + 1 if done.any() else len(k)
            writer.writerows([i, int(k[j, 0]), repr(float(x[j, 0])), repr(float(s[j, 0]))]
                             for j in range(rows))
            return done

        for i in range(n_traj):
            writer.writerow([i, 0, repr(float(x0)), repr(float(s0))])
            _advance(model, kernel_family, law, x0, s0, tau, seed,
                     np.asarray([i], dtype=np.uint64), record, DEFAULT_STEP_CAP)


def empirical_transition_density(x0, s0, tau, u_grid, y_edges, v_edges, n_traj, seed, *,
                                 model, kernel_family, law, threads: int = 1) -> DensityGrid:
    """Histogram estimate of the pair law at the elapsed times in u_grid.

    Each u must give at least 100 chain steps at resolution tau. Positions
    are clipped into the y range so every slice keeps total mass 1.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    steps = np.round(u_grid / tau).astype(int)
    if np.any(steps < 100):
        raise ValueError("each u must give at least 100 steps at this tau")
    y_edges = np.asarray(y_edges, dtype=float)
    v_edges = np.asarray(v_edges, dtype=float)
    snaps = sample_chain_at_steps(
        x0, s0, tau, steps, n_traj, seed,
        model=model, kernel_family=kernel_family, law=law, threads=threads,
    )
    tiny = 1e-9 * (y_edges[-1] - y_edges[0])
    counts = np.empty((len(u_grid), len(y_edges) - 1, len(v_edges) - 1), dtype=np.int64)
    for i, k in enumerate(steps):
        xs, ss = snaps[int(k)]
        xs = np.clip(xs, y_edges[0] + tiny, y_edges[-1] - tiny)
        ss = np.clip(ss, v_edges[0], np.nextafter(v_edges[-1], -np.inf))
        hist, _, _ = np.histogram2d(xs, ss, bins=[y_edges, v_edges])
        counts[i] = hist.astype(np.int64)
    return DensityGrid(u_values=u_grid, y_edges=y_edges, v_edges=v_edges,
                       masses=counts / float(n_traj), n_traj=n_traj)
