import warnings

import numpy as np

from varfrac.streams import TrajectoryStream, uniforms


def test_deterministic_and_shaped():
    a = uniforms(42, np.arange(100), 7, 0)
    b = uniforms(42, np.arange(100), 7, 0)
    assert np.array_equal(a, b)
    assert a.shape == (100,)


def test_strictly_inside_unit_interval():
    u = uniforms(0, np.arange(1_000_000), 1, 0)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_inputs_all_matter():
    base = uniforms(1, np.arange(64), 5, 0)
    assert not np.array_equal(base, uniforms(2, np.arange(64), 5, 0))
    assert not np.array_equal(base, uniforms(1, np.arange(64), 6, 0))
    assert not np.array_equal(base, uniforms(1, np.arange(64), 5, 1))
    assert not np.array_equal(base, uniforms(1, np.arange(1, 65), 5, 0))


def test_moments_and_correlation_smoke():
    n = 400_000
    u1 = uniforms(9, np.arange(n), 1, 0)
    u2 = uniforms(9, np.arange(n), 2, 0)
    assert abs(u1.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)
    assert abs(u1.var() - 1.0 / 12.0) < 5e-4
    assert abs(np.corrcoef(u1, u2)[0, 1]) < 4.0 / np.sqrt(n)


def test_trajectory_stream_matches_vectorized():
    st = TrajectoryStream(seed=123, traj_index=17)
    pairs = [st.next_pair() for _ in range(5)]
    for k, (uj, uw) in enumerate(pairs, start=1):
        assert uj == uniforms(123, np.array([17]), k, 0)[0]
        assert uw == uniforms(123, np.array([17]), k, 1)[0]


def test_per_lane_steps_match_scalar_step():
    traj = np.arange(1000)
    steps = traj % 7 + 1
    steps[-1] = 2**40  # large steps wrap the same way in both forms
    u = uniforms(3, traj, steps, 1)
    for k in np.unique(steps):
        lanes = steps == k
        assert np.array_equal(u[lanes], uniforms(3, traj[lanes], int(k), 1))


def test_scalar_index_takes_the_array_path():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = uniforms(1, 5, 1, 0)
        steps = uniforms(1, 5, 2**40, 3)
    assert np.shape(u) == () and np.shape(steps) == ()
    assert u == uniforms(1, np.array([5]), 1, 0)[0]
    assert steps == uniforms(1, np.array([5]), 2**40, 3)[0]
