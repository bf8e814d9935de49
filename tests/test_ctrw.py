import hashlib
import math

import numpy as np
import pytest

from varfrac import ctrw, oracles, waiting
from varfrac.errors import NonFiniteFunctional, StepBudgetExceeded
from varfrac.kernels import kernel_family
from varfrac.model import make_model

from conftest import CONSTANT_ORDER, STABLE_HALF, VARIABLE_ORDER
from scalar_chain import ChainState, TrajectoryStream, replay_to_horizon, step_chain


STABLE_TRIG = dict(STABLE_HALF, spatial={
    "kind": "stable1d", "beta": 0.5,
    "m": {"kind": "trig", "base": 0.5, "amp": 0.25, "freq_x": 1.0},
    "m_lo": 0.25, "m_hi": 0.75,
})
DIFFUSION_2D = {
    "alpha": 0.5,
    "order_field": {"kind": "constant", "value": 1.0},
    "a_lo": 1.0, "a_hi": 1.0,
    "spatial": {"kind": "diffusion", "g_matrix": [[1.0, 0.5], [0.5, 1.0]],
                "g_lo": 0.4, "g_hi": 1.6},
    "dim": 2,
}


@pytest.fixture(scope="module")
def const_setup(const_model):
    law = waiting.build_waiting_law(0.5, 0.5)
    fam = kernel_family(const_model)
    return const_model, fam, law


def _one_lane(x0, t, tau, model, fam, law, seed, traj, step_cap=ctrw.DEFAULT_STEP_CAP):
    """(position, hitting time, step count) of trajectory traj run alone."""
    xs, ks = ctrw._run_chunk_to_horizon(model, fam, law, x0, 0.0, t, tau, seed,
                                        np.asarray([traj], dtype=np.uint64), step_cap)
    return xs[0], int(ks[0]) * tau, int(ks[0])


def test_step_chain_spatial_increment(const_setup):
    model, fam, law = const_setup
    state = ChainState(x=np.array([0.0]), s=0.0)
    nxt = step_chain(state, 0.01, model, fam, law, u_jump=0.7, u_wait=0.3)
    assert abs(nxt.x[0]) == pytest.approx(0.1)  # tau^(1/2) * (+-1)
    assert nxt.k == 1


def test_step_chain_temporal_increment(const_setup):
    model, fam, law = const_setup
    state = ChainState(x=np.array([0.0]), s=0.25)
    u_wait = 0.6
    nxt = step_chain(state, 0.01, model, fam, law, u_jump=0.2, u_wait=u_wait)
    r = float(law.sample(0.5, u_wait))
    assert nxt.s == pytest.approx(0.25 + 0.01**2 * r)


def test_accumulated_time_strictly_increases(const_setup):
    model, fam, law = const_setup
    state = ChainState(x=np.array([0.0]), s=0.0)
    st = TrajectoryStream(seed=5, traj_index=0)
    for _ in range(50):
        uj, uw = st.next_pair()
        nxt = step_chain(state, 0.01, model, fam, law, uj, uw)
        assert nxt.s > state.s
        state = nxt


def test_run_to_horizon_returns_crossing_state(const_setup):
    model, fam, law = const_setup
    x, T, k = _one_lane(0.0, 1.0, 0.05, model, fam, law, seed=7, traj=3)
    assert T == pytest.approx(k * 0.05)
    assert k >= 1
    # replay: the state at step k-1 is still below the horizon
    st = TrajectoryStream(seed=7, traj_index=3)
    state = ChainState(x=np.array([0.0]), s=0.0)
    for _ in range(k - 1):
        uj, uw = st.next_pair()
        state = step_chain(state, 0.05, model, fam, law, uj, uw)
    assert state.s < 1.0
    uj, uw = st.next_pair()
    state = step_chain(state, 0.05, model, fam, law, uj, uw)
    assert state.s >= 1.0
    assert state.x[0] == x


def test_hitting_time_monotone_in_horizon(const_setup):
    model, fam, law = const_setup
    for idx in range(10):
        _, t1, _ = _one_lane(0.0, 0.5, 0.05, model, fam, law, seed=11, traj=idx)
        _, t2, _ = _one_lane(0.0, 1.5, 0.05, model, fam, law, seed=11, traj=idx)
        assert t1 <= t2


def test_step_budget_enforced(const_setup):
    model, fam, law = const_setup
    with pytest.raises(StepBudgetExceeded):
        _one_lane(0.0, 1.0, 1e-4, model, fam, law, seed=1, traj=0, step_cap=3)


def test_scalar_and_vector_paths_agree_bitwise(const_setup):
    model, fam, law = const_setup
    xs, Ts = ctrw.sample_hitting(0.0, 0.0, 1.0, 0.01, 256, 42,
                                 model=model, kernel_family=fam, law=law)
    for i in (0, 17, 101, 255):
        x, T, _ = _one_lane(0.0, 1.0, 0.01, model, fam, law, seed=42, traj=i)
        assert xs[i] == x
        assert Ts[i] == T


def test_estimator_constant_functional(const_setup):
    model, fam, law = const_setup
    est = ctrw.estimate_functional(lambda x: np.ones_like(x), 0.0, 0.0, 1.0, 0.05,
                                   500, 9, model=model, kernel_family=fam, law=law)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_estimator_odd_functional_symmetric(const_setup):
    model, fam, law = const_setup
    est = ctrw.estimate_functional(np.sin, 0.0, 0.0, 1.0, 0.01, 20_000, 13,
                                   model=model, kernel_family=fam, law=law, threads=2)
    assert abs(est.mean) <= max(3.0 * est.std_error, 1e-3)


def test_estimator_bounded_by_sup(const_setup):
    model, fam, law = const_setup
    est = ctrw.estimate_functional(np.cos, 0.3, 0.0, 1.0, 0.02, 2_000, 21,
                                   model=model, kernel_family=fam, law=law)
    assert abs(est.mean) <= 1.0


def test_estimator_requires_enough_trajectories(const_setup):
    model, fam, law = const_setup
    with pytest.raises(ValueError):
        ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 0.05, 50, 1,
                                 model=model, kernel_family=fam, law=law)


@pytest.mark.parametrize("t", [0.5, 0.2])
def test_horizon_must_exceed_start_time(const_setup, t):
    # with t <= s0 every trajectory would end on its first step
    model, fam, law = const_setup
    kw = dict(model=model, kernel_family=fam, law=law)
    with pytest.raises(ValueError, match="horizon must exceed"):
        ctrw.estimate_functional(np.cos, 0.0, 0.5, t, 0.05, 200, 1, **kw)
    with pytest.raises(ValueError, match="horizon must exceed"):
        ctrw.sample_hitting(0.0, 0.5, t, 0.05, 200, 1, **kw)


def test_estimator_thread_count_invariance(const_setup):
    model, fam, law = const_setup
    kw = dict(model=model, kernel_family=fam, law=law)
    e1 = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 5e-3, 10_000, 77, threads=1, **kw)
    e3 = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 5e-3, 10_000, 77, threads=3, **kw)
    assert e1 == e3


def test_weak_convergence_toward_reference(const_setup):
    model, fam, law = const_setup
    oracle = oracles.constant_order_solution(0.5, 1.0, 1.0, 1.0)
    kw = dict(model=model, kernel_family=fam, law=law, threads=4)
    gaps = []
    for tau in (1e-1, 1e-2, 1e-3):
        est = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, tau, 40_000, 2025, **kw)
        gaps.append((abs(est.mean - oracle), est.std_error))
    assert gaps[2][0] < gaps[0][0]
    assert gaps[2][0] <= gaps[1][0] + 3.0 * (gaps[1][1] + gaps[2][1])


def test_step_count_scaling_trend(const_setup):
    # mean steps to the horizon grow like 1/tau and like t^gamma
    model, fam, law = const_setup
    kw = dict(model=model, kernel_family=fam, law=law, threads=2)

    def mean_steps(t, tau):
        _, Ts = ctrw.sample_hitting(0.0, 0.0, t, tau, 4_000, 55, **kw)
        return float(np.mean(Ts / tau))

    n1 = mean_steps(1.0, 1e-2)
    n2 = mean_steps(1.0, 1e-3)
    assert n2 / n1 == pytest.approx(10.0, rel=0.15)
    n4 = mean_steps(4.0, 1e-2)
    assert n4 / n1 == pytest.approx(4.0**0.5, rel=0.15)


def test_density_grid_masses_and_support(const_setup):
    model, fam, law = const_setup
    y_edges = np.linspace(-6.0, 6.0, 25)
    v_edges = np.concatenate([np.linspace(0.0, 1.0, 21), [np.inf]])
    G = ctrw.empirical_transition_density(0.0, 0.0, 1e-3, [0.2, 0.5], y_edges, v_edges,
                                          5_000, 3, model=model, kernel_family=fam,
                                          law=law, threads=2)
    sums = G.masses.sum(axis=(1, 2))
    assert np.array_equal(sums, np.ones_like(sums))  # exactly 1 per slice
    # the accumulated coordinate starts at 0 and only increases
    assert G.masses[:, :, 0].sum() >= 0.0
    assert G.counts.sum() == 2 * 5_000


def test_density_grid_requires_enough_steps(const_setup):
    model, fam, law = const_setup
    with pytest.raises(ValueError):
        ctrw.empirical_transition_density(0.0, 0.0, 1e-2, [0.5], np.linspace(-1, 1, 5),
                                          np.array([0.0, 1.0, np.inf]), 500, 3,
                                          model=model, kernel_family=fam, law=law)


def test_s_marginal_against_inverted_cdf(const_setup):
    # moderate-size version of the marginal-law check
    model, fam, law = const_setup
    snaps = ctrw.sample_chain_at_steps(0.0, 0.0, 1e-3, [1000], 20_000, 99,
                                       model=model, kernel_family=fam, law=law, threads=4)
    _, ss = snaps[1000]
    ss = np.sort(ss)
    cdf = oracles.subordinator_cdf(0.5, 1.0, ss)
    n = len(ss)
    idx = np.arange(1, n + 1)
    ks = max(float(np.max(np.abs(cdf - idx / n))), float(np.max(np.abs(cdf - (idx - 1) / n))))
    assert ks <= 0.02


def test_variable_order_chain_runs(varorder_model):
    law = waiting.build_waiting_law(varorder_model.gamma_lo, varorder_model.gamma_hi)
    fam = kernel_family(varorder_model)
    est = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 1e-2, 2_000, 4,
                                   model=varorder_model, kernel_family=fam, law=law)
    assert np.isfinite(est.mean)
    assert abs(est.mean) <= 1.0


def test_two_dimensional_chain_steps():
    model = make_model(DIFFUSION_2D)
    fam = kernel_family(model)
    law = waiting.build_waiting_law(0.5, 0.5)
    state = ChainState(x=np.array([0.0, 0.0]), s=0.0)
    st = TrajectoryStream(seed=2, traj_index=0)
    for _ in range(20):
        uj, uw = st.next_pair()
        state = step_chain(state, 0.01, model, fam, law, uj, uw)
    assert state.x.shape == (2,)
    assert state.s > 0.0
    x, T, k = _one_lane(np.zeros(2), 0.5, 0.02, model, fam, law, seed=3, traj=1)
    assert x.shape == (2,)
    assert T == pytest.approx(k * 0.02)


# Golden digests of the chain's output bytes for the variable-order model,
# recorded before the lane-refill kernel replaced the per-chunk loops. 40,000
# trajectories fill more than two lane widths and end in a ragged id block,
# so these pin every bit across lane width, refill and thread count.
_HITTING_SHA256 = "eaf2d2506d688685ba33c1b5e2ad2ce1e9ce0730e2bd78e7df86e9ba8273448a"
_SNAPSHOT_SHA256 = "4a65a0bdce9f611ad2408547746443804bd36664ec801b6224e3f14c41c66420"
_ESTIMATE_HEX = ("0x1.d06ce9c312c19p-1", "0x1.7fb01423b33ffp-11")
_DUMP_SHA256 = "af198e4b87ea6c025f7818d9e1e40508ff89536e0e007412f9c611ba8f0a41e8"


@pytest.fixture(scope="module")
def varorder_setup(varorder_model):
    law = waiting.build_waiting_law(varorder_model.gamma_lo, varorder_model.gamma_hi)
    return dict(model=varorder_model, kernel_family=kernel_family(varorder_model), law=law)


@pytest.mark.parametrize("threads", [1, 2])
def test_hitting_golden_digest(varorder_setup, threads):
    xs, Ts = ctrw.sample_hitting(0.0, 0.0, 1.0, 1e-2, 40_000, 8, threads=threads,
                                 **varorder_setup)
    assert hashlib.sha256(xs.tobytes() + Ts.tobytes()).hexdigest() == _HITTING_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_snapshot_golden_digest(varorder_setup, threads):
    snaps = ctrw.sample_chain_at_steps(0.3, 0.0, 1e-2, [60, 7, 25], 40_000, 8,
                                       threads=threads, **varorder_setup)
    digest = hashlib.sha256()
    for k in sorted(snaps):
        digest.update(snaps[k][0].tobytes())
        digest.update(snaps[k][1].tobytes())
    assert digest.hexdigest() == _SNAPSHOT_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_estimate_golden_bits(varorder_setup, threads):
    est = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 1e-2, 40_000, 8, threads=threads,
                                   **varorder_setup)
    assert (est.mean.hex(), est.std_error.hex()) == _ESTIMATE_HEX


def test_dump_golden_digest(varorder_setup, tmp_path):
    path = tmp_path / "trajectories.csv"
    ctrw.dump_trajectories(path, 0.0, 0.0, 1.0, 1e-2, 5, 8, **varorder_setup)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _DUMP_SHA256


def test_step_chain_replay_matches_ensemble(varorder_setup):
    # step_chain is the scalar transition, written apart from the kernel;
    # replaying it must give the ensemble's bits for refilled lanes too.
    kw = varorder_setup
    xs, Ts = ctrw.sample_hitting(0.0, 0.0, 1.0, 1e-2, 20_000, 8, **kw)
    for i in (0, 16_383, 16_384, 19_999):
        state = replay_to_horizon(i, 0.0, 1.0, 1e-2, 8, **kw)
        assert state.x[0] == xs[i]
        assert state.k * 1e-2 == Ts[i]


def test_narrow_call_replay_matches_last_lanes(varorder_setup):
    # Fewer ids than lanes: no refill, and the vector shrinks as trajectories
    # end, so the longest runs finish on lanes whose neighbours have dropped.
    kw = varorder_setup
    xs, Ts = ctrw.sample_hitting(0.0, 0.0, 1.0, 1e-2, 1_000, 8, **kw)
    assert 1_000 < ctrw._LANES
    for i in np.argsort(Ts, kind="stable")[-3:]:
        state = replay_to_horizon(int(i), 0.0, 1.0, 1e-2, 8, **kw)
        assert state.x[0] == xs[i]
        assert state.k * 1e-2 == Ts[i]


# The drain of a narrow call at fine tau, as in the variable-order preset's
# ladder: 300 ids never refill, so every pass runs many steps per lane.
# Recorded before a pass could take more than one step.
_DRAIN_SHA256 = "f05ead215028b8b293782c5770759325420682fbd8f47f82adc0807e53d83412"


def _counting_passes(monkeypatch):
    """A list that grows by one per chain pass (one stream draw each)."""
    passes = []
    draw = ctrw.keyed_uniforms

    def counted(keys, steps, *args):
        passes.append(np.shape(steps)[0])
        return draw(keys, steps, *args)

    monkeypatch.setattr(ctrw, "keyed_uniforms", counted)
    return passes


@pytest.mark.parametrize("threads", [1, 2])
def test_drain_golden_digest(varorder_setup, threads):
    xs, Ts = ctrw.sample_hitting(2.0, 0.0, 1.0, 1e-4, 300, 8, threads=threads,
                                 **varorder_setup)
    assert hashlib.sha256(xs.tobytes() + Ts.tobytes()).hexdigest() == _DRAIN_SHA256


def test_drain_replay_matches_longest(varorder_setup, monkeypatch):
    passes = _counting_passes(monkeypatch)
    xs, Ts = ctrw.sample_hitting(2.0, 0.0, 1.0, 1e-4, 300, 8, **varorder_setup)
    steps = np.round(Ts / 1e-4).astype(np.int64)
    assert len(passes) < steps.max() // 10  # most passes take many steps
    for i in np.argsort(steps, kind="stable")[-3:]:
        state = replay_to_horizon(int(i), 2.0, 1.0, 1e-4, 8, **varorder_setup)
        assert state.x[0] == xs[i]
        assert state.k == steps[i]


_TIME_DEPENDENT_ORDER = dict(VARIABLE_ORDER, order_field=dict(VARIABLE_ORDER["order_field"],
                                                              freq_t=2.0))
_AFFINE_G = dict(VARIABLE_ORDER, spatial={
    "kind": "diffusion", "g": {"kind": "affine", "c0": 1.0, "cx": 0.25},
    "g_lo": 0.2, "g_hi": 1.8,
})


@pytest.mark.parametrize("cfg", [_TIME_DEPENDENT_ORDER, _AFFINE_G],
                         ids=["time-dependent-order", "affine-g"])
def test_one_step_pass_replay_matches_longest(cfg, monkeypatch):
    # A step reads the time or the position the step before wrote, so each
    # pass takes one step.
    model = make_model(cfg)
    kw = dict(model=model, kernel_family=kernel_family(model),
              law=waiting.build_waiting_law(model.gamma_lo, model.gamma_hi))
    passes = _counting_passes(monkeypatch)
    xs, Ts = ctrw.sample_hitting(2.0, 0.0, 1.0, 1e-3, 300, 8, **kw)
    steps = np.round(Ts / 1e-3).astype(np.int64)
    assert set(passes) == {1} and len(passes) == steps.max()
    for i in np.argsort(steps, kind="stable")[-3:]:
        state = replay_to_horizon(int(i), 2.0, 1.0, 1e-3, 8, **kw)
        assert state.x[0] == xs[i]
        assert state.k == steps[i]


# Digests of chain paths the variable-order digests above do not reach,
# recorded before the lane-key draw and the constant-coefficient kernels.
# 40,000 ids refill the lane vector at one and at two threads.
_PATH_SHA256 = {
    "constant-order": "03a99ef18dd8df64a7a2df7823d9651679b66daac5fca7f8b10ca90060f6fbdc",
    "stable-constant-m": "50d2e4f9878e318fd6e22e621c48615014a4595a6a9c3c87892fc76c5eecd54f",
    "stable-trig-m": "415bed9802493443527829870385bbab37a3c4f2c300e3d112ecb1e9a9233e41",
    "diffusion-2d": "3ca6b9b2dc842428048470b626474abbfa5a8fd84e0554a820116fcacbb6027b",
}
_PATH_CONFIGS = {
    "constant-order": (CONSTANT_ORDER, 0.0),
    "stable-constant-m": (STABLE_HALF, 0.0),
    "stable-trig-m": (STABLE_TRIG, 0.0),
    "diffusion-2d": (DIFFUSION_2D, np.zeros(2)),
}


def _hitting_bytes(cfg, x0, n_traj=40_000, threads=1):
    model = make_model(cfg)
    law = waiting.build_waiting_law(model.gamma_lo, model.gamma_hi)
    xs, Ts = ctrw.sample_hitting(x0, 0.0, 1.0, 1e-2, n_traj, 8, model=model,
                                 kernel_family=kernel_family(model), law=law, threads=threads)
    return xs.tobytes() + Ts.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("path", sorted(_PATH_SHA256))
def test_chain_path_golden_digest(path, threads):
    cfg, x0 = _PATH_CONFIGS[path]
    digest = hashlib.sha256(_hitting_bytes(cfg, x0, threads=threads)).hexdigest()
    assert digest == _PATH_SHA256[path]


@pytest.mark.parametrize("cfg, coef", [(CONSTANT_ORDER, "g"), (STABLE_HALF, "m")])
def test_constant_coefficient_matches_field_path(cfg, coef):
    # An affine field with only c0 set is evaluated at every step; the
    # constant kind may be read once. Both must give the same bytes.
    value = cfg["spatial"][coef]["value"]
    affine = dict(cfg, spatial=dict(cfg["spatial"], **{coef: {"kind": "affine", "c0": value}}))
    assert _hitting_bytes(affine, 0.0, 20_000) == _hitting_bytes(cfg, 0.0, 20_000)


@pytest.mark.parametrize("threads", [0, -3])
def test_chain_entry_points_reject_threads_below_one(const_setup, threads):
    model, fam, law = const_setup
    kw = dict(model=model, kernel_family=fam, law=law, threads=threads)
    calls = [
        lambda: ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 0.05, 200, 1, **kw),
        lambda: ctrw.sample_hitting(0.0, 0.0, 1.0, 0.05, 200, 1, **kw),
        lambda: ctrw.sample_chain_at_steps(0.0, 0.0, 0.05, [5], 200, 1, **kw),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="threads must be at least 1"):
            call()


def test_step_budget_enforced_per_lane(const_setup):
    model, fam, law = const_setup
    kw = dict(model=model, kernel_family=fam, law=law)
    _, Ts = ctrw.sample_hitting(0.0, 0.0, 1.0, 0.05, 300, 4, **kw)
    most = int(np.max(np.round(Ts / 0.05)))
    ctrw.sample_hitting(0.0, 0.0, 1.0, 0.05, 300, 4, step_cap=most, **kw)
    with pytest.raises(StepBudgetExceeded):
        ctrw.sample_hitting(0.0, 0.0, 1.0, 0.05, 300, 4, step_cap=most - 1, **kw)


def test_step_budget_enforced_inside_a_block(varorder_setup):
    # 300 ids drain to one lane, so the longest trajectory ends inside a pass
    # of thousands of steps; the cap must still count single steps.
    kw = varorder_setup
    _, Ts = ctrw.sample_hitting(2.0, 0.0, 1.0, 1e-3, 300, 8, **kw)
    most = int(np.max(np.round(Ts / 1e-3)))
    ctrw.sample_hitting(2.0, 0.0, 1.0, 1e-3, 300, 8, step_cap=most, **kw)
    with pytest.raises(StepBudgetExceeded):
        ctrw.sample_hitting(2.0, 0.0, 1.0, 1e-3, 300, 8, step_cap=most - 1, **kw)


def test_estimator_rejects_non_finite_functional(const_setup):
    model, fam, law = const_setup
    with pytest.raises(NonFiniteFunctional), np.errstate(divide="ignore", invalid="ignore"):
        ctrw.estimate_functional(lambda x: x / 0.0, 0.0, 0.0, 1.0, 0.05, 500, 9,
                                 model=model, kernel_family=fam, law=law)


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf])
def test_chain_entry_points_reject_bad_tau(const_setup, tmp_path, tau):
    # tau = 0 never advances the accumulated time, so the chain never ends
    model, fam, law = const_setup
    kw = dict(model=model, kernel_family=fam, law=law)
    calls = [
        lambda: ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, tau, 200, 1, **kw),
        lambda: ctrw.sample_hitting(0.0, 0.0, 1.0, tau, 200, 1, **kw),
        lambda: _one_lane(0.0, 1.0, tau, model, fam, law, seed=1, traj=0),
        lambda: ctrw.dump_trajectories(tmp_path / "t.csv", 0.0, 0.0, 1.0, tau, 2, 1, **kw),
        lambda: ctrw.sample_chain_at_steps(0.0, 0.0, tau, [5], 200, 1, **kw),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tau must be a finite number > 0"):
            call()


@pytest.mark.parametrize("steps", [[0], [5, -1]])
def test_fixed_steps_reject_step_count_below_one(const_setup, steps):
    # no lane ever reaches step 0, so the fixed-step run would never end
    model, fam, law = const_setup
    with pytest.raises(ValueError, match="at least 1"):
        ctrw.sample_chain_at_steps(0.0, 0.0, 0.01, steps, 200, 1,
                                   model=model, kernel_family=fam, law=law)


# Digests of the constant-order pass, recorded before the pass fixed gamma
# and the waiting scale once per call. "head-mass" runs gamma = 0.5 under a
# law built for [0.3, 0.7], so the head branch of the waiting draw still
# runs; its tau = 0.05 makes the scale tau^(1/gamma) a square.
_CONSTANT_ORDER_CASES = {
    "alpha-0.3": (dict(CONSTANT_ORDER, alpha=0.3), None, 1e-2),
    "alpha-0.8": (dict(CONSTANT_ORDER, alpha=0.8), None, 1e-2),
    "head-mass": (CONSTANT_ORDER, (0.3, 0.7), 0.05),
}
_CONSTANT_ORDER_SHA256 = {
    ("alpha-0.3", "hitting"):
        "72e83ed958069f6b65ac989f5a84f6e300dcd0d6be05f2af6896b96d88238ee8",
    ("alpha-0.3", "snapshot"):
        "d6995544c1b74857f95f54a37d2b6f6ab62d0db80d980c93f4b00fe912d82994",
    ("alpha-0.8", "hitting"):
        "75dd0d952e99344f4c690c35306f5bd51bb9bf6a70b3050a63f08a6fd6751e2e",
    ("alpha-0.8", "snapshot"):
        "63d56bb8090b40e20e3e93151660797f7761e4e86b05e2a266d31d89ed8f6c68",
    ("head-mass", "hitting"):
        "c2cb8812841a71cd361d1a0c1527fc7d0cb30487d1a069389fc39649e7475fbb",
    ("head-mass", "snapshot"):
        "43703a36c47d63991e3903d61e7dac1afcc2e6b823a2fcea32ed9a2806ec64ec",
}


def _constant_order_bytes(case, entry, threads):
    cfg, law_range, tau = _CONSTANT_ORDER_CASES[case]
    model = make_model(cfg)
    law = waiting.build_waiting_law(*(law_range or (model.gamma_lo, model.gamma_hi)))
    kw = dict(model=model, kernel_family=kernel_family(model), law=law, threads=threads)
    if entry == "hitting":
        xs, Ts = ctrw.sample_hitting(0.0, 0.0, 1.0, tau, 40_000, 8, **kw)
        return xs.tobytes() + Ts.tobytes()
    snaps = ctrw.sample_chain_at_steps(0.3, 0.0, tau, [60, 7, 25], 40_000, 8, **kw)
    return b"".join(snaps[k][0].tobytes() + snaps[k][1].tobytes() for k in sorted(snaps))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case, entry", sorted(_CONSTANT_ORDER_SHA256))
def test_constant_order_golden_digest(case, entry, threads):
    digest = hashlib.sha256(_constant_order_bytes(case, entry, threads)).hexdigest()
    assert digest == _CONSTANT_ORDER_SHA256[case, entry]
