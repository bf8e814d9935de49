import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfrac import waiting
from varfrac.errors import InvalidTailMass


def _survival(law, gamma, t):
    """P(r > t) under law at order gamma: the uniform head below B, and
    t^(-gamma)/gamma beyond it."""
    gamma = np.asarray(gamma, dtype=float)
    t = np.asarray(t, dtype=float)
    tail = np.power(np.maximum(t, law.B), -gamma) / gamma
    head = 1.0 - law.head_height(gamma) * np.maximum(t, 0.0)
    return np.where(t >= law.B, tail, head)


def test_default_threshold_constant_half():
    law = waiting.build_waiting_law(0.5, 0.5)
    assert law.B == pytest.approx(4.0)
    # pure power law: all mass in the tail
    assert float(law.tail_mass(0.5)) == pytest.approx(1.0)
    assert float(law.head_height(0.5)) == pytest.approx(0.0, abs=1e-15)


def test_supplied_threshold_with_head():
    law = waiting.WaitingLaw(B=9.0, gamma_lo=0.5, gamma_hi=0.5)
    # direct integration of r^(-1.5) over [9, inf): 9^(-1/2) / (1/2) = 2/3
    assert float(law.tail_mass(0.5)) == pytest.approx(2.0 / 3.0)
    assert float(law.head_height(0.5)) == pytest.approx(1.0 / 27.0)


def test_bad_exponent_range_rejected():
    with pytest.raises(InvalidTailMass):
        waiting.build_waiting_law(0.0, 0.5)
    with pytest.raises(InvalidTailMass):
        waiting.build_waiting_law(0.5, 1.0)


def test_inverse_cdf_tail_value():
    law = waiting.build_waiting_law(0.5, 0.5)  # B = 4
    # invert the tail survival r^(-gamma)/gamma at u = 0.75
    assert float(law.sample(0.5, 0.75)) == pytest.approx(64.0)


def test_sample_approaches_support_infimum():
    law = waiting.build_waiting_law(0.5, 0.5)  # B = 4
    for u in (1e-12, 1e-9, 1e-6):
        r = float(law.sample(0.5, u))
        assert 4.0 <= r < 4.0 + 1e-4


def test_survival_values():
    law = waiting.build_waiting_law(0.5, 0.5)  # B = 4
    assert float(_survival(law, 0.5, 4.0)) == pytest.approx(1.0)
    assert float(_survival(law, 0.5, 16.0)) == pytest.approx(0.5)
    assert float(_survival(law, 0.5, 0.0)) == pytest.approx(1.0)


def test_normalization_random_exponents():
    law = waiting.build_waiting_law(0.2, 0.6)
    rng = np.random.default_rng(5)
    gammas = rng.uniform(0.2, 0.6, size=100)
    total = law.tail_mass(gammas) + law.head_height(gammas) * law.B
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_tail_density_exact_closed_form():
    # the survival beyond B is exactly r^(-g)/g, the integral of r^(-1-g)
    law = waiting.build_waiting_law(0.3, 0.6)
    rs = np.array([law.B, 2.0 * law.B, 50.0 * law.B])
    for g in (0.3, 0.45, 0.6):
        assert np.array_equal(_survival(law, g, rs), rs ** (-g) / g)


def test_density_below_one_everywhere():
    # the density is the head height on [0, B) and r^(-1-g) <= B^(-1-g) beyond
    law = waiting.build_waiting_law(0.2, 0.6)
    gammas = np.linspace(0.2, 0.6, 401)
    assert law.B > 1.0
    assert np.max(law.head_height(gammas)) <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.21, 0.59),
    u1=st.floats(1e-6, 1.0 - 1e-6),
    u2=st.floats(1e-6, 1.0 - 1e-6),
)
def test_sampler_monotone_in_u(gamma, u1, u2):
    law = waiting.build_waiting_law(0.2, 0.6)
    lo, hi = min(u1, u2), max(u1, u2)
    r_lo = float(law.sample(gamma, lo))
    r_hi = float(law.sample(gamma, hi))
    assert r_lo <= r_hi


def test_empirical_tail_matches_survival():
    # 10^6 stratified-uniform draws against the analytic survival, three
    # binomial standard errors
    law = waiting.build_waiting_law(0.5, 0.5)
    n = 1_000_000
    u = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(11)
    rng.shuffle(u)
    r = law.sample(0.5, u)
    for t in (4.0, 8.0, 64.0):
        p_ana = float(_survival(law, 0.5, t))
        p_emp = float(np.mean(r > t))
        se = math.sqrt(max(p_ana * (1.0 - p_ana), 1e-12) / n)
        assert abs(p_emp - p_ana) <= max(3.0 * se, 2.0 / n)


def _ramp(y):
    return y * np.exp(-y)  # 1-Lipschitz


_LADDER = np.array([0.1, 0.05, 0.025, 0.0125])


def test_rate_constant_and_bound():
    law = waiting.build_waiting_law(0.5, 0.5)
    errors = waiting.rate_errors(law, 0.5, _ramp, _LADDER)
    bounds = waiting.rate_constant(law, 0.5) * _LADDER ** 0.5
    # C_B = B^(1-a)/(1-a) = 4 with empty head, and L = 1
    assert bounds / _LADDER ** 0.5 == pytest.approx(np.full(4, 4.0))
    assert np.all(errors <= bounds)
    assert np.all(np.diff(errors) < 0)


def test_rate_errors_fitted_order_asymptotic():
    for alpha in (0.3, 0.5, 0.7):
        law = waiting.build_waiting_law(alpha, alpha)
        ladder = _LADDER / law.B
        errors = waiting.rate_errors(law, alpha, _ramp, ladder)
        assert np.polyfit(np.log(ladder), np.log(errors), 1)[0] >= (1.0 - alpha) - 0.1


def test_rate_check_requires_matching_exponent():
    law = waiting.build_waiting_law(0.5, 0.5)
    with pytest.raises(ValueError):
        waiting.rate_errors(law, 0.4, _ramp, [0.1])
    with pytest.raises(ValueError):
        waiting.rate_constant(law, 0.4)


def test_discretized_law_shares_the_tail():
    law = waiting.build_waiting_law(0.5, 0.5)
    dlaw = waiting.discretize_waiting_law(law, 0.5, 32, 200.0)
    assert dlaw.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(dlaw.values) > 0)
    # atom values are affine in the index up to the lump
    j = np.arange(len(dlaw.values) - 1)
    assert np.allclose(dlaw.values[:-1], dlaw.offset + dlaw.spacing * j)
    # sampling concentrates where the analytic mass is
    u = (np.arange(100_000) + 0.5) / 100_000
    r = dlaw.sample(0.5, u)
    p_emp = float(np.mean(r >= 100.0))
    p_ana = float(np.sum(dlaw.probs[dlaw.values >= 100.0]))
    assert p_emp == pytest.approx(p_ana, abs=1e-4)


def test_discretized_law_takes_a_scalar_gamma():
    law = waiting.build_waiting_law(0.5, 0.5)
    dlaw = waiting.discretize_waiting_law(law, 0.5, 32, 200.0)
    u = (np.arange(10_000) + 0.5) / 10_000
    assert dlaw.sample(0.5, u).tobytes() == dlaw.sample(np.full(u.shape, 0.5), u).tobytes()
    with pytest.raises(ValueError, match="constant exponent"):
        dlaw.sample(0.4, u)


def _draw_points(head_mass):
    """Uniforms across (0, 1), plus the head mass and its two neighbours."""
    u = (np.arange(20_000) + 0.5) / 20_000
    edge = [np.nextafter(head_mass, 0.0), head_mass, np.nextafter(head_mass, 1.0)]
    return np.concatenate([u, head_mass * u[::100], [e for e in edge if 0.0 < e < 1.0]])


@pytest.mark.parametrize("law_range", [None, (0.3, 0.7)], ids=["own-law", "shared-law"])
def test_scalar_gamma_draws_the_per_lane_bits(law_range):
    # A constant order hands the law one gamma for the whole lane vector; its
    # draws must be those of a per-lane array holding that gamma, with the
    # head branch skipped (zero head mass) or taken. A law built at its own
    # gamma has no head, except for a rounding-sized one at gamma = 0.9.
    gammas = [0.3, 0.37, 0.5, 0.7, 0.9] if law_range is None else np.linspace(0.31, 0.7, 79)
    heads = set()
    for gamma in map(float, gammas):
        law = waiting.build_waiting_law(*(law_range or (gamma, gamma)))
        head_mass = float(1.0 - law.tail_mass(np.full(4, gamma))[0])
        heads.add(head_mass > 0.0)
        u = _draw_points(head_mass).reshape(1, -1)
        per_lane = law.sample(np.full(u.shape, gamma), u)
        assert law.sample(gamma, u).tobytes() == per_lane.tobytes()
        assert law.sample(gamma, u[:, :1]).tobytes() == per_lane[:, :1].tobytes()
    assert heads == ({False, True} if law_range is None else {True})


def test_discretized_law_needs_pure_tail():
    law = waiting.WaitingLaw(B=9.0, gamma_lo=0.5, gamma_hi=0.5)  # has a head
    with pytest.raises(InvalidTailMass):
        waiting.discretize_waiting_law(law, 0.5, 16, 100.0)
