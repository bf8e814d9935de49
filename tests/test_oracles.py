import hashlib
import math

import numpy as np
import pytest
from scipy.special import erfc, erfcinv, erfcx

from varfrac import oracles
from varfrac.errors import AccuracyLoss, InversionFailure

# Frozen reference constants, each computed from a closed form independent of
# the code paths under test.
E_HALF_AT_MINUS_ONE = 0.4275835761558070  # e * erfc(1)
AMPLITUDE_HALF = 0.8588108850325575  # erfcx(0.25 / sqrt(pi))
MEDIAN_S1_HALF = 13.8111282980922  # (sqrt(pi) / erfcinv(1/2))^2


def test_ml_at_zero_is_one():
    for g in (0.2, 0.5, 0.8, 1.0):
        assert oracles.mittag_leffler(g, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_ml_order_one_is_exp():
    assert oracles.mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_ml_half_identity():
    # E_{1/2}(-x) = exp(x^2) erfc(x) = erfcx(x)
    assert oracles.mittag_leffler(0.5, -1.0) == pytest.approx(E_HALF_AT_MINUS_ONE, rel=1e-9)
    for x in (0.05, 0.7, 2.0, 4.8, 5.2, 12.0, 33.0, 50.0):
        assert oracles.mittag_leffler(0.5, -x) == pytest.approx(float(erfcx(x)), rel=1e-8)


def test_ml_series_integral_consistency():
    # overlap region where the series is provably cancellation-free
    for g in (0.15, 0.3, 0.55, 0.8, 0.95):
        for z in (-0.3, -0.8, -1.2):
            s, ok = oracles._ml_series(g, z)
            assert ok
            assert oracles._ml_integral(g, z) == pytest.approx(s, rel=1e-9)


def test_ml_decreasing_in_argument():
    for g in (0.3, 0.6, 0.9):
        vals = [oracles.mittag_leffler(g, -x) for x in np.linspace(0.0, 40.0, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)


def test_ml_envelope_enforced():
    with pytest.raises(AccuracyLoss):
        oracles.mittag_leffler(0.5, -51.0)
    with pytest.raises(AccuracyLoss):
        oracles.mittag_leffler(0.5, 0.5)
    with pytest.raises(AccuracyLoss):
        oracles.mittag_leffler(1.2, -1.0)
    with pytest.raises(AccuracyLoss):
        oracles.mittag_leffler(0.99, -40.0)  # unreachable corner: near 1, large z


def test_constant_order_solution_terminal_and_dc():
    assert oracles.constant_order_solution(0.5, 1.0, 0.0, 1.0) == 1.0
    assert oracles.constant_order_solution(0.5, 0.0, 3.0, 1.0) == 1.0


def test_constant_order_solution_frozen_value():
    val = oracles.constant_order_solution(0.5, 1.0, 1.0, 1.0)
    assert val == pytest.approx(AMPLITUDE_HALF, rel=1e-8)


def test_constant_order_solution_matches_formula_at_high_order():
    # With the unnormalized jump convention the argument shrinks like
    # gamma / Gamma(1-gamma) as gamma -> 1, so the amplitude approaches 1.
    from scipy.special import gamma as gamma_fn

    g = 0.99
    lam = g / gamma_fn(1.0 - g) * 0.5
    expected = oracles.mittag_leffler(g, -lam)
    assert oracles.constant_order_solution(g, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-10)
    assert expected > 0.99


def test_subordinator_cdf_levy_closed_form():
    # gamma = 1/2: exponent 2 sqrt(pi) s sqrt(lam) -> Levy(c = 2 sqrt(pi) s)
    for s in (0.3, 1.0, 2.0):
        c = 2.0 * math.sqrt(math.pi) * s
        v = np.array([0.5, 2.0, 8.0, 30.0, 120.0])
        num = oracles.subordinator_cdf(0.5, s, v)
        ana = erfc(c / (2.0 * np.sqrt(v)))
        assert np.max(np.abs(num - ana)) < 1e-6


def test_subordinator_cdf_is_cdf():
    v = np.linspace(0.01, 400.0, 300)
    cdf = oracles.subordinator_cdf(0.6, 1.0, v)
    assert np.all(np.diff(cdf) >= -1e-9)
    assert cdf[0] < 1e-4
    # far tail follows the single-jump asymptotic s v^(-gamma)/gamma
    assert 1.0 - cdf[-1] == pytest.approx(400.0**-0.6 / 0.6, rel=0.15)
    assert oracles.subordinator_cdf(0.6, 1.0, np.array([-1.0, 0.0]))[0] == 0.0


def test_subordinator_self_similarity():
    # P(S_s <= v) = P(S_1 <= v s^(-1/gamma)), checked through the inversion
    for g in (0.4, 0.6):
        for s, v in ((0.5, 3.0), (2.0, 40.0), (4.0, 100.0)):
            a = oracles.subordinator_cdf(g, s, np.array([v]))[0]
            b = oracles.subordinator_cdf(g, 1.0, np.array([v * s ** (-1.0 / g)]))[0]
            assert a == pytest.approx(b, abs=2e-6)


def test_subordinator_median_frozen():
    from scipy.optimize import brentq

    med = brentq(
        lambda v: oracles.subordinator_cdf(0.5, 1.0, np.array([v]))[0] - 0.5, 5.0, 30.0
    )
    assert med == pytest.approx(MEDIAN_S1_HALF, abs=1e-4)


def test_subordinator_density_matches_levy():
    c = 2.0 * math.sqrt(math.pi)
    v = np.array([0.5, 2.0, 8.0, 40.0])
    num = oracles.subordinator_density(0.5, 1.0, v)
    ana = c / (2.0 * math.sqrt(math.pi)) * v ** -1.5 * np.exp(-c * c / (4.0 * v))
    assert np.max(np.abs(num - ana)) < 1e-8


def test_hitting_time_cdf_closed_form():
    u = np.array([0.05, 0.3, 1.0, 2.5])
    num = oracles.hitting_time_cdf(0.5, 1.0, u)
    ana = 1.0 - erfc(math.sqrt(math.pi) * u)
    assert np.max(np.abs(num - ana)) < 1e-6


def test_mixture_density_normalized():
    y = np.linspace(-10.0, 10.0, 501)
    q = oracles.time_changed_gaussian_density(0.5, 1.0, 0.0, 1.0, y)
    assert np.trapezoid(q, y) == pytest.approx(1.0, abs=2e-3)
    assert np.max(np.abs(q - q[::-1])) < 1e-9


def test_constant_order_density_cell_masses():
    G = oracles.ConstantOrderDensity(gamma=0.5, g0=1.0, x0=0.0, s0=0.0)
    y_edges = np.linspace(-6.0, 6.0, 41)
    my = G.y_cell_masses(1.0, y_edges)
    assert my.sum() == pytest.approx(1.0, abs=1e-8)
    v_edges = np.linspace(0.0, 200.0, 401)
    mv = G.v_cell_masses(1.0, v_edges)
    # the heavy tail keeps substantial mass beyond any finite window
    covered = float(oracles.subordinator_cdf(0.5, 1.0, np.array([200.0]))[0])
    assert mv.sum() == pytest.approx(covered, abs=1e-6)


# Golden SHA-256 digests of the float64 output bytes of the Talbot-based
# references, recorded before their inversions were merged into one inverter.
def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


_GOLDEN = {
    "subordinator_cdf":
        "d61eea4715b404d9e7d1b646a4365d98f3a6357ac4431d0d03478797b67d1447",
    "subordinator_density":
        "1328e3d3ef91a1ec2f2216bf4664d06d31efb5ea0c0c60b40962b232f4ef8330",
    "hitting_time_cdf":
        "8b5948fdb951a67afa5b18048773a8c88835bd2464b06326c17b2870e96bfbdb",
    "mixture_density":
        "de6d9dbc463a9a74172e319cdf2995365dc946c74e2cfe720eb9faf5dd79036c",
    "v_cell_masses":
        "323a147ff388b1ec193f1e904816671755392f4bbc22024dc41e8ef12236c073",
}


def _golden_outputs(name):
    if name == "subordinator_cdf":
        v = np.concatenate([[-1.0, 0.0, 1e-3], np.linspace(0.05, 30.0, 97), [200.0]])
        return [oracles.subordinator_cdf(g, s, v) for g, s in ((0.6, 1.3), (0.35, 0.2))]
    if name == "subordinator_density":
        w = np.concatenate([[-0.5, 0.0], np.linspace(0.02, 20.0, 79)])
        return [oracles.subordinator_density(g, s, w) for g, s in ((0.5, 0.7), (0.75, 0.3))]
    if name == "hitting_time_cdf":
        u = np.concatenate([[0.0], np.linspace(0.01, 8.0, 64)])
        return [oracles.hitting_time_cdf(g, 1.0, u) for g in (0.6, 0.3)]
    if name == "mixture_density":
        y = np.linspace(-4.0, 4.0, 41)
        return [oracles.time_changed_gaussian_density(0.6, 1.0, 0.2, 1.0, y, n_u=300)]
    G = oracles.ConstantOrderDensity(gamma=0.6, g0=1.0, x0=0.0, s0=0.1)
    v_edges = np.linspace(0.0, 2.0, 65)
    return [G.v_cell_masses(u, v_edges) for u in (0.05, 0.4, 1.7)]


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_talbot_golden_digest(name):
    assert _sha256(*_golden_outputs(name)) == _GOLDEN[name]


def test_vector_u_rows_match_scalar_calls():
    # 200 u values over 64 levels span several contour slabs
    G = oracles.ConstantOrderDensity(gamma=0.5, g0=1.0, x0=0.0, s0=0.1)
    v_edges = np.linspace(0.0, 2.0, 65)
    u = np.linspace(0.05, 1.7, 200)
    masses = G.v_cell_masses(u, v_edges)
    cdf = oracles.subordinator_cdf(0.5, u, v_edges)
    assert masses.shape == (200, 64) and cdf.shape == (200, 65)
    for i, ui in enumerate(u):
        assert np.array_equal(masses[i], G.v_cell_masses(ui, v_edges))
        assert np.array_equal(cdf[i], oracles.subordinator_cdf(0.5, ui, v_edges))


def test_hitting_time_cdf_is_one_minus_subordinator_cdf():
    u = np.linspace(0.01, 8.0, 64)
    hit = oracles.hitting_time_cdf(0.6, 1.0, u)
    for i, ui in enumerate(u):
        assert hit[i] == 1.0 - oracles.subordinator_cdf(0.6, ui, [1.0])[0]


def test_subordinator_density_degree_disagreement_raises():
    # Far below the scale of S_2 at gamma = 0.75 the degree-40 contour gives
    # about -1.7e8; the degree-32 check refuses it instead of clamping to 0.
    with pytest.raises(InversionFailure):
        oracles.subordinator_density(0.75, 2.0, np.array([1.556923076923077]))
