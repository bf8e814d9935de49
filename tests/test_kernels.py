import hashlib
import math

import numpy as np
import pytest

import generators as gen
from varfrac import kernels as kr
from varfrac.model import make_model

from conftest import CONSTANT_ORDER


def _model(spatial):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in CONSTANT_ORDER.items()}
    cfg["spatial"] = spatial
    return make_model(cfg)


def test_diffusion_kernel_1d():
    # Half of the uniforms draw each atom +-sqrt(g), so E z^2 = g.
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 2.0},
                "g_lo": 2.0, "g_hi": 2.0})
    u = (np.arange(1000) + 0.5) / 1000
    z = kr.kernel_family(m).sample(np.zeros(len(u)), u)
    assert sorted(set(z.tolist())) == pytest.approx([-math.sqrt(2.0), math.sqrt(2.0)])
    assert np.mean(z > 0.0) == 0.5
    assert np.mean(z * z) == pytest.approx(2.0)


def test_stable_kernel_minimal_threshold(stable_model):
    # m = beta/2 makes the minimal threshold exactly 1 with empty head: every
    # draw has |z| >= 1, and u near 1/2 draws |z| near 1
    fam = kr.kernel_family(stable_model)
    u = np.concatenate([(np.arange(10_000) + 0.5) / 10_000, [0.5 - 1e-9, 0.5 + 1e-9]])
    z = np.abs(fam.sample(np.zeros(len(u)), u))
    assert z.min() >= 1.0
    assert z[-2:] == pytest.approx(1.0, abs=1e-8)


def test_stable_sampler_tail_and_sign_balance(stable_model):
    fam = kr.kernel_family(stable_model)
    n = 1_000_000
    u = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(3)
    rng.shuffle(u)
    z = fam.sample(np.zeros(n), u)
    # sign balance (the mean does not exist for beta < 1)
    p_pos = float(np.mean(z > 0))
    assert abs(p_pos - 0.5) <= 3.0 * math.sqrt(0.25 / n)
    beta, mval = 0.5, 0.25
    for T in (2.0, 8.0, 50.0):
        p_ana = 2.0 * mval * T**-beta / beta
        p_emp = float(np.mean(np.abs(z) > T))
        se = math.sqrt(p_ana * (1.0 - p_ana) / n)
        assert abs(p_emp - p_ana) <= 3.0 * se


# Uniforms at and beside 1/2, where the sign of a jump flips.
_HALF = np.array([np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 2.0**-53, 0.25,
                  0.75, 1.0 - 2.0**-53])


def test_constant_g_jump_sign_at_one_half():
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.7},
                "g_lo": 1.7, "g_hi": 1.7})
    a = np.sqrt(1.7)
    jumps = kr.kernel_family(m).sample(np.zeros(len(_HALF)), _HALF)
    assert jumps.tobytes() == np.where(_HALF < 0.5, -a, a).tobytes()


def test_constant_m_jump_sign_at_one_half(stable_model):
    beta, two_m = 0.5, 0.5
    sign = np.where(_HALF < 0.5, -1.0, 1.0)
    u_half = np.where(_HALF < 0.5, 1.0 - 2.0 * _HALF, 2.0 * _HALF - 1.0)
    expected = sign * (beta * (1.0 - u_half) / two_m) ** (-1.0 / beta)
    jumps = kr.kernel_family(stable_model).sample(np.zeros(len(_HALF)), _HALF)
    assert jumps.tobytes() == expected.tobytes()


def test_apply_generator_quadratic_exact():
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.7},
                "g_lo": 1.7, "g_hi": 1.7})
    k = kr.kernel_family(m)
    for tau in (1.0, 0.3, 1e-3):
        assert gen.apply_approx_generator(k, tau, lambda y: y**2, 0.4) == pytest.approx(
            1.7, rel=1e-12
        )


def test_apply_generator_constant_zero():
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0})
    k = kr.kernel_family(m)
    assert gen.apply_approx_generator(k, 0.1, lambda y: 3.0 * np.ones_like(y), 0.0) == 0.0


def test_apply_generator_sin_limit():
    # Richardson in tau: value(tau) ~ -sin(x)/2 + c tau
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0})
    x = 0.9
    k = kr.kernel_family(m)
    v1 = gen.apply_approx_generator(k, 2e-3, np.sin, x)
    v2 = gen.apply_approx_generator(k, 1e-3, np.sin, x)
    extrap = 2.0 * v2 - v1
    assert extrap == pytest.approx(-0.5 * math.sin(x), abs=1e-8)


def test_generator_odd_function_vanishes(stable_model):
    m1 = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                 "g_lo": 1.0, "g_hi": 1.0})
    k1 = kr.kernel_family(m1)
    val = gen.apply_approx_generator(k1, 0.1, lambda y: (y - 0.7) ** 3, 0.7)
    assert abs(val) < 1e-12
    ks = kr.kernel_family(stable_model)
    odd = lambda y: (y) * np.exp(-(y**2))
    assert abs(gen.apply_approx_generator(ks, 0.1, odd, 0.0)) < 1e-12


def test_generator_residual_quadratic_zero():
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0})
    f = gen.TestFunction(fn=lambda y: y**2, d2=lambda y: 2.0 * np.ones_like(np.asarray(y)))
    assert gen.generator_residual(m, 0.05, [f], np.linspace(-1, 1, 5)) < 1e-10


def test_generator_residual_first_order_in_tau():
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0})
    f = gen.TestFunction(fn=np.sin, d2=lambda y: -np.sin(y))
    xg = np.linspace(-2.0, 2.0, 9)
    r1 = gen.generator_residual(m, 0.02, [f], xg)
    r2 = gen.generator_residual(m, 0.01, [f], xg)
    assert r2 / r1 == pytest.approx(0.5, abs=0.1)


def test_generator_residual_stable_monotone(stable_model):
    f = gen.TestFunction(fn=lambda y: np.exp(-(y**2)))
    xg = np.linspace(-2.0, 2.0, 9)
    res = [gen.generator_residual(stable_model, t, [f], xg) for t in (0.04, 0.02, 0.01)]
    assert res[0] > res[1] > res[2]


def test_generator_residual_stable_order_at_beta_1_5():
    # The Pareto jump misses the jumps below its threshold, so the residual
    # falls like tau^((2 - beta) / beta): by 2^(-1/3) per halving at 1.5.
    spatial = {"kind": "stable1d", "beta": 1.5, "m": {"kind": "constant", "value": 0.25},
               "m_lo": 0.25, "m_hi": 0.25}
    f = gen.TestFunction(fn=lambda y: np.exp(-(y**2)))
    xg = np.linspace(-2.0, 2.0, 9)
    res = [gen.generator_residual(_model(spatial), t, [f], xg) for t in (0.04, 0.02, 0.01, 0.005)]
    for coarse, fine in zip(res, res[1:]):
        assert fine / coarse == pytest.approx(2.0 ** (-1.0 / 3.0), abs=0.01)


def test_family_matches_anchored_kernel(varorder_model):
    fam = kr.kernel_family(varorder_model)
    z = fam.sample(np.array([0.3, 0.3]), np.array([0.2, 0.8]))
    assert z[0] == -z[1]
    assert abs(z[0]) == pytest.approx(math.sqrt(float(varorder_model.spatial.g(0.0, 0.3))))


# Golden SHA-256 digest of the diffusion sampler's draws under a
# position-dependent g, recorded before the scalar and the vectorized atom
# construction were merged into one builder. It is the 1-D part of a digest
# that also pinned the 2-D atoms, re-taken for this part alone on the code
# that still had them.
_ATOMS_SHA256 = "036ba7fa0a9fbc8dbf0b82bc50187f10b305835577ce5384d071f6bfb0da3961"


def test_diffusion_atoms_golden_digest():
    rng = np.random.default_rng(5)
    rng.uniform(-3.0, 3.0, (500, 2))  # once the 2-D positions; x and u follow them
    x = rng.uniform(-3.0, 3.0, 500)
    u = np.concatenate([[0.0, 0.25, 0.5, 1.0 - 1e-16], rng.uniform(0.0, 1.0, 496)])
    m = _model({"kind": "diffusion", "g": {"kind": "trig", "base": 1.0, "amp": 0.4},
                "g_lo": 0.6, "g_hi": 1.4})
    z = kr.kernel_family(m).sample(x, u)
    assert hashlib.sha256(z.tobytes()).hexdigest() == _ATOMS_SHA256
