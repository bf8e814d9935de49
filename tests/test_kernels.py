import hashlib
import math

import numpy as np
import pytest

import generators as gen
from varfrac import kernels as kr
from varfrac.errors import KernelInfeasible
from varfrac.model import make_model

from conftest import CONSTANT_ORDER


def _model(spatial, dim=1):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in CONSTANT_ORDER.items()}
    cfg["spatial"] = spatial
    cfg["dim"] = dim
    return make_model(cfg)


def _atoms_at(model, x):
    """Atoms (k, d) and weights (k,) of the diffusion law at one position."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    atoms, weights = kr._diffusion_atoms(model, x[None, :] if model.dim == 2 else x[:1])
    return atoms[0], weights


def _second_moment(atoms, weights):
    return np.einsum("k,ki,kj->ij", weights, atoms, atoms)


def test_diffusion_kernel_1d():
    m = _model({"kind": "diffusion", "g": {"kind": "constant", "value": 2.0},
                "g_lo": 2.0, "g_hi": 2.0})
    atoms, weights = _atoms_at(m, 0.0)
    assert sorted(atoms[:, 0]) == pytest.approx([-math.sqrt(2.0), math.sqrt(2.0)])
    assert weights.tolist() == [0.5, 0.5]
    assert _second_moment(atoms, weights)[0, 0] == pytest.approx(2.0)


def test_diffusion_kernel_2d_identity():
    m = _model({"kind": "diffusion", "g_matrix": [[1.0, 0.0], [0.0, 1.0]],
                "g_lo": 0.5, "g_hi": 1.5}, dim=2)
    atoms, weights = _atoms_at(m, [0.0, 0.0])
    assert np.allclose(weights, 0.25)
    # weight-1/4 atoms of length sqrt(2) along each axis give E[z z^T] = I
    assert np.allclose(np.abs(atoms).max(axis=1), math.sqrt(2.0))
    assert np.allclose(_second_moment(atoms, weights), np.eye(2), atol=1e-12)


def test_diffusion_kernel_2d_offdiagonal_moments():
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    m = _model({"kind": "diffusion", "g_matrix": G.tolist(), "g_lo": 0.4, "g_hi": 1.6}, dim=2)
    atoms, weights = _atoms_at(m, [0.2, -0.3])
    assert np.max(np.abs(_second_moment(atoms, weights) - G)) < 1e-12
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    # symmetry: atoms come in +- pairs
    pairs = sorted(map(tuple, np.round(atoms, 12)))
    assert sorted(map(tuple, np.round(-atoms, 12))) == pairs


def test_diffusion_kernel_2d_infeasible():
    G = [[0.5, 1.0], [1.0, 10.0]]  # positive definite but not diagonally dominated
    m = _model({"kind": "diffusion", "g_matrix": G, "g_lo": 0.3, "g_hi": 10.2}, dim=2)
    with pytest.raises(KernelInfeasible):
        _atoms_at(m, [0.0, 0.0])


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
    atoms, _ = _atoms_at(varorder_model, 0.3)
    z = fam.sample(np.array([0.3, 0.3]), np.array([0.2, 0.8]))
    assert z[0] == -z[1]
    assert abs(z[0]) == pytest.approx(abs(atoms[0, 0]))


# Golden SHA-256 digest of the diffusion atom laws, recorded before the scalar
# and the vectorized atom construction were merged into one builder: 2-D
# sampler draws with G12 zero, positive and negative under a position-dependent
# scale, 1-D draws under a position-dependent g, and the atoms and weights at
# single positions.
_ATOMS_SHA256 = "768c3cdd8a94b47a7c393e13ffda9ed4a89220a14120726b56bbeaee6e8a2c43"

_SCALE_2D = {"kind": "trig", "base": 1.0, "amp": 0.3, "freq_x": [1.0, 0.5], "freq_t": 0.0}


def _atom_law_outputs():
    rng = np.random.default_rng(5)
    x2 = rng.uniform(-3.0, 3.0, (500, 2))
    x1 = rng.uniform(-3.0, 3.0, 500)
    u = np.concatenate([[0.0, 0.25, 0.5, 1.0 - 1e-16], rng.uniform(0.0, 1.0, 496)])
    models = [
        _model({"kind": "diffusion", "g_matrix": base, "g": _SCALE_2D, "g_lo": lo, "g_hi": hi},
               dim=2)
        for base, lo, hi in (([[1.0, 0.0], [0.0, 2.0]], 0.5, 3.0),
                             ([[1.0, 0.5], [0.5, 1.0]], 0.3, 2.0),
                             ([[1.2, -0.4], [-0.4, 0.9]], 0.4, 2.0))
    ]
    models.append(_model({"kind": "diffusion", "g": {"kind": "trig", "base": 1.0, "amp": 0.4},
                          "g_lo": 0.6, "g_hi": 1.4}))
    out = []
    for m in models:
        fam = kr.kernel_family(m)
        x = x2 if m.dim == 2 else x1
        out.append(fam.sample(x, u))
        for xi in x[:7]:
            out += list(_atoms_at(m, xi))
    return out


def test_diffusion_atoms_golden_digest():
    digest = hashlib.sha256()
    for a in _atom_law_outputs():
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert digest.hexdigest() == _ATOMS_SHA256
