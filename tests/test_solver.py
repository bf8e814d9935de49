import copy
import hashlib
import math

import numpy as np
import pytest

from varfrac import oracles, solver
from varfrac.model import make_model

from conftest import CONSTANT_ORDER, STABLE_HALF, VARIABLE_ORDER

TIME_DEPENDENT = copy.deepcopy(VARIABLE_ORDER)
TIME_DEPENDENT["order_field"]["freq_t"] = 2.0


def _weights(gamma, M, ds):
    """Memory weights of the slice M steps before the horizon, for offsets
    1..M (the last is the terminal one), and its boundary coefficient: one
    column of the solver's tables."""
    W, T, bnd = solver._weight_tables([gamma], M, ds)
    return np.append(W[:, 0], T[-1, 0]), float(bnd[-1, 0])


def _stable(beta):
    spec = copy.deepcopy(STABLE_HALF)
    spec["spatial"]["beta"] = beta
    return spec


def _c_beta(beta):
    """The jump operator maps cos(kx) to -m c_beta |k|^beta cos(kx)."""
    return math.pi / (math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0))


def _right_derivative(gamma, ds, g, j=0):
    """Discrete nonlocal derivative at slice j from g[j], ..., g[-1] (the last
    entry is the terminal value): -sum_m w_m (g[j+m] - g[j]) - (g[-1] - g[j]) bnd."""
    seg = np.asarray(g[j:], dtype=float)
    w, bnd = _weights(gamma, len(seg) - 1, ds)
    return -float(np.dot(w, seg[1:] - seg[0])) - (seg[-1] - seg[0]) * bnd


def test_hat_weights_against_mpmath():
    # The one builder's node weights for k < 1024, time's W at q = -gamma and
    # the jump operator's hat weights at q = 2 - beta, against 40 digits: the
    # hat integral of r^(q-1) is h^q (G(k+1) - 2 G(k) + G(k-1)) with
    # G(u) = u^(q+1) / (q (q+1)), itself checked by quadrature of the hat.
    mpmath = pytest.importorskip("mpmath")
    h, n = 0.01, 1024
    cases = [(-gam, solver._weight_tables([gam], n, h)[0][:, 0]) for gam in (0.21, 0.9)]
    for beta in (0.5, 1.5, 1.9):
        A, B, _ = solver._hat_moments(2.0 - beta, n, h)
        cases.append((2.0 - beta, (B[:-1] + A - B[1:])[:, 0]))
    with mpmath.workdps(40):
        hm = mpmath.mpf(h)
        for q, w in cases:
            qm = mpmath.mpf(q)
            G = [mpmath.mpf(u) ** (qm + 1) / (qm * (qm + 1)) for u in range(n + 1)]
            ref = [hm**qm * (G[k + 1] - 2 * G[k] + G[k - 1]) for k in range(1, n)]
            for k in (1, 2, 37, n - 1):
                # the rising half in r = (k - 1 + u^10) h, which smooths the
                # singularity of r^(q-1) at 0 on the first cell
                rise = mpmath.quad(lambda u: u**10 * ((k - 1 + u**10) * hm) ** (qm - 1)
                                   * 10 * u**9 * hm, [0, 1])
                fall = mpmath.quad(lambda r: ((k + 1) * hm - r) / hm * r ** (qm - 1),
                                   [k * hm, (k + 1) * hm])
                assert abs((rise + fall) / ref[k - 1] - 1) < 1e-25
            rel = max(abs(float(w[k - 1] / ref[k - 1]) - 1.0) for k in range(1, n))
            assert rel <= 1e-8


def test_weights_nonnegative_and_exact_for_linear():
    for gamma in (0.2, 0.5, 0.8):
        w, _ = _weights(gamma, 12, 0.05)
        assert np.all(w >= 0.0)
        slope = -0.7
        g = 3.0 + slope * 0.05 * np.arange(13)
        R = 12 * 0.05
        exact = slope * R ** (1.0 - gamma) / (1.0 - gamma)
        assert np.dot(w, g[1:] - g[0]) == pytest.approx(exact, abs=1e-12)


def test_first_cell_moment_closed_form():
    # gamma = 1/2, g(s + r) - g(s) = r: integral over [0, R] is 2 sqrt(R)
    w, _ = _weights(0.5, 8, 0.125)
    g = 0.125 * np.arange(9)
    assert np.dot(w, g[1:] - g[0]) == pytest.approx(2.0 * math.sqrt(1.0), abs=1e-12)


def test_right_derivative_constant_vanishes():
    g = np.full(9, 2.3)
    assert _right_derivative(0.5, 0.125, g) == 0.0


def test_right_derivative_linear_closed_form():
    # g(s) = t - s: the derivative is (t-s)^(1-gamma) (1/(1-gamma) + 1/gamma)
    gamma, ds, M = 0.5, 0.125, 8
    g = (M * ds) - ds * np.arange(M + 1)
    val = _right_derivative(gamma, ds, g)
    R = M * ds
    exact = R ** (1.0 - gamma) * (1.0 / (1.0 - gamma) + 1.0 / gamma)
    assert val == pytest.approx(exact, abs=1e-10)


def test_right_derivative_eigenfunction_refinement():
    # g(s) = E_gamma(-lam (gamma/Gamma(1-gamma)) (t-s)^gamma) should give -lam g
    from scipy.special import gamma as gamma_fn

    gamma, lam, t = 0.5, 0.8, 1.0
    c = lam * gamma / gamma_fn(1.0 - gamma)
    errs = []
    for n in (64, 128, 256):
        ds = t / n
        sigma = t - ds * np.arange(n + 1)
        g = np.array([oracles.mittag_leffler(gamma, -c * s**gamma) for s in sigma])
        val = _right_derivative(gamma, ds, g)
        errs.append(abs(val - (-lam * g[0])))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-3


def test_spatial_operator_rows_and_symbol(const_model):
    grid = solver.Grid(n_x=64, n_s=16, t=1.0)
    L = solver.build_spatial_operator(const_model, grid)
    assert np.max(np.abs(L.sum(axis=1))) < 1e-10
    k = 3
    mode = np.cos(k * grid.x)
    lam = -(2.0 - 2.0 * math.cos(k * grid.dx)) / grid.dx**2 / 2.0
    assert np.max(np.abs(L @ mode - lam * mode)) < 1e-10


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 1.9])
def test_spatial_operator_stable_symbol_trend(beta):
    # the error on cos(kx), k = 1..4, against the symbol falls like dx^2
    model, ns, errs = make_model(_stable(beta)), (64, 128, 256, 512), []
    for n in ns:
        grid = solver.Grid(n_x=n, n_s=16, t=1.0)
        L = solver.build_spatial_operator(model, grid)
        assert np.max(np.abs(L.sum(axis=1))) < 1e-8
        err = 0.0
        for k in (1, 2, 3, 4):
            mode = np.cos(k * grid.x)
            err = max(err, np.max(np.abs(L @ mode + 0.25 * _c_beta(beta) * k**beta * mode)))
        errs.append(err)
    assert -np.polyfit(np.log(ns), np.log(errs), 1)[0] >= 1.8


def test_conservation(const_model):
    grid = solver.Grid(n_x=64, n_s=64, t=1.0)
    out = solver.solve_terminal_problem(const_model, lambda x: np.ones_like(x), 1.0, grid)
    assert np.max(np.abs(out.values - 1.0)) < 1e-10


def test_maximum_principle(const_model, varorder_model):
    grid = solver.Grid(n_x=64, n_s=64, t=1.0)
    for model in (const_model, varorder_model):
        out = solver.solve_terminal_problem(model, np.cos, 1.0, grid)
        assert out.values.min() >= -1.0 - 1e-12
        assert out.values.max() <= 1.0 + 1e-12


def test_linearity(const_model):
    grid = solver.Grid(n_x=32, n_s=32, t=1.0)
    f1 = solver.solve_terminal_problem(const_model, np.cos, 1.0, grid)
    f2 = solver.solve_terminal_problem(const_model, np.sin, 1.0, grid)
    f12 = solver.solve_terminal_problem(
        const_model, lambda x: 2.0 * np.cos(x) - 0.5 * np.sin(x), 1.0, grid
    )
    assert np.max(np.abs(2.0 * f1.values - 0.5 * f2.values - f12.values)) < 1e-10


def test_eigenfunction_accuracy(const_model):
    grid = solver.Grid(n_x=256, n_s=512, t=1.0)
    out = solver.solve_terminal_problem(const_model, np.cos, 1.0, grid)
    amp = oracles.constant_order_solution(0.5, 1.0, 1.0, 1.0)
    assert np.max(np.abs(out.values[0] - amp * np.cos(grid.x))) <= 0.02


# A diffusion g/2 maps cos(kx) to -(g k^2 / 2) cos(kx); m = 0.25 stable jumps
# to -m c_beta |k|^beta cos(kx), the same mode at k = 1 with c = 2 m c_beta.
@pytest.mark.parametrize("spec, c", [(CONSTANT_ORDER, 1.0)]
                         + [(_stable(b), 2.0 * 0.25 * _c_beta(b)) for b in (0.5, 1.0, 1.5, 1.9)],
                         ids=["constant", "stable-0.5", "stable-1.0", "stable-1.5", "stable-1.9"])
def test_self_convergence_factor(spec, c):
    model = make_model(spec)
    amp = oracles.constant_order_solution(0.5, 1.0, 1.0, c)
    errs = []
    for n_x, n_s in ((64, 128), (128, 256), (256, 512)):
        grid = solver.Grid(n_x=n_x, n_s=n_s, t=1.0)
        out = solver.solve_terminal_problem(model, np.cos, 1.0, grid)
        errs.append(np.max(np.abs(out.values[0] - amp * np.cos(grid.x))))
    assert errs[1] / errs[0] <= 0.6
    assert errs[2] / errs[1] <= 0.6


def test_variable_order_discrete_equation_residual(varorder_model):
    # the marched field satisfies the discrete balance at every slice, with
    # the order read at the slice's own time when it depends on time
    grid = solver.Grid(n_x=32, n_s=48, t=1.0)
    for model in (varorder_model, make_model(TIME_DEPENDENT)):
        out = solver.solve_terminal_problem(model, np.cos, 1.0, grid)
        L = solver.build_spatial_operator(model, grid)
        for j in (0, 17, 40):
            gam_x = model.alpha * model.order_field(grid.s[j], grid.x)
            lhs = np.array([_right_derivative(gam_x[i], grid.ds, out.values[:, i], j)
                            for i in range(grid.n_x)])
            rhs = L @ out.values[j]
            assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("n_x", [3, 4, 5, 64])
def test_cyclic_solve_matches_dense(n_x):
    spec = copy.deepcopy(VARIABLE_ORDER)
    spec["spatial"].update(g={"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 1.0},
                           g_lo=0.5, g_hi=1.5)
    model = make_model(spec)
    L = solver.build_spatial_operator(model, solver.Grid(n_x=n_x, n_s=16, t=1.0))
    solve = solver._slice_solver(model, L)
    rng = np.random.default_rng(n_x)
    for scale in (1e-2, 1.0, 1e3):
        diag = scale * rng.uniform(0.5, 2.0, n_x)
        rhs = rng.normal(size=n_x)
        ref = np.linalg.solve(np.diag(diag) - L, rhs)
        assert np.max(np.abs(solve(diag, rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_grid_needs_three_points(const_model):
    with pytest.raises(ValueError, match="3 grid points"):
        solver.solve_terminal_problem(const_model, np.cos, 1.0, solver.Grid(n_x=2, n_s=16, t=1.0))


# Golden digests of the marched field on a small grid, one per path through
# the march: constant and position-dependent order (one weight table),
# time-dependent order (tables per slice), and the dense stable operator,
# built from the hat moments of D(y)/y^2 against y^(1-beta).
_FIELD_SHA256 = {
    "constant": "2d783b4887e98b3076e8cf55a2be1a97768696445f3b1995e0a9d85b9dbda7bb",
    "variable": "eaeb8b4ffeb705f5e17a9ab435fedee2d1f4cb72af9af6f9305d4bda391128e9",
    "time-dependent": "fbdaa3eb6490562e8696cd024bc0de2fd687e8ca77962371afef8f39f1a7241b",
    "stable": "df149ac99620185bb4b23d24dfe23d1af107f58c2d762d3eb79d1f2dc694e700",
}


@pytest.mark.parametrize("name, spec", [("constant", CONSTANT_ORDER), ("variable", VARIABLE_ORDER),
                                        ("time-dependent", TIME_DEPENDENT),
                                        ("stable", STABLE_HALF)])
def test_field_golden_digest(name, spec):
    grid = solver.Grid(n_x=32, n_s=48, t=1.0)
    out = solver.solve_terminal_problem(make_model(spec), np.cos, 1.0, grid)
    assert hashlib.sha256(out.values.tobytes()).hexdigest() == _FIELD_SHA256[name]


def test_time_dependent_order_falls_back(const_model):
    cfg = {
        "alpha": 0.4,
        "order_field": {"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 1.0,
                        "freq_t": 1.0},
        "a_lo": 0.5, "a_hi": 1.5,
        "spatial": {"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                    "g_lo": 1.0, "g_hi": 1.0},
        "dim": 1,
    }
    model = make_model(cfg)
    grid = solver.Grid(n_x=24, n_s=24, t=1.0)
    out = solver.solve_terminal_problem(model, np.cos, 1.0, grid)
    assert np.all(np.isfinite(out.values))
    assert out.values.min() >= -1.0 - 1e-12 and out.values.max() <= 1.0 + 1e-12
    ones = solver.solve_terminal_problem(model, lambda x: np.ones_like(x), 1.0, grid)
    assert np.max(np.abs(ones.values - 1.0)) < 1e-10


def test_stable_spatial_solver_march(stable_model):
    grid = solver.Grid(n_x=48, n_s=32, t=1.0)
    out = solver.solve_terminal_problem(stable_model, np.cos, 1.0, grid)
    assert out.values.min() >= -1.0 - 1e-12 and out.values.max() <= 1.0 + 1e-12
    amp0 = out.values[0, 0] / np.cos(grid.x[0])
    assert 0.0 < amp0 < 1.0


def test_grid_resolution_gate(const_model):
    from varfrac.errors import SingularityResolutionError

    with pytest.raises(SingularityResolutionError):
        solver.solve_terminal_problem(const_model, np.cos, 1.0,
                                      solver.Grid(n_x=16, n_s=8, t=1.0))


def test_export_csv(tmp_path, const_model):
    grid = solver.Grid(n_x=8, n_s=16, t=1.0)
    out = solver.solve_terminal_problem(const_model, np.cos, 1.0, grid)
    path = tmp_path / "field.csv"
    solver.export_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,s,F"
    assert len(lines) == 1 + 8 * 17


def test_stable_operator_at_beta_one():
    # Cauchy jumps: the hat moments are of y^0 and y^1, no special case
    model = make_model(_stable(1.0))
    grid = solver.Grid(n_x=48, n_s=32, t=1.0)
    L = solver.build_spatial_operator(model, grid)
    assert np.all(np.isfinite(L))
    assert np.max(np.abs(L.sum(axis=1))) < 1e-8
    out = solver.solve_terminal_problem(model, np.cos, 1.0, grid)
    assert np.all(np.isfinite(out.values))
    assert out.values.min() >= -1.0 - 1e-12 and out.values.max() <= 1.0 + 1e-12
