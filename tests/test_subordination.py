import hashlib
import math

import numpy as np
import pytest

from varfrac import ctrw, oracles, subordination, waiting
from varfrac.errors import DomainError, SingularityResolutionError
from varfrac.kernels import kernel_family

AMPLITUDE_HALF = 0.8588108850325575


def test_theta_tail_values(const_model):
    assert subordination.theta_tail(const_model, 0.0, 0.0, 4.0) == pytest.approx(1.0)
    assert subordination.theta_tail(const_model, 0.0, 0.0, 1.0) == pytest.approx(2.0)


def test_theta_tail_domain(const_model):
    with pytest.raises(DomainError):
        subordination.theta_tail(const_model, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        subordination.theta_tail(const_model, 2.0, 0.0, 1.0)


def test_theta_tail_monotone_and_divergent(const_model):
    vals = [subordination.theta_tail(const_model, v, 0.0, 1.0)
            for v in (0.0, 0.5, 0.9, 0.999, 0.9999999)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e3


def test_theta_tail_time_integral_closed_form(const_model):
    # int_s^t (t-v)^(-g)/g dv = (t-s)^(1-g) / ((1-g) g); here g = 1/2, t-s = 1
    from scipy import integrate

    val, _ = integrate.quad(
        lambda v: subordination.theta_tail(const_model, v, 0.0, 1.0), 0.0, 1.0,
        points=[0.999999], limit=200,
    )
    assert val == pytest.approx(4.0, abs=1e-6)
    # and the cell-integral helper reproduces it exactly
    edges = np.linspace(0.0, 1.0, 257)
    keep, integrals = subordination._theta_cell_weights(
        const_model, 1.0, edges, np.array([0.0])
    )
    assert integrals.sum() == pytest.approx(4.0, abs=1e-12)


@pytest.fixture(scope="module")
def analytic_G():
    return oracles.ConstantOrderDensity(gamma=0.5, g0=1.0, x0=0.0, s0=0.0)


def test_analytic_normalization(const_model, analytic_G, ones):
    r = subordination.subordinated_expectation(const_model, analytic_G, ones, 0.0, 0.0, 1.0)
    assert abs(r.value - 1.0) <= 1e-3
    assert r.band == 0.0


def test_analytic_matches_profile_reference(const_model, analytic_G):
    r = subordination.subordinated_expectation(const_model, analytic_G, np.cos, 0.0, 0.0, 1.0)
    assert abs(r.value - AMPLITUDE_HALF) <= 1e-2


def test_linearity_and_bound(const_model, analytic_G, ones):
    r1 = subordination.subordinated_expectation(const_model, analytic_G, np.cos, 0.0, 0.0, 1.0)
    r2 = subordination.subordinated_expectation(const_model, analytic_G, np.sin, 0.0, 0.0, 1.0)
    combo = subordination.subordinated_expectation(
        const_model, analytic_G, lambda y: 2.0 * np.cos(y) - 3.0 * np.sin(y), 0.0, 0.0, 1.0
    )
    assert combo.value == pytest.approx(2.0 * r1.value - 3.0 * r2.value, abs=1e-10)
    norm = subordination.subordinated_expectation(const_model, analytic_G, ones, 0.0, 0.0, 1.0)
    assert abs(r1.value) <= 1.0 * norm.value + 1e-12


def test_density_rejects_unknown_keywords(const_model, analytic_G):
    with pytest.raises(TypeError):
        subordination.subordinated_density(const_model, analytic_G, 0.0, 0.0, 1.0, n_q=65)


def test_analytic_density_profile(const_model, analytic_G):
    y, q, band = subordination.subordinated_density(const_model, analytic_G, 0.0, 0.0, 1.0)
    dy = y[1] - y[0]
    assert np.sum(q) * dy == pytest.approx(1.0, abs=1e-3)
    assert np.max(np.abs(q - q[::-1])) < 1e-12
    ref = oracles.time_changed_gaussian_density(0.5, 1.0, 0.0, 1.0, y)
    assert np.max(np.abs(q - ref)) <= 0.02


@pytest.fixture(scope="module")
def empirical_G(const_model):
    law = waiting.build_waiting_law(0.5, 0.5)
    fam = kernel_family(const_model)
    h = math.sqrt(2e-3)
    m = 24
    y_edges = h * (8.0 * np.arange(-m, m + 1) + 4.5)
    u_grid = np.concatenate([np.arange(0.2, 0.6, 0.05), np.arange(0.6, 2.3, 0.1)])
    v_edges = np.concatenate([np.linspace(0.0, 1.0, 41), [1.5, np.inf]])
    return ctrw.empirical_transition_density(
        0.0, 0.0, 2e-3, u_grid, y_edges, v_edges, 30_000, 314,
        model=const_model, kernel_family=fam, law=law, threads=4,
    )


def test_empirical_normalization(const_model, empirical_G, ones):
    r = subordination.subordinated_expectation(const_model, empirical_G, ones, 0.0, 0.0, 1.0)
    assert r.band > 0.0
    assert abs(r.value - 1.0) <= 3.0 * r.band + 5e-3


def test_empirical_matches_reference(const_model, empirical_G):
    r = subordination.subordinated_expectation(const_model, empirical_G, np.cos, 0.0, 0.0, 1.0)
    assert abs(r.value - AMPLITUDE_HALF) <= 3.0 * r.band + 5e-3


def test_empirical_density_mass_and_symmetry(const_model, empirical_G):
    y, q, band = subordination.subordinated_density(const_model, empirical_G, 0.0, 0.0, 1.0)
    dy = np.diff(empirical_G.y_edges)
    total = float(np.sum(q * dy))
    assert total == pytest.approx(1.0, abs=1e-2)
    # symmetry through the interpolated distribution function (the bin grid
    # itself is half-lattice offset, so bins have no mirror partners)
    cdf = np.concatenate([[0.0], np.cumsum(q * dy)]) / total
    edges = empirical_G.y_edges
    for x in (0.5, 1.0, 2.0):
        lo = float(np.interp(-x, edges, cdf))
        hi = float(np.interp(x, edges, cdf))
        assert lo + hi == pytest.approx(1.0, abs=0.02)


def test_empirical_grid_must_cover_horizon(const_model, empirical_G):
    bad = ctrw.DensityGrid(
        u_values=empirical_G.u_values,
        y_edges=empirical_G.y_edges,
        v_edges=np.linspace(0.0, 0.5, 11),
        masses=empirical_G.masses[:, :, :10],
        counts=empirical_G.counts[:, :, :10],
        n_traj=empirical_G.n_traj,
        x0=0.0, s0=0.0, tau=2e-3, seed=314,
    )
    with pytest.raises(SingularityResolutionError):
        subordination.subordinated_expectation(
            const_model, bad, lambda y: np.ones_like(y), 0.0, 0.0, 1.0
        )


@pytest.mark.parametrize("x0", [-3.0, 3.0])
def test_density_start_outside_y_range_raises(stable_model, x0):
    # the u = 0 start row puts its mass in the bin holding x0; a start off
    # the grid has no such bin
    masses = np.full((2, 4, 2), 1.0 / 8.0)
    G = ctrw.DensityGrid(
        u_values=np.array([0.5, 1.0]), y_edges=np.linspace(-1.0, 1.0, 5),
        v_edges=np.linspace(0.0, 1.0, 3), masses=masses, counts=masses * 800,
        n_traj=800, x0=0.0, s0=0.0, tau=1e-2, seed=0,
    )
    subordination.subordinated_density(stable_model, G, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"x0 = .* outside the grid's y range \[-1.0, 1.0\)"):
        subordination.subordinated_density(stable_model, G, x0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# exhaustive discrete recursion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lattice_setup(const_model):
    law = waiting.build_waiting_law(0.5, 0.5)
    tau = 0.1
    need = 1.0 / tau**2
    dlaw = waiting.discretize_waiting_law(law, 0.5, 16, 1.28 * need)
    return const_model, dlaw, tau


def test_recursion_conserves_mass(lattice_setup, ones):
    model, dlaw, tau = lattice_setup
    val, rem = subordination.discrete_subordinated_expectation(
        model, dlaw, ones, 0.0, 0.0, 1.0, tau
    )
    assert val == pytest.approx(1.0, abs=1e-12)
    assert rem <= 1e-12


def test_recursion_single_step_case(lattice_setup):
    # horizon below the smallest waiting increment: every path crosses at the
    # first step, so the value is the one-jump average of F times 1
    model, dlaw, tau = lattice_setup
    t = 0.5 * tau**2 * dlaw.values[0]
    val, _ = subordination.discrete_subordinated_expectation(
        model, dlaw, np.cos, 0.0, 0.0, t, tau
    )
    h = math.sqrt(tau)
    assert val == pytest.approx(0.5 * (math.cos(h) + math.cos(-h)), abs=1e-12)


def test_recursion_matches_sampling(lattice_setup):
    model, dlaw, tau = lattice_setup
    val, _ = subordination.discrete_subordinated_expectation(
        model, dlaw, np.cos, 0.0, 0.0, 1.0, tau
    )
    fam = kernel_family(model)
    est = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, tau, 100_000, 2024,
                                   model=model, kernel_family=fam, law=dlaw, threads=4)
    assert abs(val - est.mean) <= 3.0 * est.std_error


def test_recursion_requires_constant_order(varorder_model, lattice_setup):
    _, dlaw, tau = lattice_setup
    with pytest.raises(ValueError):
        subordination.discrete_subordinated_expectation(
            varorder_model, dlaw, np.cos, 0.0, 0.0, 1.0, tau
        )


def test_recursion_lattice_guard(lattice_setup):
    from varfrac.errors import LatticeOverflow

    model, dlaw, tau = lattice_setup
    with pytest.raises(LatticeOverflow):
        subordination.discrete_subordinated_expectation(
            model, dlaw, np.cos, 0.0, 0.0, 1.0, tau, max_cells=16
        )


# ---------------------------------------------------------------------------
# golden digests of the quadrature's output bytes
# ---------------------------------------------------------------------------

# Recorded before the expectation and the density were merged onto one
# u-integrand, except density-analytic-const: the merge moved its values by
# up to 6e-14 relative, since it now divides by each bin's width rather than
# the centre spacing and applies the q-Jacobian before the bin product, as
# the bridge head always did. The const model takes the frozen-coefficient
# bridge head, the stable model the u = 0 start term.
_GOLDEN = {
    "expectation-analytic-const":
        "723d3e9d8ad4ef2e16d11bb29b3e58a0fafe30080a0eace872a19e2c122fee99",
    "expectation-analytic-varorder":
        "3f3d69a5755e0cd3bb875106ccb41105e09e0f4d21dcb50ea01261dbffc8d4ac",
    "expectation-empirical-const":
        "52486a55180d77b4868b84b46d2fdc1fefb0389740c1b561d117894393a738b2",
    "expectation-empirical-stable":
        "91cae698a74690ffe029060146dd95a5a4383f86a00280fcf5bfde7ce38c6d26",
    "density-analytic-const":
        "c0176f3aa14756643802e530f3422a5bdbc1e251a9dca3beccec70f594d64de5",
    "density-empirical-const":
        "d3b8a364635ceb6ae1f0fc56814521cdb6b4ae05e1566f14c0eda0b5565c055d",
    "density-empirical-stable":
        "cdab8e4f719c9c68a78a468c301ae9823cc3a2e5c9a339475e207d50a30c7ad5",
}
_ANALYTIC_GRID = dict(n_v=64, n_y=65, n_u=33)


@pytest.fixture(scope="module")
def small_empirical_G(const_model):
    law = waiting.build_waiting_law(0.5, 0.5)
    h = math.sqrt(2e-3)
    y_edges = h * (8.0 * np.arange(-12, 13) + 4.5)
    u_grid = np.arange(0.3, 1.65, 0.1)
    v_edges = np.concatenate([np.linspace(0.0, 1.0, 21), [1.5, np.inf]])
    return ctrw.empirical_transition_density(
        0.0, 0.0, 2e-3, u_grid, y_edges, v_edges, 4_000, 27,
        model=const_model, kernel_family=kernel_family(const_model), law=law, threads=2,
    )


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_quadrature_golden_digest(name, request, analytic_G, small_empirical_G):
    output, source, model_name = name.split("-")
    model = request.getfixturevalue(f"{model_name}_model")
    G, grid = (analytic_G, _ANALYTIC_GRID) if source == "analytic" else (small_empirical_G, {})
    if output == "expectation":
        r = subordination.subordinated_expectation(model, G, np.cos, 0.0, 0.0, 1.0, **grid)
        arrays = [np.array([r.value, r.band])]
    else:
        arrays = subordination.subordinated_density(model, G, 0.0, 0.0, 1.0, **grid)
    assert _sha256(*arrays) == _GOLDEN[name]
