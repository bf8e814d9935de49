"""Named experiments mirroring the acceptance checklist, and the threshold
logic used both when running them and when auditing result files.

Each experiment is one `Experiment` record in `EXPERIMENTS`. Its runner
returns long-format rows; its checks re-derive every pass/fail decision
from rows alone, so `compare` can audit a results.csv without rerunning.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import ctrw, oracles, solver, subordination, svgplot, waiting
from .errors import ConfigError, DimensionUnsupported, NonFiniteFunctional, VarfracError
from .kernels import kernel_family
from .model import VALIDATED_T, Diffusion, _check_int, _check_number, make_model, read_mapping

CSV_COLUMNS = [
    "experiment", "quantity", "alpha", "gamma", "beta", "tau", "h", "x0", "n",
    "value", "uncertainty",
]

CONSTANT_ORDER_MODEL = {
    "alpha": 0.5,
    "order_field": {"kind": "constant", "value": 1.0},
    "a_lo": 1.0,
    "a_hi": 1.0,
    "spatial": {"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0},
    "dim": 1,
}

VARIABLE_ORDER_MODEL = {
    "alpha": 0.4,
    "order_field": {"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 1.0, "freq_t": 0.0},
    "a_lo": 0.5,
    "a_hi": 1.5,
    "spatial": {"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                "g_lo": 1.0, "g_hi": 1.0},
    "dim": 1,
}

# x0 points for the variable-order comparison: shared grid points of the
# 128- and 256-point periodic grids (so solver values need no interpolation).
_X0_MID = -math.pi + 105 * (2.0 * math.pi / 128.0)  # ~2.0126, high local order
_X0_LOW = -math.pi / 2.0  # low local order; solution vanishes by symmetry

_TOP_KEYS = {"schema_version", "experiment", "seed", "model", "numerics", "output_dir"}

# Elapsed times of subordination-identity's pair histogram; the first must
# give at least 100 chain steps at density_tau.
_DENSITY_U_GRID = np.concatenate([
    np.arange(0.1, 0.5, 0.025), np.arange(0.5, 1.0, 0.05), np.arange(1.0, 2.55, 0.1),
])


@dataclass(frozen=True)
class Experiment:
    """One named experiment. `checks(rows, add)` calls add(name, passed,
    detail) once per verdict; `needs` holds (need, holds(model, num)) pairs,
    what its runner assumes beyond make_model's checks and each numerics
    entry's own rule, with model None when the experiment takes none."""

    preset: dict
    run: Callable  # run(config, threads) -> ExperimentOutput
    checks: Callable
    description: str  # the line `varfrac presets` prints
    needs: tuple


def validate_config(config) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    version = config.get("schema_version")
    if type(version) is not int or version != 1:
        raise ConfigError("config schema_version must be 1")
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; run `varfrac presets` for the list")
    seed = config.get("seed", 0)
    # streams.lane_keys reads a seed modulo 2^64, and the runners add small
    # offsets to it, so a seed outside [0, 2^63) could alias another.
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**63:
        raise ConfigError(f"seed must be an integer in [0, 2^63), got {seed!r}")
    if not isinstance(config.get("numerics", {}), dict):
        raise ConfigError(f"numerics must be an object, got {config['numerics']!r}")
    if not isinstance(config.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {config['output_dir']!r}")
    experiment = EXPERIMENTS[name]
    preset = experiment.preset
    unused = set(config) - set(preset) - {"output_dir"}
    if unused:
        raise ConfigError(f"{name} takes no {sorted(unused)}")
    merged = {k: config.get(k, preset.get(k)) for k in _TOP_KEYS if k in preset or k in config}
    known_numerics = set(preset["numerics"])
    unknown = set(merged.get("numerics", {})) - known_numerics
    if unknown:
        raise ConfigError(f"unknown numerics keys {sorted(unknown)} for {name}")
    merged["numerics"] = {**preset["numerics"], **config.get("numerics", {})}
    _check_numerics(merged["numerics"])
    model = None
    if "model" in merged:
        try:
            model = make_model(merged["model"])
        except DimensionUnsupported as exc:
            raise ConfigError(f"invalid model: {exc}; {name} needs a 1-D model") from exc
        except VarfracError as exc:
            raise ConfigError(f"invalid model: {exc}") from exc
        if not model.order_field.time_independent and merged["numerics"]["t"] > VALIDATED_T:
            raise ConfigError(f"a time-dependent order field is checked only for s <= "
                              f"{VALIDATED_T:g}, so t must be at most {VALIDATED_T:g}")
    for need, holds in experiment.needs:
        if not holds(model, merged["numerics"]):
            raise ConfigError(f"{name} needs {need}")
    return merged


def _check_list(name, values, check, *args):
    """values must be a non-empty list whose entries each pass check."""
    if not (isinstance(values, list) and values):
        raise ConfigError(f"{name} must be a non-empty list, got {values!r}")
    for j, v in enumerate(values):
        check(f"{name}[{j}]", v, *args)


def _check_point(name, point):
    """One variable-order point: x0, and a step ladder of equal length."""
    point = read_mapping(name, point, {"x0", "taus", "n_traj"})
    _check_number(f"{name}.x0", point["x0"])
    _check_list(f"{name}.taus", point["taus"], _check_number, 0.0)
    _check_list(f"{name}.n_traj", point["n_traj"], _check_int, 100)
    if len(point["taus"]) != len(point["n_traj"]):
        raise ConfigError(f"{name}.taus and {name}.n_traj must have the same length")


def _check_grid(name, pair):
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError(f"{name} must be an [n_x, n_s] pair, got {pair!r}")
    _check_int(f"{name} n_x", pair[0], 3)
    _check_int(f"{name} n_s", pair[1], 16)


# How each numerics key is checked, in whichever experiment has it:
# check(key, value, *args). Trajectory counts are integers >= 100, step
# sizes and spans finite numbers > 0, x0 finite, ladders non-empty lists,
# and a solver grid has integer n_x >= 3 and n_s >= 16.
_NUMERICS_RULES = {
    "t": (_check_number, 0.0), "x0": (_check_number,), "n_x": (_check_int, 3),
    "n_s": (_check_int, 16), "mc_tau": (_check_number, 0.0), "mc_n_traj": (_check_int, 100),
    "lattice_tau": (_check_number, 0.0), "lattice_atoms": (_check_int, 1),
    "lattice_n_traj": (_check_int, 100), "ks_tau": (_check_number, 0.0),
    "ks_u": (_check_number, 0.0), "ks_n_traj": (_check_int, 100),
    "density_tau": (_check_number, 0.0), "density_n_traj": (_check_int, 100),
    "alphas": (_check_list, _check_number, 0.0, 1.0),
    "h_values": (_check_list, _check_number, 0.0),
    "points": (_check_list, _check_point), "resolutions": (_check_list, _check_grid),
}


def _check_numerics(num):
    """Type and range of every numerics entry, so that a bad value is
    rejected before any work."""
    for key, (check, *args) in _NUMERICS_RULES.items():
        if key in num:
            check(key, num[key], *args)


def _row(experiment, quantity, value, uncertainty=None, **params):
    """One results.csv row; NonFiniteFunctional when value or uncertainty
    is NaN or infinite, so no such cell is written."""
    row = {c: None for c in CSV_COLUMNS}
    row.update(experiment=experiment, quantity=quantity, value=float(value))
    if uncertainty is not None:
        row["uncertainty"] = float(uncertainty)
    for col in ("value", "uncertainty"):
        if row[col] is not None and not math.isfinite(row[col]):
            raise NonFiniteFunctional(f"{experiment} {quantity}: {col} is {row[col]!r}")
    row.update(params)
    return row


def _margin(field):
    """How far the solved cos field stays inside [-1, 1], the range of its
    data; negative when the maximum principle fails."""
    return min(float(field.values.min() + 1.0), float(1.0 - field.values.max()))


@dataclass
class ExperimentOutput:
    rows: list
    plots: dict  # filename -> svg string
    field: solver.Field | None = None  # the solved cos field, for --dump-field
    chain: dict | None = None  # keywords of a chain run, for --dump-trajectories


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _fitted_order(h_values, errors):
    """Slope of log error against log h over the positive errors (inf if < 2)."""
    positive = errors > 0.0
    if np.count_nonzero(positive) < 2:
        return math.inf
    return float(np.polyfit(np.log(h_values[positive]), np.log(errors[positive]), 1)[0])


def _ramp(y):
    return y * np.exp(-y)  # 1-Lipschitz, vanishing at 0 and at infinity


def run_rate_check(config, threads=1) -> ExperimentOutput:
    num = config["numerics"]
    hs = np.asarray(sorted(num["h_values"], reverse=True), dtype=float)
    rows = []
    plot_series = []
    for alpha in num["alphas"]:
        law = waiting.build_waiting_law(alpha, alpha)
        errors = waiting.rate_errors(law, alpha, _ramp, hs)
        bounds = waiting.rate_constant(law, alpha) * hs ** (1.0 - alpha)
        for h, err, bound in zip(hs, errors, bounds):
            rows.append(_row("rate-check", "rate_error", err, alpha=alpha, h=h))
            rows.append(_row("rate-check", "rate_bound", bound, alpha=alpha, h=h))
        rows.append(_row("rate-check", "fitted_order_pinned", _fitted_order(hs, errors),
                         alpha=alpha))
        # Order measurement in the asymptotic regime: the rate prediction
        # applies for B*h small, so the ladder is expressed in units of B.
        scaled = hs / law.B
        rows.append(_row("rate-check", "fitted_order",
                         _fitted_order(scaled, waiting.rate_errors(law, alpha, _ramp, scaled)),
                         alpha=alpha))
        # Exactness window: a smooth bump supported in [B h, max(3, 2 B h)].
        for h in num["h_values"]:
            lo = law.B * h
            hi = max(3.0, 2.0 * lo)

            def bump(y, lo=lo, hi=hi):
                y = np.asarray(y, dtype=float)
                out = np.zeros_like(y)
                m = (y > lo) & (y < hi)
                out[m] = np.exp(-1.0 / ((y[m] - lo) * (hi - y[m])))
                return out

            err = waiting.rate_errors(law, alpha, lambda y, b=bump: float(b(np.asarray(y))),
                                      [h], support_lo=lo)[0]
            rows.append(_row("rate-check", "window_error", err, alpha=alpha, h=h))
        plot_series.append((f"error a={alpha}", list(hs), list(errors)))
        plot_series.append((f"bound a={alpha}", list(hs), list(bounds)))
    svg = svgplot.line_plot(plot_series, title="scaled tail functional: error vs bound",
                            xlabel="h", ylabel="error", log_x=True, log_y=True)
    return ExperimentOutput(rows=rows, plots={"rate_check.svg": svg})


def run_triangulation(config, threads=1) -> ExperimentOutput:
    num = config["numerics"]
    seed = int(config["seed"])
    model = make_model(config["model"])
    t = float(num["t"])
    gamma, g = model.gamma_lo, model.spatial.g_lo
    rows = []

    grid = solver.Grid(n_x=int(num["n_x"]), n_s=int(num["n_s"]), t=t)
    field = solver.solve_terminal_problem(model, np.cos, t, grid)
    amp = oracles.constant_order_solution(gamma, 1.0, t, g)
    exact = amp * np.cos(grid.x)
    sup_err = float(np.max(np.abs(field.values[0] - exact)))
    rows.append(_row("triangulation", "solver_sup_error", sup_err, gamma=gamma))
    i0 = _periodic_index(grid, float(num["x0"]))
    rows.append(_row("triangulation", "solver_value", field.values[0, i0],
                     gamma=gamma, x0=grid.x[i0]))
    rows.append(_row("triangulation", "oracle_value", amp * math.cos(grid.x[i0]),
                     gamma=gamma, x0=grid.x[i0]))
    rows.append(_row("triangulation", "max_principle_margin", _margin(field), gamma=gamma))

    ones = solver.solve_terminal_problem(model, lambda x: np.ones_like(x), t, grid)
    rows.append(_row("triangulation", "solver_conservation_error",
                     float(np.max(np.abs(ones.values - 1.0))), gamma=gamma))

    law = waiting.build_waiting_law(model.gamma_lo, model.gamma_hi)
    fam = kernel_family(model)
    chain = dict(x0=float(num["x0"]), s0=0.0, t=t, tau=float(num["mc_tau"]), seed=seed,
                 model=model, kernel_family=fam, law=law)
    est = ctrw.estimate_functional(np.cos, n_traj=int(num["mc_n_traj"]), threads=threads,
                                   **chain)
    rows.append(_row("triangulation", "mc_value", est.mean, est.std_error,
                     gamma=gamma, tau=num["mc_tau"], x0=num["x0"], n=est.n_traj))
    rows.append(_row("triangulation", "oracle_value_x0",
                     amp * math.cos(float(num["x0"])), gamma=gamma, x0=num["x0"]))
    est1 = ctrw.estimate_functional(lambda x: np.ones_like(x), threads=threads,
                                    n_traj=max(int(num["mc_n_traj"]) // 100, 100),
                                    **{**chain, "seed": seed + 1})
    rows.append(_row("triangulation", "mc_ones", est1.mean, est1.std_error,
                     gamma=gamma, tau=num["mc_tau"]))

    G = subordination.frozen_density(model, float(num["x0"]), 0.0, threads=threads)
    sub_cos, sub_one = subordination.subordinated_expectation(
        model, G, (np.cos, lambda y: np.ones_like(y)), float(num["x0"]), 0.0, t
    )
    rows.append(_row("triangulation", "subordination_value", sub_cos.value,
                     gamma=gamma, x0=num["x0"]))
    rows.append(_row("triangulation", "subordination_ones", sub_one.value, gamma=gamma))

    svg = svgplot.line_plot(
        [("solver F(x,0)", list(grid.x), list(field.values[0])),
         ("reference", list(grid.x), list(exact))],
        title="constant-order profile at s=0", xlabel="x", ylabel="F",
    )
    return ExperimentOutput(rows=rows, plots={"triangulation.svg": svg}, field=field,
                            chain=chain)


def run_variable_order(config, threads=1) -> ExperimentOutput:
    num = config["numerics"]
    seed = int(config["seed"])
    model = make_model(config["model"])
    t = float(num["t"])
    rows = []

    n_x, n_s = int(num["n_x"]), int(num["n_s"])
    grid_f = solver.Grid(n_x=n_x, n_s=n_s, t=t)
    grid_c = solver.Grid(n_x=n_x // 2, n_s=n_s // 2, t=t)
    field_f = solver.solve_terminal_problem(model, np.cos, t, grid_f)
    field_c = solver.solve_terminal_problem(model, np.cos, t, grid_c)
    rows.append(_row("variable-order", "max_principle_margin", _margin(field_f)))

    law = waiting.build_waiting_law(model.gamma_lo, model.gamma_hi)
    fam = kernel_family(model)
    plot_series = []
    chain = None  # the last chain run of the first point, for --dump-trajectories
    for p_idx, point in enumerate(num["points"]):
        x0 = float(point["x0"])
        i_f, i_c = (_periodic_index(grid, x0) for grid in (grid_f, grid_c))
        sol = float(field_f.values[0, i_f])
        selfconv = abs(sol - float(field_c.values[0, i_c]))
        rows.append(_row("variable-order", "solver_value", sol, x0=x0))
        rows.append(_row("variable-order", "solver_selfconv", selfconv, x0=x0))
        gaps = []
        for tau, n in zip(point["taus"], point["n_traj"]):
            run = dict(x0=x0, s0=0.0, t=t, tau=float(tau), seed=seed + 97 * p_idx,
                       model=model, kernel_family=fam, law=law)
            est = ctrw.estimate_functional(np.cos, n_traj=int(n), threads=threads, **run)
            rows.append(_row("variable-order", "mc_value", est.mean, est.std_error,
                             tau=tau, x0=x0, n=est.n_traj))
            gaps.append((float(tau), abs(est.mean - sol)))
        chain = chain or run
        if len(gaps) > 1:
            plot_series.append((f"x0={x0:.3f}", [g[0] for g in gaps], [g[1] for g in gaps]))
    # A point with one rung has no gap to plot; with no two-rung point, no plot.
    plots = {"variable_order.svg": svgplot.line_plot(
        plot_series, title="walk-vs-solver gap along the step ladder",
        xlabel="tau", ylabel="|gap|", log_x=True, log_y=True)} if plot_series else {}
    return ExperimentOutput(rows=rows, plots=plots, field=field_f, chain=chain)


def _periodic_index(grid, x):
    """The grid point nearest x on the periodic cell: the fields repeat
    every 2 pi, and the chain walks on the whole line."""
    return round((x + math.pi) / grid.dx) % grid.n_x


def run_subordination_identity(config, threads=1) -> ExperimentOutput:
    num = config["numerics"]
    seed = int(config["seed"])
    model = make_model(config["model"])
    t = float(num["t"])
    gamma, g = model.gamma_lo, model.spatial.g_lo
    rows = []

    # exhaustive recursion vs Monte Carlo at the same resolution
    law = waiting.build_waiting_law(gamma, gamma)
    tau_l = float(num["lattice_tau"])
    dlaw = waiting.discretize_waiting_law(law, gamma, int(num["lattice_atoms"]),
                                          _lattice_cap(t, tau_l, gamma))
    ones, rem = subordination.discrete_subordinated_expectation(
        model, dlaw, lambda x: np.ones_like(x), 0.0, 0.0, t, tau_l
    )
    rows.append(_row("subordination-identity", "lattice_ones_error", abs(ones - 1.0),
                     gamma=gamma, tau=tau_l))
    rows.append(_row("subordination-identity", "lattice_remainder", rem,
                     gamma=gamma, tau=tau_l))
    val, _ = subordination.discrete_subordinated_expectation(
        model, dlaw, np.cos, 0.0, 0.0, t, tau_l
    )
    rows.append(_row("subordination-identity", "lattice_value", val, gamma=gamma, tau=tau_l))
    fam = kernel_family(model)
    est = ctrw.estimate_functional(
        np.cos, 0.0, 0.0, t, tau_l, int(num["lattice_n_traj"]), seed,
        model=model, kernel_family=fam, law=dlaw, threads=threads,
    )
    rows.append(_row("subordination-identity", "mc_discrete_value", est.mean, est.std_error,
                     gamma=gamma, tau=tau_l, n=est.n_traj))

    # increasing-coordinate marginal against the inverted transform CDF
    tau_k = float(num["ks_tau"])
    steps = int(round(float(num["ks_u"]) / tau_k))
    snaps = ctrw.sample_chain_at_steps(
        0.0, 0.0, tau_k, [steps], int(num["ks_n_traj"]), seed + 7,
        model=model, kernel_family=fam, law=law, threads=threads,
    )
    _, ss = snaps[steps]
    ss = np.sort(ss)
    cdf = oracles.subordinator_cdf(gamma, float(num["ks_u"]), ss, threads=threads)
    n = len(ss)
    idx = np.arange(1, n + 1)
    ks = max(float(np.max(np.abs(cdf - idx / n))), float(np.max(np.abs(cdf - (idx - 1) / n))))
    rows.append(_row("subordination-identity", "ks_distance", ks,
                     gamma=gamma, tau=tau_k, n=n))

    # empirical pair histogram: normalization identity and position density
    tau_d = float(num["density_tau"])
    h_lat = math.sqrt(tau_d * g)  # positions live on this lattice
    m = 32
    y_edges = h_lat * (8.0 * np.arange(-m, m + 1) + 4.5)
    v_edges = np.concatenate([np.linspace(0.0, t, 51), [1.5 * t, np.inf]])
    G = ctrw.empirical_transition_density(
        0.0, 0.0, tau_d, _DENSITY_U_GRID, y_edges, v_edges, int(num["density_n_traj"]), seed + 13,
        model=model, kernel_family=fam, law=law, threads=threads,
    )
    r_one, r_cos = subordination.subordinated_expectation(
        model, G, (lambda y: np.ones_like(y), np.cos), 0.0, 0.0, t, threads=threads
    )
    rows.append(_row("subordination-identity", "empirical_ones", r_one.value, r_one.band,
                     gamma=gamma, tau=tau_d, n=G.n_traj))
    rows.append(_row("subordination-identity", "empirical_cos", r_cos.value, r_cos.band,
                     gamma=gamma, tau=tau_d, n=G.n_traj))
    amp = oracles.constant_order_solution(gamma, 1.0, t, g)
    rows.append(_row("subordination-identity", "oracle_value", amp, gamma=gamma))

    y_c, dens, _ = subordination.subordinated_density(model, G, 0.0, 0.0, t, threads=threads)
    fine_per = 16
    fine = np.linspace(y_edges[0], y_edges[-1], (len(y_edges) - 1) * fine_per + 1)
    qf = oracles.time_changed_gaussian_density(gamma, g, 0.0, t, fine)
    avg = np.array([
        np.trapezoid(qf[j * fine_per : j * fine_per + fine_per + 1],
                     fine[j * fine_per : j * fine_per + fine_per + 1])
        / (y_edges[j + 1] - y_edges[j])
        for j in range(len(y_edges) - 1)
    ])
    rows.append(_row("subordination-identity", "density_sup_error",
                     float(np.max(np.abs(dens - avg))), gamma=gamma, tau=tau_d))
    rows.append(_row("subordination-identity", "density_mass",
                     float(np.sum(dens * np.diff(y_edges))), gamma=gamma, tau=tau_d))

    svg = svgplot.line_plot(
        [("empirical", list(y_c), list(dens)), ("mixture reference", list(y_c), list(avg))],
        title="position density at the horizon", xlabel="y", ylabel="density",
    )
    return ExperimentOutput(rows=rows, plots={"subordination_identity.svg": svg})


def _lattice_cap(t, tau, gamma):
    """The lattice's lump atom: 1.28 times the largest crossing draw
    t / tau^(1/gamma), or NaN when tau^(1/gamma) leaves the float range."""
    try:
        return 1.28 * (t / tau ** (1.0 / gamma))
    except (OverflowError, ZeroDivisionError):
        return math.nan


def run_solver_convergence(config, threads=1) -> ExperimentOutput:
    num = config["numerics"]
    model = make_model(config["model"])
    t = float(num["t"])
    gamma, g = model.gamma_lo, model.spatial.g_lo
    amp = oracles.constant_order_solution(gamma, 1.0, t, g)
    rows = []
    errs = []
    for n_x, n_s in num["resolutions"]:
        grid = solver.Grid(n_x=int(n_x), n_s=int(n_s), t=t)
        field = solver.solve_terminal_problem(model, np.cos, t, grid)
        err = float(np.max(np.abs(field.values[0] - amp * np.cos(grid.x))))
        errs.append((int(n_x), err))
        rows.append(_row("solver-convergence", "eigen_sup_error", err, gamma=gamma, n=n_x))
        rows.append(_row("solver-convergence", "max_principle_margin", _margin(field), n=n_x))
    for i in range(1, len(errs)):
        rows.append(_row("solver-convergence", "refinement_ratio",
                         errs[i][1] / max(errs[i - 1][1], 1e-300), n=errs[i][0]))
    # grid and field are now those of the last resolution
    ones = solver.solve_terminal_problem(model, lambda x: np.ones_like(x), t, grid)
    rows.append(_row("solver-convergence", "conservation_error",
                     float(np.max(np.abs(ones.values - 1.0))), n=n_x))
    f2 = solver.solve_terminal_problem(model, np.sin, t, grid)
    f12 = solver.solve_terminal_problem(
        model, lambda x: 2.0 * np.cos(x) - 0.5 * np.sin(x), t, grid
    )
    lin_err = float(np.max(np.abs(2.0 * field.values - 0.5 * f2.values - f12.values)))
    rows.append(_row("solver-convergence", "linearity_error", lin_err, n=n_x))
    svg = svgplot.line_plot(
        [("sup error", [e[0] for e in errs], [max(e[1], 1e-16) for e in errs])],
        title="profile error under refinement", xlabel="n_x", ylabel="sup error",
        log_x=True, log_y=True,
    )
    return ExperimentOutput(rows=rows, plots={"solver_convergence.svg": svg}, field=field)


# Entries of Experiment.needs.
_CONSTANT_ORDER = ("a constant order (a_lo == a_hi)", lambda m, num: m.a_lo == m.a_hi)
_CONSTANT_G = ("a diffusion with constant g (g_lo == g_hi)",
               lambda m, num: isinstance(m.spatial, Diffusion)
               and m.spatial.g_lo == m.spatial.g_hi)
# The chain walks on the line and the solver on its periodic cell: they solve
# one problem only if the fields have the cell's period.
_PERIODIC = ("an order field and a spatial coefficient of period 2 pi in x (constant, "
             "affine, or trig with integer freq_x)",
             lambda m, num: m.order_field.periodic
             and (m.spatial.g if isinstance(m.spatial, Diffusion) else m.spatial.m).periodic)
# A step ratio past the float range is no step count.
_SUBORDINATION_NEEDS = (
    ("a finite ks_u / ks_tau that rounds to at least 1 step",
     lambda m, num: (r := num["ks_u"] / num["ks_tau"]) < math.inf and round(r) >= 1),
    (f"a density_tau that gives a finite count of at least 100 steps at the first "
     f"histogram time u = {_DENSITY_U_GRID[0]:g}",
     lambda m, num: (r := float(_DENSITY_U_GRID[0]) / num["density_tau"]) < math.inf
     and round(r) >= 100),
    # The lump must cross from any state, which 1.28 times the largest
    # crossing draw does, and sit past the threshold where the body starts.
    ("a lattice_tau whose lump atom 1.28 t / lattice_tau^(1/gamma) is finite and "
     "exceeds the tail threshold gamma^(-1/gamma)",
     lambda m, num: m.gamma_lo ** (-1.0 / m.gamma_lo)
     < _lattice_cap(float(num["t"]), num["lattice_tau"], m.gamma_lo) < math.inf),
)


# ---------------------------------------------------------------------------
# threshold audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _select(rows, quantity, **params):
    return [r for r in rows if r["quantity"] == quantity
            and all(r.get(k) is not None and abs(float(r[k]) - float(v)) < 1e-12
                    for k, v in params.items())]


def _one(rows, quantity, **params):
    found = _select(rows, quantity, **params)
    if len(found) != 1:
        raise KeyError(f"expected one {quantity} row matching {params}, got {len(found)}")
    return found[0]


def _rate_check_checks(rows, add):
    alphas = sorted({float(r["alpha"]) for r in rows if r["alpha"] is not None})
    for a in alphas:
        errs = sorted(_select(rows, "rate_error", alpha=a), key=lambda r: -float(r["h"]))
        ok = True
        for er in errs:
            br = _one(rows, "rate_bound", alpha=a, h=float(er["h"]))
            ok &= float(er["value"]) <= float(br["value"]) + 1e-15
        add(f"rate bound holds (alpha={a})", ok,
            "every measured error within C_B L h^(1-alpha)")
        vals = [float(r["value"]) for r in errs]
        add(f"errors decrease in h (alpha={a})", all(np.diff(vals) < 0),
            f"errors {['%.3g' % v for v in vals]}")
        fo = float(_one(rows, "fitted_order", alpha=a)["value"])
        add(f"fitted order (alpha={a})", fo >= (1.0 - a) - 0.1,
            f"{fo:.3f} >= {(1.0 - a) - 0.1:.2f} on the B-scaled ladder")
        for wr in _select(rows, "window_error", alpha=a):
            add(f"exactness window (alpha={a}, h={float(wr['h']):g})",
                float(wr["value"]) <= 1e-10, f"error {float(wr['value']):.2e} <= 1e-10")


def _triangulation_checks(rows, add):
    sup = float(_one(rows, "solver_sup_error")["value"])
    add("solver vs reference profile", sup <= 0.02, f"sup error {sup:.2e} <= 2e-2")
    mc = _one(rows, "mc_value")
    oracle = float(_one(rows, "oracle_value_x0")["value"])
    gap = abs(float(mc["value"]) - oracle)
    lim = 3.0 * float(mc["uncertainty"])
    add("walk vs reference", gap <= lim, f"|{float(mc['value']):.5f} - {oracle:.5f}| = "
        f"{gap:.2e} <= 3 se = {lim:.2e}")
    sub = float(_one(rows, "subordination_value")["value"])
    add("time-change quadrature vs reference", abs(sub - oracle) <= 1e-2,
        f"|{sub:.5f} - {oracle:.5f}| <= 1e-2")
    cons = float(_one(rows, "solver_conservation_error")["value"])
    add("solver conservation", cons <= 1e-10, f"max |F-1| = {cons:.2e} <= 1e-10")
    ones = _one(rows, "mc_ones")
    add("walk conservation", float(ones["value"]) == 1.0 and float(ones["uncertainty"]) == 0.0,
        "constant functional estimated exactly")
    sub1 = float(_one(rows, "subordination_ones")["value"])
    add("quadrature normalization", abs(sub1 - 1.0) <= 1e-3, f"|{sub1:.6f} - 1| <= 1e-3")
    margin = float(_one(rows, "max_principle_margin")["value"])
    add("maximum principle", margin >= -1e-12, f"margin {margin:.2e}")


def _variable_order_checks(rows, add):
    x0s = sorted({float(r["x0"]) for r in _select(rows, "solver_value")})
    for x0 in x0s:
        sol = float(_one(rows, "solver_value", x0=x0)["value"])
        selfconv = float(_one(rows, "solver_selfconv", x0=x0)["value"])
        mcs = sorted(_select(rows, "mc_value", x0=x0), key=lambda r: -float(r["tau"]))
        if not mcs:
            raise KeyError(f"no mc_value row for x0={x0}")
        gaps = [abs(float(r["value"]) - sol) for r in mcs]
        if len(gaps) > 1:
            add(f"gap shrinks along the ladder (x0={x0:.3f})",
                all(np.diff(gaps) < 0), f"gaps {['%.4f' % g for g in gaps]}")
        fin = mcs[-1]
        lim = max(3.0 * float(fin["uncertainty"]), 2.0 * selfconv)
        add(f"independent routes agree (x0={x0:.3f})", gaps[-1] <= lim,
            f"final gap {gaps[-1]:.2e} <= max(3 se, 2 selfconv) = {lim:.2e}")
    margin = float(_one(rows, "max_principle_margin")["value"])
    add("maximum principle", margin >= -1e-12, f"margin {margin:.2e}")


def _subordination_identity_checks(rows, add):
    lat1 = float(_one(rows, "lattice_ones_error")["value"])
    add("recursion conserves mass", lat1 <= 1e-12, f"|value-1| = {lat1:.2e}")
    rem = float(_one(rows, "lattice_remainder")["value"])
    add("recursion terminates", rem <= 1e-10, f"unabsorbed mass {rem:.2e}")
    lat = float(_one(rows, "lattice_value")["value"])
    mc = _one(rows, "mc_discrete_value")
    gap = abs(lat - float(mc["value"]))
    lim = 3.0 * float(mc["uncertainty"])
    add("recursion vs sampling", gap <= lim, f"gap {gap:.2e} <= 3 se = {lim:.2e}")
    ks = float(_one(rows, "ks_distance")["value"])
    add("increasing-marginal law", ks <= 0.02, f"KS distance {ks:.4f} <= 0.02")
    e1 = _one(rows, "empirical_ones")
    gap1 = abs(float(e1["value"]) - 1.0)
    add("empirical normalization", gap1 <= 3.0 * float(e1["uncertainty"]),
        f"|value-1| = {gap1:.2e} <= 3 band = {3.0 * float(e1['uncertainty']):.2e}")
    ec = _one(rows, "empirical_cos")
    oracle = float(_one(rows, "oracle_value")["value"])
    gapc = abs(float(ec["value"]) - oracle)
    add("empirical quadrature vs reference", gapc <= 3.0 * float(ec["uncertainty"]),
        f"gap {gapc:.2e} <= 3 band = {3.0 * float(ec['uncertainty']):.2e}")
    dsup = float(_one(rows, "density_sup_error")["value"])
    add("position density vs mixture", dsup <= 0.02, f"sup {dsup:.4f} <= 0.02")
    mass = float(_one(rows, "density_mass")["value"])
    add("density mass", abs(mass - 1.0) <= 1e-2, f"|mass-1| = {abs(mass - 1.0):.2e}")


def _solver_convergence_checks(rows, add):
    ratios = [float(r["value"]) for r in _select(rows, "refinement_ratio")]
    add("self-convergence factor", all(r <= 0.6 for r in ratios),
        f"ratios {['%.3f' % r for r in ratios]} all <= 0.6")
    errs = sorted(_select(rows, "eigen_sup_error"), key=lambda r: float(r["n"]))
    vals = [float(r["value"]) for r in errs]
    add("profile errors decrease", all(np.diff(vals) < 0),
        f"errors {['%.2e' % v for v in vals]}")
    cons = float(_one(rows, "conservation_error")["value"])
    add("conservation", cons <= 1e-10, f"{cons:.2e} <= 1e-10")
    lin = float(_one(rows, "linearity_error")["value"])
    add("linearity", lin <= 1e-10, f"{lin:.2e} <= 1e-10")
    for r in _select(rows, "max_principle_margin"):
        add(f"maximum principle (n_x={int(float(r['n']))})",
            float(r["value"]) >= -1e-12, f"margin {float(r['value']):.2e}")


EXPERIMENTS = {
    "rate-check": Experiment(
        preset={"schema_version": 1, "experiment": "rate-check", "seed": 0,
                "numerics": {"alphas": [0.3, 0.5, 0.7], "h_values": [0.1, 0.05, 0.025, 0.0125]}},
        run=run_rate_check, checks=_rate_check_checks,
        description="scaled tail functional error against its analytic bound",
        # the fitted orders need a slope
        needs=(("h_values with at least two distinct values",
                lambda m, num: len(set(num["h_values"])) >= 2),)),
    "triangulation": Experiment(
        preset={"schema_version": 1, "experiment": "triangulation", "seed": 20240501,
                "model": CONSTANT_ORDER_MODEL,
                "numerics": {"t": 1.0, "n_x": 256, "n_s": 512, "mc_tau": 1e-3,
                             "mc_n_traj": 100000, "x0": 0.0}},
        run=run_triangulation, checks=_triangulation_checks,
        description="constant-order: solver, sampler, and quadrature vs closed form",
        needs=(_CONSTANT_ORDER, _CONSTANT_G)),
    "variable-order": Experiment(
        preset={"schema_version": 1, "experiment": "variable-order", "seed": 20240502,
                "model": VARIABLE_ORDER_MODEL,
                "numerics": {"t": 1.0, "n_x": 256, "n_s": 512, "points": [
                    {"x0": 0.0, "taus": [1e-2, 1e-3, 1e-4], "n_traj": [100000, 100000, 20000]},
                    {"x0": _X0_MID, "taus": [1e-2, 1e-3, 1e-4, 3e-5],
                     "n_traj": [100000, 100000, 20000, 20000]},
                    {"x0": _X0_LOW, "taus": [1e-4], "n_traj": [20000]},
                ]}},
        run=run_variable_order, checks=_variable_order_checks,
        description="variable-order: solver vs sampler across a step ladder",
        needs=(_PERIODIC,
               ("a halved grid n_x // 2 >= 3 and n_s // 2 >= 16 for its self-convergence "
                "solve", lambda m, num: num["n_x"] // 2 >= 3 and num["n_s"] // 2 >= 16))),
    "subordination-identity": Experiment(
        preset={"schema_version": 1, "experiment": "subordination-identity", "seed": 20240503,
                "model": CONSTANT_ORDER_MODEL,
                "numerics": {"t": 1.0, "lattice_tau": 0.1, "lattice_atoms": 16,
                             "lattice_n_traj": 100000, "ks_tau": 1e-3, "ks_n_traj": 100000,
                             "ks_u": 1.0, "density_tau": 1e-3, "density_n_traj": 100000}},
        run=run_subordination_identity, checks=_subordination_identity_checks,
        description="exhaustive recursion, marginal law, empirical quadrature",
        needs=(_CONSTANT_ORDER, _CONSTANT_G, *_SUBORDINATION_NEEDS)),
    "solver-convergence": Experiment(
        preset={"schema_version": 1, "experiment": "solver-convergence", "seed": 0,
                "model": CONSTANT_ORDER_MODEL,
                "numerics": {"t": 1.0, "resolutions": [[64, 128], [128, 256], [256, 512]]}},
        run=run_solver_convergence, checks=_solver_convergence_checks,
        description="grid refinement, conservation, linearity, maximum principle",
        needs=(_CONSTANT_ORDER, _CONSTANT_G)),
}

# Name-keyed views of the table for the benchmark (bench/workloads.py) and
# the acceptance tests, which read them and stay fixed so that runs of
# different versions compare. No module of the package reads them.
PRESETS = {name: e.preset for name, e in EXPERIMENTS.items()}
RUNNERS = {name: e.run for name, e in EXPERIMENTS.items()}


def evaluate_checks(experiment, rows) -> list[Check]:
    """Every pass/fail decision, from rows alone. A missing row raises
    KeyError, and an empty cell that a check reads raises TypeError."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    checks = []

    def add(name, passed, detail):
        checks.append(Check(name=name, passed=bool(passed), detail=detail))

    EXPERIMENTS[experiment].checks(rows, add)
    return checks
