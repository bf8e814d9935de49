"""Representation formulas for the time-changed walk as quadrature over a
pair transition density.

The inner time integral carries the singular weight (t-v)^(-gamma(v,y))
near v = t, so each v-cell integrates that weight in closed form while the
density is held at its cell value (product integration). The density can be
an empirical histogram (with its multinomial noise propagated to an
uncertainty band) or an analytic constant-order density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctrw import DensityGrid
from .errors import LatticeOverflow, SingularityResolutionError
from .model import Diffusion, Model, gamma_at
from .oracles import ConstantOrderDensity
from .waiting import DiscretizedWaitingLaw

_MAX_CELLS = 1 << 26  # state-lattice cells the exhaustive recursion may allocate
# Quadrature sizes for an analytic G: v cells, y cells and (odd) Simpson
# nodes in q = sqrt(u). Read at call time.
_N_V = 512
_N_Y = 513
_N_U = 257


@dataclass(frozen=True)
class SubordinationResult:
    value: float
    band: float  # propagated statistical uncertainty (0 for analytic input)


def _theta_cell_weights(model: Model, t: float, v_edges: np.ndarray, y_centers: np.ndarray):
    """Exact integrals of (t-v)^(-gamma) over each v-cell clipped to v < t,
    with gamma frozen at the clipped cell center. Returns (n_y, n_vcells)."""
    va = v_edges[:-1]
    vb = v_edges[1:]
    keep = va < t
    va = va[keep]
    vb = np.minimum(vb[keep], t)
    centers = 0.5 * (va + vb)
    yy = np.repeat(y_centers[:, None], len(va), axis=1)
    vv = np.broadcast_to(centers[None, :], yy.shape)
    gam = gamma_at(model, vv, yy)
    ta = np.maximum(t - va, 0.0)[None, :]
    tb = np.maximum(t - vb, 0.0)[None, :]
    integrals = (ta ** (1.0 - gam) - tb ** (1.0 - gam)) / ((1.0 - gam) * gam)
    return keep, integrals


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def subordinated_expectation(
    model: Model, G, Fs, x0, s0, t, threads=1
) -> tuple[SubordinationResult, ...]:
    """E[F at the horizon] for each F of the sequence Fs, as the triple
    quadrature
    int dy int du int_s0^t dv (t-v)^(-gamma(v,y))/gamma(v,y) G(u; y,v) F(y).

    The model must be a 1-D diffusion. G is either an empirical DensityGrid
    (its own axes are used) or an analytic object with
    .y_cell_masses(u, y_edges) and .v_cell_masses(u_vector, v_edges)
    (quadrature axes built here from _N_V, _N_Y and _N_U). G is read once
    for all of Fs; one result per F, in the order of Fs. threads is the
    worker count of the frozen-density head's inversions under an empirical
    G; no value depends on it.
    """
    Fs = tuple(Fs)
    if not Fs:
        raise ValueError("subordinated_expectation needs at least one functional")
    parts = _time_change(model, G, Fs, x0, s0, t,
                         *_axes(model, G, x0, s0, t, _N_V, _N_Y, _N_U), threads=threads)
    return tuple(SubordinationResult(value=float(v), band=float(b)) for v, b in parts)


def subordinated_density(model: Model, G, x0, s0, t, threads=1):
    """Density of the walk position at the horizon over the y bins of G (or
    of the quadrature axes for an analytic G).

    Returns (y_centers, density values, band per point). Same quadrature as
    the expectation with F replaced by each bin's indicator over its width;
    the output integrates to 1 within the grid's resolution. threads is as
    in `subordinated_expectation`.
    """
    axes = _axes(model, G, x0, s0, t, _N_V, _N_Y, _N_U)
    [(dens, band)] = _time_change(model, G, None, x0, s0, t, *axes, threads=threads)
    y_edges = axes[0]
    return 0.5 * (y_edges[:-1] + y_edges[1:]), dens, band


def _axes(model, G, x0, s0, t, n_v, n_y, n_u, u_max=None):
    """(y_edges, v_edges, u_max, n_u) of the quadrature; an empirical grid
    brings its own axes and u nodes. Without u_max (the bridge head passes
    its first histogram time) the u range is searched for. Raises
    ValueError, before any inversion, unless the model is a 1-D diffusion:
    the y range and the frozen-coefficient head assume one."""
    if not isinstance(model.spatial, Diffusion):
        raise ValueError("the time-change quadrature requires a 1-D diffusion model")
    if isinstance(G, DensityGrid):
        if G.v_edges[0] > s0 + 1e-12:
            raise SingularityResolutionError("v grid must start at or below s0")
        if G.v_edges[-1] < t:
            raise SingularityResolutionError("v grid must reach the horizon t")
        return G.y_edges, G.v_edges, None, None
    if u_max is None:
        u_max = _find_u_max(G, s0, t)
    y_halfwidth = 8.0 * math.sqrt(model.spatial.g_hi * u_max) + 1.0
    y_edges = np.linspace(x0 - y_halfwidth, x0 + y_halfwidth, n_y + 1)
    return y_edges, np.linspace(s0, t, n_v + 1), u_max, n_u


def _time_change(model, G, Fs, x0, s0, t, y_edges, v_edges, u_max, n_u, threads=1):
    """Integral over u of the u-integrand: the first moment of the theta
    weight under the pair law G(u; y, v), weighted over y by each F of the
    tuple Fs, or with Fs None by each bin's indicator over its width (one
    value per y bin).

    Returns one (value, band) per F, or [(values, bands)] for Fs None; G is
    read once for all of them. An empirical G gives per-node second moments
    too, and their multinomial spread is propagated to the band; its
    measured nodes are integrated by the trapezoid rule, after the
    frozen-coefficient quadrature of the same integrand over [0, u_1]. An
    analytic G is integrated by Simpson's rule in q = sqrt(u).
    """
    y_centers = 0.5 * (y_edges[:-1] + y_edges[1:])
    keep, coef = _theta_cell_weights(model, t, v_edges, y_centers)
    # Per-cell coefficient: the mean theta weight over each v cell, with each
    # F folded in before the (y, v) reduction. The division and the last F's
    # weighting act in place, so one (y, v) matrix is held per output.
    coef /= np.diff(v_edges)[keep][None, :]
    if Fs is None:
        coefs, dy, axis = [coef], np.diff(y_edges), -1
    else:
        f_ys = [np.broadcast_to(np.asarray(F(y_centers), dtype=float), y_centers.shape)
                for F in Fs]
        coefs = [coef * f_y[:, None] for f_y in f_ys[:-1]]
        coef *= f_ys[-1][:, None]
        coefs.append(coef)
        dy, axis = 1.0, None

    if isinstance(G, DensityGrid):
        rows = [[] for _ in coefs]
        var = [[] for _ in coefs]
        for mass in G.masses[:, :, keep]:
            for c, rows_c, var_c in zip(coefs, rows, var):
                first = np.sum(mass * c, axis=axis)
                second = np.sum(mass * c * c, axis=axis)
                rows_c.append(first / dy)
                var_c.append(np.maximum(second - first * first, 0.0) / G.n_traj / dy**2)
        # The frozen-coefficient head covers [0, u_1]. Each output keeps its
        # own head axes: the density the histogram's y bins.
        bridge = frozen_density(model, x0, s0, threads=threads)
        u1 = float(G.u_values[0])
        if Fs is None:
            head_axes = (y_edges, np.linspace(s0, t, 129), u1, 65)
        else:
            head_axes = _axes(model, bridge, x0, s0, t, 256, 257, 129, u_max=u1)
        heads = _time_change(model, bridge, Fs, x0, s0, t, *head_axes)
        w = _trapezoid_weights(G.u_values)
        return [(head + w @ np.array(rows_c), w @ np.sqrt(var_c))
                for (head, _), rows_c, var_c in zip(heads, rows, var)]

    # Substitute u = q^2 (the start-point factor behaves like u^(-1/2))
    # and run composite Simpson on the smooth q-integrand, one output at a
    # time so that each keeps the sums of a single-output call.
    q = np.linspace(0.0, math.sqrt(u_max), n_u)
    nodes, jac = q * q, 2.0 * q
    live = nodes > 0.0
    vals = [np.zeros(nodes.shape + np.shape(dy)) for _ in coefs]
    for i, mv in zip(np.flatnonzero(live), G.v_cell_masses(nodes[live], v_edges)):
        my = G.y_cell_masses(nodes[i], y_edges)
        for c, val in zip(coefs, vals):
            val[i] = (jac[i] * (my / dy)) * (c @ mv) if Fs is None else jac[i] * (my @ c @ mv)
    h = q[1] - q[0]
    return [(h / 3.0 * (val[0] + val[-1] + 4.0 * np.sum(val[1:-1:2], axis=0)
                        + 2.0 * np.sum(val[2:-1:2], axis=0)), np.zeros(np.shape(dy)))
            for val in vals]


def frozen_density(model, x0, s0, threads=1):
    """Short-time pair density of a 1-D diffusion model with coefficients
    frozen at the start state; exact for constant coefficients, first-order
    accurate otherwise. Its v masses invert with `threads` workers."""
    x0f = float(np.atleast_1d(x0)[0])
    gam0 = float(gamma_at(model, s0, x0f))
    g0 = float(np.atleast_1d(model.spatial.g(0.0, np.atleast_1d(x0f)))[0])
    return ConstantOrderDensity(gamma=gam0, g0=g0, x0=x0f, s0=float(s0), threads=threads)


def _find_u_max(G, s0, t):
    """Smallest horizon on a 1.5x ladder after which the pair law puts mass
    below 1e-10 under the crossing level: the v-cell mass of [s0, t]."""
    u = max(t - s0, 1e-3)
    for _ in range(60):
        if float(G.v_cell_masses(u, [s0, t])[0]) < 1e-10:
            return u
        u *= 1.5
    return u


# ---------------------------------------------------------------------------
# exhaustive recursion for the discrete chain
# ---------------------------------------------------------------------------


def discrete_subordinated_expectation(model: Model, dlaw: DiscretizedWaitingLaw, F,
                                      x0, s0, t, tau):
    """Exact expectation of F at the crossing step for the discrete chain
    with atomized waiting law, by forward recursion on the state lattice.

    Requires a constant-order model with a constant one-dimensional
    diffusion coefficient, and a lump atom large enough to cross from any
    pre-horizon state (so the lump never propagates and the reachable
    accumulated times stay on a regular lattice).

    Returns (value, remaining_mass): remaining_mass is the probability not
    yet absorbed when the recursion stopped (bounded by 1e-14 on exit).
    """
    if model.a_lo != model.a_hi:
        raise ValueError("the exhaustive recursion requires a constant order field")
    sp = model.spatial
    if not isinstance(sp, Diffusion) or sp.g_lo != sp.g_hi:
        raise ValueError("the exhaustive recursion requires constant 1-D diffusion")
    gam = model.gamma_lo
    if abs(gam - dlaw.gamma) > 1e-12:
        raise ValueError("discretized law exponent does not match the model")
    h = tau ** (1.0 / gam)
    jump = math.sqrt(tau * sp.g_lo)
    need = (t - s0) / h
    if dlaw.values[-1] < need:
        raise ValueError(
            f"lump atom {dlaw.values[-1]} below the worst-case crossing draw {need:.6g}"
        )
    offset, spacing = dlaw.offset, dlaw.spacing
    p_body = dlaw.probs[:-1]
    p_lump = float(dlaw.probs[-1])
    J = len(p_body)
    suffix = np.concatenate([np.cumsum(p_body[::-1])[::-1], [0.0]])

    k_cap = int(math.ceil(need / offset)) + 2
    n_m = int(math.ceil(need / spacing)) + J + 2
    n_i = 2 * k_cap + 1
    if n_i * n_m > _MAX_CELLS:
        raise LatticeOverflow(f"lattice would need {n_i * n_m} cells (> {_MAX_CELLS})")

    P = np.zeros((n_i, n_m))
    c_i = k_cap
    P[c_i, 0] = 1.0
    xs = x0 + jump * (np.arange(n_i) - c_i)
    f_x = np.asarray(F(xs), dtype=float)
    if f_x.shape != xs.shape:
        f_x = np.broadcast_to(f_x, xs.shape).astype(float)

    total = 0.0
    k = 0
    while True:
        mass = float(P.sum())
        if mass <= 1e-14 or k > k_cap + 4:
            break
        # spatial half-step: symmetric unit jump on the index lattice
        Pj = np.zeros_like(P)
        Pj[1:] += 0.5 * P[:-1]
        Pj[:-1] += 0.5 * P[1:]
        # crossing threshold in (m + j): states after this step carry k+1 atoms
        q = need / spacing - (k + 1) * offset / spacing
        m_idx = np.arange(n_m)
        j_min = np.ceil(q - m_idx)
        j_min = np.clip(j_min, 0, J).astype(int)
        cp = p_lump + suffix[j_min]
        total += float(f_x @ (Pj @ cp))
        # propagate the non-crossing atoms
        P_next = np.zeros_like(P)
        for j in range(J):
            length = int(min(max(math.ceil(q - j), 0), n_m - j))
            if length > 0:
                P_next[:, j : j + length] += Pj[:, :length] * p_body[j]
        P = P_next
        k += 1
    return total, float(P.sum())
