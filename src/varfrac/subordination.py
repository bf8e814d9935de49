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
from .errors import DomainError, LatticeOverflow, SingularityResolutionError
from .model import Diffusion, Model, gamma_at
from .oracles import ConstantOrderDensity
from .waiting import DiscretizedWaitingLaw


def theta_tail(model: Model, v: float, y, t: float) -> float:
    """Tail functional of the waiting jump measure at state (v, y):
    integral of w^(-1-gamma(v,y)) over w >= t - v, i.e.
    (t - v)^(-gamma) / gamma."""
    if v >= t:
        raise DomainError(f"requires v < t, got v={v}, t={t}")
    gam = float(gamma_at(model, v, y))
    return (t - v) ** (-gam) / gam


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
    gam = model.alpha * model.order_field(vv, yy)
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


def subordinated_expectation(model: Model, G, F, x0, s0, t, n_v: int = 512, n_y: int = 513,
                             n_u: int = 257) -> SubordinationResult:
    """E[F at the horizon] as the triple quadrature
    int dy int du int_s0^t dv (t-v)^(-gamma(v,y))/gamma(v,y) G(u; y,v) F(y).

    G is either an empirical DensityGrid (its own axes are used; u = 0
    contributes the exact starting-point term) or an analytic object with
    .y_cell_masses(u, y_edges) and .v_cell_masses(u_vector, v_edges)
    (quadrature axes built here from the keyword sizes).
    """
    value, band = _time_change(model, G, F, x0, s0, t, *_axes(model, G, x0, s0, t, n_v, n_y, n_u))
    return SubordinationResult(value=float(value), band=float(band))


def subordinated_density(model: Model, G, x0, s0, t, n_v: int = 512, n_y: int = 513,
                         n_u: int = 257):
    """Density of the walk position at the horizon over the y bins of G (or
    of the quadrature axes for an analytic G).

    Returns (y_centers, density values, band per point). Same quadrature as
    the expectation with F replaced by each bin's indicator over its width;
    the output integrates to 1 within the grid's resolution.
    """
    axes = _axes(model, G, x0, s0, t, n_v, n_y, n_u)
    dens, band = _time_change(model, G, None, x0, s0, t, *axes)
    y_edges = axes[0]
    return 0.5 * (y_edges[:-1] + y_edges[1:]), dens, band


def _axes(model, G, x0, s0, t, n_v, n_y, n_u, u_max=None):
    """(y_edges, v_edges, u_max, n_u) of the quadrature; an empirical grid
    brings its own axes and u nodes. Without u_max (the bridge head passes
    its first histogram time) the u range is searched for."""
    if isinstance(G, DensityGrid):
        if G.v_edges[0] > s0 + 1e-12:
            raise SingularityResolutionError("v grid must start at or below s0")
        if G.v_edges[-1] < t:
            raise SingularityResolutionError("v grid must reach the horizon t")
        return G.y_edges, G.v_edges, None, None
    if u_max is None:
        u_max = _find_u_max(G, s0, t)
    sp = model.spatial
    y_halfwidth = 8.0 * math.sqrt(sp.g_hi * u_max) + 1.0 if isinstance(sp, Diffusion) else 40.0
    y_edges = np.linspace(x0 - y_halfwidth, x0 + y_halfwidth, n_y + 1)
    if n_u % 2 == 0:
        n_u += 1
    return y_edges, np.linspace(s0, t, n_v + 1), u_max, n_u


def _time_change(model, G, F, x0, s0, t, y_edges, v_edges, u_max, n_u):
    """Integral over u of the u-integrand: the first moment of the theta
    weight under the pair law G(u; y, v), weighted over y by F, or with F
    None by each bin's indicator over its width (one value per y bin).

    Returns (value, band). An empirical G gives per-node second moments too,
    and their multinomial spread is propagated to the band; its measured
    nodes are integrated by the trapezoid rule, starting from the exact
    u = 0 term, or, for a 1-D diffusion, from the frozen-coefficient
    quadrature of the same integrand over [0, u_1]. An analytic G is
    integrated by Simpson's rule in q = sqrt(u).
    """
    y_centers = 0.5 * (y_edges[:-1] + y_edges[1:])
    keep, integrals = _theta_cell_weights(model, t, v_edges, y_centers)
    # Per-cell coefficient: the mean theta weight over each v cell, with F
    # folded in before the (y, v) reduction.
    coef = integrals / np.diff(v_edges)[keep][None, :]
    if F is None:
        dy, axis = np.diff(y_edges), -1
    else:
        f_y = np.broadcast_to(np.asarray(F(y_centers), dtype=float), y_centers.shape)
        coef = coef * f_y[:, None]
        dy, axis = 1.0, None

    if isinstance(G, DensityGrid):
        if F is None:
            at_x0 = np.zeros(len(dy))
            start_bin = np.searchsorted(y_edges, x0, side="right") - 1
            if not 0 <= start_bin < len(dy):
                raise ValueError(f"x0 = {x0} lies outside the grid's y range "
                                 f"[{y_edges[0]}, {y_edges[-1]})")
            at_x0[start_bin] = 1.0
        else:
            at_x0 = float(np.asarray(F(np.atleast_1d(x0)))[0])
        rows = [theta_tail(model, s0, x0, t) * at_x0 / dy]
        var = [np.zeros_like(rows[0])]
        for mass in G.masses[:, :, keep]:
            first = np.sum(mass * coef, axis=axis)
            second = np.sum(mass * coef * coef, axis=axis)
            rows.append(first / dy)
            var.append(np.maximum(second - first * first, 0.0) / G.n_traj / dy**2)
        nodes = np.concatenate([[0.0], G.u_values])
        rows, sig = np.array(rows), np.sqrt(var)
        bridge = _local_frozen_density(model, x0, s0)
        if bridge is not None:
            # The frozen-coefficient head replaces the u = 0 row. Each output
            # keeps its own head axes: the density the histogram's y bins.
            u1 = float(G.u_values[0])
            if F is None:
                head_axes = (y_edges, np.linspace(s0, t, 129), u1, 65)
            else:
                head_axes = _axes(model, bridge, x0, s0, t, 256, 257, 129, u_max=u1)
            head, _ = _time_change(model, bridge, F, x0, s0, t, *head_axes)
            w = _trapezoid_weights(nodes[1:])
            return head + w @ rows[1:], w @ sig[1:]
        w = _trapezoid_weights(nodes)
        return w @ rows, w @ sig

    # Substitute u = q^2 (the start-point factor behaves like u^(-1/2))
    # and run composite Simpson on the smooth q-integrand.
    q = np.linspace(0.0, math.sqrt(u_max), n_u)
    nodes, jac = q * q, 2.0 * q
    live = nodes > 0.0
    vals = np.zeros(nodes.shape + np.shape(dy))
    for i, mv in zip(np.flatnonzero(live), G.v_cell_masses(nodes[live], v_edges)):
        my = G.y_cell_masses(nodes[i], y_edges)
        vals[i] = (jac[i] * (my / dy)) * (coef @ mv) if F is None else jac[i] * (my @ coef @ mv)
    h = q[1] - q[0]
    value = h / 3.0 * (
        vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2], axis=0)
        + 2.0 * np.sum(vals[2:-1:2], axis=0)
    )
    return value, np.zeros_like(value)


def _local_frozen_density(model, x0, s0):
    """Short-time pair density with coefficients frozen at the start state;
    exact for constant coefficients, first-order accurate otherwise. Only
    available for 1-D second-order spatial parts."""
    if not isinstance(model.spatial, Diffusion) or model.dim != 1:
        return None
    x0f = float(np.atleast_1d(x0)[0])
    gam0 = float(gamma_at(model, s0, x0f))
    g0 = float(np.atleast_1d(model.spatial.g(0.0, np.atleast_1d(x0f)))[0])
    return ConstantOrderDensity(gamma=gam0, g0=g0, x0=x0f, s0=float(s0))


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
                                      x0, s0, t, tau,
                                      max_cells: int = 1 << 26):
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
    if not isinstance(sp, Diffusion) or model.dim != 1 or sp.g_lo != sp.g_hi:
        raise ValueError("the exhaustive recursion requires constant 1-D diffusion")
    gam = model.alpha * model.a_lo
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
    if n_i * n_m > max_cells:
        raise LatticeOverflow(f"lattice would need {n_i * n_m} cells (> {max_cells})")

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
