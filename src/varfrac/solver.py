"""Terminal-value solver for the nonlocal-in-time problem on a periodic grid.

The memory integral int_0^(t-s) (g(s+r) - g(s)) r^(-1-gamma) dr is
discretized by product integration: g is piecewise linear on the time grid
and the singular kernel is integrated in closed form against it, so the
discrete operator is exact for linear g. The boundary term
(g(t) - g(s)) (t-s)^(-gamma) / gamma is kept analytically. Marching runs
backward from the terminal slice and solves one linear system per step; the
system matrix is an M-matrix, which gives conservation and the maximum
principle exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import LinearSolveFailure, SingularityResolutionError
from .model import Diffusion, Model


@dataclass(frozen=True)
class Grid:
    """Uniform periodic x-grid on [-pi, pi) and uniform s-grid on [0, t]."""

    n_x: int
    n_s: int
    t: float

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n_x

    @property
    def ds(self) -> float:
        return self.t / self.n_s

    @property
    def x(self) -> np.ndarray:
        return -np.pi + self.dx * np.arange(self.n_x)

    @property
    def s(self) -> np.ndarray:
        return self.ds * np.arange(self.n_s + 1)


@dataclass(frozen=True)
class Field:
    """Solution values F(x_i, s_j) with the terminal slice pinned."""

    grid: Grid
    values: np.ndarray  # (n_s + 1, n_x)


def _cell_moments(gamma, m_idx, ds):
    """A_m = int over cell m of r^(-1-gamma), B_m = same against the local
    linear ramp (r - m ds)/ds; closed forms for a scalar gamma."""
    gamma = np.asarray(gamma, dtype=float)
    m = np.asarray(m_idx, dtype=float)
    lo = m * ds
    hi = (m + 1.0) * ds
    A = (lo ** (-gamma) - hi ** (-gamma)) / gamma
    if gamma == 1.0:  # int over the cell of r^(-1) is log(hi / lo)
        mom1 = np.log1p(1.0 / m)
    else:
        mom1 = (hi ** (1.0 - gamma) - lo ** (1.0 - gamma)) / (1.0 - gamma)
    B = mom1 / ds - m * A
    return A, B


def _weight_tables(gamma, n: int, ds: float):
    """Product-integration weights for a vector of orders (one per position)
    at offsets m = 1..n, exact for piecewise-linear g, in (offset, position)
    layout: W[m-1] multiplies g(s + m ds) - g(s) while offset m is not the
    last one, T[m-1] multiplies it when it is, and bnd[m-1] = (m ds)^(-gamma)
    / gamma is the boundary coefficient.

    Cell m spans [m ds, (m+1) ds]. Its moments A (of r^(-1-gamma)) and B
    (against the ramp (r - m ds)/ds) are differences of node values, so each
    node k ds takes one power, shared by the two cells that meet there.
    Cell 0 contributes only through the ramp, its integrable singularity
    integrated analytically: ds^(-gamma)/(1-gamma).
    """
    gam = np.asarray(gamma, dtype=float)[None, :]
    k = np.arange(1, n + 1, dtype=float)[:, None]
    bnd = (k * ds) ** (-gam)
    r = k * bnd / (1.0 - gam)  # (k ds)^(1-gamma) / ((1-gamma) ds)
    bnd /= gam
    A = bnd[:-1] - bnd[1:]
    T = np.empty((n, gam.shape[1]))
    T[0] = r[0]
    T[1:] = r[1:] - r[:-1] - k[:-1] * A  # B of cells 1..n-1
    return T[:-1] + A - T[1:], T, bnd


# ---------------------------------------------------------------------------
# spatial operators on the periodic grid
# ---------------------------------------------------------------------------


def build_spatial_operator(model: Model, grid: Grid) -> np.ndarray:
    """Dense periodic operator matrix with zero row sums and nonnegative
    off-diagonal entries.

    Second-order part: central differences scaled by g(x)/2. Jump part of
    index beta: product integration of the symmetrized difference against
    the density m(x) y^(-1-beta), with a quadratic model on the singular
    first cell, lattice summation over repeated periods, and the remaining
    tail mass attached to the grid average.
    """
    n = grid.n_x
    dx = grid.dx
    x = grid.x
    idx = np.arange(n)
    if isinstance(model.spatial, Diffusion):
        if model.dim != 1:
            raise ValueError("the grid solver is one-dimensional")
        g = np.asarray(model.spatial.g(0.0, x), dtype=float)
        c = 0.5 * g / dx**2
        L = np.zeros((n, n))
        L[idx, idx] = -2.0 * c
        L[idx, (idx + 1) % n] += c
        L[idx, (idx - 1) % n] += c
        return L

    beta = model.spatial.beta
    m_vals = np.asarray(model.spatial.m(0.0, x), dtype=float)
    # Enough repeated periods that the post-truncation oscillatory residue
    # (the mean part is reattached below) is negligible for trend checks.
    periods = 256
    M_y = periods * n
    # Node weights for the one-sided integral; the pair (i+m, i-m) shares W_m.
    W = np.zeros(M_y + 1)
    w0 = dx ** (-beta) / (2.0 - beta)  # quadratic first cell
    m_idx = np.arange(1, M_y)
    A, B = _cell_moments(beta, m_idx, dx)
    W[1] = w0 + A[0] - B[0]
    W[2:M_y] = B[:-1][: M_y - 2] + A[1:] - B[1:]
    W[M_y] = B[-1]
    # Fold onto the periodic grid.
    folded = np.bincount(np.arange(1, M_y + 1) % n, weights=W[1:], minlength=n)
    # Offset -j lands on column -c where +j lands on c: the same terms,
    # summed in the same order.
    base = folded + folded[(-idx) % n]  # total weight reaching column (i + c) mod n
    total = np.sum(W[1:]) * 2.0
    base[0] -= total  # subtract 2 f(x) sum W
    # Tail beyond the truncation: attach to the grid mean.
    R = (M_y * dx + dx) ** (-beta) / beta
    tail_row = np.full(n, 2.0 * R / n)
    tail_row[0] -= 2.0 * R
    base = base + tail_row
    return m_vals[:, None] * base[(idx[None, :] - idx[:, None]) % n]


def _slice_solver(model: Model, L: np.ndarray):
    """Solver of (diag I - L) x = rhs for the march. A diffusion operator is
    cyclic tridiagonal: its two periodic corners are split off by
    Sherman-Morrison, leaving one banded solve on two right-hand sides.
    The stable operator is full and is solved dense."""
    if not isinstance(model.spatial, Diffusion):
        return lambda diag, rhs: np.linalg.solve(np.diag(diag) - L, rhs)
    ab = np.zeros((3, len(L)))  # solve_banded layout: super, main, sub
    ab[0, 1:], ab[2, :-1] = -np.diagonal(L, 1), -np.diagonal(L, -1)
    top, bottom, l_diag = -L[0, -1], -L[-1, 0], np.diagonal(L)
    rhs2 = np.zeros((len(L), 2))

    def cyclic(diag, rhs):
        # A = B + u v^T with u = (shift, 0.., bottom), v = (1, 0.., top/shift).
        ab[1] = diag - l_diag
        shift = -ab[1, 0]
        ab[1, 0] -= shift
        ab[1, -1] -= bottom * top / shift
        rhs2[:, 0], rhs2[0, 1], rhs2[-1, 1] = rhs, shift, bottom
        y, z = solve_banded((1, 1), ab, rhs2, check_finite=False).T
        return y - (y[0] + top * y[-1] / shift) / (1.0 + z[0] + top * z[-1] / shift) * z

    return cyclic


# ---------------------------------------------------------------------------
# backward march
# ---------------------------------------------------------------------------


def solve_terminal_problem(model: Model, F_terminal, t: float, grid: Grid) -> Field:
    """March the terminal-value problem backward to s = 0.

    At each slice the unknown appears in the memory weights and in the
    spatial operator; the resulting system (sum w + boundary) I - L is
    strictly diagonally dominant with nonpositive off-diagonals, so each
    step is a convex combination of future slices.
    """
    if grid.n_s < 16:
        raise SingularityResolutionError("need at least 16 time slices to resolve the horizon")
    if grid.n_x < 3:
        raise ValueError(f"need at least 3 grid points in x, got {grid.n_x}")
    if abs(grid.t - t) > 1e-12:
        raise ValueError("grid horizon differs from requested t")
    n_s, x = grid.n_s, grid.x
    solve = _slice_solver(model, build_spatial_operator(model, grid))
    values = np.empty((n_s + 1, grid.n_x))
    values[n_s] = F_terminal(x)  # broadcasts a scalar result
    term = values[n_s]

    def tables(j, n):
        return _weight_tables(model.alpha * model.order_field(grid.s[j], x), n, grid.ds)

    time_indep = model.order_field.time_independent
    if time_indep:
        W, T, bnd = tables(0, n_s)
    for j in range(n_s - 1, -1, -1):
        M = n_s - j
        if not time_indep:
            W, T, bnd = tables(j, M)
        w, last = W[: M - 1], T[M - 1] + bnd[M - 1]
        rhs = np.einsum("mi,mi->i", w, values[j + 1 : j + M]) + last * term
        try:
            sol = solve(np.sum(w, axis=0) + last, rhs)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(str(exc)) from exc
        if not np.all(np.isfinite(sol)):
            raise LinearSolveFailure(f"non-finite solution at slice {j}")
        values[j] = sol
    return Field(grid=grid, values=values)


def export_csv(field: Field, path) -> None:
    """Write the solved field as CSV rows (x, s, F)."""
    import csv

    grid = field.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "s", "F"])
        for j, sj in enumerate(grid.s):
            for i, xi in enumerate(grid.x):
                writer.writerow([repr(float(xi)), repr(float(sj)), repr(float(field.values[j, i]))])
