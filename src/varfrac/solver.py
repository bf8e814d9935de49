"""Terminal-value solver for the nonlocal-in-time problem on a periodic grid.

The memory integral int_0^(t-s) (g(s+r) - g(s)) r^(-1-gamma) dr is
discretized by product integration: g is piecewise linear on the time grid
and the singular kernel is integrated in closed form against it, so the
discrete operator is exact for linear g. The boundary term
(g(t) - g(s)) (t-s)^(-gamma) / gamma is kept analytically. The same hat
moments build the stable1d jump operator: D(y)/y^2 is piecewise linear in the
jump y and integrated against y^(1-beta), second order in dx. Marching runs
backward from the terminal slice and solves one linear system per step; the
system matrix is an M-matrix, which gives conservation and the maximum
principle exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LinearSolveFailure, SingularityResolutionError
from .model import Diffusion, Model, gamma_at


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


def _hat_moments(q, n: int, h: float):
    """Moments of r^(q-1) for product integration on the nodes k h, k = 1..n.

    Returns A (cells 1..n-1), the integral of r^(q-1) over cell k, that is
    [k h, (k+1) h]; B (cells 0..n-1), the same against the ramp
    (r - k h)/h, cell 0 included as long as r^q is integrable at 0; and
    P (nodes 1..n), the antiderivative (k h)^q / q. A and B are differences
    of node values, so each node takes one power. The hat on node k has the
    moment B_(k-1) + A_k - B_k, which is B[:-1] + A - B[1:] in array terms.
    q is a scalar or a row of exponents, one per column.
    """
    k = np.arange(1, n + 1, dtype=float)[:, None]
    P = (k * h) ** q
    R = k * P / (q + 1.0)  # (k h)^(q+1) / ((q+1) h)
    P /= q
    A = P[1:] - P[:-1]
    B = np.empty_like(P)
    B[0] = R[0]
    np.subtract(R[1:], R[:-1], out=B[1:])
    B[1:] -= k[:-1] * A
    return A, B, P


def _weight_tables(gamma, n: int, ds: float):
    """Product-integration weights for a vector of orders (one per position)
    at offsets m = 1..n, exact for piecewise-linear g, in (offset, position)
    layout: W[m-1] multiplies g(s + m ds) - g(s) while offset m is not the
    last one, T[m-1] multiplies it when it is, and bnd[m-1] = (m ds)^(-gamma)
    / gamma is the boundary coefficient.

    These are the hat moments of r^(-1-gamma); the singular cell 0 enters
    only through its ramp, integrated analytically: ds^(-gamma)/(1-gamma).
    """
    A, T, P = _hat_moments(-np.asarray(gamma, dtype=float)[None, :], n, ds)
    return T[:-1] + A - T[1:], T, np.negative(P, out=P)


# ---------------------------------------------------------------------------
# spatial operators on the periodic grid
# ---------------------------------------------------------------------------


def build_spatial_operator(model: Model, grid: Grid) -> np.ndarray:
    """Dense periodic operator matrix with zero row sums and nonnegative
    off-diagonal entries.

    Second-order part: central differences scaled by g(x)/2. Jump part of
    index beta: the integral of D(y) = f(x+y) + f(x-y) - 2 f(x) against the
    density m(x) y^(-1-beta) is written as that of D(y)/y^2 against
    y^(1-beta). D/y^2 is smooth and tends to f''(x), so it is interpolated by
    the hats on the nodes m dx and integrated by the same product
    integration as the time weights, second order in dx. On the first cell
    it is held at its node-1 value. The nodes are summed over repeated
    periods, and the tail mass past the last one is attached to the grid
    average.
    """
    n = grid.n_x
    dx = grid.dx
    x = grid.x
    idx = np.arange(n)
    if isinstance(model.spatial, Diffusion):
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
    M_y = 256 * n
    k = np.arange(1, M_y + 1)
    # Node weights of the one-sided integral; the pair (i+m, i-m) shares W[m-1].
    A, B, P = _hat_moments(2.0 - beta, M_y, dx)
    W = np.append(B[:-1] + A - B[1:], B[-1])  # the last node keeps its rising half
    W[0] += P[0, 0] - B[0, 0]  # D/y^2 held at its node-1 value on the first cell
    W /= (k * dx) ** 2
    # Fold onto the periodic grid.
    folded = np.bincount(k % n, weights=W, minlength=n)
    # Offset -j lands on column -c where +j lands on c: the same terms,
    # summed in the same order.
    base = folded + folded[(-idx) % n]  # total weight reaching column (i + c) mod n
    base[0] -= np.sum(W) * 2.0  # subtract 2 f(x) sum W
    # Tail beyond the last hat, from M_y dx on: attach to the grid mean.
    R = (M_y * dx) ** (-beta) / beta
    base += 2.0 * R / n
    base[0] -= 2.0 * R
    return m_vals[:, None] * base[(idx[None, :] - idx[:, None]) % n]


def _slice_solver(model: Model, L: np.ndarray):
    """Solver of (diag I - L) x = rhs for the march. A diffusion operator is
    cyclic tridiagonal: its two periodic corners are split off by
    Sherman-Morrison, leaving one banded solve on two right-hand sides.
    The stable operator is full and is solved dense."""
    if not isinstance(model.spatial, Diffusion):
        return lambda diag, rhs: np.linalg.solve(np.diag(diag) - L, rhs)
    from scipy.linalg import solve_banded

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
        return _weight_tables(gamma_at(model, grid.s[j], x), n, grid.ds)

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
