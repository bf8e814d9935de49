"""Symmetric spatial jump laws and their small-step generators.

A kernel family is the jump law at every position. Discrete atom systems
match the second moments of the diffusion coefficient exactly; the
one-dimensional jump law of index beta is the pure power law
m(x)|z|^(-1-beta) beyond the smallest threshold that carries all its mass.
All limit operators are taken in the jump form
int (f(x+y) - f(x)) m(x)|y|^(-1-beta) dy, which fixes one normalization for
the kernels, the chain engine, and the grid solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import KernelInfeasible, QuadratureFailure
from .model import Diffusion, Model, Stable1D


def _diffusion_atoms(model: Model, x):
    """Atoms (n, k, d) and weights (k,) of the discrete laws at the n
    positions x ((n,) in 1-D, (n, 2) in 2-D) whose second moment is G(x).

    d=1: atoms +-sqrt(g(x)), weight 1/2 each. d=2: equal-weight atoms along
    the axes, plus one diagonal pair carrying the off-diagonal moment unless
    G12 vanishes at every position; feasible iff min(G11, G22) >= |G12|.
    """
    if model.dim == 1:
        a = np.sqrt(np.asarray(model.spatial.g(0.0, x), dtype=float))
        return np.stack([a, -a], axis=-1)[..., None], np.array([0.5, 0.5])
    G = np.asarray(model.spatial.g(x), dtype=float)
    g11, g22, g12 = G[..., 0, 0], G[..., 1, 1], G[..., 0, 1]
    bad = np.flatnonzero(np.minimum(g11, g22) < np.abs(g12) - 1e-14)
    if len(bad):
        i = bad[0]
        raise KernelInfeasible(
            f"off-diagonal {g12.flat[i]} exceeds a diagonal entry of "
            f"diag({g11.flat[i]}, {g22.flat[i]})"
        )
    z = np.zeros_like(g11)
    if not np.any(g12 != 0.0):
        # Four atoms, weight 1/4: 2*(1/4)*a_i^2 = G_ii.
        a1 = np.sqrt(2.0 * g11)
        a2 = np.sqrt(2.0 * g22)
        pairs = [(a1, z), (-a1, z), (z, a2), (z, -a2)]
    else:
        # Six atoms, weight 1/6; the diagonal pair matching sign(G12) carries
        # the whole off-diagonal moment: 2*(1/6)*b^2 = |G12|.
        a1 = np.sqrt(3.0 * np.maximum(g11 - np.abs(g12), 0.0))
        a2 = np.sqrt(3.0 * np.maximum(g22 - np.abs(g12), 0.0))
        b = np.sqrt(3.0 * np.abs(g12))
        sb = np.where(g12 >= 0.0, b, -b)
        pairs = [(a1, z), (-a1, z), (z, a2), (z, -a2), (b, sb), (-b, -sb)]
    atoms = np.stack([np.stack(p, axis=-1) for p in pairs], axis=-2)
    return atoms, np.full(len(pairs), 1.0 / len(pairs))


# ---------------------------------------------------------------------------
# kernel families: the jump law at every position, vectorized over positions
# ---------------------------------------------------------------------------


class DiffusionKernelFamily:
    """Position-indexed family of discrete diffusion kernels with a single-u
    inverse-CDF sampler (vectorized over positions)."""

    def __init__(self, model: Model):
        if not isinstance(model.spatial, Diffusion):
            raise ValueError("diffusion family requires a diffusion spatial part")
        self.model = model
        # A constant 1-D g gives the same atoms at every position: read it once.
        g = model.spatial.g
        self._a = np.sqrt(float(g(0.0, 0.0))) if model.dim == 1 and g.kind == "constant" else None

    @property
    def position_free(self) -> bool:
        """True when the jump law is the same at every position."""
        return self._a is not None

    def sample(self, x, u):
        """One jump per uniform in u, from positions x that broadcast against
        u (in 2-D with a trailing axis of 2)."""
        u = np.asarray(u, dtype=float)
        if self._a is not None:
            return np.where(u < 0.5, -self._a, self._a)
        if self.model.dim == 1:
            a = np.sqrt(np.asarray(self.model.spatial.g(0.0, x), dtype=float))
            return np.where(u < 0.5, -a, a)
        atoms, weights = _diffusion_atoms(self.model, x)
        idx = np.minimum((u * len(weights)).astype(np.int64), len(weights) - 1)
        return np.take_along_axis(atoms, idx[..., None, None], axis=-2)[..., 0, :]


class StableKernelFamily:
    """Position-indexed family of power-tail kernels (minimal threshold)."""

    def __init__(self, model: Model):
        if not isinstance(model.spatial, Stable1D):
            raise ValueError("stable family requires a jump spatial part")
        self.model = model
        self.beta = model.spatial.beta
        m = model.spatial.m
        self._two_m = 2.0 * float(m(0.0, 0.0)) if m.kind == "constant" else None

    @property
    def position_free(self) -> bool:
        """True when the jump law is the same at every position."""
        return self._two_m is not None

    def sample(self, x, u):
        beta = self.beta
        two_m = self._two_m
        if two_m is None:
            two_m = 2.0 * np.asarray(self.model.spatial.m(0.0, x), dtype=float)
        # Minimal threshold: tail mass is exactly 1, so |z| is a pure power
        # draw and the sign comes from which half of (0,1) u fell in.
        sign = np.where(u < 0.5, -1.0, 1.0)
        u_half = np.where(u < 0.5, 1.0 - 2.0 * u, 2.0 * u - 1.0)
        # Survival of |z|: 2 m r^(-beta) / beta; invert at 1 - u_half.
        mag = (beta * (1.0 - u_half) / two_m) ** (-1.0 / beta)
        return sign * mag


def kernel_family(model: Model):
    if isinstance(model.spatial, Diffusion):
        return DiffusionKernelFamily(model)
    return StableKernelFamily(model)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def apply_approx_generator(family, tau: float, f, x) -> float:
    """Small-step generator (1/tau) int (f(x + tau^(1/beta) z) - f(x)) p(x, dz)
    of a kernel family at x, with beta = 2 for diffusion atoms and the
    family's own beta otherwise.

    Exact atom sum for diffusion atoms; adaptive quadrature (symmetrized, so
    odd integrands vanish identically) for the power law, whose density is
    m(x)|z|^(-1-beta) beyond B = (2 m(x) / beta)^(1/beta) and zero inside.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    model = family.model
    if isinstance(family, DiffusionKernelFamily):
        h = tau ** 0.5
        atoms, weights = _diffusion_atoms(model, x[None, :] if model.dim == 2 else x[:1])
        vals = [w * (f(x + h * z) - f(x)) for z, w in zip(atoms[0], weights)]
        return float(np.asarray(sum(vals)).reshape(-1)[0]) / tau
    beta = family.beta
    h = tau ** (1.0 / beta)
    x0 = float(x[0])
    coef = float(model.spatial.m(0.0, x0))
    B = (2.0 * coef / beta) ** (1.0 / beta)

    def sym(z):
        return f(x0 + h * z) + f(x0 - h * z) - 2.0 * f(x0)

    # Beyond Z the test function has leveled off; freeze it there and close
    # the tail in closed form.
    Z = max(60.0 / h, 20.0 * B)
    v1, e1 = integrate.quad(
        lambda z: sym(z) * z ** (-1.0 - beta), B, Z,
        limit=800, epsabs=1e-12, epsrel=1e-11, points=[min(1.0 / h, Z / 2.0)],
    )
    tail = sym(2.0 * Z) * Z ** (-beta) / beta
    if coef * e1 / tau > 1e-8:
        raise QuadratureFailure(f"generator quadrature error {coef * e1 / tau:.3g}")
    return coef * (v1 + tail) / tau


def limit_generator(model: Model, f, x) -> float:
    """The limiting spatial generator at x: (1/2) tr(G(x) f'') for the
    diffusion part, or the singular jump integral with density
    m(x)|y|^(-1-beta) for the stable part. f must provide second derivatives
    (attribute d2 in 1-D, hess in 2-D) for the diffusion case."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(model.spatial, Diffusion):
        if model.dim == 1:
            g = float(model.spatial.g(0.0, x[0]))
            return 0.5 * g * float(f.d2(x[0]))
        G = np.asarray(model.spatial.g(x), dtype=float)
        return 0.5 * float(np.trace(G @ np.asarray(f.hess(x))))
    beta = model.spatial.beta
    m = float(model.spatial.m(0.0, x[0]))
    x0 = float(x[0])

    def pair(y):
        return f.fn(x0 + y) + f.fn(x0 - y) - 2.0 * f.fn(x0)

    Z = 80.0
    v1, e1 = integrate.quad(
        lambda y: pair(y) * y ** (-1.0 - beta), 0.0, Z,
        limit=800, epsabs=1e-12, epsrel=1e-11, points=[1.0],
    )
    tail = pair(2.0 * Z) * Z ** (-beta) / beta
    if e1 > 1e-8:
        raise QuadratureFailure("limit generator quadrature did not converge")
    return m * (v1 + tail)


@dataclass(frozen=True)
class TestFunction:
    """A C^2 test function bundle for generator residual checks."""

    fn: object
    d2: object = None
    hess: object = None


def generator_residual(model: Model, tau: float, f_set, x_grid) -> float:
    """sup over test functions and grid points of |limit - small-step| at
    scale tau."""
    fam = kernel_family(model)
    worst = 0.0
    for f in f_set:
        for x in np.atleast_1d(np.asarray(x_grid, dtype=float)):
            approx = apply_approx_generator(fam, tau, f.fn, x)
            exact = limit_generator(model, f, x)
            worst = max(worst, abs(exact - approx))
    return worst
