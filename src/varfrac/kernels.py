"""Symmetric spatial jump laws.

A kernel family is the jump law at every position. The diffusion law puts
weight 1/2 on each of +-sqrt(g(x)), which matches the second moment g(x)
exactly; the jump law of index beta is the pure power law m(x)|z|^(-1-beta)
beyond the smallest threshold that carries all its mass.
All limit operators are taken in the jump form
int (f(x+y) - f(x)) m(x)|y|^(-1-beta) dy, which fixes one normalization for
the kernels, the chain engine, and the grid solver.
"""

from __future__ import annotations

import numpy as np

from .model import Diffusion, Model, Stable1D


# ---------------------------------------------------------------------------
# kernel families: the jump law at every position, vectorized over positions
# ---------------------------------------------------------------------------


class DiffusionKernelFamily:
    """Position-indexed family of the two-atom diffusion kernels +-sqrt(g(x))
    with a single-u inverse-CDF sampler (vectorized over positions)."""

    def __init__(self, model: Model):
        if not isinstance(model.spatial, Diffusion):
            raise ValueError("diffusion family requires a diffusion spatial part")
        self.model = model
        # A constant g gives the same atoms at every position: read it once.
        g = model.spatial.g
        self._a = np.sqrt(float(g(0.0, 0.0))) if g.kind == "constant" else None

    @property
    def position_free(self) -> bool:
        """True when the jump law is the same at every position."""
        return self._a is not None

    def sample(self, x, u):
        """One jump per uniform in u, from positions x that broadcast against u."""
        a = self._a
        if a is None:
            a = np.sqrt(np.asarray(self.model.spatial.g(0.0, x), dtype=float))
        # -a below 1/2 and +a from 1/2 up, exactly: u - 0.5 is +0.0 at 1/2.
        return np.copysign(a, np.asarray(u, dtype=float) - 0.5)


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
        # draw and the sign comes from which half of (0,1) u fell in. Both
        # halves map onto (0,1) exactly: 2u is exact, so 2u - 1 = -(1 - 2u).
        u_half = np.abs(2.0 * u - 1.0)
        # Survival of |z|: 2 m r^(-beta) / beta; invert at 1 - u_half.
        mag = (beta * (1.0 - u_half) / two_m) ** (-1.0 / beta)
        return np.copysign(mag, u - 0.5)


def kernel_family(model: Model):
    if isinstance(model.spatial, Diffusion):
        return DiffusionKernelFamily(model)
    return StableKernelFamily(model)
