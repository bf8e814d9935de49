"""Small-step and limit generators of the spatial jump laws, for the
generator tests.

The walk's small-step generator of a kernel family tends to the limit
generator as tau -> 0; the paper's convergence runs through that limit.
No run of the package calls these, so they live beside their tests, as the
scalar reference chain does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from varfrac.errors import QuadratureFailure
from varfrac.kernels import kernel_family
from varfrac.model import Diffusion, Model


def apply_approx_generator(family, tau: float, f, x) -> float:
    """Small-step generator (1/tau) int (f(x + tau^(1/beta) z) - f(x)) p(x, dz)
    of a kernel family at x, with beta = 2 for diffusion and the family's
    own beta otherwise.

    Exact sum over the diffusion atoms +-sqrt(g(x)), weight 1/2 each,
    written here apart from the sampler; adaptive quadrature (symmetrized, so
    odd integrands vanish identically) for the power law, whose density is
    m(x)|z|^(-1-beta) beyond B = (2 m(x) / beta)^(1/beta) and zero inside.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(family, Diffusion):
        h = tau ** 0.5
        a = np.sqrt(np.asarray(family.g(0.0, x[:1]), dtype=float))
        vals = [0.5 * (f(x + h * z) - f(x)) for z in (a, -a)]
        return float(np.asarray(sum(vals)).reshape(-1)[0]) / tau
    beta = family.beta
    h = tau ** (1.0 / beta)
    x0 = float(x[0])
    coef = float(family.m(0.0, x0))
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
    """The limiting spatial generator at x: (1/2) g(x) f'' for the diffusion
    part, or the singular jump integral with density m(x)|y|^(-1-beta) for
    the stable part. f must provide its second derivative (attribute d2) for
    the diffusion case."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(model.spatial, Diffusion):
        g = float(model.spatial.g(0.0, x[0]))
        return 0.5 * g * float(f.d2(x[0]))
    beta = model.spatial.beta
    m = float(model.spatial.m(0.0, x[0]))
    x0 = float(x[0])

    def pair(y):
        return f.fn(x0 + y) + f.fn(x0 - y) - 2.0 * f.fn(x0)

    def smooth(y):
        # pair(y)/y^2 tends to f''(x0), but its rounding grows like 1/y^2;
        # below 1e-4 it is held at its value there (a Taylor head).
        y = max(y, 1e-4)
        return pair(y) / (y * y)

    # On [0, 1] the algebraic weight y^(1-beta) carries the endpoint and the
    # rule sees the bounded pair(y)/y^2, as waiting._limit_integral does.
    Z = 80.0
    kw = dict(limit=800, epsabs=1e-12, epsrel=1e-11)
    v0, e0 = integrate.quad(smooth, 0.0, 1.0, weight="alg", wvar=(1.0 - beta, 0.0), **kw)
    v1, e1 = integrate.quad(lambda y: pair(y) * y ** (-1.0 - beta), 1.0, Z, **kw)
    tail = pair(2.0 * Z) * Z ** (-beta) / beta
    if e0 + e1 > 1e-8:
        raise QuadratureFailure("limit generator quadrature did not converge")
    return m * (v0 + v1 + tail)


@dataclass(frozen=True)
class TestFunction:
    """A C^2 test function bundle for generator residual checks."""

    fn: object
    d2: object = None


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
