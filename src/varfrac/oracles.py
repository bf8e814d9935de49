"""Independent analytic references used to cross-check the simulators.

All formulas carry the unnormalized jump-density convention used throughout
the package: the increasing coordinate has jump density r^(-1-gamma) with
coefficient 1, so its Laplace exponent is Gamma(1-gamma) * lam^gamma / gamma
rather than the textbook lam^gamma. Every derived constant below states this
convention explicitly to prevent silent mismatches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .errors import AccuracyLoss, InversionFailure, QuadratureFailure

_ML_MAX_ABS = 50.0
_ML_INTEGRAL_GAMMA_MAX = 0.97


def laplace_exponent(gamma: float, lam):
    """Exponent of the increasing coordinate: Gamma(1-gamma) lam^gamma / gamma."""
    return gamma_fn(1.0 - gamma) * np.power(lam, gamma) / gamma


# ---------------------------------------------------------------------------
# Mittag-Leffler function on the negative half line
# ---------------------------------------------------------------------------


def _ml_series(gamma: float, z: float):
    """Compensated power series; returns (value, ok) where ok is False when
    alternating-term cancellation ate more than ~7 digits of the result."""
    total = 0.0
    comp = 0.0
    term = 1.0
    peak = 1.0
    log_abs_z = math.log(abs(z)) if z != 0.0 else -math.inf
    n = 0
    while True:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        peak = max(peak, abs(total), abs(term))
        if abs(term) < 1e-18 * max(1.0, abs(total)) and n > 4:
            break
        n += 1
        log_term = n * log_abs_z - math.lgamma(1.0 + gamma * n)
        if log_term > 690.0 or n > 2000:
            return total, False
        term = math.exp(log_term) if n % 2 == 0 else -math.exp(log_term)
    ok = peak * 2.3e-16 <= 1e-9 * max(abs(total), 1e-12)
    return total, ok


def _ml_integral(gamma: float, z: float) -> float:
    # Spectral representation for z = -x < 0, 0 < gamma < 1, after the
    # singularity-removing substitution q = r^gamma:
    #   E_gamma(-x) = (x sin(pi gamma) / (pi gamma))
    #                 * int_0^inf exp(-q^(1/gamma))
    #                   / (q^2 + 2 x q cos(pi gamma) + x^2) dq
    x = -z
    spg = math.sin(math.pi * gamma)
    cpg = math.cos(math.pi * gamma)
    inv_g = 1.0 / gamma

    def integrand(q):
        return math.exp(-min(q**inv_g, 745.0)) / (q * q + 2.0 * x * q * cpg + x * x)

    # Denominator minimum sits near q = x when cos(pi gamma) < 0.
    cut = max(4.0 * x, 8.0)
    pts = sorted(p for p in (0.5 * x, x, 2.0 * x) if 0.0 < p < cut)
    val1, err1 = integrate.quad(
        integrand, 0.0, cut, points=pts or None, limit=500, epsabs=1e-14, epsrel=1e-12
    )
    val2, err2 = integrate.quad(integrand, cut, np.inf, limit=200, epsabs=1e-14, epsrel=1e-12)
    scale = x * spg / (math.pi * gamma)
    out = scale * (val1 + val2)
    if not np.isfinite(out) or scale * (err1 + err2) > 1e-9 * max(abs(out), 1e-10):
        raise QuadratureFailure("spectral integral for the Mittag-Leffler tail did not converge")
    return out


def mittag_leffler(gamma: float, z: float) -> float:
    """E_gamma(z) for gamma in (0, 1], real z <= 0, |z| <= 50.

    Power series with compensated summation for small |z|; spectral integral
    representation beyond. Relative accuracy 1e-8 inside the validated
    envelope; AccuracyLoss outside it.
    """
    if not 0.0 < gamma <= 1.0:
        raise AccuracyLoss(f"gamma={gamma} outside (0, 1]")
    if z > 0.0 or abs(z) > _ML_MAX_ABS:
        raise AccuracyLoss(f"argument z={z} outside validated range [-{_ML_MAX_ABS}, 0]")
    if gamma == 1.0:
        return math.exp(z)
    value, ok = _ml_series(gamma, z)
    if ok:
        return value
    if gamma > _ML_INTEGRAL_GAMMA_MAX:
        raise AccuracyLoss(
            f"gamma={gamma} too close to 1 for the integral branch at |z|={abs(z)}"
        )
    return _ml_integral(gamma, z)


def constant_order_solution(gamma: float, k: float, sigma: float, c: float = 1.0) -> float:
    """Amplitude of the cos(k x) mode at time-to-terminal sigma.

    Exact Fourier-mode solution of the terminal-value problem with constant
    order gamma and second-order spatial part with coefficient c:

        amplitude = E_gamma(-(gamma / Gamma(1-gamma)) * (c k^2 / 2) * sigma^gamma)

    The bridge factor gamma / Gamma(1-gamma) converts the nonlocal derivative
    in its jump-density form (coefficient 1) to the classical form that
    Mittag-Leffler profiles solve.
    """
    if sigma == 0.0 or k == 0.0:
        return 1.0
    lam = (gamma / gamma_fn(1.0 - gamma)) * (c * k * k / 2.0)
    return mittag_leffler(gamma, -lam * sigma**gamma)


# ---------------------------------------------------------------------------
# fixed Talbot inversion of the increasing coordinate's transforms
# ---------------------------------------------------------------------------

# Complex values held at once per contour evaluation; bounds the slab when
# both the time parameter and the level are vectors.
_SLAB = 1 << 16


@functools.cache
def _talbot_nodes(degree: int):
    """Nodes delta_k and weights gamma_k of the fixed Talbot contour
    (Abate & Valko, IJNME 60, 2004)."""
    M = degree
    k = np.arange(M)
    theta = k * np.pi / M
    delta = np.empty(M, dtype=complex)
    delta[0] = 2.0 * M / 5.0
    delta[1:] = 2.0 * np.pi / 5.0 * k[1:] * (1.0 / np.tan(theta[1:]) + 1j)
    gam = np.empty(M, dtype=complex)
    gam[0] = 0.5 * np.exp(delta[0])
    gam[1:] = (
        1.0 + 1j * theta[1:] * (1.0 + 1.0 / np.tan(theta[1:]) ** 2) - 1j / np.tan(theta[1:])
    ) * np.exp(delta[1:])
    delta.flags.writeable = gam.flags.writeable = False
    return delta, gam


def _talbot(gamma, s, level, cdf, degree):
    delta, gam = _talbot_nodes(degree)
    p = delta / level[..., None]
    psi = laplace_exponent(gamma, p)
    out = np.empty((s.size,) + level.shape)
    rows = max(1, _SLAB // p.size)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for lo in range(0, s.size, rows):
            sb = s.reshape((-1,) + (1,) * p.ndim)[lo : lo + rows]
            # With one s the slab overwrites psi: the two never coexist.
            terms = np.multiply(-sb, psi, out=psi[None] if s.size == 1 else None)
            np.exp(terms, out=terms)
            if cdf:
                np.divide(terms, p, out=terms)
            np.multiply(gam, terms, out=terms)
            val = (0.4 / level) * np.sum(terms, axis=-1).real
            # Divergent contour: individual terms dwarf any probability-scale
            # value the inversions here can take.
            bad = ~np.isfinite(val) | (np.nanmax(np.abs(terms), axis=-1) * 0.4 / level > 1e12)
            out[lo : lo + rows] = np.where(bad, 0.0, val)
    return out.reshape(s.shape + level.shape)


def invert_laplace(gamma: float, s, level, cdf=False, check_degree=44):
    """Density of S_s at each level, or with cdf=True P(S_s <= level), by
    fixed Talbot inversion of exp(-s psi(lam)) (divided by lam for the CDF),
    psi being `laplace_exponent`.

    s and level are each a scalar or 1-D; the result has shape
    s.shape + level.shape. psi is evaluated once per degree on the nodes
    delta/level. Degree 32 and check_degree both run and must agree within
    1e-6, else InversionFailure; the check_degree values are returned. Where
    the contour integrand overflows the value is 0: for these completely
    monotone transforms that happens only at levels far below S_s's scale,
    where the true value is superexponentially small.
    """
    s = np.asarray(s, dtype=float)
    level = np.asarray(level, dtype=float)
    if np.any(level <= 0.0):
        raise InversionFailure("Talbot inversion requires strictly positive levels")
    a = _talbot(gamma, s, level, cdf, 32)
    b = _talbot(gamma, s, level, cdf, check_degree)
    gap = np.max(np.abs(a - b), initial=0.0)
    if gap > 1e-6:
        raise InversionFailure(f"Talbot degrees 32/{check_degree} disagree by {gap:.3g}")
    return b


def subordinator_cdf(gamma: float, s, v) -> np.ndarray:
    """P(S_s <= v) for the increasing coordinate with jump density r^(-1-gamma).

    s is a scalar or 1-D; the result has shape s.shape + v.shape. Accuracy
    ~1e-6; values are clipped to [0, 1].
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.zeros(np.shape(s) + v.shape)
    pos = v > 0.0
    if np.any(pos):
        out[..., pos] = invert_laplace(gamma, s, v[pos], cdf=True)
    return np.clip(out, 0.0, 1.0)


def subordinator_density(gamma: float, s: float, w) -> np.ndarray:
    """Density of S_s at w, checked between Talbot degrees 32 and 40."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    out = np.zeros_like(w)
    pos = w > 0.0
    if np.any(pos):
        out[pos] = invert_laplace(gamma, s, w[pos], check_degree=40)
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# constant-order analytic transition density and mixture references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantOrderDensity:
    """Analytic transition density for a constant-order model with constant
    second-order coefficient g0: position and the increasing coordinate are
    independent, Gaussian times one-sided stable.

    Exposes only exact cell masses (erf and Laplace-inverted CDF
    differences), so quadratures against it need not sample the near-origin
    density spike; `subordination` takes the y masses one u at a time, the v
    masses for all its u nodes in one call, and searches its u range through
    the v mass below the crossing level.
    """

    gamma: float
    g0: float
    x0: float
    s0: float

    def y_cell_masses(self, u: float, y_edges: np.ndarray) -> np.ndarray:
        from scipy.special import ndtr

        sd = math.sqrt(self.g0 * u)
        cdf = ndtr((np.asarray(y_edges, dtype=float) - self.x0) / sd)
        return np.maximum(np.diff(cdf), 0.0)

    def v_cell_masses(self, u, v_edges: np.ndarray) -> np.ndarray:
        """Masses of the v cells; u is a scalar or 1-D (one row per u)."""
        cdf = subordinator_cdf(self.gamma, u, np.asarray(v_edges, dtype=float) - self.s0)
        return np.maximum(np.diff(cdf, axis=-1), 0.0)


def hitting_time_cdf(gamma: float, t: float, u) -> np.ndarray:
    """CDF of the first passage of the increasing coordinate over level t,
    started from 0: P(T(t) <= u) = 1 - P(S_u <= t)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    pos = u > 0.0
    if np.any(pos):
        out[pos] = 1.0 - subordinator_cdf(gamma, u[pos], t)[:, 0]
    return out


def time_changed_gaussian_density(gamma: float, g0: float, x0: float, t: float, y,
                                  n_u: int = 2000) -> np.ndarray:
    """Density of the position at horizon t: a Gaussian mixture over the
    first-passage time of the increasing coordinate.

    Quadrature mixture sum_i N(y; x0, g0 u_i) dP_T(u_i); independent of the
    chain engine and of the subordination quadrature.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u_max = 1.0
    while hitting_time_cdf(gamma, t, np.array([u_max]))[0] < 1.0 - 1e-8:
        u_max *= 2.0
        if u_max > 1e6:
            raise InversionFailure("first-passage CDF did not saturate")
    edges = np.linspace(0.0, u_max, n_u + 1)
    cdf_vals = hitting_time_cdf(gamma, t, edges[1:])
    cdf_lo = np.concatenate([[0.0], cdf_vals[:-1]])
    masses = cdf_vals - cdf_lo
    centers = 0.5 * (edges[:-1] + edges[1:])
    var = g0 * centers
    kernels = np.exp(-((y[:, None] - x0) ** 2) / (2.0 * var[None, :])) / np.sqrt(
        2.0 * np.pi * var[None, :]
    )
    return kernels @ masses
