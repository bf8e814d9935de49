"""Waiting-time laws with exact power tails, and the generator rate check.

A law is a family of densities indexed by the local tail exponent gamma:
exactly r^(-1-gamma) beyond a threshold B shared by the whole family, with a
uniform head on [0, B) absorbing the remaining mass. Both branches invert in
closed form, so sampling is a pure function of (gamma, u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidTailMass, QuadratureFailure


@dataclass(frozen=True)
class WaitingLaw:
    """Family of waiting densities with a shared tail threshold B.

    head height is (1 - B^(-gamma)/gamma) / B, which keeps the density at or
    below 1 everywhere for the threshold `build_waiting_law` chooses.
    """

    B: float
    gamma_lo: float
    gamma_hi: float

    def tail_mass(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        return self.B ** (-gamma) / gamma

    def head_height(self, gamma):
        return (1.0 - self.tail_mass(gamma)) / self.B

    def sample(self, gamma, u):
        """Inverse-CDF draw; vectorized over gamma and u, monotone in u."""
        gamma = np.asarray(gamma, dtype=float)
        u = np.asarray(u, dtype=float)
        # 1 - tail_mass(gamma), with a lone gamma passed to the power as a
        # one-element array: numpy's scalar power can round the last bit
        # differently from its array loop.
        head_mass = 1.0 - np.power(self.B, -np.atleast_1d(gamma)).reshape(gamma.shape) / gamma
        # Tail branch: survival of the whole law at r >= B is r^(-gamma)/gamma.
        r = np.asarray(np.power(gamma * (1.0 - u), -1.0 / gamma))
        if gamma.ndim == 0 and head_mass <= 0.0:
            return r  # an empty head takes no u
        # Head branch, where u < head_mass (so head_mass > 0): uniform on [0, B).
        return np.divide(u, head_mass / self.B, out=r, where=u < head_mass)


def tail_threshold(gamma_lo: float, gamma_hi: float) -> float:
    """The smallest threshold B with tail mass B^(-gamma)/gamma <= 1 for
    every gamma in [gamma_lo, gamma_hi]: the larger of gamma^(-1/gamma) at
    the two ends, since that map decreases on (0, 1). inf when it leaves
    the float range, which it does for gamma below about 0.00699."""
    try:
        return float(max(gamma_lo ** (-1.0 / gamma_lo), gamma_hi ** (-1.0 / gamma_hi)))
    except OverflowError:
        return math.inf


def build_waiting_law(gamma_lo: float, gamma_hi: float) -> WaitingLaw:
    """Construct a waiting law valid for every gamma in [gamma_lo, gamma_hi].

    Uses `tail_threshold`, which exceeds 1, so the head height
    (1 - tail mass) / B stays below 1.
    """
    if not (0.0 < gamma_lo <= gamma_hi < 1.0):
        raise InvalidTailMass(
            f"exponent range [{gamma_lo}, {gamma_hi}] must sit inside (0, 1)"
        )
    B = tail_threshold(gamma_lo, gamma_hi)
    if B == math.inf:
        raise InvalidTailMass(f"tail threshold gamma^(-1/gamma) overflows at gamma = {gamma_lo}")
    return WaitingLaw(B=B, gamma_lo=gamma_lo, gamma_hi=gamma_hi)


# ---------------------------------------------------------------------------
# discretized laws (finite atom support, shared by the exhaustive recursion
# and the Monte Carlo engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscretizedWaitingLaw:
    """Finite-atom version of a constant-exponent waiting law.

    Body atoms sit at cell midpoints of a regular grid on [B, r_cap]; all
    tail mass beyond r_cap is lumped into one atom at r_cap. Atom values are
    affine in the atom index (value_j = offset + spacing * j), which keeps
    sums of draws on a regular lattice.
    """

    gamma: float
    values: np.ndarray
    probs: np.ndarray
    offset: float
    spacing: float
    cum_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cum_probs", np.cumsum(self.probs))

    def sample(self, gamma, u):
        gamma = np.asarray(gamma, dtype=float)
        if not np.allclose(gamma, self.gamma, atol=1e-12):
            raise ValueError("discretized law requires the constant exponent it was built for")
        idx = np.searchsorted(self.cum_probs, np.asarray(u, dtype=float), side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return self.values[idx]


def discretize_waiting_law(law: WaitingLaw, gamma: float, n_atoms: int, r_cap: float):
    """Collapse a pure-tail law at constant gamma onto a regular atom grid.

    Requires zero head mass (the default threshold at constant gamma gives a
    pure power law); each body cell's mass goes to its midpoint and the tail
    beyond r_cap is lumped at r_cap.
    """
    head = 1.0 - float(law.tail_mass(gamma))
    if head > 1e-12:
        raise InvalidTailMass("discretization supports pure-tail laws only (no head mass)")
    if r_cap <= law.B:
        raise InvalidTailMass("r_cap must exceed the tail threshold")
    spacing = (r_cap - law.B) / n_atoms
    edges = law.B + spacing * np.arange(n_atoms + 1)
    surv = edges ** (-gamma) / gamma
    probs = surv[:-1] - surv[1:]
    values = law.B + spacing * (np.arange(n_atoms) + 0.5)
    lump = surv[-1]
    values = np.concatenate([values, [r_cap]])
    probs = np.concatenate([probs, [lump]])
    return DiscretizedWaitingLaw(
        gamma=float(gamma),
        values=values,
        probs=probs,
        offset=float(law.B + 0.5 * spacing),
        spacing=float(spacing),
    )


# ---------------------------------------------------------------------------
# rate-of-convergence check for the scaled tail functional
# ---------------------------------------------------------------------------


def _quad(fn, a, b, **kw):
    from scipy import integrate

    val, err = integrate.quad(fn, a, b, limit=400, epsabs=1e-13, epsrel=1e-12, **kw)
    if err > 1e-10:
        raise QuadratureFailure(f"quadrature error {err:.3g} above 1e-10 on [{a}, {b}]")
    return val


def _limit_integral(f, alpha, support_lo):
    """int_0^inf f(y) y^(-1-alpha) dy with the algebraic endpoint handled
    by a weighted rule on the smooth factor f(y)/y."""
    if support_lo > 0.0:
        lo = support_lo
        head = 0.0
    else:
        cut = 0.5

        def smooth(y):
            return f(y) / y if y > 0.0 else 0.0

        head = _quad(smooth, 0.0, cut, weight="alg", wvar=(-alpha, 0.0))
        lo = cut
    mid = _quad(lambda y: f(y) * y ** (-1.0 - alpha), lo, max(2.0 * lo, 20.0))
    tail = _quad(lambda y: f(y) * y ** (-1.0 - alpha), max(2.0 * lo, 20.0), np.inf)
    return head + mid + tail


def _head_height(law, alpha):
    if abs(law.gamma_lo - alpha) > 1e-12 or abs(law.gamma_hi - alpha) > 1e-12:
        raise ValueError("rate check requires a law with constant exponent equal to alpha")
    return float(law.head_height(alpha))


def rate_constant(law: WaitingLaw, alpha: float) -> float:
    """C_B = B^(1-alpha)/(1-alpha) + int_0^B y p(y) dy: the rate bound is
    C_B h^(1-alpha) for a 1-Lipschitz f."""
    B = law.B
    return B ** (1.0 - alpha) / (1.0 - alpha) + _head_height(law, alpha) * B * B / 2.0


def rate_errors(law: WaitingLaw, alpha: float, f, h_values, support_lo=0.0) -> np.ndarray:
    """|h^(-alpha) int f(h y) p(y) dy - int f(y) y^(-1-alpha) dy| at each h.

    f is continuous with f(0) = f(inf) = 0, and vanishes below support_lo
    (0 = unrestricted). Both sides are evaluated by deterministic
    quadrature, never sampling.
    """
    eta = _head_height(law, alpha)
    B = law.B
    limit_val = _limit_integral(f, alpha, support_lo)
    h_values = np.asarray(h_values, dtype=float)
    errors = np.empty_like(h_values)
    for i, h in enumerate(h_values):
        head = eta * _quad(lambda y: f(h * y), 0.0, B) if eta > 0.0 else 0.0
        cut = max(4.0 * max(B, support_lo / h), 50.0 / h)
        body = _quad(lambda y: f(h * y) * y ** (-1.0 - alpha), B, cut)
        tail = _quad(lambda y: f(h * y) * y ** (-1.0 - alpha), cut, np.inf)
        errors[i] = abs(h ** (-alpha) * (head + body + tail) - limit_val)
    return errors
