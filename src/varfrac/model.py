"""Problem definition on the line: order field, spatial parts, and their
bounds.

Coefficient fields are named presets whose parameters are plain numbers (so
configs stay serializable), and every declared bound is verified by dense
grid sampling over the solver's periodic cell at construction time with zero
tolerance. One reader, `read_mapping`, checks every config mapping and names
the full path of the entry it rejects.

A spatial part is also the jump law at every position, and samples it. The
diffusion law puts weight 1/2 on each of +-sqrt(g(x)), which matches the
second moment g(x) exactly; the jump law of index beta is the pure power law
m(x)|z|^(-1-beta) beyond the smallest threshold that carries all its mass.
All limit operators are taken in the jump form
int (f(x+y) - f(x)) m(x)|y|^(-1-beta) dy, which fixes one normalization for
the samplers, the chain engine, and the grid solver.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    BoundViolation,
    ConfigError,
    DimensionUnsupported,
    NonPositiveBound,
    OrderBoundViolation,
)

_VALIDATION_POINTS = 10_000
VALIDATED_T = 2.0  # the fields are checked for s in [0, VALIDATED_T]


def _check_int(name, n, lo):
    if isinstance(n, bool) or not isinstance(n, int) or n < lo:
        raise ConfigError(f"{name} must be an integer of at least {lo}, got {n!r}")


def _check_number(name, v, lo=-math.inf, hi=math.inf):
    """v must be a number (not a bool) inside the open interval (lo, hi),
    so NaN, the infinities and an integer past the float range never pass."""
    if (isinstance(v, bool) or not isinstance(v, (int, float)) or not lo < v < hi
            or abs(v) > sys.float_info.max):
        raise ConfigError(f"{name} must be a number in ({lo:g}, {hi:g}), got {v!r}")


def read_mapping(path, cfg, keys, defaults=None) -> dict:
    """The entries of cfg, the mapping at config path `path`, with defaults
    filled in for the allowed keys it lacks. keys is the set of allowed
    keys, or maps each kind to its set when cfg names its kind under "kind".
    Every allowed key without a default must be present."""
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{path} must be a mapping, got {cfg!r}")
    if isinstance(keys, Mapping):
        kind = cfg.get("kind")
        if not isinstance(kind, str) or kind not in keys:
            raise ConfigError(f"{path}.kind must be one of {sorted(keys)}, got {kind!r}")
        keys = keys[kind] | {"kind"}
    unknown = set(cfg) - keys
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {path}")
    defaults = {k: v for k, v in (defaults or {}).items() if k in keys}
    missing = sorted(keys - set(cfg) - set(defaults))
    if missing:
        raise ConfigError(f"{path}.{missing[0]} is missing")
    return {**defaults, **cfg}


# ---------------------------------------------------------------------------
# scalar coefficient fields a(t, x), m(x), g(x)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Named scalar field preset; callable as f(t, x) with array broadcasting.

    kinds:
      constant: value
      affine:   c0 + ct*t, x's shape
      trig:     base + amp * sin(freq_x*x) * cos(freq_t*t), x's shape if freq_t = 0
    """

    kind: str
    params: Mapping[str, object]

    def __call__(self, t, x):
        c = self._coef
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(np.broadcast_shapes(t.shape, x.shape), c["value"])
        if self.kind == "affine":
            return c["c0"] + c["ct"] * t + 0.0 * x
        if self.kind == "trig":
            wave = c["amp"] * np.sin(c["freq_x"] * x)
            if c["freq_t"] != 0.0:  # else the factor is cos(0) = 1 and x's shape holds
                wave = wave * np.cos(c["freq_t"] * t)
            return c["base"] + wave
        raise ConfigError(f"unknown field kind {self.kind!r}")

    @cached_property
    def _coef(self):
        """Numeric params, parsed on the first call only."""
        return {k: float(v) for k, v in self.params.items()}

    @property
    def time_independent(self) -> bool:
        if self.kind == "affine":
            return self._coef["ct"] == 0.0
        if self.kind == "trig":
            return self._coef["freq_t"] == 0.0
        return self.kind == "constant"

    @property
    def periodic(self) -> bool:
        """Period 2 pi in x, as on the solver's cell."""
        if self.kind == "trig":
            return self._coef["freq_x"].is_integer()
        return self.kind in ("constant", "affine")


_FIELD_KEYS = {
    "constant": {"value"},
    "affine": {"c0", "ct"},
    "trig": {"base", "amp", "freq_x", "freq_t"},
}
_FIELD_DEFAULTS = {"c0": 0.0, "ct": 0.0, "freq_x": 1.0, "freq_t": 0.0}


def parse_scalar_field(field_cfg: Mapping, path: str = "field") -> ScalarField:
    """The field at config path `path`; every parameter a plain number."""
    params = read_mapping(path, field_cfg, _FIELD_KEYS, _FIELD_DEFAULTS)
    kind = params.pop("kind")
    for key, v in params.items():
        _check_number(f"{path}.{key}", v)
    return ScalarField(kind=kind, params=params)


# ---------------------------------------------------------------------------
# spatial parts: the coefficient and the jump law it sets at every position
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diffusion:
    """Second-order spatial part with coefficient g(x); its jumps are the
    two atoms +-sqrt(g(x)), drawn by a single-u inverse-CDF sampler
    (vectorized over positions)."""

    g: ScalarField
    g_lo: float
    g_hi: float
    beta = 2.0  # the walk's space-time scaling index, not a field

    @cached_property
    def _atom(self):
        # A constant g gives the same atoms at every position: read it once.
        return np.sqrt(float(self.g(0.0, 0.0))) if self.g.kind == "constant" else None

    @property
    def position_free(self) -> bool:
        """True when the jump law is the same at every position."""
        return self._atom is not None

    def sample(self, x, u):
        """One jump per uniform in u, from positions x that broadcast against u."""
        a = self._atom
        if a is None:
            a = np.sqrt(np.asarray(self.g(0.0, x), dtype=float))
        # -a below 1/2 and +a from 1/2 up, exactly: u - 0.5 is +0.0 at 1/2.
        return np.copysign(a, np.asarray(u, dtype=float) - 0.5)


@dataclass(frozen=True)
class Stable1D:
    """Jump-type spatial part of index beta with intensity m(x); its jumps
    follow the power tail beyond the minimal threshold."""

    beta: float
    m: ScalarField
    m_lo: float
    m_hi: float

    @cached_property
    def _two_m(self):
        return 2.0 * float(self.m(0.0, 0.0)) if self.m.kind == "constant" else None

    @property
    def position_free(self) -> bool:
        """True when the jump law is the same at every position."""
        return self._two_m is not None

    def sample(self, x, u):
        """One jump per uniform in u, from positions x that broadcast against u."""
        beta = self.beta
        two_m = self._two_m
        if two_m is None:
            two_m = 2.0 * np.asarray(self.m(0.0, x), dtype=float)
        # Minimal threshold: tail mass is exactly 1, so |z| is a pure power
        # draw and the sign comes from which half of (0,1) u fell in. Both
        # halves map onto (0,1) exactly: 2u is exact, so 2u - 1 = -(1 - 2u).
        u_half = np.abs(2.0 * u - 1.0)
        # Survival of |z|: 2 m r^(-beta) / beta; invert at 1 - u_half.
        mag = (beta * (1.0 - u_half) / two_m) ** (-1.0 / beta)
        return np.copysign(mag, u - 0.5)


@dataclass(frozen=True)
class Model:
    """Validated problem data shared by every other module.

    Immutable after construction; safe to share across workers.
    """

    alpha: float
    order_field: ScalarField
    a_lo: float
    a_hi: float
    spatial: Diffusion | Stable1D

    @property
    def beta(self) -> float:
        return self.spatial.beta

    @property
    def gamma_lo(self) -> float:
        return self.alpha * self.a_lo

    @property
    def gamma_hi(self) -> float:
        return self.alpha * self.a_hi


def gamma_at(model: Model, s, x):
    """Local tail exponent alpha * a(s, x); always inside (0, 1)."""
    return model.alpha * model.order_field(s, x)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"alpha", "order_field", "a_lo", "a_hi", "spatial", "dim"}
_SPATIAL_KEYS = {
    "diffusion": {"g", "g_lo", "g_hi"},
    "stable1d": {"beta", "m", "m_lo", "m_hi"},
}


def _sample_grid(n_points):
    """Cartesian (t, x) sample grid over [0, VALIDATED_T] x [-pi, pi], the
    solver's periodic cell, with roughly n_points entries."""
    n_side = int(np.sqrt(n_points))
    ts = np.linspace(0.0, VALIDATED_T, n_side)
    xs = np.linspace(-np.pi, np.pi, n_side)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    return tt.ravel(), xx.ravel()


def make_model(config: Mapping) -> Model:
    """Build a validated Model from a parsed configuration mapping.

    Every scalar entry must be a finite number, dim the integer 1, and the
    spatial coefficient free of time, since every reader takes it at s = 0.
    Rejects any violation of the declared bounds: the product of
    the upper order bound with alpha must stay below 1, every lower bound
    must be strictly positive, and the coefficient fields are spot-checked
    on a dense grid of s in [0, VALIDATED_T] and x in the solver's cell,
    and a trig field also at its exact extremes, against their declared
    ranges (hard reject, no tolerance). Each
    rejection names the entry's path, such as model.spatial.g.amp.
    """
    config = read_mapping("model", config, _MODEL_KEYS)
    for key in ("alpha", "a_lo", "a_hi"):
        _check_number(f"model.{key}", config[key])
    alpha, a_lo, a_hi = (float(config[key]) for key in ("alpha", "a_lo", "a_hi"))
    dim = config["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != 1:
        raise DimensionUnsupported(f"model.dim must be the integer 1, got {dim!r}")
    if not 0.0 < alpha < 1.0:
        raise OrderBoundViolation(f"model.alpha must lie in (0,1), got {alpha}")
    if a_lo <= 0.0:
        raise NonPositiveBound(f"model.a_lo must be > 0, got {a_lo}")
    if a_lo > a_hi:
        raise ConfigError("model.a_lo > model.a_hi")
    if a_hi * alpha >= 1.0:
        raise OrderBoundViolation(
            f"model.a_hi * model.alpha = {a_hi * alpha} >= 1; the upper order bound is too large"
        )

    order_field = parse_scalar_field(config["order_field"], "model.order_field")

    path = "model.spatial"
    spatial_cfg = read_mapping(path, config["spatial"], _SPATIAL_KEYS)
    coef = "g" if spatial_cfg["kind"] == "diffusion" else "m"
    for key in (f"{coef}_lo", f"{coef}_hi"):
        _check_number(f"{path}.{key}", spatial_cfg[key])
    lo, hi = float(spatial_cfg[f"{coef}_lo"]), float(spatial_cfg[f"{coef}_hi"])
    if lo <= 0.0:
        raise NonPositiveBound(f"{path}.{coef}_lo must be > 0, got {lo}")
    if coef == "m":
        _check_number(f"{path}.beta", spatial_cfg["beta"], 0.0, 2.0)
        spatial = Stable1D(beta=float(spatial_cfg["beta"]),
                           m=parse_scalar_field(spatial_cfg["m"], f"{path}.m"), m_lo=lo, m_hi=hi)
    else:
        spatial = Diffusion(g=parse_scalar_field(spatial_cfg["g"], f"{path}.g"), g_lo=lo, g_hi=hi)

    c_field = getattr(spatial, coef)
    if not c_field.time_independent:
        raise ConfigError(f"{path}.{coef} must not depend on time: ct and freq_t must be 0")
    ts, xs = _sample_grid(_VALIDATION_POINTS)
    # A value that overflows or is NaN fails its range check; no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        a_vals = np.concatenate([order_field(ts, xs), _trig_extremes(order_field)])
        c_vals = np.concatenate([c_field(0.0, xs), _trig_extremes(c_field)])
    _check_range("model.order_field", a_vals, "model.a", a_lo, a_hi, OrderBoundViolation)
    _check_range(f"{path}.{coef}", c_vals, f"{path}.{coef}", lo, hi, BoundViolation)
    return Model(alpha=alpha, order_field=order_field, a_lo=a_lo, a_hi=a_hi, spatial=spatial)


def _trig_extremes(field):
    """A trig field's exact least and greatest values over the validated
    region, which the grid can miss (it sees only base when freq_x is a
    multiple of its spacing): base +- |amp| S, where sin(freq_x x) on
    [-pi, pi] reaches S = 1 once |freq_x| >= 1/2 and sin(|freq_x| pi) below
    that; cos(freq_t t) is 1 at t = 0. Empty for the other kinds."""
    if field.kind != "trig":
        return np.empty(0)
    c = field._coef
    f = abs(c["freq_x"])
    reach = abs(c["amp"]) * (1.0 if f >= 0.5 else math.sin(f * math.pi))
    return np.array([c["base"] - reach, c["base"] + reach])


def _check_range(name, vals, bounds, lo, hi, error):
    """The field values vals, sampled and extreme, must lie in [lo, hi]; a
    NaN never does."""
    v_lo, v_hi = np.min(vals), np.max(vals)
    if not lo <= v_lo <= v_hi <= hi:
        raise error(f"{name} leaves [{bounds}_lo, {bounds}_hi] on the validation grid or at "
                    f"its extremes: range [{v_lo:.6g}, {v_hi:.6g}]")
