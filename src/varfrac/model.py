"""Problem definition on the line: order field, spatial coefficients, and
their bounds.

Coefficient fields are named presets whose parameters are plain numbers (so
configs stay serializable), and every declared bound is verified by dense
grid sampling over the solver's periodic cell at construction time with zero
tolerance.
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
        """Numeric params with their defaults, parsed on the first call only."""
        return {k: float(v) for k, v in {**_FIELD_DEFAULTS, **self.params}.items()}

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


def parse_scalar_field(field_cfg: Mapping) -> ScalarField:
    if not isinstance(field_cfg, Mapping) or "kind" not in field_cfg:
        raise ConfigError("field config must be a mapping with a 'kind' key")
    kind = field_cfg["kind"]
    if not isinstance(kind, str) or kind not in _FIELD_KEYS:
        raise ConfigError(f"unknown field kind {kind!r}")
    params = {k: v for k, v in field_cfg.items() if k != "kind"}
    unknown = set(params) - _FIELD_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} for field kind {kind!r}")
    for key, v in params.items():
        _check_number(f"{kind} field {key}", v)
    return ScalarField(kind=kind, params=params)


# ---------------------------------------------------------------------------
# spatial parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diffusion:
    """Second-order spatial part with coefficient g(x)."""

    g: ScalarField
    g_lo: float
    g_hi: float


@dataclass(frozen=True)
class Stable1D:
    """Jump-type spatial part of index beta with intensity m(x)."""

    beta: float
    m: ScalarField
    m_lo: float
    m_hi: float


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
        return 2.0 if isinstance(self.spatial, Diffusion) else self.spatial.beta

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
    "diffusion": {"kind", "g", "g_lo", "g_hi"},
    "stable1d": {"kind", "beta", "m", "m_lo", "m_hi"},
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

    Every scalar entry must be a finite number and dim the integer 1.
    Rejects any violation of the declared bounds: the product of
    the upper order bound with alpha must stay below 1, every lower bound
    must be strictly positive, and the coefficient fields are spot-checked
    on a dense grid of s in [0, VALIDATED_T] and x in the solver's cell
    against their declared ranges (hard reject, no tolerance).
    """
    if not isinstance(config, Mapping):
        raise ConfigError("model config must be a mapping")
    unknown = set(config) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys {sorted(unknown)}")
    for key in ("alpha", "order_field", "a_lo", "a_hi", "spatial", "dim"):
        if key not in config:
            raise ConfigError(f"model config missing {key!r}")

    for key in ("alpha", "a_lo", "a_hi"):
        _check_number(key, config[key])
    alpha, a_lo, a_hi = (float(config[key]) for key in ("alpha", "a_lo", "a_hi"))
    dim = config["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != 1:
        raise DimensionUnsupported(f"dim must be the integer 1, got {dim!r}")
    if not 0.0 < alpha < 1.0:
        raise OrderBoundViolation(f"alpha must lie in (0,1), got {alpha}")
    if a_lo <= 0.0:
        raise NonPositiveBound(f"a_lo must be > 0, got {a_lo}")
    if a_lo > a_hi:
        raise ConfigError("a_lo > a_hi")
    if a_hi * alpha >= 1.0:
        raise OrderBoundViolation(
            f"a_hi * alpha = {a_hi * alpha} >= 1; the upper order bound is too large"
        )

    order_field = parse_scalar_field(config["order_field"])

    spatial_cfg = config["spatial"]
    if not isinstance(spatial_cfg, Mapping) or "kind" not in spatial_cfg:
        raise ConfigError("spatial config must be a mapping with a 'kind' key")
    kind = spatial_cfg["kind"]
    if not isinstance(kind, str) or kind not in _SPATIAL_KEYS:
        raise ConfigError(f"unknown spatial kind {kind!r}")
    unknown = set(spatial_cfg) - _SPATIAL_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown spatial keys {sorted(unknown)}")
    coef = "g" if kind == "diffusion" else "m"
    for key in (f"{coef}_lo", f"{coef}_hi"):
        _check_number(key, spatial_cfg[key])
    lo, hi = float(spatial_cfg[f"{coef}_lo"]), float(spatial_cfg[f"{coef}_hi"])
    if lo <= 0.0:
        raise NonPositiveBound(f"{coef}_lo must be > 0, got {lo}")
    if kind == "stable1d":
        _check_number("beta", spatial_cfg["beta"], 0.0, 2.0)
        spatial = Stable1D(beta=float(spatial_cfg["beta"]),
                           m=parse_scalar_field(spatial_cfg["m"]), m_lo=lo, m_hi=hi)
    else:
        spatial = Diffusion(g=parse_scalar_field(spatial_cfg["g"]), g_lo=lo, g_hi=hi)

    model = Model(alpha=alpha, order_field=order_field, a_lo=a_lo, a_hi=a_hi,
                  spatial=spatial)
    _validate_fields(model)
    return model


def _validate_fields(model: Model) -> None:
    ts, xs = _sample_grid(_VALIDATION_POINTS)
    a_vals = model.order_field(ts, xs)
    if np.min(a_vals) < model.a_lo or np.max(a_vals) > model.a_hi:
        raise OrderBoundViolation(
            "order field leaves [a_lo, a_hi] on the validation grid: "
            f"range [{np.min(a_vals):.6g}, {np.max(a_vals):.6g}]"
        )
    sp = model.spatial
    if isinstance(sp, Stable1D):
        what, coef, lo, hi = "jump intensity", "m", sp.m_lo, sp.m_hi
        vals = sp.m(0.0, xs)
    else:
        what, coef, lo, hi = "diffusion coefficient", "g", sp.g_lo, sp.g_hi
        vals = sp.g(0.0, xs)
    v_lo, v_hi = np.min(vals), np.max(vals)
    if v_lo < lo or v_hi > hi:
        raise BoundViolation(f"{what} leaves [{coef}_lo, {coef}_hi]: "
                             f"range [{v_lo:.6g}, {v_hi:.6g}]")
