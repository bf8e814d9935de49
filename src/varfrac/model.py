"""Problem definition: order field, spatial coefficients, and their bounds.

Coefficient fields are named presets with numeric parameters (so configs
stay serializable), and every declared bound is verified by dense grid
sampling at construction time with zero tolerance.
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
      affine:   c0 + ct*t + sum(cx*x)
      trig:     base + amp * sin(sum(freq_x*x)) * cos(freq_t*t), x's shape if freq_t = 0
      bump:     base + amp * exp(-|x - center|^2 / (2 width^2))
    """

    kind: str
    params: Mapping[str, object]
    dim: int = 1

    def __call__(self, t, x):
        c = self._coef
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(np.broadcast_shapes(t.shape, self._axis_sum(x).shape), c["value"])
        if self.kind == "affine":
            return c["c0"] + c["ct"] * t + self._dot(x, c["cx"])
        if self.kind == "trig":
            wave = c["amp"] * np.sin(self._dot(x, c["freq_x"]))
            if c["freq_t"] != 0.0:  # else the factor is cos(0) = 1 and x's shape holds
                wave = wave * np.cos(c["freq_t"] * t)
            return c["base"] + wave
        if self.kind == "bump":
            if self.dim == 1:
                d2 = (x - c["center"][0]) ** 2
            else:
                d2 = np.sum((x - c["center"]) ** 2, axis=-1)
            return c["base"] + c["amp"] * np.exp(-d2 / (2.0 * c["width"] ** 2)) + 0.0 * t
        raise ConfigError(f"unknown field kind {self.kind!r}")

    @cached_property
    def _coef(self):
        """Numeric params with their defaults, parsed on the first call only."""
        return {k: np.atleast_1d(np.asarray(v, dtype=float)) if k in _VECTOR_KEYS else float(v)
                for k, v in {**_FIELD_DEFAULTS, **self.params}.items()}

    def _axis_sum(self, x):
        if self.dim == 1:
            return x
        return x[..., 0] if x.ndim > 0 and x.shape[-1] == self.dim else x

    def _dot(self, x, coef):
        if self.dim == 1:
            return coef[0] * x
        return np.tensordot(x, coef, axes=([-1], [0]))

    @property
    def time_independent(self) -> bool:
        if self.kind in ("constant", "bump"):
            return True
        if self.kind == "affine":
            return self._coef["ct"] == 0.0
        if self.kind == "trig":
            return self._coef["freq_t"] == 0.0
        return False

    @property
    def periodic(self) -> bool:
        """Period 2 pi in each coordinate of x, as on the solver's cell."""
        c = self._coef
        if self.kind == "affine":
            return not np.any(c["cx"])
        if self.kind == "trig":
            return bool(np.all(c["freq_x"] == np.round(c["freq_x"])))
        if self.kind == "bump":
            return c["amp"] == 0.0
        return self.kind == "constant"


@dataclass(frozen=True)
class MatrixField:
    """G(x) = scale(x) * base, with base a fixed SPD matrix (d = 2 only)."""

    base: np.ndarray
    scale: ScalarField | None = None

    def __call__(self, x):
        if self.scale is None:
            x = np.asarray(x, dtype=float)
            shape = x.shape[:-1] if x.ndim > 1 else ()
            return np.broadcast_to(self.base, shape + self.base.shape).copy()
        s = self.scale(0.0, x)
        return np.asarray(s)[..., None, None] * self.base


_FIELD_KEYS = {
    "constant": {"value"},
    "affine": {"c0", "ct", "cx"},
    "trig": {"base", "amp", "freq_x", "freq_t"},
    "bump": {"base", "amp", "center", "width"},
}
_FIELD_DEFAULTS = {"c0": 0.0, "ct": 0.0, "cx": 0.0, "freq_x": 1.0, "freq_t": 0.0, "center": 0.0}
_VECTOR_KEYS = ("cx", "freq_x", "center")


def parse_scalar_field(field_cfg: Mapping, dim: int) -> ScalarField:
    if not isinstance(field_cfg, Mapping) or "kind" not in field_cfg:
        raise ConfigError("field config must be a mapping with a 'kind' key")
    kind = field_cfg["kind"]
    if kind not in _FIELD_KEYS:
        raise ConfigError(f"unknown field kind {kind!r}")
    params = {k: v for k, v in field_cfg.items() if k != "kind"}
    unknown = set(params) - _FIELD_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} for field kind {kind!r}")
    for key, v in params.items():
        vector = key in _VECTOR_KEYS and isinstance(v, (list, tuple))
        for entry in v if vector else [v]:
            _check_number(f"{kind} field {key}", entry)
    return ScalarField(kind=kind, params=params, dim=dim)


# ---------------------------------------------------------------------------
# spatial parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diffusion:
    """Second-order spatial part with coefficient matrix/scalar g(x)."""

    g: object  # ScalarField (d=1) or MatrixField (d=2)
    g_lo: float
    g_hi: float


@dataclass(frozen=True)
class Stable1D:
    """Jump-type spatial part of index beta with intensity m(x), d = 1."""

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
    dim: int

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
    "diffusion": {"kind", "g", "g_lo", "g_hi", "g_matrix"},
    "stable1d": {"kind", "beta", "m", "m_lo", "m_hi"},
}


def _sample_grid(model_dim, n_points):
    """Cartesian (t, x) sample grid over [0, VALIDATED_T] x [-pi, pi]^d, the
    solver's periodic cell, with roughly n_points entries."""
    if model_dim == 1:
        n_side = int(np.sqrt(n_points))
        ts = np.linspace(0.0, VALIDATED_T, n_side)
        xs = np.linspace(-np.pi, np.pi, n_side)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        return tt.ravel(), xx.ravel()
    n_t = max(4, int(round(n_points ** (1.0 / 3.0))))
    n_side = max(4, int(np.sqrt(n_points // n_t)))
    ts = np.linspace(0.0, VALIDATED_T, n_t)
    g0 = np.linspace(-np.pi, np.pi, n_side)
    tt, a0, a1 = np.meshgrid(ts, g0, g0, indexing="ij")
    return tt.ravel(), np.stack([a0.ravel(), a1.ravel()], axis=-1)


def make_model(config: Mapping) -> Model:
    """Build a validated Model from a parsed configuration mapping.

    Every scalar entry must be a finite number and dim an integer in
    {1, 2}. Rejects any violation of the declared bounds: the product of
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
    _check_number("dim", dim)
    if isinstance(dim, float) or dim not in (1, 2):
        raise DimensionUnsupported(f"dim must be the integer 1 or 2, got {dim!r}")
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

    order_field = parse_scalar_field(config["order_field"], dim)

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
        if dim != 1:
            raise DimensionUnsupported(f"stable part requires d=1, got d={dim}")
        _check_number("beta", spatial_cfg["beta"], 0.0, 2.0)
        spatial = Stable1D(beta=float(spatial_cfg["beta"]),
                           m=parse_scalar_field(spatial_cfg["m"], dim), m_lo=lo, m_hi=hi)
    elif dim == 1:
        spatial = Diffusion(g=parse_scalar_field(spatial_cfg["g"], dim), g_lo=lo, g_hi=hi)
    else:
        base = np.asarray(spatial_cfg["g_matrix"], dtype=float)
        if base.shape != (2, 2) or not np.allclose(base, base.T):
            raise ConfigError("g_matrix must be a symmetric 2x2 matrix")
        scale = parse_scalar_field(spatial_cfg["g"], dim) if "g" in spatial_cfg else None
        spatial = Diffusion(g=MatrixField(base=base, scale=scale), g_lo=lo, g_hi=hi)

    model = Model(alpha=alpha, order_field=order_field, a_lo=a_lo, a_hi=a_hi,
                  spatial=spatial, dim=dim)
    _validate_fields(model)
    return model


def _validate_fields(model: Model) -> None:
    ts, xs = _sample_grid(model.dim, _VALIDATION_POINTS)
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
        vals = sp.g(0.0, xs) if model.dim == 1 else np.linalg.eigvalsh(sp.g(xs))
    v_lo, v_hi = np.min(vals), np.max(vals)
    if v_lo < lo or v_hi > hi:
        raise BoundViolation(f"{what} leaves [{coef}_lo, {coef}_hi]: "
                             f"range [{v_lo:.6g}, {v_hi:.6g}]")
