import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfrac.errors import (
    BoundViolation,
    ConfigError,
    DimensionUnsupported,
    NonPositiveBound,
    OrderBoundViolation,
    VarfracError,
)
from varfrac.model import VALIDATED_T, gamma_at, make_model, parse_scalar_field

from conftest import CONSTANT_ORDER, STABLE_HALF, VARIABLE_ORDER


def _cfg(**overrides):
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in CONSTANT_ORDER.items()}
    cfg.update(overrides)
    return cfg


def test_constant_coefficients_accepted():
    model = make_model(_cfg())
    assert model.alpha == 0.5
    assert model.beta == 2.0


def test_order_bound_violation():
    with pytest.raises(OrderBoundViolation):
        make_model(_cfg(alpha=0.6, a_hi=2.0, order_field={"kind": "constant", "value": 1.0}))


def test_trig_order_field_accepted():
    cfg = _cfg(
        alpha=0.4,
        order_field={"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 1.0, "freq_t": 1.0},
        a_lo=0.5,
        a_hi=1.5,
    )
    model = make_model(cfg)
    # 1.5 * 0.4 = 0.6 < 1
    assert model.gamma_hi == pytest.approx(0.6)


def test_gamma_at_constant():
    model = make_model(_cfg())
    assert gamma_at(model, 0.0, 0.0) == pytest.approx(0.5)
    assert gamma_at(model, 3.0, -1.2) == pytest.approx(0.5)


def test_gamma_at_variable():
    cfg = _cfg(
        alpha=0.4,
        order_field={"kind": "affine", "c0": 1.5, "ct": 0.0},
        a_lo=1.5,
        a_hi=1.5,
    )
    model = make_model(cfg)
    assert gamma_at(model, 0.0, 0.0) == pytest.approx(0.6)


def test_gamma_stays_below_one_on_grid(varorder_model):
    xs = np.linspace(-np.pi, np.pi, 64)
    ss = np.linspace(0.0, 2.0, 32)
    for s in ss:
        g = gamma_at(varorder_model, s, xs)
        assert np.all(g > 0.0) and np.all(g < 1.0)


def test_nonpositive_bound_rejected():
    with pytest.raises(NonPositiveBound):
        make_model(_cfg(a_lo=0.0))
    bad_spatial = {"kind": "diffusion", "g": {"kind": "constant", "value": 1.0},
                   "g_lo": 0.0, "g_hi": 1.0}
    with pytest.raises(NonPositiveBound):
        make_model(_cfg(spatial=bad_spatial))


def test_dimension_gate():
    with pytest.raises(DimensionUnsupported):
        make_model(_cfg(dim=3))
    stable3 = {"kind": "stable1d", "beta": 0.5, "m": {"kind": "constant", "value": 1.0},
               "m_lo": 1.0, "m_hi": 1.0}
    with pytest.raises(DimensionUnsupported):
        make_model(_cfg(dim=2, spatial=stable3))


def test_field_outside_declared_range_rejected():
    cfg = _cfg(
        order_field={"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 1.0, "freq_t": 0.0},
        a_lo=0.8,  # true minimum is 0.5
        a_hi=1.5,
    )
    with pytest.raises(OrderBoundViolation):
        make_model(cfg)


def test_spatial_field_outside_declared_range_rejected():
    cfg = _cfg(
        spatial={"kind": "diffusion",
                 "g": {"kind": "trig", "base": 1.0, "amp": 1.0, "freq_x": 1.0},
                 "g_lo": 1.0, "g_hi": 1.5},
    )
    with pytest.raises(BoundViolation):
        make_model(cfg)


# A trig field of freq_x 99 equals its base at every x = -pi + 2 pi k / 99,
# so a check on such a grid would pass it; its exact extremes base +- |amp|
# decide.
def test_trig_field_checked_at_its_exact_extremes():
    grid_blind = {"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 99.0}
    with pytest.raises(OrderBoundViolation, match=r"range \[0\.5, 1\.5\]"):
        make_model(_cfg(alpha=0.95, a_lo=0.99, a_hi=1.01, order_field=grid_blind))
    with pytest.raises(BoundViolation, match=r"range \[0\.5, 1\.5\]"):
        make_model(_cfg(spatial={"kind": "diffusion", "g": grid_blind,
                                 "g_lo": 0.99, "g_hi": 1.01}))
    # Below |freq_x| = 1/2 the extremes are base +- |amp| sin(|freq_x| pi),
    # here 1 +- 0.354, well inside 1 +- |amp|.
    slow = {"kind": "trig", "base": 1.0, "amp": -0.5, "freq_x": 0.25}
    reach = 0.5 * math.sin(0.25 * math.pi) + 1e-9
    make_model(_cfg(alpha=0.4, a_lo=1.0 - reach, a_hi=1.0 + reach, order_field=slow))


def _dense_values(field):
    """The field on a dense (s, x) grid over [0, VALIDATED_T] x [-pi, pi],
    the reference range of its extremes."""
    ts = np.linspace(0.0, VALIDATED_T, 101)
    xs = np.linspace(-math.pi, math.pi, 1001)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(field(ts[:, None], xs[None, :]), dtype=float)


def _closed_form_points(field):
    """The (s, x) points where the field takes its least and greatest
    values: an affine field at the ends of the window in s, a trig field at
    s = 0 where sin(freq_x x) is -+1, or at x = -+pi below |freq_x| = 1/2."""
    p = field.params
    if field.kind == "constant":
        return [(0.0, 0.0)]
    if field.kind == "affine":
        return [(0.0, 0.0), (VALIDATED_T, 0.0)]
    f = abs(p["freq_x"])
    x = math.pi if f < 0.5 else math.pi / (2.0 * f)
    return [(0.0, -x), (0.0, x)]


_MODEST = st.floats(-1e3, 1e3)
_FREQ = st.one_of(st.floats(-3.0, 3.0), st.integers(-100, 100).map(float),
                  st.floats(1e307, 1.7976931348623157e308).flatmap(
                      lambda f: st.sampled_from([f, -f])))
_FIELDS = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, _MODEST),
    st.builds(lambda c0, ct: {"kind": "affine", "c0": c0, "ct": ct}, _MODEST, _MODEST),
    st.builds(lambda b, a, fx, ft: {"kind": "trig", "base": b, "amp": a, "freq_x": fx,
                                    "freq_t": ft},
              _MODEST, _MODEST, _FREQ, st.one_of(st.just(0.0), _FREQ)),
)


@settings(max_examples=300, deadline=None)
@given(cfg=_FIELDS)
def test_extremes_bound_dense_samples_and_are_attained(cfg):
    field = parse_scalar_field(cfg)
    lo, hi = field.extremes
    vals = _dense_values(field)
    if field.kind == "trig" and (math.isinf(cfg["freq_x"] * math.pi)
                                 or math.isinf(cfg["freq_t"] * VALIDATED_T)):
        # The field is NaN at the edge of the region, and so are both extremes.
        assert math.isnan(lo) and math.isnan(hi)
        assert np.isnan(vals).any()
        return
    assert lo <= hi
    assert np.all((lo <= vals) & (vals <= hi))
    attained = {float(field(s, x)) for s, x in _closed_form_points(field)}
    assert {lo, hi} <= attained


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        make_model(_cfg(extra_knob=1))
    cfg = _cfg()
    cfg["order_field"] = {"kind": "constant", "value": 1.0, "oops": 2}
    with pytest.raises(ConfigError):
        make_model(cfg)


def test_make_model_deterministic():
    a = make_model(_cfg())
    b = make_model(_cfg())
    assert a.alpha == b.alpha
    assert a.order_field == b.order_field
    assert a.spatial == b.spatial


@pytest.mark.parametrize("field, periodic", [
    ({"kind": "constant", "value": 1.0}, True),
    ({"kind": "affine", "c0": 1.0, "ct": 0.5}, True),
    ({"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 2.0}, True),
    ({"kind": "trig", "base": 1.0, "amp": 0.5, "freq_x": 0.5}, False),
])
def test_periodic_fields(field, periodic):
    assert parse_scalar_field(field).periodic is periodic


@pytest.mark.parametrize("field", [
    {"kind": "constant", "value": 1.0},
    {"kind": "affine", "c0": 1.0, "ct": 0.5},
    {"kind": "trig", "base": 1.0, "amp": 0.5},
    {"kind": "trig", "base": 1.0, "amp": 0.5, "freq_t": 2.0},
])
def test_field_at_one_time_has_the_shape_of_x(field):
    assert parse_scalar_field(field)(0.3, np.zeros((3, 4))).shape == (3, 4)


# Inputs outside the model's schema: a dimension other than 1, a coefficient
# matrix, the bump kind, an x slope for affine, and parameters that are not
# plain numbers. Each is rejected with its error type, naming the key or kind.
@pytest.mark.parametrize("change, error, name", [
    ({"dim": 2}, DimensionUnsupported, "dim"),
    ({"dim": 1.0}, DimensionUnsupported, "dim"),
    ({"spatial": {**CONSTANT_ORDER["spatial"], "g_matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     ConfigError, "g_matrix"),
    ({"order_field": {"kind": "bump", "base": 1.0, "amp": 0.0, "center": 0.0, "width": 1.0}},
     ConfigError, "bump"),
    ({"order_field": {"kind": "affine", "c0": 1.0, "cx": 0.0}}, ConfigError, "cx"),
    ({"order_field": {"kind": "trig", "base": 1.0, "amp": 0.0, "freq_x": []}},
     ConfigError, "freq_x"),
    ({"order_field": {"kind": "trig", "base": 1.0, "amp": 0.0, "freq_x": [1.0]}},
     ConfigError, "freq_x"),
])
def test_inputs_outside_the_model_rejected(change, error, name):
    with pytest.raises(error, match=name):
        make_model(_cfg(**change))


_TRIG_G = {**CONSTANT_ORDER, "spatial": {"kind": "diffusion", "g_lo": 0.5, "g_hi": 1.5,
                                         "g": {"kind": "trig", "base": 1.0, "amp": 0.5}}}
_AFFINE_ORDER = {**CONSTANT_ORDER, "order_field": {"kind": "affine", "c0": 1.0, "ct": 0.1},
                 "a_lo": 1.0, "a_hi": 1.2}


# Each rejection names the full path of its entry: a missing one, an
# unknown key or kind, a value that is not a mapping or not a number.
@pytest.mark.parametrize("model, error, message", [
    ({**CONSTANT_ORDER, "order_field": {"kind": "constant"}}, ConfigError,
     "model.order_field.value is missing"),
    ({**CONSTANT_ORDER, "spatial": {k: v for k, v in CONSTANT_ORDER["spatial"].items()
                                    if k != "g_lo"}}, ConfigError,
     "model.spatial.g_lo is missing"),
    ({**_TRIG_G, "spatial": {**_TRIG_G["spatial"], "g": {"kind": "trig", "amp": 0.5}}},
     ConfigError, "model.spatial.g.base is missing"),
    ({**_TRIG_G, "spatial": {**_TRIG_G["spatial"], "g": {"kind": "trig", "base": 1.0,
                                                         "amp": "x"}}},
     ConfigError, "model.spatial.g.amp must be a number"),
    ({**_TRIG_G, "spatial": {**_TRIG_G["spatial"], "g": {"kind": "trig", "base": 1.0,
                                                         "amp": 0.5, "nope": 1}}},
     ConfigError, "unknown keys ['nope'] in model.spatial.g"),
    ({**CONSTANT_ORDER, "order_field": 1.0}, ConfigError, "model.order_field must be a mapping"),
    ({**CONSTANT_ORDER, "order_field": {"value": 1.0}}, ConfigError,
     "model.order_field.kind must be one of"),
    ({**CONSTANT_ORDER, "spatial": {**STABLE_HALF["spatial"], "kind": "levy"}}, ConfigError,
     "model.spatial.kind must be one of ['diffusion', 'stable1d'], got 'levy'"),
    ({**STABLE_HALF, "spatial": {**STABLE_HALF["spatial"], "beta": 2.0}}, ConfigError,
     "model.spatial.beta must be a number in (0, 2)"),
    ({**CONSTANT_ORDER, "a_lo": None}, ConfigError, "model.a_lo must be a number"),
    ({k: v for k, v in CONSTANT_ORDER.items() if k != "dim"}, ConfigError,
     "model.dim is missing"),
    ({**CONSTANT_ORDER, "extra": 1}, ConfigError, "unknown keys ['extra'] in model"),
    ([CONSTANT_ORDER], ConfigError, "model must be a mapping"),
    # A field that is NaN somewhere on the checked region is outside any range.
    ({**_AFFINE_ORDER, "order_field": {"kind": "trig", "base": 1.1, "amp": 0.1,
                                       "freq_t": 1e308}},
     OrderBoundViolation, "model.order_field leaves [model.a_lo, model.a_hi]"),
    ({**_TRIG_G, "spatial": {**_TRIG_G["spatial"], "g": {"kind": "trig", "base": 1.0,
                                                         "amp": 0.5, "freq_x": 1e308}}},
     BoundViolation, "model.spatial.g leaves [model.spatial.g_lo, model.spatial.g_hi]"),
    # Every reader of a spatial field takes it at s = 0, so one that moves in
    # time is rejected, even when its values at s = 0 fit the bounds.
    ({**CONSTANT_ORDER, "spatial": {**CONSTANT_ORDER["spatial"],
                                    "g": {"kind": "affine", "c0": 1.0, "ct": 5.0}}},
     ConfigError, "model.spatial.g must not depend on time"),
    ({**STABLE_HALF, "spatial": {**STABLE_HALF["spatial"],
                                 "m": {"kind": "trig", "base": 0.25, "amp": 0.0,
                                       "freq_t": 1.0}}},
     ConfigError, "model.spatial.m must not depend on time"),
])
def test_rejection_names_the_full_path(model, error, message):
    with pytest.raises(error) as exc:
        make_model(model)
    assert message in str(exc.value)


_MODELS = [CONSTANT_ORDER, VARIABLE_ORDER, STABLE_HALF, _TRIG_G, _AFFINE_ORDER]
_VALUES = [None, True, "x", [], [0.5], {}, {"kind": "constant"}, -1, 0, 0.5, 2.5, 10**400,
           1e308, math.nan, math.inf]
_KEYS = ["extra", "kind", "value", "base", "amp", "freq_x", "freq_t", "c0", "ct", "g", "m",
         "beta", "g_lo", "m_hi", "dim"]


def _entries(cfg, path=()):
    """The path of every entry of cfg, nested ones too, and of cfg itself."""
    yield path
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _entries(value, path + (key,))
        else:
            yield path + (key,)


# One entry of a valid model changed, deleted or added, at any depth: the
# model layer raises only its own errors, never a KeyError or a TypeError.
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_raises_only_package_errors(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(_MODELS)))
    path = data.draw(st.sampled_from(list(_entries(cfg))))
    action = data.draw(st.sampled_from(["change", "delete", "add"] if path else ["change"]))
    value = data.draw(st.sampled_from(_VALUES))
    if path:
        *parents, leaf = path
        owner = cfg
        for key in parents:
            owner = owner[key]
        if action == "change":
            owner[leaf] = value
        elif action == "delete":
            del owner[leaf]
        else:
            owner[data.draw(st.sampled_from(_KEYS))] = value
    else:
        cfg = value
    try:
        make_model(cfg)
    except VarfracError:
        pass
