import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varfrac import experiments
from varfrac.cli import main, read_results
from varfrac.errors import ConfigError, NonFiniteFunctional, SchemaMismatch, StepBudgetExceeded
from varfrac.experiments import CSV_COLUMNS, PRESETS

SMALL_TRI = {
    "schema_version": 1,
    "experiment": "triangulation",
    "seed": 99,
    "numerics": {"n_x": 64, "n_s": 64, "mc_tau": 1e-2, "mc_n_traj": 2_000},
}

SMALL_CONV = {
    "schema_version": 1,
    "experiment": "solver-convergence",
    "seed": 0,
    "numerics": {"resolutions": [[32, 64], [64, 128]]},
}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


# SHA-256 of the `presets` listing, recorded before the experiments became
# one table of records.
_PRESETS_SHA256 = "cdaf46f428e981153e6e792355b4a02036cdb525d7a50d8ae25ebe9666353832"


def test_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("rate-check", "triangulation", "variable-order",
                 "subordination-identity", "solver-convergence"):
        assert name in out
    assert hashlib.sha256(out.encode()).hexdigest() == _PRESETS_SHA256


def test_one_record_per_experiment():
    table = experiments.EXPERIMENTS
    for name, experiment in table.items():
        assert experiment.preset["experiment"] == name
        assert set(experiment.preset["numerics"]) <= set(experiments._NUMERICS_RULES)
    assert PRESETS == {name: e.preset for name, e in table.items()}
    assert experiments.RUNNERS == {name: e.run for name, e in table.items()}
    with pytest.raises(ConfigError):
        experiments.evaluate_checks("nope", [])


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_TRI)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--threads", "2", "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "triangulation.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["experiment"] == "triangulation"
    assert "results.csv" in manifest["outputs"]
    svg = (out / "triangulation.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# SHA-256 of the dump files of SMALL_TRI, recorded before the dumps were
# taken from the run's own solve and chain.
_FIELD_SHA256 = "caf9e4422b803c0116af32a0e967398443698ea9ec224e586499fa3b10090b49"
_TRAJECTORIES_SHA256 = "b7002771ea08bc41719f53eae77b9f64f65904f2832c521e808892689516a47d"


def test_dump_flags_golden_digest(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL_TRI)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--threads", "1", "--out", str(out),
                 "--dump-field", "--dump-trajectories", "3"]) == 0
    assert hashlib.sha256((out / "field.csv").read_bytes()).hexdigest() == _FIELD_SHA256
    assert (hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest()
            == _TRAJECTORIES_SHA256)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["results.csv", "triangulation.svg", "trajectories.csv",
                                   "field.csv"]


# SHA-256 of results.csv for a reduced run of each experiment at seed 3,
# recorded before the test-only second walk API left the package, and of the
# [PASS]/[FAIL] lines that `run` prints for it, recorded before the
# experiments became one table of records. Several checks fail at this size;
# the digests pin the bytes and the verdict lines, not a passing verdict.
_REDUCED_NUMERICS = {
    "rate-check": {"alphas": [0.5], "h_values": [0.1, 0.05]},
    "triangulation": {"n_x": 64, "n_s": 64, "mc_tau": 1e-2, "mc_n_traj": 2_000},
    "variable-order": {"n_x": 32, "n_s": 64,
                       "points": [{"x0": 0.0, "taus": [1e-1, 1e-2], "n_traj": [500, 500]}]},
    "subordination-identity": {"lattice_n_traj": 200, "ks_tau": 1e-2, "ks_n_traj": 200,
                               "density_n_traj": 200},
    "solver-convergence": {"resolutions": [[32, 64], [64, 128]]},
}
_RESULTS_SHA256 = {
    "rate-check": "42ec4473a7f363b68c91fa1308023ed37827fa6fc0d44e5c76a483aa8ef02492",
    "triangulation": "778226d6fc871698c8d531dac09285c91a29e8cc5fe4ad30246064de668fc0bb",
    "variable-order": "629689c5a81751812a13d3849b675b2c0e0f053dab4e164eb90e8e416b42f12b",
    "subordination-identity": "587252755a065bb6e99de5e66921239a7d88dea4e64fb10fe4b630d26404073c",
    "solver-convergence": "c63752c9f5f839e1b34b81c89ed1700b04dc30dda1218b4c53f38f6f617ba3a6",
}
_VERDICTS_SHA256 = {
    "rate-check": "2fa533245a3839842a0457db5718a9179126b822146430683166a1adb4d8c0e4",
    "triangulation": "2c6d32f3c8bb39829ba4882e673411b3b3a7d39ac8f57c0628274e0e095237a5",
    "variable-order": "5c0c477dfdb26d964b28886350a8cdc4498ae5529ad680f55b5493c6d338be3a",
    "subordination-identity": "d6185ced716725fa8815a3357aefe93b9c68ca1f6a3093e9a3b7363212b02176",
    "solver-convergence": "f98823ffd6abdfce51bfa07519fe8392d95085e2703c61c1e9ae06eb38f6e5b0",
}


@pytest.mark.parametrize("experiment", sorted(_RESULTS_SHA256))
def test_results_golden_digest(tmp_path, capsys, experiment):
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1, "experiment": experiment,
                                        "seed": 3, "numerics": _REDUCED_NUMERICS[experiment]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--threads", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == _RESULTS_SHA256[experiment]
    verdicts = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("[PASS]", "[FAIL]"))]
    assert (hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
            == _VERDICTS_SHA256[experiment])


def test_subordination_identity_results_identical_across_threads(tmp_path):
    # Its KS inversion (one s over 20,000 levels) splits along the levels and
    # its frozen-density heads along s; no byte may move.
    cfg = _write(tmp_path, "cfg.json", {
        "schema_version": 1, "experiment": "subordination-identity", "seed": 3,
        "numerics": {"lattice_n_traj": 20_000, "ks_n_traj": 20_000,
                     "density_n_traj": 20_000}})
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["run", str(cfg), "--threads", str(threads), "--out", str(out)]) == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


# Wrong types and out-of-range values; none of them makes a run larger than
# the reduced one it replaces a value of.
_BAD_VALUES = [None, True, "x", [], [0.5], {}, -1, 0, 0.5, 2.5, math.nan, math.inf]


# A run that exits 2 must stop before any output exists.
@settings(max_examples=200, deadline=None)
@given(experiment=st.sampled_from(sorted(_REDUCED_NUMERICS)), data=st.data())
def test_mutated_config_exits_0_2_or_3(experiment, data):
    config = {"schema_version": 1, "experiment": experiment, "seed": 3,
              "numerics": dict(_REDUCED_NUMERICS[experiment])}
    groups = [sorted(config) + ["model", "output_dir"],
              [f"numerics.{k}" for k in sorted(PRESETS[experiment]["numerics"])]]
    model = PRESETS[experiment].get("model")
    if model is not None:
        # Swap in a whole model, then perhaps change one of its entries.
        model = data.draw(st.sampled_from([model, *_WHOLE_MODELS]))
        config["model"] = json.loads(json.dumps(model))
        groups += [[f"model.{k}" for k in sorted(model)],
                   [f"model.spatial.{k}" for k in sorted(model["spatial"])],
                   [f"model.order_field.{k}" for k in sorted(model["order_field"])],
                   [f"model.spatial.{c}.{k}" for c in ("g", "m") if c in model["spatial"]
                    for k in sorted(model["spatial"][c])],
                   [None]]
    # The entry first, its group before its key, and the bad value second:
    # each group, a field's parameters too, is reached as often as any other.
    key = data.draw(st.sampled_from(groups).flatmap(st.sampled_from))
    if key is not None:
        value = data.draw(st.sampled_from(_BAD_VALUES))
        assume(not (key == "numerics" and value == {}))  # {} is the full-size preset
        *parents, leaf = key.split(".")
        target = config
        for part in parents:
            target = target[part]
        target[leaf] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        code = main(["run", path, "--threads", "1", "--out", out])
        assert code in (0, 2, 3)
        assert code != 2 or not os.path.exists(out)


def test_dump_flags_skipped_without_chain_or_solve(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1, "experiment": "rate-check",
                                        "seed": 0, "numerics": {"alphas": [0.5],
                                                                "h_values": [0.1, 0.05]}})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--dump-field",
                 "--dump-trajectories", "3"]) == 0
    err = capsys.readouterr().err
    assert "trajectory dump: experiment has no chain run; skipped" in err
    assert "field dump: experiment has no grid solve; skipped" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["results.csv", "rate_check.svg"]


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL_TRI)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(cfg), "--threads", "2", "--out", str(out1)]) == 0
    assert main(["run", str(out1 / "manifest.json"), "--threads", "1",
                 "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_unknown_keys_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.json", {**SMALL_TRI, "bogus": 1})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg2 = _write(tmp_path, "bad2.json",
                  {**SMALL_TRI, "numerics": {"n_x": 64, "wrong": 2}})
    assert main(["run", str(cfg2), "--out", str(tmp_path / "o2")]) == 2


def test_key_outside_the_preset_exit_2(tmp_path, capsys):
    # rate-check has no model, so a model entry would be echoed unused
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": "rate-check",
                                        "seed": 0, "model": PRESETS["triangulation"]["model"]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "rate-check takes no ['model']" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_traj", [50, "many", 1000.0, True])
def test_bad_trajectory_count_exit_2(tmp_path, capsys, n_traj):
    cfg = _write(tmp_path, "bad.json", {**SMALL_TRI, "numerics": {"mc_n_traj": n_traj}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "mc_n_traj" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_ladder_trajectory_count_exit_2(tmp_path, capsys):
    points = [{"x0": 0.0, "taus": [1e-2, 1e-3], "n_traj": [1000, 50]}]
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": "variable-order",
                                        "seed": 0, "numerics": {"points": points}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "points[0].n_traj" in capsys.readouterr().err


@pytest.mark.parametrize("change", [{"alpha": 0.9, "a_hi": 1.2}, {"alpha": "half"}])
def test_bad_model_exit_2(tmp_path, capsys, change):
    model = {**PRESETS["triangulation"]["model"], **change}
    cfg = _write(tmp_path, "bad.json", {**SMALL_TRI, "model": model})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "invalid model" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_DIFFUSION = PRESETS["triangulation"]["model"]["spatial"]
_STABLE = {"kind": "stable1d", "beta": 0.5, "m": {"kind": "constant", "value": 0.25},
           "m_lo": 0.25, "m_hi": 0.25}
_G2_MODEL = {**PRESETS["triangulation"]["model"],
             "spatial": {**_DIFFUSION, "g": {"kind": "constant", "value": 2.0},
                         "g_lo": 2.0, "g_hi": 2.0}}
_WHOLE_MODELS = [PRESETS["triangulation"]["model"], PRESETS["variable-order"]["model"],
                 {**PRESETS["triangulation"]["model"], "spatial": _STABLE}, _G2_MODEL]
_TRIG = {"kind": "trig", "base": 1.0, "amp": 0.0, "freq_x": 1.0}
_DIM2_MODEL = {**PRESETS["triangulation"]["model"], "dim": 2}


# A wrong type, a non-finite value or a missing bound in any model entry,
# nested ones too, must stop the run before any output exists, naming the
# entry. So must a dim other than 1, a list where a number goes, a key or a
# field kind outside the schema (g_matrix, cx, bump, a list as a kind), and a
# spatial coefficient that moves in time.
@pytest.mark.parametrize("key, change", [
    ("a_lo", {"a_lo": math.nan}),
    ("a_hi", {"a_hi": math.nan}),
    ("alpha", {"alpha": "0.5"}),
    ("a_lo", {"a_lo": True}),
    ("dim", {"dim": 1.7}),
    ("value", {"order_field": {"kind": "constant", "value": math.nan}}),
    ("g_lo", {"spatial": {**_DIFFUSION, "g_lo": math.nan}}),
    ("g_hi", {"spatial": {**_DIFFUSION, "g_hi": math.inf}}),
    ("g_lo", {"spatial": {k: v for k, v in _DIFFUSION.items() if k != "g_lo"}}),
    ("beta", {"spatial": {**_STABLE, "beta": "0.5"}}),
    ("m_hi", {"spatial": {**_STABLE, "m_hi": "0.25"}}),
    ("dim", {"dim": 2}),
    ("freq_x", {"order_field": {**_TRIG, "freq_x": []}}),
    ("freq_x", {"order_field": {**_TRIG, "freq_x": [1.0, 7.0]}}),
    ("bump", {"order_field": {"kind": "bump", "base": 1.0, "amp": 0.0, "center": [],
                              "width": 1.0}}),
    ("cx", {"order_field": {"kind": "affine", "c0": 1.0, "cx": 0.0}}),
    ("g_matrix", {"spatial": {**_DIFFUSION, "g_matrix": [[1.0, 0.0], [0.0, 1.0]]}}),
    ("kind", {"order_field": {"kind": []}}),
    ("model.spatial.g", {"spatial": {**_DIFFUSION, "g": {"kind": "affine", "c0": 1.0,
                                                         "ct": 5.0}}}),
])
def test_bad_model_value_exit_2(tmp_path, capsys, key, change):
    model = {**PRESETS["triangulation"]["model"], **change}
    cfg = _write(tmp_path, "bad.json", {**SMALL_TRI, "model": model})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "invalid model" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# A well-formed model that the runner cannot use: the subordination
# recursion needs a constant order, the constant-order closed forms a
# constant order and a constant g, and every runner one dimension. Each
# stops before any output exists.
@pytest.mark.parametrize("experiment, model, need", [
    ("subordination-identity", {**PRESETS["subordination-identity"]["model"], "a_lo": 0.5},
     "constant order"),
    ("triangulation", PRESETS["variable-order"]["model"], "constant order"),
    ("triangulation", {**PRESETS["triangulation"]["model"], "spatial": _STABLE}, "constant g"),
    ("solver-convergence", PRESETS["variable-order"]["model"], "constant order"),
    ("triangulation", _DIM2_MODEL, "1-D"),
    ("variable-order", _DIM2_MODEL, "1-D"),
    ("subordination-identity", _DIM2_MODEL, "1-D"),
    ("solver-convergence", _DIM2_MODEL, "1-D"),
])
def test_model_the_runner_cannot_use_exit_2(tmp_path, capsys, experiment, model, need):
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": experiment,
                                        "seed": 0, "model": model})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{experiment} needs" in err and need in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


_VARORDER = PRESETS["variable-order"]["model"]
_TIME_DEPENDENT_ORDER = {**_VARORDER, "order_field": {"kind": "affine", "c0": 1.0, "ct": 0.5},
                         "a_lo": 1.0, "a_hi": 2.0}


# Models that make_model accepts but variable-order cannot run as declared:
# an order that grows past a_hi after the validated s <= 2, and fields that
# are not 2 pi periodic, which the chain (on the line) and the solver (on
# the periodic cell) would read differently. Each stops before any output.
@pytest.mark.parametrize("model, numerics, message", [
    (_TIME_DEPENDENT_ORDER, {"t": 2.6}, "t must be at most 2"),
    ({**_VARORDER, "spatial": {**_DIFFUSION, "g": {**_TRIG, "amp": 0.5, "freq_x": 0.5},
                               "g_lo": 0.5, "g_hi": 1.5}}, {"points": [
        {"x0": -2.5, "taus": [0.1], "n_traj": [200]}]}, "period 2 pi"),
    ({**_VARORDER, "order_field": {**_VARORDER["order_field"], "freq_x": 0.5}}, {},
     "period 2 pi"),
], ids=["order-past-s-2", "half-frequency-g", "half-frequency-order"])
def test_model_outside_its_checked_range_exit_2(tmp_path, capsys, model, numerics, message):
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": "variable-order",
                                        "seed": 0, "model": model, "numerics": numerics})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_order_field_beyond_its_bounds_between_grid_points_exit_2(tmp_path, capsys):
    # At freq_x 99 the order field is its base 1 at every validation grid
    # point, but its true range [0.5, 1.5] takes gamma = 0.95 a to 1.425.
    model = {**_VARORDER, "alpha": 0.95, "a_lo": 0.99, "a_hi": 1.01,
             "order_field": {"kind": "trig", "base": 1, "amp": 0.5, "freq_x": 99}}
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": "variable-order",
                                        "seed": 0, "model": model})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "model.order_field leaves [model.a_lo, model.a_hi]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# The fields repeat every 2 pi and the chain walks on the whole line, so the
# solver is read at the grid point nearest x0 on the periodic cell: x0 and
# x0 - 2 pi read the same point. At n_x = 32, 3.1 is nearest to index 0
# (pi, which is -pi on the cell), not to index 31.
@pytest.mark.parametrize("x0", [5.0, 3.1])
def test_variable_order_reads_the_solver_at_the_periodic_grid_point(x0):
    points = [{"x0": x, "taus": [0.1], "n_traj": [100]} for x in (x0, x0 - 2.0 * math.pi)]
    config = experiments.validate_config({"schema_version": 1, "experiment": "variable-order",
                                          "seed": 0, "numerics": {"n_x": 32, "n_s": 64,
                                                                  "points": points}})
    rows = experiments.EXPERIMENTS["variable-order"].run(config).rows
    for quantity in ("solver_value", "solver_selfconv"):
        here, there = (r["value"] for r in rows if r["quantity"] == quantity)
        assert here == there


# Triangulation reads its solver rows by the same periodic rule.
def test_triangulation_reads_the_solver_at_the_periodic_grid_point():
    rows = []
    for x0 in (5.0, 5.0 - 2.0 * math.pi):
        config = experiments.validate_config({
            "schema_version": 1, "experiment": "triangulation", "seed": 0,
            "numerics": {"n_x": 32, "n_s": 64, "mc_tau": 1e-2, "mc_n_traj": 100, "x0": x0}})
        rows.append([r for r in experiments.EXPERIMENTS["triangulation"].run(config).rows
                     if r["quantity"] in ("solver_value", "oracle_value")])
    assert len(rows[0]) == 2 and rows[0] == rows[1]


def test_time_dependent_order_up_to_t_2_runs(tmp_path):
    numerics = {"t": 2.0, "n_x": 32, "n_s": 64,
                "points": [{"x0": 0.0, "taus": [0.1], "n_traj": [200]}]}
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1, "experiment": "variable-order",
                                        "seed": 0, "model": _TIME_DEPENDENT_ORDER,
                                        "numerics": numerics})
    assert main(["run", str(cfg), "--threads", "1", "--out", str(tmp_path / "o")]) == 0


def test_single_rung_ladders_write_results_without_a_plot(tmp_path, capsys):
    # No point has two rungs, so there is no gap to plot; the run still
    # writes its results, and they pass compare.
    points = [{"x0": -math.pi / 2.0, "taus": [0.1], "n_traj": [2000]}]
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1, "experiment": "variable-order",
                                        "seed": 0, "numerics": {"n_x": 32, "n_s": 64,
                                                                "points": points}})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--threads", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["results.csv"]
    capsys.readouterr()
    assert main(["compare", str(out / "results.csv")]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


# The constant-order experiments read g from the model: with g = 2 the
# closed forms, the histogram lattice and the analytic pair law all follow.
@pytest.mark.parametrize("experiment, numerics", [
    ("triangulation", {"n_x": 64, "n_s": 64, "mc_tau": 1e-3, "mc_n_traj": 20_000}),
    ("solver-convergence", {}),
    ("subordination-identity", {"lattice_n_traj": 20_000, "ks_n_traj": 20_000,
                                "density_n_traj": 33_333}),
])
def test_constant_g_2_passes_every_check(tmp_path, capsys, experiment, numerics):
    cfg = _write(tmp_path, "g2.json", {"schema_version": 1, "experiment": experiment,
                                       "seed": 0, "model": _G2_MODEL, "numerics": numerics})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--threads", "2", "--out", str(out)]) == 0
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert checks and all(checks.values()), capsys.readouterr().out


@pytest.mark.parametrize("numerics, message", [
    ({"resolutions": [[64, 8]]}, "resolutions[0] n_s"),
    ({"resolutions": [["a", 32]]}, "resolutions[0] n_x"),
    ({"resolutions": [[2, 32]]}, "resolutions[0] n_x"),
    ({"resolutions": [[64.5, 128]]}, "resolutions[0] n_x"),
    ({"t": -1.0}, "t must be"),
    ({"t": "x"}, "t must be"),
])
def test_bad_solver_grid_exit_2(tmp_path, capsys, numerics, message):
    cfg = _write(tmp_path, "bad.json", {**SMALL_CONV, "numerics": numerics})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, numerics, message", [
    ("triangulation", {"mc_tau": 0}, "mc_tau must be"),
    ("triangulation", {"mc_tau": "x"}, "mc_tau must be"),
    ("triangulation", {"x0": "a"}, "x0 must be"),
    ("triangulation", {"x0": math.nan}, "x0 must be"),
    ("subordination-identity", {"ks_u": 1e-4}, "ks_u / ks_tau"),
    ("subordination-identity", {"density_tau": -1e-3}, "density_tau must be"),
    ("subordination-identity", {"lattice_atoms": 0}, "lattice_atoms must be"),
    ("rate-check", {"h_values": []}, "h_values must be"),
    ("rate-check", {"h_values": [0.1, math.inf]}, "h_values[1] must be"),
    ("rate-check", {"alphas": [1.5]}, "alphas[0] must be"),
    ("rate-check", {"alphas": 0.5}, "alphas must be"),
    ("variable-order", {"points": []}, "points must be"),
    ("variable-order", {"points": [{"x0": 0.0, "taus": [0.1, 0.05], "n_traj": [200]}]},
     "same length"),
    ("variable-order", {"points": [{"x0": 0.0, "taus": [0.0], "n_traj": [200]}]},
     "points[0].taus[0] must be"),
    # values and ratios past the float range, and a key a point does not have
    ("solver-convergence", {"t": 10**400}, "t must be"),
    ("subordination-identity", {"ks_u": 1e300, "ks_tau": 1e-10}, "ks_u / ks_tau"),
    ("subordination-identity", {"density_tau": 1e-320}, "density_tau"),
    ("variable-order", {"points": [{"x0": 0, "taus": [1e-2], "n_traj": [100], "extra": 1}]},
     "unknown keys ['extra'] in points[0]"),
    # one step size gives no fitted order (it would be inf)
    ("rate-check", {"h_values": [0.1]}, "at least two distinct values"),
    ("rate-check", {"h_values": [0.1, 0.1]}, "at least two distinct values"),
])
def test_bad_numerics_exit_2(tmp_path, capsys, experiment, numerics, message):
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": experiment,
                                        "seed": 0, "numerics": numerics})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


_SMALL_SUBORDINATION = {"lattice_n_traj": 100, "ks_n_traj": 100, "density_n_traj": 100}


# The lattice's lump atom 1.28 t / lattice_tau^(1/gamma) must be finite and
# exceed the tail threshold gamma^(-1/gamma): at gamma = 0.5 and t = 1 that
# is lattice_tau < 0.566. Past it, or when lattice_tau^(1/gamma) underflows,
# the run stops before any work.
@pytest.mark.parametrize("lattice_tau", [0.57, 1e-200])
def test_lattice_tau_outside_its_lattice_exit_2(tmp_path, capsys, lattice_tau):
    cfg = _write(tmp_path, "bad.json", {
        "schema_version": 1, "experiment": "subordination-identity", "seed": 0,
        "numerics": {**_SMALL_SUBORDINATION, "lattice_tau": lattice_tau}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "subordination-identity needs" in err and "lattice_tau" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_lattice_tau_inside_its_lattice_runs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "schema_version": 1, "experiment": "subordination-identity", "seed": 0,
        "numerics": {**_SMALL_SUBORDINATION, "lattice_tau": 0.56}})
    assert main(["run", str(cfg), "--threads", "1", "--out", str(tmp_path / "o")]) == 0


def test_runner_value_error_exit_2(tmp_path, capsys):
    # density_tau = 0.01 gives the first histogram time only 10 chain steps;
    # validate_config sees it before any work
    numerics = {"lattice_n_traj": 100, "ks_n_traj": 100, "density_n_traj": 100,
                "density_tau": 0.01}
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "seed": 0, "numerics": numerics,
                                        "experiment": "subordination-identity"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "at least 100 steps" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change, message", [
    ({"numerics": 5}, "numerics must be an object"),
    ({"numerics": None}, "numerics must be an object"),
    ({"output_dir": 5}, "output_dir must be a string"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": "5"}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"experiment": ["triangulation"]}, "unknown experiment"),
    ({"schema_version": True}, "schema_version must be 1"),
    # streams.lane_keys reads the seed modulo 2^64, so these two would alias
    ({"seed": -1}, "seed must be an integer in [0, 2^63)"),
    ({"seed": 2**64 - 1}, "seed must be an integer in [0, 2^63)"),
])
def test_bad_top_level_value_exit_2(tmp_path, monkeypatch, capsys, change, message):
    monkeypatch.chdir(tmp_path)  # no --out: output_dir would be the target
    cfg = _write(tmp_path, "bad.json", {**SMALL_CONV, **change})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_negative_trajectory_dump_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--out", str(tmp_path / "o"), "--dump-trajectories", "-2"])
    assert exc.value.code == 2
    assert "--dump-trajectories must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "rate-check", "--out", str(tmp_path / "o"),
              "--threads", threads])
    assert exc.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _patch_runner(monkeypatch, name, runner):
    record = experiments.EXPERIMENTS[name]
    monkeypatch.setitem(experiments.EXPERIMENTS, name, dataclasses.replace(record, run=runner))


def _raising(monkeypatch, exc):
    """Make solver-convergence's runner raise exc."""
    def runner(config, threads=1):
        raise exc
    _patch_runner(monkeypatch, "solver-convergence", runner)


def _returning(monkeypatch, rows=(), plots=None):
    """Make solver-convergence's runner return these rows and plots."""
    def runner(config, threads=1):
        return experiments.ExperimentOutput(rows=[experiments._row(*r) for r in rows],
                                            plots=plots or {})
    _patch_runner(monkeypatch, "solver-convergence", runner)


@pytest.mark.parametrize("below", [None, "sub"])
def test_out_that_cannot_be_a_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                below):
    def runner(config, threads=1):
        pytest.fail("the runner was called")
    _patch_runner(monkeypatch, "rate-check", runner)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / below if below else afile
    assert main(["run", "--preset", "rate-check", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{afile} is not a directory" in err and "Traceback" not in err
    assert afile.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_output_write_failure_exit_2(tmp_path, capsys, monkeypatch):
    # The plot's directory does not exist, so writing it raises an OSError
    # after the run. No file is kept, and the directory the run made goes.
    _returning(monkeypatch, plots={"missing/plot.svg": "<svg/>"})
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o" / "deeper")]) == 2
    err = capsys.readouterr().err
    assert "cannot write outputs" in err and "missing/plot.svg" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_output_write_failure_leaves_an_existing_directory_as_it_was(tmp_path, capsys,
                                                                      monkeypatch):
    # results.csv is written before the plot fails, but only under a
    # temporary name, which goes with the failure.
    _returning(monkeypatch, plots={"missing/p.svg": "<svg/>"})
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg), "--out", "."]) == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("value, uncertainty", [(math.nan, None), (1.0, -math.inf)])
def test_non_finite_row_exit_3_without_results(tmp_path, capsys, monkeypatch, value,
                                               uncertainty):
    _returning(monkeypatch, rows=[("solver-convergence", "sup_error", value, uncertainty)])
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: solver-convergence sup_error" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("NonFiniteFunctional: ")
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("value, uncertainty, column", [
    (math.nan, None, "value"), (math.inf, 0.1, "value"), (-math.inf, None, "value"),
    (0.5, math.nan, "uncertainty"), (0.5, math.inf, "uncertainty"),
])
def test_row_rejects_non_finite_numbers(value, uncertainty, column):
    with pytest.raises(NonFiniteFunctional, match=f"rate-check rate_error: {column} is "):
        experiments._row("rate-check", "rate_error", value, uncertainty, alpha=0.5, h=0.1)
    row = experiments._row("rate-check", "rate_error", 0.5, 1e-3, alpha=0.5, h=0.1)
    assert (row["value"], row["uncertainty"], row["alpha"]) == (0.5, 1e-3, 0.5)


def test_runner_value_error_exit_2_without_output(tmp_path, capsys, monkeypatch):
    # A ValueError from the runner is a validation failure: exit 2 comes
    # before any output, so --out must not be created.
    _raising(monkeypatch, ValueError("bad grid"))
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "invalid config: bad grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_runner_numerical_failure_exit_3_writes_manifest(tmp_path, capsys, monkeypatch):
    _raising(monkeypatch, StepBudgetExceeded("too many steps"))
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: too many steps" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "StepBudgetExceeded: too many steps"
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json"]


def test_bad_halved_grid_exit_2(tmp_path, capsys):
    # n_x = 5 is a valid fine grid, but the self-convergence grid has 2 points
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": "variable-order",
                                        "seed": 0, "numerics": {"n_x": 5}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "halved grid n_x" in capsys.readouterr().err


def test_unknown_experiment_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, "experiment": "nope", "seed": 0})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_compare_passes_on_own_output(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out / "results.csv")]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text


def test_compare_identical_files_all_pass(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    out = tmp_path / "out"
    main(["run", str(cfg), "--out", str(out)])
    capsys.readouterr()
    path = str(out / "results.csv")
    assert main(["compare", path, path]) == 0


def test_compare_flags_threshold_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SMALL_CONV)
    out = tmp_path / "out"
    main(["run", str(cfg), "--out", str(out)])
    rows = read_results(out / "results.csv")
    # corrupt the conservation row beyond its threshold
    text = (out / "results.csv").read_text()
    bad = text.replace("conservation_error", "conservation_error_x", 0)
    for row in rows:
        if row["quantity"] == "conservation_error":
            bad = text.replace(repr(row["value"]), repr(0.5))
    (out / "broken.csv").write_text(bad)
    capsys.readouterr()
    assert main(["compare", str(out / "broken.csv")]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_compare_mismatched_experiments_exit_2(tmp_path):
    cfg1 = _write(tmp_path, "c1.json", SMALL_CONV)
    cfg2 = _write(tmp_path, "c2.json", SMALL_TRI)
    main(["run", str(cfg1), "--out", str(tmp_path / "o1")])
    main(["run", str(cfg2), "--threads", "2", "--out", str(tmp_path / "o2")])
    assert main(["compare", str(tmp_path / "o1" / "results.csv"),
                 str(tmp_path / "o2" / "results.csv")]) == 2


_HEADER = ",".join(CSV_COLUMNS).encode() + b"\r\n"


@pytest.mark.parametrize("content", [
    b"",
    b"\xff\xfe\x00garbage",
    _HEADER + b"solver-convergence,linearity_error,abc,,,,,,,1.0,\r\n",
    _HEADER + b"solver-convergence,linearity_error\r\n",
    _HEADER + b"variable-order,solver_value,,,,,,0.0,,0.5,\r\n"
              b"variable-order,solver_selfconv,,,,,,0.0,,0.001,\r\n",
    _HEADER + b"triangulation,solver_sup_error,,0.5,,,,,,0.001,\r\n"
              b"triangulation,mc_value,,0.5,,0.001,,0.0,2000.0,0.9,\r\n"
              b"triangulation,oracle_value_x0,,0.5,,,,0.0,,0.9,\r\n",
], ids=["empty", "not-utf8", "not-a-number", "short-row", "no-mc-row", "empty-uncertainty"])
def test_compare_unreadable_results_exit_2(tmp_path, capsys, content):
    p = tmp_path / "results.csv"
    p.write_bytes(content)
    assert main(["compare", str(p)]) == 2
    err = capsys.readouterr().err
    assert "schema mismatch" in err and "Traceback" not in err


def test_read_results_rejects_foreign_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(SchemaMismatch):
        read_results(p)


def test_module_invocation():
    res = subprocess.run([sys.executable, "-m", "varfrac.cli", "presets"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "triangulation" in res.stdout
