import json
import subprocess
import sys

import pytest

from varfrac.cli import main, read_results
from varfrac.errors import SchemaMismatch
from varfrac.experiments import PRESETS

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


def test_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("rate-check", "triangulation", "variable-order",
                 "subordination-identity", "solver-convergence"):
        assert name in out


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
