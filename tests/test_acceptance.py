"""End-to-end acceptance checklist.

Each test prints one pass/fail line per criterion. The heavy experiment
presets run once per session and several criteria read from the same rows.
Stated runtime budgets are asserted alongside the numeric tolerances.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from varfrac import experiments
from varfrac.experiments import PRESETS, evaluate_checks

pytestmark = pytest.mark.slow


def _run(name):
    config = experiments.validate_config(PRESETS[name])
    t0 = time.time()
    out = experiments.RUNNERS[name](config, threads=4)
    return out.rows, time.time() - t0


@pytest.fixture(scope="session")
def rate_rows():
    return _run("rate-check")


@pytest.fixture(scope="session")
def triangulation_rows():
    return _run("triangulation")


@pytest.fixture(scope="session")
def variable_order_rows():
    return _run("variable-order")


@pytest.fixture(scope="session")
def subordination_rows():
    return _run("subordination-identity")


@pytest.fixture(scope="session")
def convergence_rows():
    return _run("solver-convergence")


def _report(criterion, checks, elapsed=None, budget=None):
    ok = all(c.passed for c in checks)
    if budget is not None:
        ok = ok and elapsed is not None and elapsed <= budget
    tail = f" [{elapsed:.1f}s <= {budget:.0f}s]" if budget is not None else ""
    print(f"\n{'PASS' if ok else 'FAIL'}: {criterion}{tail}")
    for c in checks:
        print(f"    {'ok ' if c.passed else 'BAD'} {c.name}: {c.detail}")
    assert ok, f"{criterion} failed"


def test_criterion_1_rate_bound(rate_rows):
    rows, elapsed = rate_rows
    checks = [
        c for c in evaluate_checks("rate-check", rows)
        if "rate bound" in c.name or "fitted order" in c.name or "errors decrease" in c.name
    ]
    _report("criterion 1: rate bound and fitted order", checks, elapsed, 10.0)


def test_criterion_2_exactness_window(rate_rows):
    rows, elapsed = rate_rows
    checks = [c for c in evaluate_checks("rate-check", rows) if "window" in c.name]
    # the window sub-measurements are a small fraction of the rate run
    _report("criterion 2: exactness window", checks, elapsed, 10.0)


def test_criterion_3_constant_order_triangulation(triangulation_rows):
    rows, elapsed = triangulation_rows
    checks = [
        c for c in evaluate_checks("triangulation", rows)
        if c.name in ("solver vs reference profile", "walk vs reference",
                      "time-change quadrature vs reference")
    ]
    _report("criterion 3: constant-order triangulation", checks, elapsed, 300.0)


def test_criterion_4_variable_order_cross_validation(variable_order_rows):
    rows, elapsed = variable_order_rows
    checks = evaluate_checks("variable-order", rows)
    _report("criterion 4: variable-order cross-validation", checks, elapsed, 900.0)


def test_criterion_5_conservation(triangulation_rows, subordination_rows):
    rows_t, _ = triangulation_rows
    rows_s, _ = subordination_rows
    checks = [
        c for c in evaluate_checks("triangulation", rows_t)
        if c.name in ("solver conservation", "walk conservation", "quadrature normalization")
    ]
    checks += [
        c for c in evaluate_checks("subordination-identity", rows_s)
        if c.name == "empirical normalization"
    ]
    _report("criterion 5: conservation across all routes", checks)


def test_criterion_6_maximum_principle(triangulation_rows, variable_order_rows,
                                       convergence_rows):
    checks = []
    for name, (rows, _) in (("triangulation", triangulation_rows),
                            ("variable-order", variable_order_rows),
                            ("solver-convergence", convergence_rows)):
        checks += [c for c in evaluate_checks(name, rows) if "maximum principle" in c.name]
    _report("criterion 6: maximum principle on every preset", checks)


def test_criterion_7_discrete_identity(subordination_rows):
    rows, elapsed = subordination_rows
    checks = [
        c for c in evaluate_checks("subordination-identity", rows)
        if c.name in ("recursion conserves mass", "recursion terminates",
                      "recursion vs sampling")
    ]
    _report("criterion 7: exhaustive recursion vs sampling", checks, elapsed, 600.0)


def test_criterion_7_runtime_isolated(const_model):
    # the recursion-vs-sampling piece alone fits its stated budget
    from varfrac import ctrw, subordination, waiting
    from varfrac.kernels import kernel_family

    t0 = time.time()
    law = waiting.build_waiting_law(0.5, 0.5)
    dlaw = waiting.discretize_waiting_law(law, 0.5, 16, 128.0)
    val, _ = subordination.discrete_subordinated_expectation(
        const_model, dlaw, np.cos, 0.0, 0.0, 1.0, 0.1
    )
    fam = kernel_family(const_model)
    est = ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 0.1, 100_000, 2024,
                                   model=const_model, kernel_family=fam, law=dlaw,
                                   threads=4)
    elapsed = time.time() - t0
    ok = abs(val - est.mean) <= 3.0 * est.std_error and elapsed <= 120.0
    print(f"\n{'PASS' if ok else 'FAIL'}: criterion 7 runtime "
          f"[{elapsed:.1f}s <= 120s], gap {abs(val - est.mean):.2e} <= {3 * est.std_error:.2e}")
    assert ok


def test_criterion_8_subordinator_law(subordination_rows):
    rows, _ = subordination_rows
    checks = [c for c in evaluate_checks("subordination-identity", rows)
              if c.name == "increasing-marginal law"]
    _report("criterion 8: increasing-coordinate marginal law", checks)


def test_criterion_9_determinism(tmp_path):
    import json

    config = {
        "schema_version": 1,
        "experiment": "triangulation",
        "seed": 4242,
        "numerics": {"n_x": 64, "n_s": 64, "mc_tau": 1e-2, "mc_n_traj": 20_000},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for threads in (1, 4):
        out_dir = tmp_path / f"t{threads}"
        res = subprocess.run(
            [sys.executable, "-m", "varfrac.cli", "run", str(cfg_path),
             "--threads", str(threads), "--out", str(out_dir)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append((out_dir / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    print(f"\n{'PASS' if ok else 'FAIL'}: criterion 9: results.csv identical for "
          f"--threads 1 and --threads 4 ({len(outputs[0])} bytes)")
    assert ok
