"""`import varfrac` and a run's set-up load no scipy submodule.

scipy's submodules are imported inside the functions that call them. A
fresh interpreter imports the package and the CLI, validates every preset
and builds each preset's model, waiting law and kernel family, then lists
the submodules it holds: the list must be empty. It then calls each
function that imports one and prints the values, which must carry the bits
of the same calls made here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import varfrac
from varfrac import oracles, solver, waiting
from varfrac.experiments import EXPERIMENTS
from varfrac.model import make_model

_SUBMODULES = ["scipy.special", "scipy.integrate", "scipy.linalg", "scipy.optimize",
               "scipy.sparse"]

_PROBE = """
import json
import sys

import varfrac
import varfrac.cli
from varfrac.experiments import EXPERIMENTS, validate_config

for record in EXPERIMENTS.values():
    config = validate_config(record.preset)
    if "model" in config:
        model = varfrac.make_model(config["model"])
        varfrac.build_waiting_law(model.gamma_lo, model.gamma_hi)
        varfrac.kernel_family(model)
print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))
sys.path.insert(0, sys.argv[1])
from test_cold_start import deferred_values

print(json.dumps([float(v).hex() for v in deferred_values()]))
"""


def deferred_values():
    """One call of each function that imports a scipy submodule."""
    model = make_model(EXPERIMENTS["triangulation"].preset["model"])
    n = 6
    L = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    L[0, -1] = L[-1, 0] = 1.0
    density = oracles.ConstantOrderDensity(gamma=0.6, g0=1.0, x0=0.1, s0=0.0)
    return [
        oracles.laplace_exponent(0.6, 2.5),
        oracles.constant_order_solution(0.6, 3.0, 0.8),
        oracles._ml_integral(0.6, -20.0),
        *density.y_cell_masses(0.5, np.linspace(-1.0, 1.0, 5)),
        waiting._quad(np.exp, -1.0, 0.5),
        *solver._slice_solver(model, L)(np.full(n, 3.0), np.arange(n, dtype=float)),
    ]


def test_set_up_loads_no_scipy_submodule_and_deferred_calls_keep_their_bits():
    src = str(Path(varfrac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    tests = str(Path(__file__).resolve().parent)
    res = subprocess.run([sys.executable, "-c", _PROBE, tests, *_SUBMODULES],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    loaded, values = map(json.loads, res.stdout.splitlines())
    assert loaded == []
    assert values == [float(v).hex() for v in deferred_values()]
