"""The traced benchmark still resolves what it wraps.

bench/spans.py wraps package attributes by name and reads a chunk runner's
arguments by position. Only a traced benchmark run executes that code, so
a rename would break it silently; this test enters its patch around a small
run of each counted layer.
"""

import sys
from pathlib import Path

import numpy as np

from varfrac import ctrw, solver, waiting
from varfrac.kernels import kernel_family

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


def test_traced_layers_count_their_work(const_model, stable_model):
    law = waiting.build_waiting_law(const_model.gamma_lo, const_model.gamma_hi)
    chain = dict(model=const_model, kernel_family=kernel_family(const_model), law=law)
    estimate = ctrw.estimate_functional
    tracer = spans.Tracer()
    with spans.patched(tracer):
        ctrw.estimate_functional(np.cos, 0.0, 0.0, 1.0, 1e-2, 200, 0, **chain)
        ctrw.sample_chain_at_steps(0.0, 0.0, 1e-2, [5, 10], 200, 1, **chain)
        # A diffusion slice is a banded solve; the stable operator's is the
        # dense np.linalg.solve that the tracer counts.
        solver.solve_terminal_problem(stable_model, np.cos, 1.0,
                                      solver.Grid(n_x=16, n_s=16, t=1.0))
    for name in ("waiting.draws", "kernels.draws", "ctrw.traj_steps", "solver.slices"):
        assert tracer.counts[name] > 0, name
    assert ctrw.estimate_functional is estimate  # the patch is undone
