"""The four benchmark workloads, each built from a preset runner of
`varfrac.experiments` and checked with `experiments.evaluate_checks`.

`--seed n` runs the preset with seed (preset seed + n), so seed 0 is the
preset itself. At these sizes one repetition takes 8 to 16 s on a 2-CPU
machine; the reason for each workload is in README.md.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
from varfrac import cli, experiments, solver

THREADS = 2


def _reduce_varorder(num):
    for point in num["points"]:
        point["n_traj"] = [n // 20 for n in point["n_traj"]]


def _reduce_subordination(num):
    for key in ("lattice_n_traj", "ks_n_traj", "density_n_traj"):
        num[key] //= 3


def _time_dependent_solve(config):
    """One solve on the largest preset grid with an order field that varies
    in time, so the solver takes its per-slice weight path."""
    spec = copy.deepcopy(experiments.VARIABLE_ORDER_MODEL)
    spec["order_field"]["freq_t"] = 2.0
    model = experiments.make_model(spec)
    n_x, n_s = config["numerics"]["resolutions"][-1]
    t = float(config["numerics"]["t"])
    field = solver.solve_terminal_problem(model, np.cos, t, solver.Grid(n_x=n_x, n_s=n_s, t=t))
    values = field.values
    margin = min(float(values.min() + 1.0), float(1.0 - values.max()))
    rows = [
        experiments._row("solver-time-dependent", "max_principle_margin", margin, n=n_x),
        experiments._row("solver-time-dependent", "profile_mean", float(np.mean(values[0])),
                         n=n_x),
    ]
    checks = [experiments.Check(
        name="time-dependent order: maximum principle",
        passed=bool(np.all(np.isfinite(values))) and margin >= -1e-12,
        detail=f"margin {margin:.2e}, all values finite",
    )]
    return rows, checks


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    reduce: Callable[[dict], None] | None = None
    # Checks reported but not gated, with the reason (see README.md).
    ungated: tuple[tuple[str, str], ...] = ()
    extra: Callable[[dict], tuple[list, list]] | None = None

    def config(self, seed: int) -> dict:
        """Validated preset config at this workload's size and seed."""
        config = copy.deepcopy(experiments.PRESETS[self.preset])
        if self.reduce is not None:
            self.reduce(config["numerics"])
        config["seed"] = int(config["seed"]) + int(seed)
        return experiments.validate_config(config)

    def run(self, config):
        """Run the preset (and any extra step) and evaluate every check.

        Returns (rows, checks); `is_gated` says which checks gate the run.
        """
        out = experiments.RUNNERS[self.preset](config, threads=THREADS)
        rows = list(out.rows)
        checks = experiments.evaluate_checks(self.preset, out.rows)
        if self.extra is not None:
            extra_rows, extra_checks = self.extra(config)
            rows += extra_rows
            checks += extra_checks
        return rows, checks

    def is_gated(self, check) -> bool:
        return not any(check.name.startswith(prefix) for prefix, _ in self.ungated)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="varorder",
            preset="variable-order",
            reduce=_reduce_varorder,
            ungated=(("gap shrinks along the ladder",
                      "the last ladder gaps are within Monte Carlo noise of each other; "
                      "the order failed on 27 of 80 ladders over seeds 0-39"),),
        ),
        Workload(name="triangulation", preset="triangulation"),
        Workload(
            name="subordination",
            preset="subordination-identity",
            reduce=_reduce_subordination,
            ungated=(("density mass",
                      "fixed 1e-2 tolerance that does not scale with the ensemble; "
                      "|mass-1| exceeded it on seeds 0 and 2 of 0-39"),),
        ),
        Workload(name="solver", preset="solver-convergence", extra=_time_dependent_solve),
    )
}


def rows_digest(rows) -> str:
    """SHA-256 of the rows as the CSV bytes `varfrac run` writes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(experiments.CSV_COLUMNS)
    for row in rows:
        writer.writerow([cli._format_cell(row[c]) for c in experiments.CSV_COLUMNS])
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
