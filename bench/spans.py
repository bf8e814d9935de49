"""Per-layer tracing from outside the program.

`patched(tracer)` replaces the module and class attributes that varfrac's
callers resolve at call time (for example `varfrac.ctrw.uniforms` or
`WaitingLaw.sample`) with wrappers that open a span around the original
call and count its work; on exit every attribute is restored. No program
file is edited.

Self time. Each span records the layer it belongs to and its parent: the
enclosing span on the same thread, or, for the chain engine's worker
threads, the innermost open span of the main thread. A span is self-active
while it is open and none of its children are. Every interval between two
span events is split equally among the spans self-active in it, so a
layer's self time is its spans' wall time minus the part their children
cover, and the layers' self times add up to the wall time covered by spans
even while two worker threads run at once.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class _Span:
    __slots__ = ("key", "parent", "start", "children", "incl")

    def __init__(self, key, parent, start, incl):
        self.key = key
        self.parent = parent
        self.start = start
        self.children = 0
        self.incl = incl


class Tracer:
    """Span bookkeeping shared by all wrapped calls of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks = defaultdict(list)
        self._active = []
        self._last = perf_counter()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.incl_s = defaultdict(float)  # span wall time, children included
        self.order_fields = {}  # id -> order field of each model built

    def _advance(self, now):
        if self._active:
            share = (now - self._last) / len(self._active)
            for span in self._active:
                self.self_s[span.key] += share
        self._last = now

    def enter(self, key, incl=None):
        with self._lock:
            now = perf_counter()
            self._advance(now)
            stack = self._stacks[threading.get_ident()]
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks[self._main]
                parent = main[-1] if main else None
            span = _Span(key, parent, now, incl)
            if parent is not None:
                parent.children += 1
                if parent.children == 1:
                    self._active.remove(parent)
            self._active.append(span)
            stack.append(span)
            return span

    def exit(self, span, counts=()):
        with self._lock:
            now = perf_counter()
            self._advance(now)
            self._stacks[threading.get_ident()].pop()
            self._active.remove(span)
            parent = span.parent
            if parent is not None:
                parent.children -= 1
                if parent.children == 0:
                    self._active.append(parent)
            if span.incl is not None:
                self.incl_s[span.incl] += now - span.start
            for name, n in counts:
                self.counts[name] += int(n)

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += int(n)

    def attributed_s(self) -> float:
        return float(sum(self.self_s.values()))


def _spanned(tracer, key, fn, counter=None, incl=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(key, incl)
        counts = ()
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, kwargs, out)
            return out
        finally:
            tracer.exit(span, counts)

    return wrapper


def _hitting_steps(args, kwargs, out):
    return (("ctrw.traj_steps", np.sum(out[1])),)


def _fixed_steps(args, kwargs, out):
    ids, step_counts = args[7], args[8]
    return (("ctrw.traj_steps", len(ids) * max(int(c) for c in step_counts)),)


def _variates(args, kwargs, out):
    return (("streams.variates", np.size(out)), ("streams.calls", 1))


def _sized(name):
    def count(args, kwargs, out):
        return ((name, np.size(out)),)

    return count


def _calls(name):
    def count(args, kwargs, out):
        return ((name, 1),)

    return count


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    from varfrac import ctrw, experiments, kernels, model, oracles, solver, subordination, waiting

    originals = []

    def patch(owner, name, wrapper):
        originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def wrap(owner, name, key, counter=None, incl=None):
        patch(owner, name, _spanned(tracer, key, getattr(owner, name), counter, incl))

    # The chunk runners are private, but wrapping them gives each worker
    # thread its own chain span and yields the exact step counts.
    wrap(ctrw, "estimate_functional", "ctrw.horizon", incl="chain")
    wrap(ctrw, "sample_hitting", "ctrw.horizon", incl="chain")
    wrap(ctrw, "_run_chunk_to_horizon", "ctrw.horizon", _hitting_steps)
    wrap(ctrw, "sample_chain_at_steps", "ctrw.fixed", incl="chain")
    wrap(ctrw, "_run_chunk_fixed_steps", "ctrw.fixed", _fixed_steps)
    wrap(ctrw, "empirical_transition_density", "ctrw.histogram")
    wrap(ctrw, "uniforms", "streams.uniforms", _variates)
    wrap(waiting.WaitingLaw, "sample", "waiting.sample", _sized("waiting.draws"))
    wrap(waiting.DiscretizedWaitingLaw, "sample", "waiting.sample", _sized("waiting.draws"))
    wrap(kernels.DiffusionKernelFamily, "sample", "kernels.sample", _sized("kernels.draws"))
    wrap(kernels.StableKernelFamily, "sample", "kernels.sample", _sized("kernels.draws"))
    wrap(solver, "build_spatial_operator", "solver.operator")
    for name in ("invert_laplace", "subordinator_density", "hitting_time_cdf"):
        wrap(oracles, name, "oracles.inversion", _sized("oracles.inversion_points"))
    wrap(subordination, "subordinated_expectation", "subordination.expectation")
    wrap(subordination, "subordinated_density", "subordination.density")
    wrap(subordination, "discrete_subordinated_expectation", "subordination.lattice")

    make_model = experiments.make_model

    @functools.wraps(make_model)
    def traced_make_model(config):
        span = tracer.enter("model.make_model")
        try:
            built = make_model(config)
            tracer.order_fields[id(built.order_field)] = built.order_field
            return built
        finally:
            tracer.exit(span)

    patch(experiments, "make_model", traced_make_model)

    # Only the order field is timed; the spatial coefficient g runs inside
    # its caller's span.
    field_call = model.ScalarField.__call__
    traced_field = _spanned(tracer, "model.order_field", field_call,
                            _calls("model.order_field_calls"))

    @functools.wraps(field_call)
    def field_dispatch(self, t, x):
        if id(self) in tracer.order_fields:
            return traced_field(self, t, x)
        return field_call(self, t, x)

    patch(model.ScalarField, "__call__", field_dispatch)

    # np.linalg.solve is timed only inside the solver's backward march.
    solve = solver.solve_terminal_problem
    traced_linsolve = _spanned(tracer, "solver.linsolve", np.linalg.solve,
                               _calls("solver.slices"))

    @functools.wraps(solve)
    def traced_solve(*args, **kwargs):
        span = tracer.enter("solver.history", incl="solver")
        linsolve = np.linalg.solve
        np.linalg.solve = traced_linsolve
        try:
            return solve(*args, **kwargs)
        finally:
            np.linalg.solve = linsolve
            tracer.exit(span)

    patch(solver, "solve_terminal_problem", traced_solve)

    counted_v_cells = oracles.ConstantOrderDensity.v_cell_masses

    @functools.wraps(counted_v_cells)
    def v_cell_masses(self, u, v_edges):
        tracer.count("subordination.u_nodes")
        return counted_v_cells(self, u, v_edges)

    patch(oracles.ConstantOrderDensity, "v_cell_masses", v_cell_masses)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced iteration, keyed by metric name."""
    s, c = tracer.self_s, tracer.counts

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    iterations = c["streams.calls"] / 2.0
    steps = c["ctrw.traj_steps"]
    return {
        "ctrw.horizon_s": s["ctrw.horizon"],
        "ctrw.fixed_s": s["ctrw.fixed"],
        "ctrw.histogram_s": s["ctrw.histogram"],
        "ctrw.traj_steps": steps,
        "ctrw.iterations": iterations,
        "ctrw.steps_per_iteration": ratio(steps, iterations),
        "ctrw.traj_steps_per_s": ratio(steps, tracer.incl_s["chain"]),
        "streams.uniforms_s": s["streams.uniforms"],
        "streams.variates": c["streams.variates"],
        "streams.variates_per_s": ratio(c["streams.variates"], s["streams.uniforms"]),
        "waiting.sample_s": s["waiting.sample"],
        "waiting.draws": c["waiting.draws"],
        "waiting.draws_per_s": ratio(c["waiting.draws"], s["waiting.sample"]),
        "kernels.sample_s": s["kernels.sample"],
        "kernels.draws": c["kernels.draws"],
        "model.order_field_s": s["model.order_field"],
        "model.order_field_calls": c["model.order_field_calls"],
        "model.make_model_s": s["model.make_model"],
        "solver.solve_s": tracer.incl_s["solver"],
        "solver.slices": c["solver.slices"],
        "solver.slice_ms": 1000.0 * ratio(tracer.incl_s["solver"], c["solver.slices"]),
        "solver.linsolve_s": s["solver.linsolve"],
        "solver.history_s": s["solver.history"],
        "solver.operator_s": s["solver.operator"],
        "oracles.inversion_s": s["oracles.inversion"],
        "oracles.inversion_points": c["oracles.inversion_points"],
        "oracles.inversion_points_per_s": ratio(c["oracles.inversion_points"],
                                                s["oracles.inversion"]),
        "subordination.expectation_s": s["subordination.expectation"],
        "subordination.density_s": s["subordination.density"],
        "subordination.lattice_s": s["subordination.lattice"],
        "subordination.u_nodes": c["subordination.u_nodes"],
        "experiments.other_s": wall_s - tracer.attributed_s(),
    }
