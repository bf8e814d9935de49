"""Benchmark of varfrac: time to a checked result on four workloads, and a
traced per-layer breakdown of where that time goes.

    python3 bench/run.py --workload varorder --seed 0 --seconds 26 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The workload runs repeatedly in this process, each time on the same inputs,
until the next repetition would end past `--seconds`. Every repetition is
checked with `experiments.evaluate_checks`; the rows' SHA-256 must be the
same each time. `--trace 0` reports the end-to-end metrics, `--trace 1`
alternates plain and traced repetitions and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are for
people. Metric names and units are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_SAMPLES = 3
SPEEDUP_PAIRS = 3


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float  # process high-water mark when the repetition ended
    digest: str
    checks: list


def measure(workload, config) -> Sample:
    """One repetition, timed from the runner's start to checks done."""
    start, cpu = time.perf_counter(), time.process_time()
    rows, checks = workload.run(config)
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from workloads import rows_digest

    return Sample(wall_s, cpu_s, peak_rss_mb, rows_digest(rows), checks)


def repeat(fn, seconds):
    """Call fn until the next call would end past `seconds`; at least once."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def setup_seconds(config) -> list[float]:
    """Set-up time of a fresh interpreter, measured SETUP_SAMPLES times."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), json.dumps(config)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def thread_speedup(seed) -> float:
    """Median over pairs of one fixed chain call's wall time at threads=1
    divided by the same call's at threads=2 (two 4096-lane chunks)."""
    from varfrac import ctrw, experiments, kernels, waiting

    model = experiments.make_model(experiments.CONSTANT_ORDER_MODEL)
    law = waiting.build_waiting_law(model.gamma_lo, model.gamma_hi)
    fam = kernels.kernel_family(model)

    def call(threads):
        start = time.perf_counter()
        ctrw.sample_chain_at_steps(0.0, 0.0, 1e-3, [256], 2 * 4096, seed, model=model,
                                   kernel_family=fam, law=law, threads=threads)
        return time.perf_counter() - start

    return statistics.median(call(1) / call(2) for _ in range(SPEEDUP_PAIRS))


def _openblas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                return getter()
    return None


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "git_commit": commit or None,
        "src_sha256": src.hexdigest(),
        "note": f"thread scaling past {nproc} workers cannot be measured on this machine",
    }


def _gated(workload, samples):
    checks = [c for s in samples for c in s.checks if workload.is_gated(c)]
    return len(checks), sum(not c.passed for c in checks)


def _report_checks(workload, sample):
    for c in sample.checks:
        tag = "gated" if workload.is_gated(c) else "reported"
        print(f"  {'PASS' if c.passed else 'FAIL'} [{tag}] {c.name}: {c.detail}")
    for prefix, why in workload.ungated:
        print(f"  not gated: {prefix!r}: {why}")


def _median_line(name, values, unit):
    print(f"{name} = {statistics.median(values)!r} {unit} "
          f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "varfrac" / "__init__.py").is_file():
        print(f"error: no varfrac sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import varfrac

    if not Path(varfrac.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported varfrac from {varfrac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import THREADS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)

    print(f"workload {workload.name}: preset {workload.preset}, seed {config['seed']}, "
          f"threads {THREADS}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))

    if args.trace:
        metrics, samples, digests = traced_run(workload, config, args.seconds)
    else:
        metrics, samples, digests = plain_run(workload, config, args.seconds)

    attempted, failed = _gated(workload, samples)
    print(f"checks_failed = {failed}/{attempted} gated checks over {len(samples)} repetitions")
    _report_checks(workload, samples[0])
    print("rows_sha256 " + " ".join(sorted(digests)))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


def plain_run(workload, config, seconds):
    setup = setup_seconds(config)
    samples = repeat(lambda: measure(workload, config), seconds)
    # A second repetition can raise the high-water mark while the first one's
    # garbage is still held, so the figure is taken after the first.
    peak_rss_mb = samples[0].peak_rss_mb
    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    _median_line("wall_s", walls, "s")
    _median_line("cpu_s", cpus, "s")
    _median_line("setup_s", setup, "s")
    print(f"peak_rss_mb = {peak_rss_mb!r} MB")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, samples, {s.digest for s in samples}


def traced_run(workload, config, seconds):
    from spans import Tracer, layer_metrics, patched

    def pair():
        plain = measure(workload, config)
        tracer = Tracer()
        with patched(tracer):
            traced = measure(workload, config)
        return plain, traced, layer_metrics(tracer, traced.wall_s)

    # Before any BLAS call, so no OpenBLAS thread is spinning on a CPU.
    speedup = thread_speedup(int(config["seed"]))
    pairs = repeat(pair, seconds)
    layers = {name: statistics.median(p[2][name] for p in pairs) for name in pairs[0][2]}
    plain_wall = statistics.median(p[0].wall_s for p in pairs)
    traced_wall = statistics.median(p[1].wall_s for p in pairs)
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["ctrw.thread_speedup"] = speedup
    print(f"plain wall_s = {plain_wall!r} s, traced wall_s = {traced_wall!r} s "
          f"(median of {len(pairs)} pairs)")
    for name in sorted(layers):
        print(f"{name} = {layers[name]!r}")
    samples = [s for p in pairs for s in p[:2]]
    return layers, samples, {s.digest for s in samples}


if __name__ == "__main__":
    sys.exit(main())
