"""Command-line entry points: run experiments, audit result files.

`run` writes results.csv (long format), manifest.json (config echo plus
versions; rerunning from the manifest reproduces the CSV byte for byte),
and SVG quick-look plots. `compare` re-derives every pass/fail decision
from the CSV alone. Exit codes: 0 success, 1 threshold failure (compare),
2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import ctrw, solver
from .errors import ConfigError, SchemaMismatch, VarfracError
from .experiments import CSV_COLUMNS, EXPERIMENTS, evaluate_checks, validate_config


def _format_cell(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return repr(float(v))


def _write_results(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])


def read_results(path):
    """Rows of a results.csv; SchemaMismatch for any file that is not one
    (no header, a foreign header, a short row, bytes that are not UTF-8, or
    a cell that is not a number)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise SchemaMismatch(f"{path}: unexpected header {header}")
            for rec in reader:
                if len(rec) != len(CSV_COLUMNS):
                    raise SchemaMismatch(f"{path}: row {reader.line_num} has {len(rec)} cells")
                row = dict(zip(CSV_COLUMNS, rec))
                for col in CSV_COLUMNS[2:]:
                    row[col] = float(row[col]) if row[col] else None
                rows.append(row)
        except ValueError as exc:  # UnicodeDecodeError is one
            raise SchemaMismatch(f"{path}: {exc}") from exc
    return rows


def _versions():
    import numpy
    import scipy

    from . import __version__

    return {
        "varfrac": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def cmd_run(args):
    if args.preset:
        if args.preset not in EXPERIMENTS:
            print(f"unknown preset {args.preset!r}", file=sys.stderr)
            return 2
        config = EXPERIMENTS[args.preset].preset
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        if isinstance(config, dict) and "config" in config and "versions" in config:
            config = config["config"]  # rerun from a manifest
    try:
        config = validate_config(config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or config.get("output_dir") or "."
    manifest = {
        "config": {k: v for k, v in config.items() if k != "output_dir"},
        "versions": _versions(),
        "threads": args.threads,
        "outputs": [],
        "status": "ok",
        "error": None,
    }
    try:
        result = EXPERIMENTS[config["experiment"]].run(config, threads=args.threads)
    except VarfracError as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    _write_results(results_path, result.rows)
    manifest["outputs"].append("results.csv")
    for name, svg in result.plots.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(svg)
        manifest["outputs"].append(name)
    if args.dump_trajectories:
        if result.chain is None:
            print("trajectory dump: experiment has no chain run; skipped", file=sys.stderr)
        else:
            ctrw.dump_trajectories(os.path.join(out_dir, "trajectories.csv"),
                                   n_traj=args.dump_trajectories, **result.chain)
            manifest["outputs"].append("trajectories.csv")
    if args.dump_field:
        if result.field is None:
            print("field dump: experiment has no grid solve; skipped", file=sys.stderr)
        else:
            solver.export_csv(result.field, os.path.join(out_dir, "field.csv"))
            manifest["outputs"].append("field.csv")
    checks = evaluate_checks(config["experiment"], result.rows)
    manifest["checks"] = {c.name: bool(c.passed) for c in checks}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {config['experiment']}: {c.name} ({c.detail})")
    print(f"wrote {results_path}")
    return 0


def cmd_compare(args):
    try:
        files = [(path, read_results(path)) for path in args.results]
    except SchemaMismatch as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return 2
    exp_sets = [sorted({r["experiment"] for r in rows}) for _, rows in files]
    if any(s != exp_sets[0] for s in exp_sets):
        print(f"schema mismatch: experiment sets differ across files: {exp_sets}",
              file=sys.stderr)
        return 2
    if not exp_sets[0]:
        print("schema mismatch: no experiments found", file=sys.stderr)
        return 2
    any_fail = False
    for path, rows in files:
        for experiment in exp_sets[0]:
            sub = [r for r in rows if r["experiment"] == experiment]
            try:
                checks = evaluate_checks(experiment, sub)
            except (KeyError, TypeError, ConfigError) as exc:  # TypeError: an empty cell
                print(f"schema mismatch in {path}: {exc}", file=sys.stderr)
                return 2
            for c in checks:
                status = "PASS" if c.passed else "FAIL"
                any_fail |= not c.passed
                print(f"[{status}] {path}: {experiment}: {c.name} ({c.detail})")
    return 1 if any_fail else 0


def cmd_presets(_args):
    for name, experiment in EXPERIMENTS.items():
        print(f"{name:24s} {experiment.description}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="varfrac",
                                     description="heavy-tailed walk / nonlocal solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config or preset")
    p_run.add_argument("config", nargs="?", help="JSON config (or manifest) path")
    p_run.add_argument("--preset", help="run a built-in preset by name")
    p_run.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_run.add_argument("--out", help="output directory (default: config output_dir or cwd)")
    p_run.add_argument("--dump-trajectories", type=int, default=0, metavar="N",
                       help="also write the first N chain paths (traj, step, x, s)")
    p_run.add_argument("--dump-field", action="store_true",
                       help="also export the solved field as field.csv (x, s, F)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="audit results.csv files against the thresholds")
    p_cmp.add_argument("results", nargs="+")
    p_cmp.set_defaults(func=cmd_compare)

    p_pre = sub.add_parser("presets", help="list built-in experiments")
    p_pre.set_defaults(func=cmd_presets)

    args = parser.parse_args(argv)
    if args.command == "run" and not args.config and not args.preset:
        parser.error("run requires a config path or --preset")
    if args.command == "run" and args.dump_trajectories < 0:
        parser.error("--dump-trajectories must be at least 0")
    if args.command == "run" and args.threads < 1:
        parser.error("--threads must be at least 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
