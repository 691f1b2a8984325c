"""Command-line front end: single runs, parameter sweeps, config validation.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import yaml

from . import metrics as metrics_mod
from .config import SimConfig
from .simkernel import Simulation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# What the loaders raise on bad input. Each message names the file once:
# the loaders prefix their own errors, and those of `open` and YAML carry it.
LOAD_ERRORS = (OSError, ValueError, yaml.YAMLError)


def load_config(path) -> SimConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    try:
        if not isinstance(data, dict):
            raise ValueError("config root must be a mapping")
        return SimConfig.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def config_hash(cfg: SimConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def execute_run(cfg: SimConfig, trace_path=None) -> str:
    """One simulation; returns the metrics CSV row."""
    with open(trace_path, "w") if trace_path else nullcontext() as trace:
        ledger = Simulation(cfg, trace=trace).run()
    return metrics_mod.csv_row(ledger, config_hash(cfg), cfg.rng_seed,
                               cfg.protocol, cfg.critical_rate, cfg.duration)


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.rng_seed = args.seed
        errors = cfg.validate()
        if errors:
            for err in errors:
                print(f"{args.config}: {err}", file=sys.stderr)
            return EXIT_VALIDATION
    except LOAD_ERRORS as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    try:
        row = execute_run(cfg, trace_path=args.trace)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(metrics_mod.csv_header() + "\n" + row + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except LOAD_ERRORS as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    errors = cfg.validate()
    if errors:
        for err in errors:
            print(f"{args.config}: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    print(yaml.safe_dump(cfg.to_dict(), sort_keys=False), end="")
    return EXIT_OK


# ---- sweeps --------------------------------------------------------------

def load_sweep_spec(path) -> dict:
    with open(path) as fh:
        spec = yaml.safe_load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: sweep spec must be a mapping")
    for key in ("base_config", "parameter", "values"):
        if key not in spec:
            raise ValueError(f"{path}: sweep spec missing {key!r}")
    if not isinstance(spec["values"], list) or not spec["values"]:
        raise ValueError(f"{path}: sweep values must be a non-empty list")
    spec.setdefault("seeds", [1])
    spec.setdefault("protocols", None)
    if isinstance(spec["seeds"], int):
        spec["seeds"] = list(range(1, spec["seeds"] + 1))
    if not spec["seeds"]:
        raise ValueError(f"{path}: need at least one seed per point")
    base = load_config(Path(path).parent / spec["base_config"])
    parameter = spec["parameter"]
    if parameter not in {f.name for f in dataclasses.fields(SimConfig)}:
        raise ValueError(f"{path}: unknown swept parameter {parameter!r}")
    # Every point is validated here, so a bad value or protocol fails the
    # sweep before it starts (exit 1), not each of its runs (exit 2).
    for value in spec["values"]:
        for proto in spec["protocols"] or [base.protocol]:
            point = dataclasses.replace(base, **{parameter: value,
                                                 "protocol": proto})
            errors = point.validate()
            if errors:
                raise ValueError(f"{path}: {parameter}={value!r} "
                                 f"protocol={proto}: " + "; ".join(errors))
    spec["_base"] = base
    return spec


def _sweep_point(job):
    cfg_dict, parameter, value, seed, protocol = job
    cfg = SimConfig.from_dict(cfg_dict)
    setattr(cfg, parameter, value)
    cfg.rng_seed = seed
    cfg.protocol = protocol
    return execute_run(cfg)


def run_sweep(spec: dict, out_dir, jobs: int = 1):
    """Runs all (value, seed, protocol) combinations. Returns (rows,
    failures); failures are (job-description, error) pairs."""
    base: SimConfig = spec["_base"]
    protocols = spec["protocols"] or [base.protocol]
    work = [(base.to_dict(), spec["parameter"], value, seed, proto)
            for value in spec["values"]
            for seed in spec["seeds"]
            for proto in protocols]
    rows, failures = [], []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_guarded_point, work)
    else:
        results = map(_guarded_point, work)
    for job, (row, err) in zip(work, results):
        desc = f"{job[1]}={job[2]} seed={job[3]} protocol={job[4]}"
        if err is not None:
            failures.append((desc, err))
        else:
            rows.append(row)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(
        metrics_mod.csv_header() + "\n" + "".join(r + "\n" for r in sorted(rows)))
    if failures:
        (out / "failures.txt").write_text(
            "".join(f"{desc}: {err}\n" for desc, err in failures))
    _write_plot_data(rows, spec["parameter"], out)
    return rows, failures


def _guarded_point(job):
    try:
        return _sweep_point(job), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


PLOT_METRICS = ("prr_regular", "prr_critical", "prr_delay_responsive",
                "prr_reliability", "mean_delay_regular", "mean_delay_critical",
                "mean_delay_delay_responsive", "mean_delay_reliability",
                "ecpp", "lifetime")


def _write_plot_data(rows, parameter, out_dir: Path):
    """Per-metric plot files: swept value, protocol, mean/min/max over seeds."""
    cols = metrics_mod.CSV_COLUMNS
    parsed = [dict(zip(cols, row.split(","))) for row in rows]
    value_col = parameter if parameter in cols else "critical_rate"
    for metric in PLOT_METRICS:
        groups = {}
        for rec in parsed:
            if rec[metric] == "":
                continue
            key = (rec["protocol"], float(rec[value_col]))
            groups.setdefault(key, []).append(float(rec[metric]))
        lines = [f"{value_col},protocol,mean,min,max"]
        for (proto, value) in sorted(groups, key=lambda k: (k[0], k[1])):
            vals = groups[(proto, value)]
            lines.append(f"{value:.6g},{proto},{sum(vals) / len(vals):.6g},"
                         f"{min(vals):.6g},{max(vals):.6g}")
        (out_dir / f"plot_{metric}.csv").write_text("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    try:
        spec = load_sweep_spec(args.spec)
    except LOAD_ERRORS as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = args.out or os.environ.get("TDTHR_OUT_DIR", "sweep_out")
    jobs = args.jobs or int(os.environ.get("TDTHR_JOBS", "1"))
    rows, failures = run_sweep(spec, out_dir, jobs=jobs)
    print(f"{len(rows)} runs completed, {len(failures)} failed -> {out_dir}")
    for desc, err in failures:
        print(f"  failed: {desc}: {err}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdthr",
        description="Traffic-differentiated two-hop QoS routing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True, help="metrics CSV output path")
    p_run.add_argument("--trace", default=None, help="optional event trace path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate and echo a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
