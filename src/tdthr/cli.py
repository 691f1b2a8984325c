"""Command-line front end: single runs, parameter sweeps, config validation,
and `run_grid`, the one runner of a batch of simulations.

Exit codes: 0 success, 1 validation failure (a bad config, spec or command
line), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
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


def _load_yaml(path):
    # PyYAML's errors name the file; the ValueError of an overlong int does not
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_config(path) -> SimConfig:
    data = _load_yaml(path)
    try:
        if not isinstance(data, dict):
            raise ValueError("config root must be a mapping")
        return SimConfig.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def config_hash(cfg: SimConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _output_path(path, directory=False) -> Path:
    """Create the directory that writing `path` needs before any run starts,
    so that a bad output path fails at once, not once the work is done."""
    path = Path(path)
    (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    if not directory and path.is_dir():
        raise ValueError(f"{path}: is a directory")
    return path


def _valid_config(path, seed=None) -> SimConfig:
    """The config at `path` with `seed` put in, if given, then validated:
    one ValueError names the file once per problem."""
    cfg = load_config(path)
    if seed is not None:
        cfg.rng_seed = seed
    errors = cfg.validate()
    if errors:
        raise ValueError("\n".join(f"{path}: {e}" for e in errors))
    return cfg


def _csv_row(cfg: SimConfig, ledger) -> str:
    return metrics_mod.csv_row(ledger, config_hash(cfg), cfg.rng_seed,
                               cfg.protocol, cfg.critical_rate, cfg.duration)


def execute_run(cfg: SimConfig, trace_path=None) -> str:
    """One simulation; returns the metrics CSV row."""
    with open(trace_path, "w") if trace_path else nullcontext() as trace:
        ledger = Simulation(cfg, trace=trace).run()
    return _csv_row(cfg, ledger)


def cmd_run(args) -> int:
    try:
        cfg = _valid_config(args.config, seed=args.seed)
        out = _output_path(args.out)
        if args.trace:
            _output_path(args.trace)
    except LOAD_ERRORS as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    try:
        row = execute_run(cfg, trace_path=args.trace)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    out.write_text(metrics_mod.csv_header() + "\n" + row + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = _valid_config(args.config)
    except LOAD_ERRORS as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    print(yaml.safe_dump(cfg.to_dict(), sort_keys=False), end="")
    return EXIT_OK


# ---- sweeps --------------------------------------------------------------

def load_sweep_spec(path) -> dict:
    spec = _load_yaml(path)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: sweep spec must be a mapping")
    for key in ("base_config", "parameter", "values"):
        if key not in spec:
            raise ValueError(f"{path}: sweep spec missing {key!r}")
    for key in ("base_config", "parameter"):
        if not isinstance(spec[key], str):
            raise ValueError(f"{path}: {key} must be a string, got {spec[key]!r}")
    if not isinstance(spec["values"], list) or not spec["values"]:
        raise ValueError(f"{path}: sweep values must be a non-empty list")
    # list entries are checked with each run's config below; a bool is no count
    seeds = spec.setdefault("seeds", [1])
    if type(seeds) is int and seeds > 0:
        spec["seeds"] = list(range(1, seeds + 1))
    elif not (isinstance(seeds, list) and seeds):
        raise ValueError(f"{path}: seeds must be a positive int or a non-empty "
                         f"list of ints, got {seeds!r}")
    protocols = spec.setdefault("protocols", None)
    if not (protocols is None or isinstance(protocols, list) and protocols):
        raise ValueError(f"{path}: protocols must be a list of one or more "
                         f"protocol names, got {protocols!r}")
    spec["_base"] = load_config(Path(path).parent / spec["base_config"])
    parameter = spec["parameter"]
    if parameter not in {f.name for f in dataclasses.fields(SimConfig)}:
        raise ValueError(f"{path}: unknown swept parameter {parameter!r}")
    own_key = {"protocol": "protocols", "rng_seed": "seeds"}.get(parameter)
    if own_key:  # each run's config sets these two from their own keys
        raise ValueError(f"{path}: sweep {parameter!r} through '{own_key}:'")
    # Every run's config is validated here, so a bad value, protocol or seed
    # fails the sweep before it starts (exit 1), not each of its runs (exit 2).
    for cfg in _sweep_configs(spec):
        errors = cfg.validate()
        if errors:
            raise ValueError(f"{path}: {parameter}={getattr(cfg, parameter)!r} "
                             f"protocol={cfg.protocol} seed={cfg.rng_seed!r}: "
                             + "; ".join(errors))
    # validated entries are hashable; a repeat would rerun the same runs
    for key in ("values", "seeds", "protocols"):
        seen = set()
        for entry in spec[key] or ():
            if entry in seen:
                raise ValueError(f"{path}: {key} repeats {entry!r}")
            seen.add(entry)
    return spec


def _sweep_configs(spec: dict) -> list:
    """The config of each run, in (value, seed, protocol) order."""
    base: SimConfig = spec["_base"]
    return [dataclasses.replace(base, **{spec["parameter"]: value,
                                         "protocol": proto, "rng_seed": seed})
            for value in spec["values"]
            for seed in spec["seeds"]
            for proto in spec["protocols"] or [base.protocol]]


def run_grid(configs: list, jobs: int = 1) -> list:
    """Runs one simulation per config, on up to `jobs` worker processes.
    Returns, in input order, each run's `MetricsLedger`, or for a run that
    raised, its error as "ExceptionType: message"."""
    # a forked pool starts all its workers at once: one per run at most
    jobs = min(jobs, len(configs))
    if jobs <= 1:
        return [_grid_run(cfg) for cfg in configs]
    # imported here: the pool pulls in `multiprocessing`, which a process
    # that runs no pool need not hold in memory
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_grid_run, configs))


def _grid_run(cfg: SimConfig):
    # module level, so that a pool can pickle it under every start method
    try:
        return Simulation(cfg).run()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def run_sweep(spec: dict, out_dir, jobs: int = 1):
    """Runs all (value, seed, protocol) combinations. Returns (rows,
    failures); failures are (job-description, error) pairs."""
    parameter = spec["parameter"]
    configs = _sweep_configs(spec)
    rows, failures, plotted = [], [], []
    for cfg, result in zip(configs, run_grid(configs, jobs)):
        value = getattr(cfg, parameter)
        if isinstance(result, str):
            failures.append((f"{parameter}={value} seed={cfg.rng_seed} "
                             f"protocol={cfg.protocol}", result))
        else:
            row = _csv_row(cfg, result)
            rows.append(row)
            plotted.append((value, row))
    out = _output_path(out_dir, directory=True)
    (out / "sweep.csv").write_text(
        metrics_mod.csv_header() + "\n" + "".join(r + "\n" for r in sorted(rows)))
    if failures:
        (out / "failures.txt").write_text(
            "".join(f"{desc}: {err}\n" for desc, err in failures))
    _write_plot_data(plotted, parameter, out)
    return rows, failures


PLOT_METRICS = ("prr_regular", "prr_critical", "prr_delay_responsive",
                "prr_reliability", "mean_delay_regular", "mean_delay_critical",
                "mean_delay_delay_responsive", "mean_delay_reliability",
                "ecpp", "lifetime")


def _write_plot_data(plotted, parameter, out_dir: Path):
    """Per-metric plot files: swept value, protocol, mean/min/max over seeds.
    `plotted` holds a (swept value, CSV row) pair per completed run."""
    cols = metrics_mod.CSV_COLUMNS
    parsed = [(value, dict(zip(cols, row.split(",")))) for value, row in plotted]
    for metric in PLOT_METRICS:
        groups = {}
        for value, rec in parsed:
            if rec[metric] == "":
                continue
            groups.setdefault((rec["protocol"], value), []).append(float(rec[metric]))
        lines = [f"{parameter},protocol,mean,min,max"]
        for (proto, value) in sorted(groups):
            vals = groups[(proto, value)]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"{shown},{proto},{sum(vals) / len(vals):.6g},"
                         f"{min(vals):.6g},{max(vals):.6g}")
        (out_dir / f"plot_{metric}.csv").write_text("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        spec = load_sweep_spec(args.spec)
        out_dir = _output_path(args.out, directory=True)
    except LOAD_ERRORS as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    rows, failures = run_sweep(spec, out_dir, jobs=args.jobs)
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
    p_sweep.add_argument("--out", default="sweep_out", help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (>= 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate and echo a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 2 after a usage error, 0 after --help
        return EXIT_VALIDATION if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
