"""Benchmark of the tdthr simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The simulator is imported from the
checkout's `src/`, and the workloads are built from its `configs/`.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
separate traced pass. The lines before it give the behaviour fingerprint and
the runs attempted and failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "wall_s": "s",
                    "events_per_s": "events/s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the simulator from this checkout, or explain why not."""
    if not (SRC / "tdthr" / "simkernel.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    if not CONFIGS.is_dir():
        raise SystemExit(f"perfbench: no configs directory at {CONFIGS}")
    sys.path.insert(0, str(SRC))
    import tdthr
    if Path(tdthr.__file__).resolve().parent != SRC / "tdthr":
        raise SystemExit(f"perfbench: imported tdthr from {tdthr.__file__}, "
                         f"not from {SRC}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    load_program()
    # These import tdthr, so they load only once the checkout's src/ is on
    # the path.
    import tracer
    import workloads
    from harness import Bench

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    bench = Bench(workloads.build(args.workload, CONFIGS, args.seed))
    timed = bench.measure(args.seconds)
    report = {"workload": args.workload, "seed": args.seed,
              "jobs": len(bench.jobs)}
    report.update({k: v for k, v in timed.items()
                   if k.startswith("raw_") or k in ("host_slowdown", "runs_per_job")})

    if args.trace == 0:
        prints = bench.fingerprint(tracer.event_targets())
        values = {"setup_s": timed["setup_s"], "run_s": timed["run_s"],
                  "wall_s": timed["wall_s"],
                  "events_per_s": prints["events"] / timed["run_s"],
                  "peak_rss_mb": peak_rss_mib()}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    else:
        layers = tracer.Tracer(tracer.layer_targets())
        prints = bench.traced_pass(layers)
        values = tracer.layer_metrics(layers)
        values["trace.overhead_ratio"] = prints["wall_s"] / timed["raw_wall_s"]
        values["metrics.delivery_ratio"] = tracer.ratio(prints["delivered"],
                                                        prints["generated"])
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in per_layer}
        metrics = {name: {"value": value, "unit": units.get(name, "")}
                   for name, value in values.items()}

    report.update({k: v for k, v in prints.items() if k != "wall_s"})
    report["delivery_ratio"] = tracer.ratio(prints["delivered"], prints["generated"])
    report["failures"] = bench.failures[:20]
    print(json.dumps(report))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
