"""The benchmark's workloads.

Each workload is a list of simulation jobs built from a shipped config plus
fixed overrides. The workload seed picks the jobs' `rng_seed` values, so it
changes the topologies, and with them `setup_s` (the number of placements
`generate_topology` tries). Job i runs at `rng_seed = 1000 * seed + i`, so
different workload seeds never share a topology.

One topology decides how far packets get, and with it most of the work a
run does: on the desk field one 120 s mixed-load run takes 1.4 s to 6.5 s
depending on the seed, and on the full-scale field the event count of one
run varies by 12% (coefficient of variation) from seed to seed. A workload
therefore spreads its work over many topologies with shorter simulated
spans, so that its totals move with the simulator's speed and not with the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from tdthr.cli import load_config, load_sweep_spec
from tdthr.simkernel import SimConfig

# Enough that no node dies within the simulated span, so the run length does
# not depend on the energy model (the shipped 2 J lasts about 22 s at the
# source of the full-scale field).
LARGE_BATTERY_J = 1000.0

# Twelve 15 s runs (three HELLO rounds each) in place of one 120 s run: a
# round of the twelve takes under 15 s, so a timed run repeats each job.
FIELD900_TOPOLOGIES = 12
FIELD900_DURATION_S = 15.0
# Thirty runs of 15 s HELLO warm-up (traffic_start in desk.yaml) plus 5 s of
# traffic in place of one 120 s run.
DESK_MIXED_TOPOLOGIES = 30
DESK_MIXED_DURATION_S = 20.0
SWEEP_SEEDS_PER_POINT = 2


@dataclass(frozen=True)
class Job:
    label: str
    cfg: SimConfig


def _sub_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def field900_beacon(configs: Path, seed: int) -> list[Job]:
    """The paper's 900-node field, regular traffic only."""
    jobs = []
    for i in range(FIELD900_TOPOLOGIES):
        cfg = load_config(configs / "default.yaml")
        cfg.energy_initial = LARGE_BATTERY_J
        cfg.duration = FIELD900_DURATION_S
        cfg.rng_seed = _sub_seed(seed, i)
        jobs.append(Job(f"seed={cfg.rng_seed}", cfg))
    return jobs


def desk_mixed_load(configs: Path, seed: int) -> list[Job]:
    """The desk field under a four-class mix at 4 kB/s, no energy stop."""
    jobs = []
    for i in range(DESK_MIXED_TOPOLOGIES):
        cfg = load_config(configs / "desk.yaml")
        cfg.critical_rate = 0.25
        cfg.delay_responsive_rate = 0.25
        cfg.reliability_responsive_rate = 0.25
        cfg.rate_bytes_per_s = 4000.0
        cfg.stop_energy_fraction = 0.0
        cfg.energy_initial = LARGE_BATTERY_J
        cfg.duration = DESK_MIXED_DURATION_S
        cfg.rng_seed = _sub_seed(seed, i)
        jobs.append(Job(f"seed={cfg.rng_seed}", cfg))
    return jobs


def desk_sweep(configs: Path, seed: int) -> list[Job]:
    """The (critical_rate, protocol) points of the shipped sweep, each at
    its own seeds, with desk energy and the stop rule as shipped: the jobs
    `tdthr sweep` runs when its seed list holds these seeds."""
    spec = load_sweep_spec(configs / "sweep_critical_rate.yaml")
    base: SimConfig = spec["_base"]
    protocols = spec["protocols"] or [base.protocol]
    jobs = []
    for _ in range(SWEEP_SEEDS_PER_POINT):
        for value in spec["values"]:
            for protocol in protocols:
                cfg = SimConfig.from_dict(base.to_dict())
                setattr(cfg, spec["parameter"], value)
                cfg.protocol = protocol
                cfg.rng_seed = _sub_seed(seed, len(jobs))
                jobs.append(Job(f"{spec['parameter']}={value} protocol={protocol} "
                                f"seed={cfg.rng_seed}", cfg))
    return jobs


WORKLOADS = {
    "field900_beacon": field900_beacon,
    "desk_mixed_load": desk_mixed_load,
    "desk_sweep": desk_sweep,
}


def build(name: str, configs: Path, seed: int) -> list[Job]:
    return WORKLOADS[name](configs, seed)
