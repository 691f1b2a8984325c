"""Runs a workload's jobs through the simulator's public surface, times them,
and checks every run for correctness.

One operation is one simulation run: `Simulation(cfg)`, `.run()`, and the
ledger-to-CSV step `metrics.csv_row`. It fails if it raises, if packet
accounting does not close, if the three energy totals disagree, if it
generates no packets, or if its CSV row differs from another run of the
same job.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field

from tdthr import metrics as metrics_mod
from tdthr.cli import config_hash
from tdthr.simkernel import Simulation

import hostspeed
from tracer import Tracer

# Simulation(cfg) is built up to SETUP_REPS times per operation, while the
# builds so far took less than SETUP_REPEAT_BELOW_S: set-up time gets more
# samples where it is a few milliseconds, and a set-up of a third of a
# second is not paid three times.
SETUP_REPS = 3
SETUP_REPEAT_BELOW_S = 0.1


@dataclass
class Outcome:
    setup_s: list
    run_s: float
    csv_s: float
    row: str
    generated: int
    delivered: int
    problems: list = field(default_factory=list)
    # Calibration kernel times before set-up, between set-up and run, and
    # after the CSV step (see hostspeed.py); empty when not calibrated.
    kernel_s: list = field(default_factory=list)

    def slowdown(self, part: str) -> float:
        """How much slower than the reference host `part` ran: "setup", or
        the run and CSV step that follow it (see hostspeed.slowdown)."""
        if part == "setup":
            return hostspeed.slowdown(self.kernel_s[0], self.kernel_s[1], "setup")
        return hostspeed.slowdown(self.kernel_s[1], self.kernel_s[2], "run")

    @property
    def wall_s(self) -> float:
        return statistics.median(self.setup_s) + self.run_s + self.csv_s


def check_run(sim, ledger) -> list[str]:
    """The correctness conditions that one finished run can violate."""
    problems = []
    if not ledger.accounting_closed():
        problems.append("packet accounting does not close")
    spent = sim.energy_spent_by_nodes_nj()
    drained = sim.initial_minus_residual_nj()
    if not spent == drained == ledger.total_energy_nj:
        problems.append(f"energy not conserved: spent {spent} nJ, drained "
                        f"{drained} nJ, ledger {ledger.total_energy_nj} nJ")
    if ledger.generated_total == 0:
        problems.append("no packets generated")
    return problems


def execute(cfg, setup_reps: int = 1, trace=None, calibrate=False) -> Outcome:
    """One operation. The last of up to `setup_reps` constructions is run.
    With `calibrate`, the calibration kernel is timed before set-up, between
    set-up and run, and after the CSV step."""
    clock = time.perf_counter
    kernel_s = []

    def probe():
        if calibrate:
            kernel_s.append(hostspeed.sample())

    setups = []
    gc.collect()
    probe()
    while not setups or (len(setups) < setup_reps
                         and sum(setups) < SETUP_REPEAT_BELOW_S):
        sim = None
        gc.collect()
        t0 = clock()
        sim = Simulation(cfg, trace=trace)
        setups.append(clock() - t0)
    gc.collect()
    probe()
    t0 = clock()
    ledger = sim.run()
    t1 = clock()
    row = metrics_mod.csv_row(ledger, config_hash(cfg), cfg.rng_seed,
                              cfg.protocol, cfg.critical_rate, cfg.duration)
    t2 = clock()
    probe()
    return Outcome(setups, t1 - t0, t2 - t1, row, ledger.generated_total,
                   ledger.delivered_total, check_run(sim, ledger),
                   kernel_s)


class HashSink:
    """A trace file that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode())


class Bench:
    """A workload's jobs with the gate's bookkeeping: the first CSV row of
    each job is the reference every later run of that job must match."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.rows = [None] * len(jobs)
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def operate(self, i: int, **kwargs) -> Outcome | None:
        self.attempted += 1
        job = self.jobs[i]
        try:
            out = execute(job.cfg, **kwargs)
        except Exception as exc:   # a run that raises is a failed operation
            self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            return None
        if self.rows[i] is None:
            self.rows[i] = out.row
        elif out.row != self.rows[i]:
            out.problems.append("CSV row differs from another run of this job")
        if out.problems:
            self.failures.append(f"{job.label}: {'; '.join(out.problems)}")
        return out

    def measure(self, seconds: float) -> dict:
        """Runs the jobs round robin, each at least once, until `seconds`
        have passed, with the calibration kernel timed around each part of
        each run (see hostspeed.py). A job's time for a part is its host
        time summed over the job's runs, divided by the part's slowdown
        summed likewise: host seconds at the reference speed. Each time is
        the sum over jobs; the `raw_` times are the unscaled medians."""
        samples = [[] for _ in self.jobs]
        deadline = time.perf_counter() + seconds
        n = 0
        while n < len(self.jobs) or time.perf_counter() < deadline:
            i = n % len(self.jobs)
            out = self.operate(i, setup_reps=SETUP_REPS, calibrate=True)
            if out is not None:
                samples[i].append(out)
            n += 1
        done = [s for s in samples if s]
        parts = {"setup": lambda o: statistics.median(o.setup_s),
                 "run": lambda o: o.run_s, "csv": lambda o: o.csv_s}
        scaled = {name: sum(sum(map(host, s)) / sum(o.slowdown(name) for o in s)
                            for s in done)
                  for name, host in parts.items()}
        raw = {name: sum(statistics.median(map(host, s)) for s in done)
               for name, host in parts.items()}
        kernel_s = [k for s in done for o in s for k in o.kernel_s]
        return {"setup_s": scaled["setup"], "run_s": scaled["run"],
                "wall_s": sum(scaled.values()),
                "raw_setup_s": raw["setup"], "raw_run_s": raw["run"],
                "raw_wall_s": sum(raw.values()),
                "host_slowdown": statistics.median(kernel_s) / hostspeed.REFERENCE_S,
                "runs_per_job": [min(map(len, samples)), max(map(len, samples))]}

    def fingerprint(self, event_targets) -> dict:
        """One more run of every job with the event trace going to a hash,
        and the handlers counted: the behaviour fingerprint and the number
        of events dispatched."""
        sink = HashSink()
        counter = Tracer(event_targets)
        generated = delivered = 0
        for i in range(len(self.jobs)):
            with counter.attached():
                out = self.operate(i, trace=sink)
            if out is not None:
                generated += out.generated
                delivered += out.delivered
        rows = "".join(f"{r}\n" for r in self.rows if r is not None)
        return {"events": sum(s.calls for s in counter.stats.values()),
                "generated": generated, "delivered": delivered,
                "csv_sha256": hashlib.sha256(rows.encode()).hexdigest(),
                "trace_sha256": sink.digest.hexdigest()}

    def traced_pass(self, tracer: Tracer) -> dict:
        """One run of every job with the tracer attached."""
        wall = 0.0
        generated = delivered = 0
        for i in range(len(self.jobs)):
            with tracer.attached():
                out = self.operate(i)
            if out is not None:
                wall += out.wall_s
                generated += out.generated
                delivered += out.delivered
        return {"wall_s": wall, "generated": generated, "delivered": delivered}
