"""Span tracer that attributes host time to the layers of `tdthr`.

It wraps functions and methods of the simulator's modules from the outside
(the simulator's own code is not edited), aggregates one record per span name
in memory, and derives the benchmark's per-layer metrics from those records
when the benchmark ends.

A span's self time is its duration minus the durations of the spans called
directly inside it. A wrap target that no longer exists is skipped with a
warning, and only the metrics that need it are dropped, so a refactor that
renames a handler still gets a benchmark run.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0       # time of the spans called directly inside
    errors: int = 0          # calls that raised
    values: list = field(default_factory=list)   # what the probes observed

    @property
    def self_time(self) -> float:
        return self.total - self.child


@dataclass(frozen=True)
class Target:
    """One function or method to wrap. `qualname` is `func` or `Class.method`
    inside `module`; `before(args)` and `after(args, result)` may return a
    value to record in the span's `values` (None records nothing)."""
    span: str
    module: str
    qualname: str
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    """Aggregates spans per name. `attached()` installs the wrappers for the
    duration of a `with` block and restores the originals afterwards; the
    statistics accumulate across attachments."""

    def __init__(self, targets, clock=time.perf_counter, warn=None):
        self.targets = list(targets)
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.missing: set[str] = set()
        self._warn = warn or (lambda msg: print(msg, file=sys.stderr))
        self._stack: list = []
        self._patches: list = []

    def wrap(self, span: str, fn, before=None, after=None):
        """Return `fn` wrapped in a span named `span`."""
        stat = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if before is not None:
                seen = before(args)
                if seen is not None:
                    stat.values.append(seen)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.child += frame[0]
            if after is not None:
                seen = after(args, result)
                if seen is not None:
                    stat.values.append(seen)
            return result

        return traced

    # ---- installation ----------------------------------------------------

    @contextmanager
    def attached(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        for target in self.targets:
            owner, name, original = _resolve(target)
            if original is None:
                if target.span not in self.missing:
                    self.missing.add(target.span)
                    self._warn(f"perfbench: wrap target {target.module}."
                               f"{target.qualname} not found; dropping the "
                               f"metrics that need span {target.span!r}")
                continue
            wrapper = self.wrap(target.span, original, target.before,
                                target.after)
            for holder in _holders(owner, name, original):
                self._patches.append((holder, name, original))
                setattr(holder, name, wrapper)

    def _uninstall(self):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)


def _resolve(target: Target):
    """(owner, attribute name, original function) or (None, None, None)."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, None, None
    *path, name = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)   # plain functions only
    else:
        original = getattr(owner, name, None)
    if not callable(original) or isinstance(original, type):
        return None, None, None
    return owner, name, original


def _holders(owner, name, original):
    """The owner, plus for a module-level function every `tdthr` module that
    imported the same function object under the same name."""
    if isinstance(owner, type):
        return [owner]
    holders = [owner]
    for mod_name, mod in list(sys.modules.items()):
        if (mod is not owner and mod_name.split(".")[0] == "tdthr"
                and getattr(mod, name, None) is original):
            holders.append(mod)
    return holders


# ---- the layers of tdthr --------------------------------------------------

SIM = "tdthr.simkernel"
NB = "tdthr.neighborhood"
FWD = "tdthr.forwarding"

# Event kinds whose dispatch counts are reported by name.
EVENT_KINDS = ("hello", "hello_rx", "cbr", "kick", "promo", "data_rx",
               "ack_rx", "ack_timeout", "audit")

# The MAC layer's handlers; `_begin_attempt` is the fourth MAC span.
MAC_EVENTS = ("data_rx", "ack_rx", "ack_timeout")
HELLO_EVENTS = {"hello": "hello.send", "hello_rx": "hello.rx"}


def _exchange_finished(args):
    # `_ev_ack_timeout(self, sender_id, state)`: a timer that finds its
    # exchange already acknowledged or abandoned does no work.
    state = args[2] if len(args) > 2 else None
    return int(bool(getattr(state, "acked", False) or getattr(state, "done", False)))


def _hello_entries(args, hello):
    entries = getattr(hello, "one_hop", None)
    return None if entries is None else len(entries)


def _queue_wait(args, item):
    return None if item is None else item[1]


def event_kinds() -> list[str]:
    """Every event kind the kernel can dispatch, found from its `_ev_<kind>`
    handlers, so kinds added later are counted too."""
    sim = importlib.import_module(SIM).Simulation
    return sorted(name[len("_ev_"):] for name, value in vars(sim).items()
                  if name.startswith("_ev_") and callable(value))


def _event_span(kind: str) -> str:
    if kind in HELLO_EVENTS:
        return HELLO_EVENTS[kind]
    if kind in MAC_EVENTS:
        return f"mac.{kind}"
    return f"event.{kind}"


def event_targets() -> list[Target]:
    """One span per event handler: enough to count dispatched events. A
    named kind that the kernel no longer has is reported as missing."""
    return [Target(_event_span(kind), SIM, f"Simulation._ev_{kind}",
                   before=_exchange_finished if kind == "ack_timeout" else None)
            for kind in sorted(set(event_kinds()) | set(EVENT_KINDS))]


def _record_methods() -> list[str]:
    ledger = importlib.import_module("tdthr.metrics").MetricsLedger
    return sorted(n for n, v in vars(ledger).items()
                  if n.startswith("record_") and callable(v))


def layer_targets() -> list[Target]:
    """Every span of the traced run."""
    targets = [
        # simkernel.setup
        Target("setup", SIM, "Simulation.__init__"),
        Target("setup.validate", SIM, "SimConfig.validate"),
        Target("setup.topology", SIM, "generate_topology"),
        Target("setup.topology_attempt", SIM, "_connected"),
        Target("setup.nodes", SIM, "_Node.__init__"),
        Target("setup.initial_events", SIM, "Simulation._schedule_initial"),
        # simkernel.dispatch
        Target("dispatch", SIM, "Simulation.run"),
        # simkernel.hello
        Target("hello.build", SIM, "Simulation._build_hello",
               after=_hello_entries),
        # simkernel.mac
        Target("mac.attempt", SIM, "Simulation._begin_attempt"),
        # neighborhood
        Target("nb.process_hello", NB, "NeighborTable.process_hello"),
        Target("nb.process_ack_info", NB, "NeighborTable.process_ack_info"),
        Target("nb.evict_stale", NB, "NeighborTable.evict_stale"),
        Target("nb.live_records", NB, "NeighborTable.live_records"),
        Target("nb.favorable_one_hop", NB, "NeighborTable.favorable_one_hop"),
        Target("nb.pairs", NB, "NeighborTable.favorable_pairs",
               after=lambda args, pairs: len(pairs)),
        # forwarding
        Target("fwd.select", SIM, "Simulation._select"),
        Target("fwd.detour", SIM, "Simulation._detour"),
        Target("fwd.select_next_hop", FWD, "select_next_hop"),
        Target("fwd.best_effort_pair", FWD, "best_effort_pair"),
        Target("fwd.route_regular", FWD, "route_regular"),
        Target("fwd.route_reliability", FWD, "route_reliability"),
        Target("fwd.required_velocity", FWD, "required_velocity"),
        Target("fwd.update_lag_time", FWD, "update_lag_time"),
        # queueing
        Target("q.enqueue", "tdthr.queueing", "QueueBank.enqueue",
               after=lambda args, ok: None if ok else 1),
        Target("q.dequeue", "tdthr.queueing", "QueueBank.dequeue_next",
               after=_queue_wait),
        Target("q.promo", "tdthr.queueing", "QueueBank.on_timer_expire",
               after=lambda args, hit: int(bool(hit))),
        Target("q.flush", "tdthr.queueing", "QueueBank.flush"),
        # estimators (updates; the per-lookup reads are too fine to wrap)
        Target("est.prr_record", "tdthr.estimators", "PrrEstimator.record"),
        Target("est.dq_update", "tdthr.estimators", "DelayEstimator.dq_update"),
        Target("est.dt_update", "tdthr.estimators", "DelayEstimator.dt_update"),
        # core.energy
        Target("energy.deduct", "tdthr.core", "EnergyBudget.deduct"),
        Target("energy.can_afford", "tdthr.core", "EnergyBudget.can_afford"),
        # metrics
        Target("metrics.init", "tdthr.metrics", "MetricsLedger.__init__"),
        Target("metrics.csv_row", "tdthr.metrics", "csv_row"),
    ]
    targets += [Target(f"metrics.{name}", "tdthr.metrics", f"MetricsLedger.{name}")
                for name in _record_methods()]
    return targets + event_targets()


# ---- derived per-layer metrics ---------------------------------------------

def ratio(num, den) -> float:
    # A ratio whose base is 0 (say, no velocity decisions on a workload that
    # carries regular traffic only) is reported as 0.
    return num / den if den else 0.0


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _spans(stats, prefix):
    return [s for name, s in stats.items() if name.startswith(prefix)]


def _event_calls(stats) -> dict:
    return {k: stats[_event_span(k)].calls
            for k in event_kinds() if _event_span(k) in stats}


def _metric_table():
    """name -> (spans it needs, function of the stats)."""
    mac_spans = ["mac.attempt"] + [f"mac.{k}" for k in MAC_EVENTS]
    table = {
        "simkernel.setup.topology_s": (["setup.topology"],
                                       lambda s: s["setup.topology"].total),
        "simkernel.setup.topology_attempts": (
            ["setup.topology_attempt"], lambda s: s["setup.topology_attempt"].calls),
        # The adjacency loop is inline in Simulation.__init__: it is what
        # remains of the constructor once validation, topology, node
        # construction, the ledger and the initial events are taken out.
        "simkernel.setup.adjacency_s": (
            ["setup", "setup.validate", "setup.topology", "setup.nodes",
             "setup.initial_events", "metrics.init"],
            lambda s: s["setup"].self_time),
        "simkernel.dispatch.events": ([], lambda s: sum(_event_calls(s).values())),
        "simkernel.dispatch.self_s": (["dispatch"], lambda s: s["dispatch"].self_time),
        "simkernel.hello.beacons": (["hello.build"], lambda s: s["hello.build"].calls),
        "simkernel.hello.build_s": (["hello.build"], lambda s: s["hello.build"].total),
        "simkernel.hello.entries_per_beacon": (
            ["hello.build"],
            lambda s: ratio(sum(s["hello.build"].values), s["hello.build"].calls)),
        "simkernel.hello.send_self_s": (["hello.send"],
                                        lambda s: s["hello.send"].self_time),
        "simkernel.hello.rx_self_s": (["hello.rx"], lambda s: s["hello.rx"].self_time),
        "neighborhood.process_hello_calls": (["nb.process_hello"],
                                             lambda s: s["nb.process_hello"].calls),
        "neighborhood.process_hello_s": (["nb.process_hello"],
                                         lambda s: s["nb.process_hello"].total),
        "neighborhood.live_records_calls": (["nb.live_records"],
                                            lambda s: s["nb.live_records"].calls),
        "neighborhood.live_records_s": (["nb.live_records"],
                                        lambda s: s["nb.live_records"].total),
        "neighborhood.pairs_calls": (["nb.pairs"], lambda s: s["nb.pairs"].calls),
        "neighborhood.pairs_s": (["nb.pairs"], lambda s: s["nb.pairs"].total),
        "neighborhood.pairs_per_call": (
            ["nb.pairs"], lambda s: ratio(sum(s["nb.pairs"].values), s["nb.pairs"].calls)),
        "forwarding.decisions": (["fwd.select"], lambda s: s["fwd.select"].calls),
        "forwarding.select_s": (["fwd.select"], lambda s: s["fwd.select"].total),
        "forwarding.select_self_s": (["fwd.select"], lambda s: s["fwd.select"].self_time),
        "forwarding.velocity_met_ratio": (
            ["fwd.select_next_hop"],
            lambda s: ratio(s["fwd.select_next_hop"].calls - s["fwd.select_next_hop"].errors,
                             s["fwd.select_next_hop"].calls)),
        "forwarding.void_ratio": (
            ["fwd.select"], lambda s: ratio(s["fwd.select"].errors, s["fwd.select"].calls)),
        "forwarding.detours": (["fwd.detour"], lambda s: s["fwd.detour"].calls),
        "queueing.enqueues": (["q.enqueue"], lambda s: s["q.enqueue"].calls),
        "queueing.tail_drops": (["q.enqueue"], lambda s: len(s["q.enqueue"].values)),
        "queueing.s": (["q.enqueue", "q.dequeue", "q.promo", "q.flush"],
                       lambda s: sum(x.self_time for x in _spans(s, "q."))),
        "queueing.promo_scans": (["q.promo"], lambda s: s["q.promo"].calls),
        "queueing.promo_hit_ratio": (
            ["q.promo"], lambda s: ratio(sum(s["q.promo"].values), s["q.promo"].calls)),
        "queueing.wait_p50_sim_s": (["q.dequeue"],
                                    lambda s: _percentile(s["q.dequeue"].values, 50)),
        "queueing.wait_p99_sim_s": (["q.dequeue"],
                                    lambda s: _percentile(s["q.dequeue"].values, 99)),
        "simkernel.mac.attempts": (["mac.attempt"], lambda s: s["mac.attempt"].calls),
        "simkernel.mac.attempts_per_hop": (
            ["mac.attempt", "fwd.select"],
            lambda s: ratio(s["mac.attempt"].calls,
                             s["fwd.select"].calls - s["fwd.select"].errors)),
        "simkernel.mac.timeout_noop_ratio": (
            ["mac.ack_timeout"],
            lambda s: ratio(sum(s["mac.ack_timeout"].values), s["mac.ack_timeout"].calls)),
        "simkernel.mac.self_s": (mac_spans,
                                 lambda s: sum(s[n].self_time for n in mac_spans)),
        "estimators.updates": (["est.prr_record", "est.dq_update", "est.dt_update"],
                               lambda s: sum(x.calls for x in _spans(s, "est."))),
        "estimators.s": (["est.prr_record", "est.dq_update", "est.dt_update"],
                         lambda s: sum(x.self_time for x in _spans(s, "est."))),
        "core.energy.charges": (["energy.deduct"], lambda s: s["energy.deduct"].calls),
        "core.energy.s": (["energy.deduct", "energy.can_afford"],
                          lambda s: sum(x.self_time for x in _spans(s, "energy."))),
        "metrics.calls": (["metrics.csv_row"],
                          lambda s: sum(x.calls for x in _spans(s, "metrics."))),
        "metrics.s": (["metrics.csv_row"],
                      lambda s: sum(x.self_time for x in _spans(s, "metrics."))),
    }
    for kind in EVENT_KINDS:
        span = _event_span(kind)
        table[f"simkernel.dispatch.events.{kind}"] = (
            [span], lambda s, span=span: s[span].calls)
    return table


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the aggregated spans; a metric whose spans were
    not all installed is left out."""
    out = {}
    for name, (needs, compute) in _metric_table().items():
        if any(span not in tracer.stats for span in needs):
            continue
        out[name] = compute(tracer.stats)
    return out
