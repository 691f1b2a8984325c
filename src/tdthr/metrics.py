"""Run metrics: per-class delivery, delay, energy per packet, lifetime.

Delivery is counted per logical packet: a packet duplicated toward two sinks
is delivered if any copy reaches any sink, and only the first arrival's
delay is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import PacketClass

DROP_CAUSES = ("void", "queue_full", "retries_exhausted", "deadline", "dead_node")


@dataclass
class ClassCounters:
    generated: int = 0                     # logical packets
    delivered: int = 0                     # logical packets, any copy any sink
    deadline_misses: int = 0
    drops: dict = field(default_factory=lambda: {c: 0 for c in DROP_CAUSES})
    delays: list = field(default_factory=list)


class MetricsLedger:
    def __init__(self):
        self.per_class = {cls: ClassCounters() for cls in PacketClass}
        self.total_energy_nj = 0
        self.first_death_time: float | None = None
        self.partition_time: float | None = None
        self.lifetime_metric = "first_death"
        self.promotions = 0
        self.missed_velocity = 0
        self.duplicates_generated = 0
        self.hello_sent = 0
        # logical_id -> set of outstanding copy packet_ids
        self._outstanding: dict[int, set] = {}
        self._meta: dict[int, tuple] = {}      # logical_id -> (class, creation)
        self._delivered: set = set()
        self._missed: set = set()

    # ---- event recording -------------------------------------------------

    def record_generated(self, logical_id: int, cls: PacketClass, creation: float,
                         copy_ids) -> None:
        self.per_class[cls].generated += 1
        self._outstanding[logical_id] = set(copy_ids)
        self._meta[logical_id] = (cls, creation)

    def record_delivery(self, logical_id: int, packet_id: int, arrival: float,
                        deadline: float) -> None:
        cls, creation = self._meta[logical_id]
        if logical_id not in self._delivered:
            self._delivered.add(logical_id)
            self.per_class[cls].delivered += 1
            self.per_class[cls].delays.append(arrival - creation)
            if arrival - creation > deadline and logical_id not in self._missed:
                self._missed.add(logical_id)
                self.per_class[cls].deadline_misses += 1
        self._outstanding[logical_id].discard(packet_id)

    def record_copy_lost(self, logical_id: int, packet_id: int, cls: PacketClass,
                         cause: str) -> None:
        """A copy died in the network. The logical drop is charged to the
        cause that killed the *last* copy, unless some copy was delivered."""
        copies = self._outstanding.get(logical_id)
        if copies is None:
            return
        copies.discard(packet_id)
        if cause == "deadline" and logical_id not in self._missed \
                and logical_id not in self._delivered:
            self._missed.add(logical_id)
            self.per_class[cls].deadline_misses += 1
        if not copies and logical_id not in self._delivered:
            self.per_class[cls].drops[cause] += 1

    def record_energy(self, deducted_nj: int) -> None:
        self.total_energy_nj += deducted_nj

    def record_death(self, now: float) -> None:
        if self.first_death_time is None:
            self.first_death_time = now

    def record_partition(self, now: float) -> None:
        if self.partition_time is None:
            self.partition_time = now

    # ---- derived metrics -------------------------------------------------

    def prr(self, cls: PacketClass):
        c = self.per_class[cls]
        if c.generated == 0:
            return None
        return c.delivered / c.generated

    def mean_delay(self, cls: PacketClass):
        c = self.per_class[cls]
        if not c.delays:
            return None
        return sum(c.delays) / len(c.delays)

    def delay_p95(self, cls: PacketClass):
        c = self.per_class[cls]
        if not c.delays:
            return None
        ordered = sorted(c.delays)
        idx = min(len(ordered) - 1, int(0.95 * len(ordered)))
        return ordered[idx]

    @property
    def total_energy_j(self) -> float:
        return self.total_energy_nj / 1e9

    @property
    def delivered_total(self) -> int:
        return sum(c.delivered for c in self.per_class.values())

    @property
    def generated_total(self) -> int:
        return sum(c.generated for c in self.per_class.values())

    def ecpp(self):
        """Energy consumed per effectively delivered packet, all classes."""
        if self.delivered_total == 0:
            return None
        return self.total_energy_j / self.delivered_total

    def lifetime(self, duration: float) -> float:
        """Network lifetime: first node death by default, or the moment the
        source loses all paths to a sink when `lifetime_metric` is
        "partition"."""
        if self.lifetime_metric == "partition":
            mark = self.partition_time
        else:
            mark = self.first_death_time
        return mark if mark is not None else duration

    def deadline_miss_ratio(self):
        if self.generated_total == 0:
            return None
        total = sum(c.deadline_misses for c in self.per_class.values())
        return total / self.generated_total

    def accounting_closed(self) -> bool:
        """generated == delivered + dropped for every class (logical packets;
        packets still in flight at simulation end count as outstanding)."""
        for cls, c in self.per_class.items():
            in_flight = sum(
                1 for lid, copies in self._outstanding.items()
                if copies and self._meta[lid][0] is cls and lid not in self._delivered)
            if c.generated != c.delivered + sum(c.drops.values()) + in_flight:
                return False
        return True


# ---- CSV schema ---------------------------------------------------------

_CLASS_COLS = {
    PacketClass.REGULAR: "regular",
    PacketClass.RELIABILITY_RESPONSIVE: "reliability",
    PacketClass.DELAY_RESPONSIVE: "delay_responsive",
    PacketClass.CRITICAL: "critical",
}

CSV_COLUMNS = (
    ["config_hash", "seed", "protocol", "critical_rate"]
    + [f"prr_{n}" for n in _CLASS_COLS.values()]
    + [f"mean_delay_{n}" for n in _CLASS_COLS.values()]
    + [f"p95_delay_{n}" for n in _CLASS_COLS.values()]
    + ["deadline_miss_ratio", "ecpp", "lifetime", "total_energy_j"]
    + [f"drops_{c}" for c in DROP_CAUSES]
    + ["generated", "delivered", "promotions", "missed_velocity"]
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def csv_row(ledger: MetricsLedger, config_hash: str, seed: int, protocol: str,
            critical_rate: float, duration: float) -> str:
    values = [config_hash, seed, protocol, critical_rate]
    values += [ledger.prr(cls) for cls in _CLASS_COLS]
    values += [ledger.mean_delay(cls) for cls in _CLASS_COLS]
    values += [ledger.delay_p95(cls) for cls in _CLASS_COLS]
    values += [ledger.deadline_miss_ratio(), ledger.ecpp(),
               ledger.lifetime(duration), ledger.total_energy_j]
    values += [sum(c.drops[cause] for c in ledger.per_class.values())
               for cause in DROP_CAUSES]
    values += [ledger.generated_total, ledger.delivered_total,
               ledger.promotions, ledger.missed_velocity]
    return ",".join(_fmt(v) for v in values)
