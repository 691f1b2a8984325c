"""Run metrics: per-class delivery, delay, energy per packet, lifetime.

Delivery is counted per logical packet: a packet duplicated toward two sinks
is delivered if any copy reaches any sink, and only the first arrival's
delay is recorded.
"""

from __future__ import annotations

from collections import Counter
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
        self.promotions = 0
        self.missed_velocity = 0
        self.duplicates_generated = 0
        self.hello_sent = 0
        # logical_id -> (class, creation, outstanding copy ids, missed flag)
        # while the logical packet is open: until its first delivery, or
        # until its last copy is lost.
        self._open: dict[int, tuple] = {}

    # ---- event recording -------------------------------------------------

    def record_generated(self, logical_id: int, cls: PacketClass, creation: float,
                         copy_ids) -> None:
        self.per_class[cls].generated += 1
        self._open[logical_id] = (cls, creation, set(copy_ids), False)

    def record_delivery(self, logical_id: int, packet_id: int, arrival: float,
                        deadline: float) -> None:
        """The first copy to arrive closes the logical packet; later ones
        change nothing."""
        entry = self._open.pop(logical_id, None)
        if entry is None:
            return
        cls, creation, _, missed = entry
        c = self.per_class[cls]
        c.delivered += 1
        c.delays.append(arrival - creation)
        if arrival - creation > deadline and not missed:
            c.deadline_misses += 1

    def record_copy_lost(self, logical_id: int, packet_id: int, cause: str) -> None:
        """A copy died in the network. The logical drop is charged to the
        cause that killed the *last* copy, unless some copy was delivered."""
        entry = self._open.get(logical_id)
        if entry is None:
            return
        cls, creation, copies, missed = entry
        c = self.per_class[cls]
        copies.discard(packet_id)
        if cause == "deadline" and not missed:
            self._open[logical_id] = (cls, creation, copies, True)
            c.deadline_misses += 1
        if not copies:
            del self._open[logical_id]
            c.drops[cause] += 1

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
        # nearest rank ceil(0.95 n), in integers: exact where 0.95 n is whole
        ordered = sorted(c.delays)
        return ordered[(19 * len(ordered) + 19) // 20 - 1]

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
        """Network lifetime: the first node death, or `duration` if no node
        died."""
        death = self.first_death_time
        return death if death is not None else duration

    def deadline_miss_ratio(self):
        if self.generated_total == 0:
            return None
        total = sum(c.deadline_misses for c in self.per_class.values())
        return total / self.generated_total

    def accounting_closed(self) -> bool:
        """generated == delivered + dropped for every class (logical packets;
        packets still in flight at simulation end count as outstanding)."""
        in_flight = Counter(entry[0] for entry in self._open.values())
        return all(c.generated == c.delivered + sum(c.drops.values()) + in_flight[cls]
                   for cls, c in self.per_class.items())


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
