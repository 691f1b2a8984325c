"""Shared domain types: node ids, positions, packet classes, packets, energy."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

NodeId = int

# Speed of light, used for propagation delay (negligible at sensor ranges
# but kept so hop timestamps are strictly increasing).
LIGHT_SPEED = 299_792_458.0


class PacketClass(Enum):
    REGULAR = "regular"
    RELIABILITY_RESPONSIVE = "reliability_responsive"
    DELAY_RESPONSIVE = "delay_responsive"
    CRITICAL = "critical"

    __hash__ = object.__hash__  # members are singletons; Enum's is Python code


@dataclass(frozen=True, slots=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")


@dataclass(slots=True)
class Packet:
    packet_id: int
    cls: PacketClass
    destination_sink: NodeId
    lag_time: float            # remaining deadline budget, seconds
    deadline: float            # original end-to-end budget, seconds
    logical_id: int = -1       # shared across duplicates of one logical packet
    received_time: float = 0.0  # when the current holder received it
    hop_trace: list = field(default_factory=list)  # relay ids, in order
    recovery_anchor: float | None = None  # distance-to-sink where a detour began

    def __post_init__(self):
        if self.logical_id < 0:
            self.logical_id = self.packet_id
        if self.lag_time > self.deadline + 1e-12:
            raise ValueError("lag time cannot exceed the deadline budget")


@dataclass(slots=True)
class EnergyBudget:
    """Per-node energy accounting in integer nanojoules.

    Integer arithmetic keeps the conservation check exact: initial minus
    residual always equals the sum of logged deductions. What each action
    costs is run-wide and fixed at set-up (`Simulation.__init__`).
    `Simulation._spend` adds a charge that cannot clamp to `spent_nj`
    directly and logs it with the ledger's total; every other charge
    comes through `deduct`.
    """
    initial_nj: int
    spent_nj: int = 0

    @property
    def residual_nj(self) -> int:
        return self.initial_nj - self.spent_nj

    def can_afford(self, cost_nj: int) -> bool:
        return self.residual_nj >= cost_nj

    def deduct(self, cost_nj: int) -> int:
        """Deduct cost, clamped at zero residual. Returns the amount
        actually deducted (for the conservation ledger)."""
        residual = self.initial_nj - self.spent_nj
        actual = cost_nj if cost_nj <= residual else residual
        self.spent_nj += actual
        return actual


def joules_to_nj(j: float) -> int:
    return round(j * 1e9)
