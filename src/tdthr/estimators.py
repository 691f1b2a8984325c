"""Link-reliability and delay estimators.

Each node runs a windowed moving-average reliability estimator per incoming
link (the receiver side measures delivery over a fixed window of w attempts,
then blends the window mean with history using weight beta), and exponential
moving averages for per-class queuing delay and per-neighbor transmission
delay (weight gamma). All updates are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NodeId, PacketClass

_DQ_ZERO = dict.fromkeys(PacketClass, 0.0)  # copied, never shared


@dataclass(slots=True)
class PrrEstimator:
    """Window-mean moving-average link reliability estimator.

    `beta` weights history: new = beta * old + (1 - beta) * r / (r + m),
    applied once per full window of `window` observed attempts.
    """
    prr: float = 1.0
    window: int = 30
    beta: float = 0.6
    received: int = 0
    missed: int = 0
    last_seq: int = 0   # the highest link sequence number observed

    def observe(self, seq: int) -> None:
        """A frame numbered `seq` arrived; each number skipped was lost."""
        last = self.last_seq
        if seq == last + 1:   # in order, the common case
            self.last_seq = seq
        else:
            for _ in range(max(0, seq - last - 1)):
                self.record(False)
            self.last_seq = max(last, seq)   # a late frame moves no mark
        self.record(True)

    def record(self, delivered: bool) -> bool:
        """Record one attempt outcome; fires an update when the window
        fills. Returns True if an update fired."""
        if delivered:
            self.received += 1
        else:
            self.missed += 1
        if self.received + self.missed >= self.window:
            self.update()
            return True
        return False

    def update(self) -> float:
        total = self.received + self.missed
        if total == 0:
            raise ValueError("reliability update requires at least one observation")
        measured = self.received / total
        self.prr = self.beta * self.prr + (1.0 - self.beta) * measured
        self.received = 0
        self.missed = 0
        return self.prr


@dataclass(slots=True)
class DelayEstimator:
    """Per-class queuing-delay and per-neighbor transmission-delay EWMAs.

    Transmission delay is sampled from acknowledgment timing:
    sample = t_ack - ack airtime - t_s, which folds in contention,
    backoff and propagation, so nodal delay is simply dq + dt. HELLOs and
    ACKs carry `dq` itself, so `dq_update` replaces the dict, never mutates it.
    """
    gamma: float = 0.5
    dt_prior: float = 0.0
    dq: dict = field(default_factory=_DQ_ZERO.copy)  # PacketClass -> seconds
    dt: dict = field(default_factory=dict)   # NodeId -> seconds

    def dt_for(self, neighbor: NodeId) -> float:
        return self.dt.get(neighbor, self.dt_prior)

    def dq_update(self, cls: PacketClass, sample: float) -> float:
        if sample < 0:
            raise ValueError(f"queue-wait sample must be non-negative, got {sample}")
        new = self.gamma * self.dq[cls] + (1.0 - self.gamma) * sample
        self.dq = {**self.dq, cls: new}
        return new

    def dt_update(self, neighbor: NodeId, t_s: float, t_ack: float,
                  ack_airtime: float) -> float:
        if t_ack <= t_s:
            raise ValueError("acknowledgment cannot precede transmission start")
        sample = t_ack - ack_airtime - t_s
        if sample <= 0:
            raise ValueError(f"non-positive transmission-delay sample {sample}")
        new = self.gamma * self.dt_for(neighbor) + (1.0 - self.gamma) * sample
        self.dt[neighbor] = new
        return new
