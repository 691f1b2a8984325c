"""Per-node queuing controller: three strict-priority FIFO queues with
timer-based promotion of aged entries into queue 0.

Which lane a traffic class waits in is the protocol's policy
(`forwarding.RoutingProtocol.lanes`); the bank sees only lane numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Packet

# `QueueBank.enqueue`: an armed promotion timer fires after the larger of
# the floor and this fraction of the packet's lag time.
PROMOTION_FLOOR_S = 0.010
PROMOTION_FRACTION = 0.5


@dataclass(slots=True)
class QueueEntry:
    """One visit of a packet to a bank; a packet that comes back gets a new
    one. `timer_deadline` is None once the entry's timer cannot promote it:
    never armed, or the entry was dequeued, promoted or flushed."""
    packet: Packet
    enqueue_time: float
    timer_deadline: float | None


class QueueBank:
    """Strict-priority scheduler over three queues; `lanes` maps each
    traffic class to the index of the queue it waits in. Queue 0 is served
    first and its entries are never armed; an entry in queue 1 or 2 is
    armed, and its timer moves it to the tail of queue 0. With every class
    in lane 0 the bank is one FIFO with no promotion.

    Each FIFO is a plain list: an empty list holds no storage, where an
    empty deque keeps a 64-slot block, and most of a run's queues never
    hold a packet. A queue holds at most `capacity` entries (64 in the
    shipped configs), so taking its head with `pop(0)` moves a short
    array."""

    __slots__ = ("capacity", "lanes", "queues")

    def __init__(self, capacity: int, lanes: dict):
        self.capacity = capacity
        self.lanes = lanes
        # the three FIFOs, indexed by priority: served in that order
        self.queues = ([], [], [])

    def enqueue(self, packet: Packet, now: float) -> QueueEntry | None:
        """Returns the packet's new entry, or None on a tail drop (queue
        full). An entry outside queue 0 is armed to fire after the larger
        of `PROMOTION_FLOOR_S` and `PROMOTION_FRACTION` of the lag time."""
        lane = self.lanes[packet.cls]
        q = self.queues[lane]
        if len(q) >= self.capacity:
            return None
        deadline = None
        if lane:
            deadline = now + max(PROMOTION_FLOOR_S,
                                 PROMOTION_FRACTION * packet.lag_time)
        entry = QueueEntry(packet, now, deadline)
        q.append(entry)
        return entry

    def dequeue_next(self, now: float):
        """Head of the first non-empty queue in priority order, with the
        realized queue wait (the packet's queuing-delay sample). The entry's
        promotion timer, if still armed, is disarmed as it leaves the bank."""
        for q in self.queues:
            if q:
                entry = q.pop(0)
                entry.timer_deadline = None
                return entry.packet, now - entry.enqueue_time
        return None

    def on_timer_expire(self, entry: QueueEntry, now: float) -> bool:
        """Move an aged entry to the tail of queue 0. The timer of an entry
        that has left the bank, or was never armed, is a no-op."""
        if entry.timer_deadline is None:
            return False
        q = self.queues[self.lanes[entry.packet.cls]]
        for i, queued in enumerate(q):
            if queued is entry:
                del q[i]
                break
        entry.timer_deadline = None
        self.queues[0].append(entry)
        return True

    def flush(self):
        """Empties every queue, disarming its entries, and returns the
        stranded packets (a node going down takes its backlog with it)."""
        stranded = []
        for q in self.queues:
            for entry in q:
                entry.timer_deadline = None
                stranded.append(entry.packet)
            q.clear()
        return stranded
