"""Per-node queuing controller: three strict-priority FIFO queues with
timer-based promotion of aged non-critical packets into the critical queue.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Packet, PacketClass

# A queue's index is its priority: 0 is served first.
CRITICAL_Q, DELAY_Q, RELIABILITY_Q = 0, 1, 2

# The queue each class lands in; reliability-responsive and regular traffic
# share the lowest-priority one.
_PRIORITY = {
    PacketClass.CRITICAL: CRITICAL_Q,
    PacketClass.DELAY_RESPONSIVE: DELAY_Q,
    PacketClass.RELIABILITY_RESPONSIVE: RELIABILITY_Q,
    PacketClass.REGULAR: RELIABILITY_Q,
}


@dataclass(slots=True)
class QueueEntry:
    """One visit of a packet to a bank; a packet that comes back gets a new
    one. `timer_deadline` is None once the entry's timer cannot promote it:
    never armed, or the entry was dequeued, promoted or flushed."""
    packet: Packet
    enqueue_time: float
    timer_deadline: float | None


class QueueBank:
    """Strict-priority scheduler. `single_queue=True` collapses everything
    into one FIFO with no promotion (used by the baseline protocols).

    Each FIFO is a plain list: an empty list holds no storage, where an
    empty deque keeps a 64-slot block, and most of a run's queues never
    hold a packet. A queue holds at most `capacity` entries (64 in the
    shipped configs), so taking its head with `pop(0)` moves a short
    array."""

    __slots__ = ("capacity", "single_queue", "queues")

    def __init__(self, capacity: int = 64, single_queue: bool = False):
        self.capacity = capacity
        self.single_queue = single_queue
        # the three FIFOs, indexed by priority: served in that order
        self.queues = ([], [], [])

    def _target_queue(self, cls: PacketClass) -> int:
        return RELIABILITY_Q if self.single_queue else _PRIORITY[cls]

    def enqueue(self, packet: Packet, now: float,
                timer_deadline: float) -> QueueEntry | None:
        """Returns the packet's new entry, or None on a tail drop (queue
        full). The bank alone decides which entries are armed: one in the
        critical queue or a single-queue bank holds None, not the deadline."""
        index = self._target_queue(packet.cls)
        q = self.queues[index]
        if len(q) >= self.capacity:
            return None
        if index == CRITICAL_Q or self.single_queue:
            timer_deadline = None
        entry = QueueEntry(packet, now, timer_deadline)
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
        """Move an aged entry to the tail of the critical queue. The timer of
        an entry that has left the bank, or was never armed, is a no-op."""
        if entry.timer_deadline is None:
            return False
        q = self.queues[self._target_queue(entry.packet.cls)]
        for i, queued in enumerate(q):
            if queued is entry:
                del q[i]
                break
        entry.timer_deadline = None
        self.queues[CRITICAL_Q].append(entry)
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

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues)
