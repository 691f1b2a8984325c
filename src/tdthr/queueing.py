"""Per-node queuing controller: three strict-priority FIFO queues with
timer-based promotion of aged non-critical packets into the critical queue.
"""

from __future__ import annotations

from collections import deque
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
    packet: Packet
    enqueue_time: float
    timer_deadline: float | None   # None for critical-queue packets


class QueueBank:
    """Strict-priority scheduler. `single_queue=True` collapses everything
    into one FIFO with no promotion (used by the baseline protocols)."""

    def __init__(self, capacity: int = 64, single_queue: bool = False):
        self.capacity = capacity
        self.single_queue = single_queue
        # the three FIFOs, indexed by priority: served in that order
        self.queues = (deque(), deque(), deque())
        # packet_id -> entry, for every entry whose promotion timer is armed,
        # so that a timer that lost the race to a dequeue costs one lookup.
        # A packet sits in a bank at most once at a time.
        self._armed = {}

    def _target_queue(self, cls: PacketClass) -> int:
        return RELIABILITY_Q if self.single_queue else _PRIORITY[cls]

    def enqueue(self, packet: Packet, now: float, timer_deadline: float | None) -> bool:
        """Returns False on tail drop (queue full). Non-critical packets get
        a promotion timer; the caller is responsible for scheduling its
        expiry event."""
        index = self._target_queue(packet.cls)
        q = self.queues[index]
        if len(q) >= self.capacity:
            return False
        if index == CRITICAL_Q or self.single_queue:
            timer_deadline = None
        entry = QueueEntry(packet, now, timer_deadline)
        q.append(entry)
        if timer_deadline is not None:
            self._armed[packet.packet_id] = entry
        return True

    def dequeue_next(self, now: float):
        """Head of the first non-empty queue in priority order, with the
        realized queue wait (the packet's queuing-delay sample). The
        promotion timer, if still armed, is implicitly cancelled because the
        packet leaves the bank."""
        for q in self.queues:
            if q:
                entry = q.popleft()
                if entry.timer_deadline is not None:
                    del self._armed[entry.packet.packet_id]
                return entry.packet, now - entry.enqueue_time
        return None

    def on_timer_expire(self, packet_id: int, now: float) -> bool:
        """Move an aged packet to the tail of the critical queue. A timer
        that raced with (and lost to) a dequeue is a no-op."""
        entry = self._armed.pop(packet_id, None)
        if entry is None:
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
        """Empties every queue and returns the stranded packets (a node
        going down takes its backlog with it)."""
        stranded = []
        for q in self.queues:
            stranded.extend(entry.packet for entry in q)
            q.clear()
        self._armed.clear()
        return stranded

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues)
