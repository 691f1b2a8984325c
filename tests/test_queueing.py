"""Queue-controller tests: strict priority, promotion timers, tail drops,
and accounting closure under randomized event sequences."""

import random

from tdthr.core import Packet, PacketClass
from tdthr.queueing import (CRITICAL_Q, DELAY_Q, RELIABILITY_Q, QueueBank)

CLASSES = (PacketClass.CRITICAL, PacketClass.DELAY_RESPONSIVE,
           PacketClass.RELIABILITY_RESPONSIVE, PacketClass.REGULAR)


def _packet(pid, cls):
    return Packet(packet_id=pid, cls=cls, destination_sink=0,
                  lag_time=0.3, deadline=0.3)


# ---- directed cases ------------------------------------------------------

def test_queue_priority_order():
    # each class lands in the queue of its priority, 0 served first:
    # reliability-responsive and regular share the last
    bank = QueueBank()
    for pid, cls in enumerate(CLASSES):
        bank.enqueue(_packet(pid, cls), 0.0, 1.0)
    assert [[e.packet.cls for e in q] for q in bank.queues] == [
        [PacketClass.CRITICAL], [PacketClass.DELAY_RESPONSIVE],
        [PacketClass.RELIABILITY_RESPONSIVE, PacketClass.REGULAR]]


def test_critical_packets_skip_the_timer():
    # the bank alone decides which entries are armed: the kernel passes every
    # packet a deadline
    bank = QueueBank()
    entry = bank.enqueue(_packet(1, PacketClass.CRITICAL), 0.0, 5.0)
    assert entry is bank.queues[CRITICAL_Q][0]
    assert entry.timer_deadline is None
    assert not bank.on_timer_expire(entry, 5.0)
    regular = bank.enqueue(_packet(2, PacketClass.REGULAR), 0.0, 5.0)
    assert regular.timer_deadline == 5.0


def test_regular_and_reliability_share_the_low_queue():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 1.0)
    bank.enqueue(_packet(2, PacketClass.RELIABILITY_RESPONSIVE), 0.0, 1.0)
    bank.enqueue(_packet(3, PacketClass.DELAY_RESPONSIVE), 0.0, 1.0)
    assert [e.packet.packet_id for e in bank.queues[RELIABILITY_Q]] == [1, 2]
    assert [e.packet.packet_id for e in bank.queues[DELAY_Q]] == [3]


def test_strict_priority_dequeue_order():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 9.0)
    bank.enqueue(_packet(2, PacketClass.CRITICAL), 0.0, 9.0)
    bank.enqueue(_packet(3, PacketClass.DELAY_RESPONSIVE), 0.0, 9.0)
    order = [bank.dequeue_next(1.0)[0].packet_id for _ in range(3)]
    assert order == [2, 3, 1]
    assert bank.dequeue_next(1.0) is None


def test_dequeue_reports_realized_wait():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR), 2.0, 9.0)
    packet, wait = bank.dequeue_next(2.75)
    assert packet.packet_id == 1
    assert wait == 0.75


def test_full_queue_tail_drops_by_class():
    bank = QueueBank(capacity=2)
    assert bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 9.0)
    assert bank.enqueue(_packet(2, PacketClass.REGULAR), 0.0, 9.0)
    assert bank.enqueue(_packet(3, PacketClass.REGULAR), 0.0, 9.0) is None
    # the delay queue still has room — capacities are per queue
    assert bank.enqueue(_packet(4, PacketClass.DELAY_RESPONSIVE), 0.0, 9.0)
    assert [e.packet.packet_id for e in bank.queues[RELIABILITY_Q]] == [1, 2]
    assert len(bank) == 3


def test_promotion_moves_packet_to_critical_tail():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.CRITICAL), 0.0, 0.1)
    entry = bank.enqueue(_packet(2, PacketClass.REGULAR), 0.0, 0.1)
    assert bank.on_timer_expire(entry, 0.1)
    assert [e.packet.packet_id for e in bank.queues[CRITICAL_Q]] == [1, 2]
    assert entry.timer_deadline is None
    assert not bank.on_timer_expire(entry, 0.1)   # a promotion happens once
    # promoted packet sits behind existing critical traffic but ahead of
    # anything arriving in the low queues later
    bank.enqueue(_packet(3, PacketClass.DELAY_RESPONSIVE), 0.2, 9.0)
    order = [bank.dequeue_next(0.3)[0].packet_id for _ in range(3)]
    assert order == [1, 2, 3]


def test_promotion_preserves_wait_and_class():
    bank = QueueBank()
    entry = bank.enqueue(_packet(1, PacketClass.REGULAR), 1.0, 1.5)
    bank.on_timer_expire(entry, 1.5)
    packet, wait = bank.dequeue_next(2.0)
    assert packet.cls is PacketClass.REGULAR  # service priority changed only
    assert wait == 1.0                        # measured from original enqueue


def test_timer_after_dequeue_is_a_noop():
    bank = QueueBank()
    entry = bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 0.5)
    bank.dequeue_next(0.4)
    assert entry.timer_deadline is None
    assert not bank.on_timer_expire(entry, 0.5)
    assert len(bank) == 0


def test_only_the_current_visits_timer_promotes_a_packet_that_came_back():
    # a packet can leave a node and come back to it (the source accepts its
    # own packet once more). Each visit is an entry of its own: the first
    # visit's timer finds its entry gone and does nothing, and the second
    # visit's timer promotes the packet
    bank = QueueBank()
    packet = _packet(1, PacketClass.REGULAR)
    first = bank.enqueue(packet, 0.0, 0.5)
    bank.dequeue_next(0.1)
    second = bank.enqueue(packet, 0.3, 0.8)
    assert second is not first
    assert not bank.on_timer_expire(first, 0.5)
    assert [e.packet.packet_id for e in bank.queues[RELIABILITY_Q]] == [1]
    assert bank.queues[CRITICAL_Q] == []
    assert bank.on_timer_expire(second, 0.8)
    assert bank.queues[CRITICAL_Q] == [second]
    assert bank.dequeue_next(0.9) == (packet, 0.9 - 0.3)
    assert len(bank) == 0


def test_two_promotions_keep_their_order():
    bank = QueueBank()
    first = bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 0.1)
    second = bank.enqueue(_packet(2, PacketClass.DELAY_RESPONSIVE), 0.0, 0.2)
    bank.on_timer_expire(first, 0.1)
    bank.on_timer_expire(second, 0.2)
    order = [bank.dequeue_next(0.3)[0].packet_id for _ in range(2)]
    assert order == [1, 2]


def test_single_queue_mode_is_plain_fifo():
    bank = QueueBank(single_queue=True)
    entries = [bank.enqueue(_packet(pid, cls), 0.0, 9.0)
               for pid, cls in enumerate(CLASSES, start=1)]
    assert bank.queues[RELIABILITY_Q] == entries
    assert all(e.timer_deadline is None for e in entries)
    assert not any(bank.on_timer_expire(e, 9.0) for e in entries)
    order = [bank.dequeue_next(1.0)[0].packet_id for _ in range(4)]
    assert order == [1, 2, 3, 4]


def test_flush_returns_backlog_and_empties():
    bank = QueueBank()
    entries = [bank.enqueue(_packet(pid, cls), 0.0, 9.0)
               for pid, cls in enumerate(CLASSES, start=1)]
    stranded = bank.flush()
    assert sorted(p.packet_id for p in stranded) == [1, 2, 3, 4]
    assert len(bank) == 0 and bank.dequeue_next(1.0) is None
    # the flushed entries' timers do nothing
    assert not any(bank.on_timer_expire(e, 9.0) for e in entries)
    assert len(bank) == 0


# ---- randomized model check ----------------------------------------------

def exercise_randomized_sequences(n_sequences: int, seed_base: int = 0) -> int:
    """Drive a bank and an independent shadow model through random
    enqueue/dequeue/timer sequences; every divergence is an assertion
    failure. A packet that has left the bank may come back as a new entry,
    and the timer of its earlier entry then fires. Returns the total number
    of operations exercised."""
    ops = 0
    for trial in range(n_sequences):
        rng = random.Random(seed_base + trial)
        capacity = rng.choice((1, 2, 4, 64))
        bank = QueueBank(capacity=capacity)
        # queue -> [(entry, packet id, enqueue time)] in service order
        shadow = {CRITICAL_Q: [], DELAY_Q: [], RELIABILITY_Q: []}
        target = {PacketClass.CRITICAL: CRITICAL_Q,
                  PacketClass.DELAY_RESPONSIVE: DELAY_Q,
                  PacketClass.RELIABILITY_RESPONSIVE: RELIABILITY_Q,
                  PacketClass.REGULAR: RELIABILITY_Q}
        away = []      # dequeued entries whose packet is out of the bank
        returned = []  # earlier entries of packets that came back
        now, pid = 0.0, 0
        for _ in range(rng.randint(5, 20)):
            ops += 1
            now += rng.random()
            action = rng.random()
            if action < 0.55:
                if away and rng.random() < 0.3:
                    earlier = away.pop(rng.randrange(len(away)))
                    returned.append(earlier)
                    packet = earlier.packet
                else:
                    pid += 1
                    packet = _packet(pid, rng.choice(CLASSES))
                queue = target[packet.cls]
                entry = bank.enqueue(packet, now, now + 1.0)
                if len(shadow[queue]) < capacity:
                    assert entry is not None and entry.packet is packet
                    assert entry.timer_deadline == (
                        None if queue == CRITICAL_Q else now + 1.0)
                    shadow[queue].append((entry, packet.packet_id, now))
                else:
                    assert entry is None
            elif action < 0.85:
                result = bank.dequeue_next(now)
                head = next((q for q in (CRITICAL_Q, DELAY_Q, RELIABILITY_Q)
                             if shadow[q]), None)
                if head is None:
                    assert result is None
                else:
                    entry, want_pid, enq_time = shadow[head].pop(0)
                    away.append(entry)
                    assert result is not None
                    assert result[0].packet_id == want_pid
                    assert result[1] == now - enq_time
            else:
                armed = [e for q in (DELAY_Q, RELIABILITY_Q)
                         for e, _, _ in shadow[q]]
                if armed and rng.random() < 0.8:
                    chosen = rng.choice(armed)
                    assert bank.on_timer_expire(chosen, now)
                    for q in (DELAY_Q, RELIABILITY_Q):
                        for i, (e, _, _) in enumerate(shadow[q]):
                            if e is chosen:
                                shadow[CRITICAL_Q].append(shadow[q].pop(i))
                                break
                else:
                    # the timer of an entry in the critical queue or of one
                    # that has left the bank must be a no-op, also when the
                    # packet is back in a later entry
                    pool = returned if returned and rng.random() < 0.5 else (
                        [e for e, _, _ in shadow[CRITICAL_Q]] + away + returned)
                    if pool:
                        assert not bank.on_timer_expire(rng.choice(pool), now)
            assert [[(e.packet.packet_id, e.enqueue_time) for e in q]
                    for q in bank.queues] == [
                [(p, t) for _, p, t in shadow[q]]
                for q in (CRITICAL_Q, DELAY_Q, RELIABILITY_Q)]
    return ops


def test_randomized_sequences_small():
    """A quick slice; the full 10,000-sequence sweep runs in the acceptance
    suite with disjoint seeds."""
    assert exercise_randomized_sequences(500, seed_base=90_000) > 2000
