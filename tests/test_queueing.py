"""Queue-controller tests: strict priority, promotion timers, tail drops,
and accounting closure under randomized event sequences."""

import random

from tdthr.core import Packet, PacketClass
from tdthr.queueing import (CRITICAL_Q, DELAY_Q, RELIABILITY_Q, QueueBank)

CLASSES = (PacketClass.CRITICAL, PacketClass.DELAY_RESPONSIVE,
           PacketClass.RELIABILITY_RESPONSIVE, PacketClass.REGULAR)


def _packet(pid, cls, now=0.0):
    return Packet(packet_id=pid, cls=cls, destination_sink=0,
                  lag_time=0.3, deadline=0.3, payload_size=150,
                  creation_time=now)


# ---- directed cases ------------------------------------------------------

def test_critical_packets_skip_the_timer():
    bank = QueueBank()
    assert bank.enqueue(_packet(1, PacketClass.CRITICAL), 0.0, 5.0)
    entry = bank.queues[CRITICAL_Q][0]
    assert entry.timer_deadline is None


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
    bank.enqueue(_packet(2, PacketClass.CRITICAL), 0.0, None)
    bank.enqueue(_packet(3, PacketClass.DELAY_RESPONSIVE), 0.0, 9.0)
    order = [bank.dequeue_next(1.0)[0].packet_id for _ in range(3)]
    assert order == [2, 3, 1]
    assert bank.dequeue_next(1.0) is None


def test_dequeue_reports_realized_wait():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR, now=2.0), 2.0, 9.0)
    packet, wait = bank.dequeue_next(2.75)
    assert packet.packet_id == 1
    assert wait == 0.75


def test_full_queue_tail_drops_by_class():
    bank = QueueBank(capacity=2)
    assert bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 9.0)
    assert bank.enqueue(_packet(2, PacketClass.REGULAR), 0.0, 9.0)
    assert not bank.enqueue(_packet(3, PacketClass.REGULAR), 0.0, 9.0)
    # the delay queue still has room — capacities are per queue
    assert bank.enqueue(_packet(4, PacketClass.DELAY_RESPONSIVE), 0.0, 9.0)
    assert [e.packet.packet_id for e in bank.queues[RELIABILITY_Q]] == [1, 2]
    assert len(bank) == 3


def test_promotion_moves_packet_to_critical_tail():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.CRITICAL), 0.0, None)
    bank.enqueue(_packet(2, PacketClass.REGULAR), 0.0, 0.1)
    assert bank.on_timer_expire(2, 0.1)
    assert [e.packet.packet_id for e in bank.queues[CRITICAL_Q]] == [1, 2]
    # promoted packet sits behind existing critical traffic but ahead of
    # anything arriving in the low queues later
    bank.enqueue(_packet(3, PacketClass.DELAY_RESPONSIVE), 0.2, 9.0)
    order = [bank.dequeue_next(0.3)[0].packet_id for _ in range(3)]
    assert order == [1, 2, 3]


def test_promotion_preserves_wait_and_class():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR, now=1.0), 1.0, 1.5)
    bank.on_timer_expire(1, 1.5)
    packet, wait = bank.dequeue_next(2.0)
    assert packet.cls is PacketClass.REGULAR  # service priority changed only
    assert wait == 1.0                        # measured from original enqueue


def test_timer_after_dequeue_is_a_noop():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 0.5)
    bank.dequeue_next(0.4)
    assert not bank.on_timer_expire(1, 0.5)
    assert len(bank) == 0


def test_stale_timer_promotes_a_packet_back_for_another_visit():
    # a packet can leave a node and come back to it (the source accepts its
    # own packet once more); the first visit's timer then finds it queued
    # and promotes it, and the second visit's timer finds nothing
    bank = QueueBank()
    packet = _packet(1, PacketClass.REGULAR)
    bank.enqueue(packet, 0.0, 0.5)
    bank.dequeue_next(0.1)
    bank.enqueue(packet, 0.3, 0.8)
    assert bank.on_timer_expire(1, 0.5)
    assert [e.packet.packet_id for e in bank.queues[CRITICAL_Q]] == [1]
    assert not bank.on_timer_expire(1, 0.8)
    assert bank.dequeue_next(0.9) == (packet, 0.9 - 0.3)
    assert len(bank) == 0


def test_two_promotions_keep_their_order():
    bank = QueueBank()
    bank.enqueue(_packet(1, PacketClass.REGULAR), 0.0, 0.1)
    bank.enqueue(_packet(2, PacketClass.DELAY_RESPONSIVE), 0.0, 0.2)
    bank.on_timer_expire(1, 0.1)
    bank.on_timer_expire(2, 0.2)
    order = [bank.dequeue_next(0.3)[0].packet_id for _ in range(2)]
    assert order == [1, 2]


def test_single_queue_mode_is_plain_fifo():
    bank = QueueBank(single_queue=True)
    for pid, cls in enumerate(CLASSES, start=1):
        bank.enqueue(_packet(pid, cls), 0.0, 9.0)
    assert all(e.timer_deadline is None for e in bank.queues[RELIABILITY_Q])
    order = [bank.dequeue_next(1.0)[0].packet_id for _ in range(4)]
    assert order == [1, 2, 3, 4]


def test_flush_returns_backlog_and_empties():
    bank = QueueBank()
    for pid, cls in enumerate(CLASSES, start=1):
        bank.enqueue(_packet(pid, cls), 0.0, 9.0)
    stranded = bank.flush()
    assert sorted(p.packet_id for p in stranded) == [1, 2, 3, 4]
    assert len(bank) == 0 and bank.dequeue_next(1.0) is None


# ---- randomized model check ----------------------------------------------

def exercise_randomized_sequences(n_sequences: int, seed_base: int = 0) -> int:
    """Drive a bank and an independent shadow model through random
    enqueue/dequeue/timer sequences; every divergence is an assertion
    failure. Returns the total number of operations exercised."""
    ops = 0
    for trial in range(n_sequences):
        rng = random.Random(seed_base + trial)
        capacity = rng.choice((1, 2, 4, 64))
        bank = QueueBank(capacity=capacity)
        shadow = {CRITICAL_Q: [], DELAY_Q: [], RELIABILITY_Q: []}
        target = {PacketClass.CRITICAL: CRITICAL_Q,
                  PacketClass.DELAY_RESPONSIVE: DELAY_Q,
                  PacketClass.RELIABILITY_RESPONSIVE: RELIABILITY_Q,
                  PacketClass.REGULAR: RELIABILITY_Q}
        now, pid = 0.0, 0
        for _ in range(rng.randint(5, 20)):
            ops += 1
            now += rng.random()
            action = rng.random()
            if action < 0.55:
                pid += 1
                cls = rng.choice(CLASSES)
                queue = target[cls]
                accepted = bank.enqueue(_packet(pid, cls, now), now, now + 1.0)
                if len(shadow[queue]) < capacity:
                    assert accepted
                    shadow[queue].append((pid, now))
                else:
                    assert not accepted
            elif action < 0.85:
                result = bank.dequeue_next(now)
                head = next((q for q in (CRITICAL_Q, DELAY_Q, RELIABILITY_Q)
                             if shadow[q]), None)
                if head is None:
                    assert result is None
                else:
                    want_pid, enq_time = shadow[head].pop(0)
                    assert result is not None
                    assert result[0].packet_id == want_pid
                    assert result[1] == now - enq_time
            else:
                resident = [p for q in (DELAY_Q, RELIABILITY_Q)
                            for p, _ in shadow[q]]
                if resident and rng.random() < 0.8:
                    chosen = rng.choice(resident)
                    assert bank.on_timer_expire(chosen, now)
                    for q in (DELAY_Q, RELIABILITY_Q):
                        for i, (p, t) in enumerate(shadow[q]):
                            if p == chosen:
                                shadow[CRITICAL_Q].append(shadow[q].pop(i))
                                break
                else:
                    # a stale or critical-resident id must be a no-op
                    critical_ids = [p for p, _ in shadow[CRITICAL_Q]]
                    stale = rng.choice(critical_ids + [pid + 1000])
                    assert not bank.on_timer_expire(stale, now)
        assert len(bank) == sum(len(q) for q in shadow.values())
    return ops


def test_randomized_sequences_small():
    """A quick slice; the full 10,000-sequence sweep runs in the acceptance
    suite with disjoint seeds."""
    assert exercise_randomized_sequences(500, seed_base=90_000) > 2000
