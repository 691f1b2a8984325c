"""Domain-type unit tests: geometry, packets, energy."""

import math
import random

import pytest

from tdthr.core import (EnergyBudget, Packet, PacketClass, Position, dist,
                        joules_to_nj)
from tdthr.estimators import DelayEstimator, PrrEstimator
from tdthr.neighborhood import (ForwarderPair, HelloMessage, NeighborRecord,
                                NeighborTable)
from tdthr.queueing import QueueBank, QueueEntry

EPS = 1e-12


# ---- distance ------------------------------------------------------------

def test_dist_three_four_five():
    assert abs(dist(Position(0, 0), Position(3, 4)) - 5.0) <= EPS


def test_dist_field_diagonal():
    d = dist(Position(0, 0), Position(1800, 1800))
    assert abs(d - 1800 * math.sqrt(2)) <= EPS


def test_dist_metric_properties():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (Position(rng.uniform(-50, 50), rng.uniform(-50, 50))
                   for _ in range(3))
        assert dist(a, a) == 0.0
        assert dist(a, b) == dist(b, a)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + EPS


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position(0.0, float("inf"))


# ---- packet classes and packets ------------------------------------------

def _packet(**kw):
    base = dict(packet_id=1, cls=PacketClass.REGULAR,
                destination_sink=0, lag_time=0.3, deadline=0.3)
    base.update(kw)
    return Packet(**base)


def test_packet_logical_id_defaults_to_packet_id():
    assert _packet(packet_id=42).logical_id == 42
    assert _packet(packet_id=42, logical_id=7).logical_id == 7


def test_packet_rejects_lag_above_deadline():
    with pytest.raises(ValueError):
        _packet(lag_time=0.4, deadline=0.3)


# ---- energy budget -------------------------------------------------------

def test_energy_budget_integer_conversion():
    # the shipped initial, tx, rx, sleep and idle energies
    joules = (2.0, 0.0522, 0.0591, 0.00006, 0.000003)
    assert [joules_to_nj(j) for j in joules] == [
        2_000_000_000, 52_200_000, 59_100_000, 60_000, 3_000]
    b = EnergyBudget(joules_to_nj(2.0))
    assert (b.initial_nj, b.spent_nj, b.residual_nj) == (2_000_000_000, 0,
                                                         2_000_000_000)


def test_energy_budget_deduction_and_clamp():
    b = EnergyBudget(joules_to_nj(2.0))
    tx_nj = joules_to_nj(0.0522)
    assert b.deduct(tx_nj) == tx_nj
    assert b.residual_nj == b.initial_nj - tx_nj
    # draining past zero clamps and reports the actual amount taken
    taken = b.deduct(10 * b.initial_nj)
    assert b.residual_nj == 0
    assert b.spent_nj == b.initial_nj
    assert taken == b.initial_nj - tx_nj
    assert not b.can_afford(1)


def test_energy_budget_conservation_over_random_deductions():
    rng = random.Random(3)
    b = EnergyBudget(joules_to_nj(2.0))
    total = 0
    for _ in range(500):
        total += b.deduct(rng.randrange(0, 5_000_000))
    assert b.initial_nj - b.residual_nj == total == b.spent_nj


def test_joules_round_trip():
    assert joules_to_nj(0.000003) == 3000
    assert joules_to_nj(2.0) / 1e9 == 2.0


# ---- slotted records ------------------------------------------------------

def test_records_made_per_event_are_slotted():
    # the records made per packet, beacon, pair, queue entry or neighbour,
    # each node's estimators, energy budget, neighbour table and queues, and
    # its position are slotted: no per-instance __dict__ to build or read
    packet = Packet(0, PacketClass.REGULAR, 0, lag_time=0.1, deadline=0.1)
    instances = [packet, EnergyBudget(1), PrrEstimator(), DelayEstimator(),
                 NeighborRecord(1, 1.0, {}, 1.0, 0.0),
                 HelloMessage(1, 1.0, {}, {}, {}),
                 ForwarderPair(1, 2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                 QueueEntry(packet, 0.0, None), NeighborTable(0, 1.0),
                 QueueBank(), Position(0.0, 0.0)]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
