"""Domain-type unit tests: geometry, transmission cost, packets, energy."""

import math
import random

import pytest

from tdthr.core import (EnergyBudget, Packet, PacketClass, Position, dist,
                        joules_to_nj, path_loss_factor)

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


# ---- transmission power cost ---------------------------------------------
# A transmission over distance d costs its nominal cost times
# path_loss_factor(d, tx_range, alpha), fixed once per link at set-up.

def test_tx_power_cost_full_range():
    assert path_loss_factor(100.0, 100.0, 2.0) == 1.0


def test_tx_power_cost_half_range_quarter_cost():
    full = path_loss_factor(100.0, 100.0, 2.0)
    half = path_loss_factor(50.0, 100.0, 2.0)
    assert abs(half - full / 4) <= EPS


def test_tx_power_cost_rejects_degenerate_distances():
    with pytest.raises(ValueError):
        path_loss_factor(0.0, 100.0, 2.0)
    with pytest.raises(ValueError):
        path_loss_factor(100.1, 100.0, 2.0)


def test_tx_power_cost_monotone():
    rng = random.Random(11)
    for _ in range(200):
        d1 = rng.uniform(1, 99)
        d2 = rng.uniform(d1, 100)
        alpha = rng.uniform(2, 4)
        assert (path_loss_factor(d1, 100.0, alpha)
                <= path_loss_factor(d2, 100.0, alpha) + EPS)
        # below full range, a steeper exponent can only make the hop cheaper
        assert (path_loss_factor(d1, 100.0, alpha + 1)
                <= path_loss_factor(d1, 100.0, alpha) + EPS)


# ---- packet classes and packets ------------------------------------------

def test_queue_priority_order():
    assert PacketClass.CRITICAL.queue_priority == 0
    assert PacketClass.DELAY_RESPONSIVE.queue_priority == 1
    assert PacketClass.RELIABILITY_RESPONSIVE.queue_priority == 2
    assert PacketClass.REGULAR.queue_priority == 2


def _packet(**kw):
    base = dict(packet_id=1, cls=PacketClass.REGULAR,
                destination_sink=0, lag_time=0.3, deadline=0.3,
                payload_size=150, creation_time=0.0)
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
    b = EnergyBudget.from_joules(2.0, 0.0522, 0.0591, 0.00006, 0.000003)
    assert b.initial_nj == 2_000_000_000
    assert b.cost_tx_nj == 52_200_000
    assert b.cost_rx_nj == 59_100_000
    assert b.cost_sleep_nj == 60_000
    assert b.cost_idle_nj == 3_000


def test_energy_budget_deduction_and_clamp():
    b = EnergyBudget.from_joules(2.0, 0.0522, 0.0591, 0.00006, 0.000003)
    assert b.deduct(b.cost_tx_nj) == b.cost_tx_nj
    assert b.residual_nj == b.initial_nj - b.cost_tx_nj
    # draining past zero clamps and reports the actual amount taken
    taken = b.deduct(10 * b.initial_nj)
    assert b.residual_nj == 0
    assert b.spent_nj == b.initial_nj
    assert taken == b.initial_nj - b.cost_tx_nj
    assert not b.can_afford(1)


def test_energy_budget_conservation_over_random_deductions():
    rng = random.Random(3)
    b = EnergyBudget.from_joules(2.0, 0.0522, 0.0591, 0.00006, 0.000003)
    total = 0
    for _ in range(500):
        total += b.deduct(rng.randrange(0, 5_000_000))
    assert b.initial_nj - b.residual_nj == total == b.spent_nj


def test_joules_round_trip():
    assert joules_to_nj(0.000003) == 3000
    assert joules_to_nj(2.0) / 1e9 == 2.0
