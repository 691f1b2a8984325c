"""Next-hop selection tests: velocity arithmetic, deadline bookkeeping, the
class-differentiated decision rules, and a brute-force selection oracle."""

import inspect
import random

import pytest

from tdthr import forwarding
from tdthr.config import PRIMARY_SINK
from tdthr.core import Packet, PacketClass
from tdthr.forwarding import (DeadlineExpired, NoQualifyingPair, RoutingProtocol,
                              VoidRegion, best_effort_pair, required_velocity,
                              route_regular, route_reliability,
                              select_next_hop, update_lag_time)
from tdthr.neighborhood import ForwarderPair, HelloMessage, NeighborTable
from tdthr.simkernel import Simulation

from helpers import brute_select, line_pairs, mini_config, random_pair_snapshot

EPS = 1e-12


def _pair(y=3, z=4, velocity=500.0, prr_xy=0.9, prr_yz=0.9,
          energy_y=2.0, tx_cost_y=0.02, progress=30.0):
    return ForwarderPair(y=y, z=z, progress=progress,
                         denominator=progress / velocity, velocity=velocity,
                         prr_xy=prr_xy, prr_yz=prr_yz, energy_y=energy_y,
                         tx_cost_y=tx_cost_y)


# ---- velocities ----------------------------------------------------------

def test_offered_velocity_hand_computed():
    [pair] = line_pairs(0.01, 0.02, 0.01, 0.02)
    assert (pair.y, pair.z, pair.progress) == (2, 3, 60.0)
    assert abs(pair.velocity - 1000.0) <= EPS


def test_offered_pair_fields_hand_computed():
    # every field read by name, each value distinct, so that a pair built
    # with two positional arguments swapped fails here
    [pair] = line_pairs(0.01, 0.02, 0.005, 0.015, prr_xy=0.8, prr_yz=0.6,
                        energy=2.5, tx_nj=52_200_000)
    assert (pair.y, pair.z) == (2, 3)
    assert pair.progress == 60.0
    assert abs(pair.denominator - 0.05) <= EPS
    assert abs(pair.velocity - 1200.0) <= 1e-9
    assert (pair.prr_xy, pair.prr_yz) == (0.8, 0.6)
    assert pair.energy_y == 2.5
    # a full-range cost of 52.2 mJ times the path-loss factor (30/100)**2,
    # in nJ
    assert pair.tx_cost_y == round(52_200_000 * (30 / 100) ** 2) == 4_698_000


def test_offered_velocity_halves_when_delays_double():
    [pair] = line_pairs(0.01, 0.02, 0.01, 0.02)
    [slow] = line_pairs(0.02, 0.04, 0.02, 0.04)
    assert abs(slow.velocity - pair.velocity / 2) <= EPS


def test_offered_velocity_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        line_pairs(0.0, 0.0, 0.0, 0.0)


def test_required_velocity():
    assert abs(required_velocity(150.0, 0.3) - 500.0) <= EPS
    with pytest.raises(DeadlineExpired):
        required_velocity(150.0, 0.0)


# ---- lag-time renewal ----------------------------------------------------

def test_lag_update_hand_computed():
    # 150 B at 250 kbit/s serializes in 0.0048 s; sojourn 0.020 s
    lt = update_lag_time(0.300, t_rx=10.000, t_tx=10.020,
                         airtime=150 * 8 / 250000.0)
    assert abs(lt - 0.2752) <= EPS


def test_lag_update_identity_with_no_sojourn_or_size():
    assert update_lag_time(0.3, 5.0, 5.0, 0.0) == 0.3


def test_lag_update_expiry_and_time_travel():
    with pytest.raises(DeadlineExpired):
        update_lag_time(0.010, 10.0, 10.020, 0.0048)
    with pytest.raises(ValueError):
        update_lag_time(0.3, 10.0, 9.0, 0.0048)


# ---- class-differentiated selection --------------------------------------

def test_selection_rejects_unfiltered_classes():
    with pytest.raises(ValueError):
        select_next_hop([_pair()], 100.0, PacketClass.REGULAR)


def test_single_qualifying_pair_wins_outright():
    pairs = [_pair(y=3, velocity=600.0, prr_xy=0.1, prr_yz=0.1),
             _pair(y=4, velocity=400.0, prr_xy=1.0, prr_yz=1.0)]
    # only y=3 meets the requirement, despite terrible reliability
    assert select_next_hop(pairs, 500.0, PacketClass.CRITICAL).y == 3


def test_critical_prefers_reliable_path():
    pairs = [_pair(y=3, prr_xy=0.9, prr_yz=0.8),    # path 0.72
             _pair(y=4, prr_xy=0.95, prr_yz=0.9)]   # path 0.855
    assert select_next_hop(pairs, 100.0, PacketClass.CRITICAL).y == 4


def test_critical_scope_changes_the_winner():
    # reliability spans both hops: the best first hop loses to the best path
    pairs = [_pair(y=3, prr_xy=0.99, prr_yz=0.5),   # best first hop
             _pair(y=4, prr_xy=0.90, prr_yz=0.9)]   # best path
    assert select_next_hop(pairs, 100.0, PacketClass.CRITICAL).y == 4


def test_critical_reliability_tie_breaks_on_power():
    pairs = [_pair(y=3, prr_xy=0.9, prr_yz=0.9, energy_y=1.0, tx_cost_y=0.02),
             _pair(y=4, prr_xy=0.9, prr_yz=0.9, energy_y=1.8, tx_cost_y=0.02)]
    assert select_next_hop(pairs, 100.0, PacketClass.CRITICAL).y == 4


def test_delay_responsive_prefers_energy_then_cheap_hop():
    pairs = [_pair(y=3, energy_y=1.8, tx_cost_y=0.05),
             _pair(y=4, energy_y=1.8, tx_cost_y=0.03),
             _pair(y=5, energy_y=1.2, tx_cost_y=0.001)]
    assert select_next_hop(pairs, 100.0, PacketClass.DELAY_RESPONSIVE).y == 4


def test_no_qualifying_pair_raises():
    with pytest.raises(NoQualifyingPair):
        select_next_hop([_pair(velocity=100.0)], 500.0, PacketClass.CRITICAL)


def test_best_effort_takes_fastest_pair():
    pairs = [_pair(y=3, velocity=100.0), _pair(y=4, velocity=250.0)]
    assert best_effort_pair(pairs).y == 4
    with pytest.raises(VoidRegion):
        best_effort_pair([])


# ---- single-hop policies -------------------------------------------------

def test_route_regular_takes_max_progress():
    assert route_regular([(5, 30.0), (6, 70.0), (7, 70.0)]) == 6
    with pytest.raises(VoidRegion):
        route_regular([])


def test_route_reliability_takes_best_path_then_fallback():
    pairs = [_pair(y=3, prr_xy=0.5, prr_yz=1.0),
             _pair(y=4, prr_xy=0.95, prr_yz=0.95)]
    assert route_reliability(pairs) == 4
    assert route_reliability([], one_hop_fallback=[(8, 0.7), (9, 0.9)]) == 9
    with pytest.raises(VoidRegion):
        route_reliability([])


# ---- properties ----------------------------------------------------------

def test_selection_is_scale_invariant():
    """Scaling every delay estimate and the time budget by the same factor
    changes nothing: both offered and required velocity scale together."""
    rng = random.Random(99)
    for _ in range(500):
        pairs, v_req = random_pair_snapshot(rng)
        if v_req == 0.0:
            v_req = 250.0
        scaled = [ForwarderPair(y=p.y, z=p.z, progress=p.progress,
                                denominator=p.denominator * 4,
                                velocity=p.velocity / 4,
                                prr_xy=p.prr_xy, prr_yz=p.prr_yz,
                                energy_y=p.energy_y, tx_cost_y=p.tx_cost_y)
                  for p in pairs]
        for cls in (PacketClass.DELAY_RESPONSIVE, PacketClass.CRITICAL):
            try:
                ref = select_next_hop(pairs, v_req, cls)
                alt = select_next_hop(scaled, v_req / 4, cls)
                assert (ref.y, ref.z) == (alt.y, alt.z)
            except NoQualifyingPair:
                with pytest.raises(NoQualifyingPair):
                    select_next_hop(scaled, v_req / 4, cls)


def test_improving_a_winner_keeps_it_winning():
    rng = random.Random(123)
    checked = 0
    for _ in range(2000):
        pairs, v_req = random_pair_snapshot(rng)
        try:
            winner = select_next_hop(pairs, v_req, PacketClass.CRITICAL)
        except NoQualifyingPair:
            continue
        winner.prr_yz = min(1.0, winner.prr_yz + 0.003)
        again = select_next_hop(pairs, v_req, PacketClass.CRITICAL)
        assert (again.y, again.z) == (winner.y, winner.z)
        checked += 1
    assert checked > 500


def test_selection_matches_brute_force_oracle():
    """2,000 random snapshots against the independent re-derivation (the
    full 10,000-snapshot sweep runs in the acceptance suite)."""
    rng = random.Random(2024)
    for _ in range(2000):
        pairs, v_req = random_pair_snapshot(rng)
        for cls in (PacketClass.DELAY_RESPONSIVE, PacketClass.CRITICAL):
            expected = brute_select(pairs, v_req, cls)
            try:
                got = select_next_hop(pairs, v_req, cls)
                assert expected == (got.y, got.z)
            except NoQualifyingPair:
                assert expected is None


# ---- the protocol table and the entry into recovery ------------------------

@pytest.mark.parametrize("name", sorted(forwarding.PROTOCOLS))
def test_a_select_function_takes_the_decision_view_and_no_config(name):
    # the six arguments `Simulation._select` passes, and nothing else
    select = forwarding.PROTOCOLS[name].select
    assert list(inspect.signature(select).parameters) == [
        "node", "packet", "to_dest", "d_own", "f1", "links"]


def test_a_protocol_is_one_table_entry(monkeypatch):
    # config and kernel read one table: an entry added there validates and
    # runs, with no other change
    cfg = mini_config(protocol="lowest_id", critical_rate=0.25,
                      delay_responsive_rate=0.25,
                      reliability_responsive_rate=0.25, rng_seed=4)
    assert any(e.startswith("protocol.protocol") for e in cfg.validate())
    calls = []

    def select_lowest_id(node, packet, to_dest, d_own, f1, links):
        calls.append(node.id)
        if not f1:
            raise VoidRegion("no favorable one-hop forwarder")
        return min(r.neighbor for r, _ in f1), False

    monkeypatch.setitem(forwarding.PROTOCOLS, "lowest_id", RoutingProtocol(
        select_lowest_id, priority_queues=False, duplicates=False))
    assert cfg.validate() == []
    sim = Simulation(cfg)
    ledger = sim.run()
    assert len(calls) > 10 and ledger.generated_total > 10
    assert ledger.accounting_closed()
    assert (ledger.total_energy_nj == sim.initial_minus_residual_nj()
            == sim.energy_spent_by_nodes_nj())


# Node 5 holds the packet, 100 m from the primary sink. Neighbour 7 lies
# closer to the sink (90 m), neighbours 6 and 8 farther (120 m and 130 m).
_HOLDER = 5
_TO_SINK = {5: 100.0, 6: 120.0, 7: 90.0, 8: 130.0}


def _holder(protocol, neighbours):
    """A run's state with node 5's table built by hand from one HELLO of
    each of `neighbours`, and the sink distances above."""
    sim = Simulation(mini_config(protocol=protocol))
    sim.now = 1.0
    sim.sink_distance = {PRIMARY_SINK: _TO_SINK}
    node = sim.nodes[_HOLDER]
    node.table = NeighborTable(_HOLDER, expiry=10.0)
    for y in neighbours:
        node.table.process_hello(HelloMessage(
            y, 2.0, dict.fromkeys(PacketClass, 0.0), {_HOLDER: 0.9}, {}), 1.0)
    return sim, node


def _packet(anchor=None, visited=()):
    return Packet(packet_id=0, cls=PacketClass.REGULAR,
                  destination_sink=PRIMARY_SINK, lag_time=0.3, deadline=0.3,
                  hop_trace=list(visited), recovery_anchor=anchor)


@pytest.mark.parametrize("anchor", [100.0, 95.0])
def test_a_packet_in_recovery_goes_to_the_detour(anchor):
    # anchored at or below the holder's distance: still in recovery, so the
    # closest unvisited neighbour wins over the greedy pick, visited 7
    sim, node = _holder("tdthr", (6, 7, 8))
    packet = _packet(anchor=anchor, visited=(7,))
    assert sim._select(node, packet) == 6
    assert packet.recovery_anchor == anchor


def test_a_packet_closer_than_its_anchor_leaves_recovery():
    sim, node = _holder("tdthr", (6, 7, 8))
    packet = _packet(anchor=150.0, visited=(7,))
    assert sim._select(node, packet) == 7   # the greedy class rule
    assert packet.recovery_anchor is None


def test_a_void_enters_recovery_only_where_the_protocol_recovers():
    sim, node = _holder("tdthr", (6, 8))
    packet = _packet()
    assert sim._select(node, packet) == 6
    assert packet.recovery_anchor == _TO_SINK[_HOLDER]
    for protocol in ("greedy_geo", "one_hop_velocity"):
        sim, node = _holder(protocol, (6, 8))
        packet = _packet()
        with pytest.raises(VoidRegion):
            sim._select(node, packet)
        assert packet.recovery_anchor is None
