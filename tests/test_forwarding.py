"""Next-hop selection tests: velocity arithmetic, deadline bookkeeping, the
class-differentiated decision rules, and a brute-force selection oracle."""

import ast
import dataclasses
import inspect
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from tdthr import forwarding, simkernel
from tdthr.config import PRIMARY_SINK
from tdthr.core import Packet, PacketClass
from tdthr.forwarding import (NoQualifyingPair, RoutingProtocol, VoidRegion,
                              best_effort_pair, required_velocity,
                              route_regular, route_reliability,
                              select_next_hop, update_lag_time)
from tdthr.neighborhood import ForwarderPair, HelloMessage, NeighborTable
from tdthr.simkernel import Simulation

from helpers import (brute_select, line_pairs, mini_config, random_pair_snapshot,
                     small_runs)

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
    with pytest.raises(ValueError):
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
    # a late packet's budget is a number at or below 0; the kernel decides
    lt = update_lag_time(0.010, 10.0, 10.020, 0.0048)
    assert abs(lt - -0.0148) <= EPS
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
    assert best_effort_pair([]) is None


# ---- single-hop policies -------------------------------------------------

def test_route_regular_takes_max_progress():
    assert route_regular([(5, 30.0), (6, 70.0), (7, 70.0)]) == 6
    assert route_regular([]) is None


def test_route_reliability_takes_best_path_then_fallback():
    pairs = [_pair(y=3, prr_xy=0.5, prr_yz=1.0),
             _pair(y=4, prr_xy=0.95, prr_yz=0.95)]
    assert route_reliability(pairs) == 4
    assert route_reliability([], one_hop_fallback=[(8, 0.7), (9, 0.9)]) == 9
    assert route_reliability([]) is None


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
    # the six arguments `Simulation._select` passes, and nothing else; a
    # recover function takes the same view
    protocol = forwarding.PROTOCOLS[name]
    view = ["node", "packet", "to_dest", "d_own", "live", "links"]
    assert list(inspect.signature(protocol.select).parameters) == view
    if protocol.recover is not None:
        assert list(inspect.signature(protocol.recover).parameters) == view


def test_the_kernel_names_no_recovery_rule():
    # recovery belongs to the protocol: the kernel hands a next hop of None
    # to its `recover`, and neither reads the packet's recovery state nor
    # asks whether a protocol recovers
    source = Path(simkernel.__file__).read_text()
    for name in ("recovery_anchor", "recovers"):
        assert name not in source
    assert "except" not in inspect.getsource(Simulation._select)


def _scopes(path, found) -> list:
    """The enclosing `Class.function` ("" at module level) of each node of
    `path`'s syntax tree for which `found(node)` holds."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if found(node):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(Path(path).read_text()), "")
    return out


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _raises_void(node) -> bool:
    return (isinstance(node, ast.Raise) and node.exc is not None
            and "VoidRegion" in _names(node.exc))


def _catches_void(node) -> bool:
    return (isinstance(node, ast.ExceptHandler) and node.type is not None
            and "VoidRegion" in _names(node.type))


def test_only_the_kernel_decision_turns_no_next_hop_into_a_void():
    # A rule says "no next hop" by returning None, and lateness is a number:
    # `forwarding` neither raises nor catches `VoidRegion`, the kernel raises
    # it only in `_select`, and no module defines `DeadlineExpired`. The
    # kernel names a traffic class only where it draws one.
    assert _scopes(forwarding.__file__,
                   lambda n: _raises_void(n) or _catches_void(n)) == []
    assert _scopes(simkernel.__file__, _raises_void) == ["Simulation._select"]
    for path in Path(forwarding.__file__).parent.glob("*.py"):
        assert _scopes(path, lambda n: (
            isinstance(n, ast.ClassDef) and n.name == "DeadlineExpired"
            or isinstance(n, ast.Name) and n.id == "DeadlineExpired"
            and isinstance(n.ctx, ast.Store))) == [], path.name
    named = _scopes(simkernel.__file__, lambda n: (
        isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id == "PacketClass"))
    assert set(named) <= {"Simulation._draw_class"}


def test_only_the_charge_paths_write_spent_energy():
    # A node's spent nanojoules and the ledger's energy total move together:
    # outside `EnergyBudget.deduct` only `Simulation._spend` stores
    # `spent_nj`, and only the ledger itself and `_spend` store
    # `total_energy_nj`.
    def stores(attr):
        return lambda n: (isinstance(n, ast.Attribute) and n.attr == attr
                          and isinstance(n.ctx, ast.Store))

    spent, total = set(), set()
    for path in Path(forwarding.__file__).parent.glob("*.py"):
        spent.update((path.name, s) for s in _scopes(path, stores("spent_nj")))
        total.update((path.name, s)
                     for s in _scopes(path, stores("total_energy_nj")))
    assert spent == {("core.py", "EnergyBudget.deduct"),
                     ("simkernel.py", "Simulation._spend")}
    assert ("simkernel.py", "Simulation._spend") in total
    assert all(scope.startswith("MetricsLedger.") if name == "metrics.py"
               else scope == "Simulation._spend"
               for name, scope in total), total


def test_select_and_recover_return_a_live_neighbour_or_none(monkeypatch):
    # The contract of every protocol's rules, on random small runs: a next
    # hop is None or one of the `live` records handed in, `missed` is a
    # bool and False with no hop, and neither function raises (the kernel
    # would swallow a `VoidRegion`, so a raise is turned into a failure).
    nones = {"select": 0, "recover": 0}
    called = set()

    def checked(name, rule):
        def rule_checked(node, packet, to_dest, d_own, live, links):
            try:
                out = rule(node, packet, to_dest, d_own, live, links)
            except Exception as exc:
                raise AssertionError(f"{rule.__name__} raised {exc!r}") from exc
            hop, missed = out if name == "select" else (out, False)
            assert hop is None or hop in {r.neighbor for r in live}, hop
            assert isinstance(missed, bool) and not (hop is None and missed)
            nones[name] += hop is None
            called.add(rule)
            return out
        return rule_checked

    every_rule = {rule for rules in forwarding.PROTOCOLS.values()
                  for rule in (rules.select, rules.recover) if rule}
    for protocol, rules in list(forwarding.PROTOCOLS.items()):
        recover = rules.recover and checked("recover", rules.recover)
        monkeypatch.setitem(forwarding.PROTOCOLS, protocol, dataclasses.replace(
            rules, select=checked("select", rules.select), recover=recover))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cfg=small_runs())
    def run(cfg):
        ledger = Simulation(cfg).run()
        assert ledger.accounting_closed()

    run()
    assert called == every_rule
    assert nones["select"] > 0 and nones["recover"] > 0


def test_a_protocol_is_one_table_entry(monkeypatch):
    # config and kernel read one table: an entry added there validates and
    # runs, with no other change
    cfg = mini_config(protocol="lowest_id", critical_rate=0.25,
                      delay_responsive_rate=0.25,
                      reliability_responsive_rate=0.25, rng_seed=4)
    assert any(e.startswith("protocol.protocol") for e in cfg.validate())
    calls = []

    def select_lowest_id(node, packet, to_dest, d_own, live, links):
        calls.append(node.id)
        f1 = node.table.favorable_one_hop(live, d_own, to_dest)
        return min((r.neighbor for r, _ in f1), default=None), False

    monkeypatch.setitem(forwarding.PROTOCOLS, "lowest_id", RoutingProtocol(
        select_lowest_id, priority_queues=False))
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


def _table(neighbours):
    """Node 5's table, built by hand from one HELLO of each of
    `neighbours`, heard at 1.0 s."""
    table = NeighborTable(_HOLDER, expiry=10.0)
    for y in neighbours:
        table.process_hello(HelloMessage(
            y, 2.0, dict.fromkeys(PacketClass, 0.0), {_HOLDER: 0.9}, {}), 1.0)
    return table


def _holder(protocol, neighbours):
    """A run's state with node 5's table built by `_table`, and the sink
    distances above."""
    sim = Simulation(mini_config(protocol=protocol))
    sim.now = 1.0
    sim.sink_distance = {PRIMARY_SINK: _TO_SINK}
    node = sim.nodes[_HOLDER]
    node.table = _table(neighbours)
    return sim, node


def _packet(anchor=None, visited=(), cls=PacketClass.REGULAR, lag_time=0.3):
    return Packet(packet_id=0, cls=cls, destination_sink=PRIMARY_SINK,
                  lag_time=lag_time, deadline=0.3, hop_trace=list(visited),
                  recovery_anchor=anchor)


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


# ---- tdthr's recovery, driven on a hand-built table -----------------------

def _detour_on_table(packet, neighbours=(6, 7, 8)):
    """tdthr's `recover` on node 5's view, with no `Simulation`. Node 9,
    80 m from the sink, was last heard long before the decision, so it is
    not live."""
    table = _table(neighbours)
    table.process_hello(HelloMessage(
        9, 2.0, dict.fromkeys(PacketClass, 0.0), {_HOLDER: 0.9}, {}), -20.0)
    node = SimpleNamespace(id=_HOLDER, table=table)
    to_dest = {**_TO_SINK, 9: 80.0}
    return forwarding.PROTOCOLS["tdthr"].recover(
        node, packet, to_dest, _TO_SINK[_HOLDER], table.live_records(1.0), {})


def test_a_detour_takes_the_closest_unvisited_live_neighbour():
    packet = _packet(visited=(7,))
    assert _detour_on_table(packet) == 6
    assert packet.recovery_anchor == _TO_SINK[_HOLDER]   # entered here
    packet = _packet()
    assert _detour_on_table(packet) == 7


def test_a_detour_keeps_an_anchor_already_set():
    packet = _packet(anchor=95.0, visited=(7,))
    assert _detour_on_table(packet) == 6
    assert packet.recovery_anchor == 95.0


def test_a_detour_with_every_live_neighbour_visited_is_a_void():
    assert _detour_on_table(_packet(visited=(6, 7, 8))) is None


# ---- the decisions that count `missed_velocity` ---------------------------

def _holder_with_pair():
    """`_holder`'s tdthr state in which neighbour 7 lists node 9, 80 m from
    the sink: the one forwarder pair (7, 9), which offers at most 20 m of
    progress over its delays."""
    sim, node = _holder("tdthr", (6, 7, 8))
    node.table.process_hello(HelloMessage(
        7, 2.0, dict.fromkeys(PacketClass, 0.0), {_HOLDER: 0.9},
        {9: (0.01, 0.9)}), 1.0)
    sim.sink_distance = {PRIMARY_SINK: {**_TO_SINK, 9: 80.0}}
    sim.links[_HOLDER] = {7: (0.9, 0.0, 1000)}
    return sim, node


def test_a_pair_short_of_the_required_velocity_counts_one_miss():
    sim, node = _holder_with_pair()
    packet = _packet(cls=PacketClass.DELAY_RESPONSIVE, lag_time=1e-6)
    assert sim._select(node, packet) == 7   # the best-effort pair
    assert sim.metrics.missed_velocity == 1


def test_a_one_hop_velocity_packet_with_no_lag_time_counts_one_miss():
    sim, node = _holder("one_hop_velocity", (6, 7, 8))
    assert sim._select(node, _packet(lag_time=0.0)) == 7
    assert sim.metrics.missed_velocity == 1


def test_a_hop_in_recovery_counts_no_miss():
    # the same short pair, but the packet has not escaped its anchor
    sim, node = _holder_with_pair()
    packet = _packet(anchor=100.0, visited=(7,),
                     cls=PacketClass.DELAY_RESPONSIVE, lag_time=1e-6)
    assert sim._select(node, packet) == 6
    assert sim.metrics.missed_velocity == 0
