"""Simulation-engine tests: configuration handling, topology generation, the
hidden link model, and end-to-end run invariants on a small field."""

import enum
import gc
import hashlib
import heapq
import io
import math
import random
import weakref
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdthr import metrics, simkernel
from tdthr.cli import config_hash, load_config
from tdthr.core import (LIGHT_SPEED, EnergyBudget, PacketClass, Position,
                        joules_to_nj)
from tdthr.forwarding import PROTOCOLS
from tdthr.neighborhood import NeighborTable
from tdthr.queueing import QueueBank
from tdthr.simkernel import (PRIMARY_SINK, SECONDARY_SINK, SOURCE, SimConfig,
                             Simulation, _connected, _link_table, _neighbours,
                             energy_costs_nj, generate_topology)

from helpers import (RETIRED_FIELDS, battery_j, dist, mini_config,
                     reference_spend, small_runs)

CONFIG_DIR = "configs"


# ---- configuration -------------------------------------------------------

def test_config_round_trips_through_dict():
    cfg = mini_config(critical_rate=0.3, protocol="greedy_geo")
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_shipped_configs_round_trip_through_yaml():
    for name in ("default.yaml", "desk.yaml"):
        with open(f"{CONFIG_DIR}/{name}") as fh:
            cfg = SimConfig.from_dict(yaml.safe_load(fh))
        assert cfg.validate() == []
        text = yaml.safe_dump(cfg.to_dict())
        assert SimConfig.from_dict(yaml.safe_load(text)) == cfg


def test_unknown_sections_and_fields_rejected():
    with pytest.raises(ValueError):
        SimConfig.from_dict({"nonsense": {}})
    with pytest.raises(ValueError):
        SimConfig.from_dict({"network": {"warp_factor": 9}})
    with pytest.raises(ValueError):
        SimConfig.from_dict({"network": "not a mapping"})
    for section, key in RETIRED_FIELDS:
        with pytest.raises(ValueError,
                           match=f"^unknown config field {section}.{key}$"):
            SimConfig.from_dict({section: {key: 1}})


def test_validation_messages():
    cfg = mini_config()
    cfg.node_count = 2
    cfg.critical_rate = 1.4
    cfg.protocol = "flooding"
    cfg.drain_window = -0.5
    errors = cfg.validate()
    joined = "\n".join(errors)
    assert "node_count" in joined
    assert "critical_rate" in joined
    assert "protocol.protocol" in joined
    assert "run.drain_window" in joined


def test_field_types_checked_before_ranges():
    # an int is a float, a bool is not an int; direct construction and
    # setattr are checked too, not only YAML
    assert mini_config(duration=20, prr_beta=1).validate() == []
    cfg = mini_config(max_retries=True, node_count="100")
    assert cfg.validate() == ["network.node_count must be int, got '100'",
                              "mac.max_retries must be int, got True"]
    with pytest.raises(ValueError):
        Simulation(cfg)


def test_density_consistency_check():
    cfg = mini_config()
    cfg.node_density = cfg.node_density * 2
    assert any("node_density" in e for e in cfg.validate())


def test_class_mix_must_not_exceed_one():
    cfg = mini_config(critical_rate=0.5, delay_responsive_rate=0.4,
                      reliability_responsive_rate=0.3)
    assert any("sum" in e for e in cfg.validate())


def test_sink_positions_and_inset():
    cfg = mini_config(sink_inset=0.0)
    sinks = cfg.sink_positions
    assert sinks[PRIMARY_SINK] == Position(0, 0)
    assert sinks[SECONDARY_SINK] == Position(cfg.field_width, cfg.field_height)
    inset = mini_config(sink_inset=60.0).sink_positions
    assert inset[PRIMARY_SINK] == Position(60, 60)
    assert cfg.source_position == Position(cfg.field_width / 2,
                                           cfg.field_height / 2)


def test_derived_intervals():
    cfg = mini_config()
    assert cfg.neighbor_expiry == 2.5 * cfg.hello_period
    assert cfg.cbr_interval == cfg.payload_bytes / cfg.rate_bytes_per_s


# ---- channel model -------------------------------------------------------
# `_link_table` states both laws of the channel: a link of length d, r = d /
# tx_range, delivers with probability 1 - r ** loss_exponent clamped to
# [min_delivery_prob, 1], and costs round(tx_nj * r ** path_loss_alpha) nJ.

def delivery_probability(d, cfg):
    """The loss law with the builtin clamp: the reference each built link's
    probability is checked against."""
    p = 1.0 - (d / cfg.tx_range) ** cfg.loss_exponent
    return min(1.0, max(cfg.min_delivery_prob, p))


def _one_link(d, cfg, tx_nj=None):
    """The link `_link_table` builds for a hand-made two-node graph whose one
    edge is d long, at a full-range transmit cost of `tx_nj`, by default the
    simulation's for `cfg`."""
    if tx_nj is None:
        tx_nj = energy_costs_nj(cfg)[0]
    links = _link_table({0: [(1, d)], 1: [(0, d)]}, cfg, tx_nj)
    assert links[0][1] is links[1][0]
    return links[0][1]


def test_delivery_probability_shape():
    # p(0) = 1 is out of reach: a link has positive length (see
    # test_coincident_nodes_rejected_at_construction); a link too short for
    # r ** loss_exponent to register against 1 delivers with probability 1
    cfg = mini_config()
    assert _one_link(cfg.tx_range * 1e-6, cfg)[0] == 1.0
    assert _one_link(cfg.tx_range, cfg)[0] == cfg.min_delivery_prob
    last = 1.0
    for step in range(1, 11):
        p = _one_link(cfg.tx_range * step / 10, cfg)[0]
        assert cfg.min_delivery_prob <= p <= last
        last = p


def test_tx_power_cost_full_range():
    cfg = mini_config(tx_range=100.0, path_loss_alpha=2.0)
    assert _one_link(100.0, cfg)[2] == energy_costs_nj(cfg)[0]


def test_tx_power_cost_half_range_quarter_cost():
    # the law alone, at a given full-range cost whatever the energy reading
    cfg = mini_config(tx_range=100.0, path_loss_alpha=2.0)
    assert _one_link(100.0, cfg, 52_200_000)[2] == 52_200_000
    assert _one_link(50.0, cfg, 52_200_000)[2] == 52_200_000 // 4


def test_tx_power_cost_rejects_degenerate_distances():
    cfg = mini_config(tx_range=100.0)
    with pytest.raises(ValueError, match="must be positive"):
        _one_link(0.0, cfg)
    with pytest.raises(ValueError, match="exceeds transmission range"):
        _one_link(100.1, cfg)


def test_tx_power_cost_monotone():
    rng = random.Random(11)
    for _ in range(200):
        d1 = rng.uniform(1, 99)
        d2 = rng.uniform(d1, 100)
        alpha = rng.uniform(2, 4)
        cfg = mini_config(tx_range=100.0, path_loss_alpha=alpha)
        steeper = mini_config(tx_range=100.0, path_loss_alpha=alpha + 1)
        assert _one_link(d1, cfg)[2] <= _one_link(d2, cfg)[2]
        # below full range, a steeper exponent can only make the hop cheaper
        assert _one_link(d1, steeper)[2] <= _one_link(d1, cfg)[2]


# ---- topology ------------------------------------------------------------

def test_topology_is_deterministic_and_in_bounds():
    cfg = mini_config()
    a, graph = generate_topology(cfg, seed=5)
    assert generate_topology(cfg, seed=5) == (a, graph)
    assert a != generate_topology(cfg, seed=6)[0]
    assert graph == _neighbours(a, cfg.tx_range)
    assert len(a) == cfg.node_count
    for pos in a.values():
        assert 0 <= pos.x <= cfg.field_width and 0 <= pos.y <= cfg.field_height
    assert a[SOURCE] == cfg.source_position
    assert a[PRIMARY_SINK] == cfg.sink_positions[PRIMARY_SINK]


def test_topology_guarantees_source_to_sink_paths():
    cfg = mini_config()
    for seed in range(1, 6):
        positions, _ = generate_topology(cfg, seed)
        for sink in (PRIMARY_SINK, SECONDARY_SINK):
            assert _bfs_reachable(positions, cfg.tx_range, SOURCE, sink)


def _bfs_reachable(positions, tx_range, start, goal) -> bool:
    frontier, seen = [start], {start}
    while frontier:
        x = frontier.pop()
        if x == goal:
            return True
        for y in positions:
            if y not in seen and dist(positions[x], positions[y]) <= tx_range:
                seen.add(y)
                frontier.append(y)
    return False


def _observed(monkeypatch, name, calls):
    """Wrap `simkernel.<name>` so that each call appends `(args, result)`."""
    original = getattr(simkernel, name)

    def observed(*args):
        result = original(*args)
        calls.append((args, result))
        return result
    monkeypatch.setattr(simkernel, name, observed)


def _assert_failure_counts(monkeypatch, n, side, unheard, cut_off):
    # The failure counts each cause, as the placements showed it, and names
    # the remedies.
    cfg = mini_config(node_count=n, field_width=side, field_height=side,
                      node_density=n / (side * side), sink_inset=0.0)
    checks, walks = [], []
    _observed(monkeypatch, "_sink_unheard", checks)
    _observed(monkeypatch, "_connected", walks)
    with pytest.raises(ValueError) as failure:
        generate_topology(cfg, seed=1)
    assert [result for _, result in checks].count(True) == unheard
    assert [result for _, result in walks] == [False] * cut_off
    assert len(checks) == 50
    message = str(failure.value)
    assert message.startswith("could not generate a topology")
    assert (f"{unheard} left a sink that no node hears, {cut_off} cut the "
            f"source off from a sink") in message
    assert "density or range" in message and "network.sink_inset" in message


def test_impossible_topology_raises(monkeypatch):
    # one relay on a field 50 ranges wide
    _assert_failure_counts(monkeypatch, 4, 5000.0, unheard=50, cut_off=0)


def test_topology_failure_counts_both_causes(monkeypatch):
    # two relays: now and then both sinks hear one
    _assert_failure_counts(monkeypatch, 5, 250.0, unheard=48, cut_off=2)


def _unheard_by_graph(points, tx_range) -> bool:
    positions = {nid: Position(x, y) for nid, (x, y) in enumerate(points)}
    graph = _neighbours(positions, tx_range)
    return not (graph[PRIMARY_SINK] and graph[SECONDARY_SINK])


def test_early_rejection_is_exactly_an_unheard_sink(monkeypatch):
    # `generate_topology` skips a placement before building its range graph
    # exactly when that graph would give a sink an empty list. Watched on
    # default.yaml at its seed, 1, whose third of four placements leaves a
    # sink unheard, and on small random fields with the sinks on the
    # corners, where both outcomes are common.
    checks = []
    _observed(monkeypatch, "_sink_unheard", checks)
    cfg = _default_config()
    generate_topology(cfg, cfg.rng_seed)
    assert [result for _, result in checks] == [False, False, True, False]
    rng = random.Random(3)
    for seed in range(40):
        tx_range = rng.choice([100.0, 33.3, 7.1, 0.3])
        n = rng.randint(4, 30)
        side = tx_range * rng.uniform(1.5, 5.0)
        cfg = mini_config(node_count=n, field_width=side, field_height=side,
                          node_density=n / (side * side), sink_inset=0.0,
                          tx_range=tx_range)
        try:
            generate_topology(cfg, seed)
        except ValueError:
            pass
    assert {result for _, result in checks} == {True, False}
    for (points, tx_range), result in checks:
        assert result == _unheard_by_graph(points, tx_range)


@pytest.mark.parametrize("tx_range", [100.0, 33.3, 7.1, 0.3])
def test_early_rejection_on_cell_boundaries(tx_range):
    # Points snapped to half ranges, so that a node lies exactly tx_range
    # from a sink, or on top of one, and the `<=` decides.
    side = 3 * tx_range
    fixed = [(0.0, 0.0), (side, side), (side / 2, side / 2)]   # sinks, source
    rng = random.Random(tx_range)
    outcomes = set()
    for _ in range(300):
        points = fixed + [(rng.randint(0, 6) * tx_range / 2,
                           rng.randint(0, 6) * tx_range / 2)
                          for _ in range(rng.randint(1, 6))]
        unheard = simkernel._sink_unheard(points, tx_range)
        assert unheard == _unheard_by_graph(points, tx_range)
        outcomes.add(unheard)
    assert outcomes == {True, False}
    # a node exactly tx_range from each sink; one on top of each; sinks
    # that only hear each other; a sink that only hears the source
    at_range = fixed + [(tx_range, 0.0), (side - tx_range, side)]
    coincident = fixed + fixed[:2]
    each_other = [(0.0, 0.0), (3 * tx_range / 5, 4 * tx_range / 5),
                  (side, side)]
    source = [(0.0, 0.0), (side, side), (side - tx_range, side),
              (0.0, tx_range)]
    for points in (at_range, coincident, each_other, source):
        assert (simkernel._sink_unheard(points, tx_range)
                == _unheard_by_graph(points, tx_range))
    assert not simkernel._sink_unheard(coincident, tx_range)
    if tx_range == 100.0:   # the distances are exact in binary
        for points in (at_range, each_other, source):
            assert not simkernel._sink_unheard(points, tx_range)


def test_connected_agrees_with_bfs_on_accepted_and_rejected_placements():
    rng = random.Random(7)
    outcomes = set()
    for trial in range(200):
        tx_range = rng.choice([100.0, 33.3, 7.1, 0.3])
        side = tx_range * rng.uniform(1.5, 6.0)
        n = rng.randint(4, 40)
        if trial % 2:
            # snapped to half ranges, so pairs exactly tx_range apart occur
            halves = int(2 * side / tx_range)
            coords = [rng.randint(0, halves) * tx_range / 2 for _ in range(2 * n)]
        else:
            coords = [rng.uniform(0.0, side) for _ in range(2 * n)]
        positions = {nid: Position(coords[2 * nid], coords[2 * nid + 1])
                     for nid in range(n)}
        targets = {PRIMARY_SINK, SECONDARY_SINK}
        expected = all(_bfs_reachable(positions, tx_range, SOURCE, t)
                       for t in targets)
        graph = _neighbours(positions, tx_range)
        assert _connected(graph, SOURCE, targets) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


# ---- adjacency and link truth against all pairs ---------------------------

def _all_pairs(positions, tx_range):
    """The range graph from a plain double loop: x -> [(y, distance)] for
    every other node y within tx_range, y ascending."""
    return {x: [(y, dist(positions[x], positions[y])) for y in sorted(positions)
                if y != x and dist(positions[x], positions[y]) <= tx_range]
            for x in sorted(positions)}


def _placed(positions, cfg):
    """What `generate_topology` returns for the fixed placement `positions`."""
    return dict(positions), _neighbours(positions, cfg.tx_range)


def _assert_matches_all_pairs(sim):
    # the range graph, built directly, has the same edges in the same order
    # and the same distances as the double loop
    cfg = sim.cfg
    graph = _all_pairs(sim.positions, cfg.tx_range)
    assert _neighbours(sim.positions, cfg.tx_range) == graph
    # the links: same edges in the same order, same probabilities, same delays
    assert ([(x, [(y, link[:2]) for y, link in peers.items()])
             for x, peers in sim.links.items()]
            == [(x, [(y, (delivery_probability(d, cfg), d / LIGHT_SPEED))
                     for y, d in peers]) for x, peers in graph.items()])
    # the geometry fixed at set-up is exactly what `dist` gives, and each
    # link's cost the simulation's cost at full range times the path-loss
    # law (d / tx_range) ** alpha, in nJ
    for sink in (PRIMARY_SINK, SECONDARY_SINK):
        assert sim.sink_distance[sink] == {
            nid: dist(pos, sim.positions[sink])
            for nid, pos in sim.positions.items()}
    for x, peers in sim.links.items():
        for y, (_, _, cost) in peers.items():
            d = dist(sim.positions[x], sim.positions[y])
            assert cost == round(
                sim._tx_nj * (d / cfg.tx_range) ** cfg.path_loss_alpha)


def _default_config():
    with open(f"{CONFIG_DIR}/default.yaml") as fh:
        return SimConfig.from_dict(yaml.safe_load(fh))


def _field_config(n, side, tx_range):
    return mini_config(node_count=n, field_width=side, field_height=side,
                       node_density=n / (side * side), sink_inset=0.0,
                       tx_range=tx_range)


def test_adjacency_matches_all_pairs_on_random_topologies():
    rng = random.Random(11)
    for seed in range(1, 31):
        tx_range = rng.choice([100.0, 60.0, 33.3, 7.1])
        n = rng.randint(20, 80)
        # about ten neighbours per node, so the source reaches both corners
        side = tx_range * math.sqrt(n * math.pi / 10)
        cfg = _field_config(n, side, tx_range)
        cfg.rng_seed = seed
        _assert_matches_all_pairs(Simulation(cfg))


@pytest.mark.parametrize("tx_range", [100.0, 33.3, 7.1, 0.3])
def test_adjacency_matches_all_pairs_on_cell_boundaries(monkeypatch, tx_range):
    # Sinks on the corners of a field six ranges wide and the source at its
    # centre; three nodes exactly tx_range from the primary sink, relays on
    # every multiple of tx_range, and random points snapped to half ranges.
    # Each point is placed once: coincident nodes are rejected at set-up.
    side = 6 * tx_range
    at_range = [(tx_range, 0.0), (0.0, tx_range),
                (3 * tx_range / 5, 4 * tx_range / 5)]
    points = [(0.0, 0.0), (side, side), (side / 2, side / 2)] + at_range
    points += [(i * tx_range, j * tx_range) for i in range(7) for j in range(7)]
    rng = random.Random(tx_range)
    points += [(rng.randint(0, 12) * tx_range / 2, rng.randint(0, 12) * tx_range / 2)
               for _ in range(30)]
    points = list(dict.fromkeys(points))
    positions = {nid: Position(x, y) for nid, (x, y) in enumerate(points)}
    monkeypatch.setattr(simkernel, "generate_topology",
                        lambda cfg, seed: _placed(positions, cfg))
    sim = Simulation(_field_config(len(positions), side, tx_range))
    _assert_matches_all_pairs(sim)
    if tx_range == 100.0:   # the three distances are exact in binary
        assert {3, 4, 5} <= set(sim.links[PRIMARY_SINK])


def test_coincident_nodes_rejected_at_construction(monkeypatch):
    # a zero-length link has no transmit cost: it fails at set-up, not at
    # the first transmission over it
    cfg = _field_config(5, 300.0, 100.0)
    positions = {0: Position(0.0, 0.0), 1: Position(300.0, 300.0),
                 2: Position(150.0, 150.0), 3: Position(150.0, 150.0),
                 4: Position(75.0, 75.0)}
    monkeypatch.setattr(simkernel, "generate_topology",
                        lambda cfg, seed: _placed(positions, cfg))
    with pytest.raises(ValueError, match="must be positive"):
        Simulation(cfg)


def test_adjacency_matches_all_pairs_on_the_shipped_full_scale_field():
    # default.yaml puts the sinks on the corners of a field 18 ranges wide
    _assert_matches_all_pairs(Simulation(_default_config()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(exponent=st.floats(0.1, 8.0),
       floor=st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0),
       alpha=st.floats(2.0, 6.0), tx_range=st.sampled_from([100.0, 33.3, 7.1]),
       energy_tx=st.floats(1e-6, 1.0), seed=st.integers(1, 30))
def test_link_table_is_exact_over_the_channel_parameters(
        exponent, floor, alpha, tx_range, energy_tx, seed):
    # Each built link is the two laws with the builtin clamp, bit for bit:
    # the clamp's floor end is reached by long links (and by every link at
    # floor 1.0), its upper end by short ones.
    n = 30
    cfg = _field_config(n, tx_range * math.sqrt(n * math.pi / 10), tx_range)
    cfg.rng_seed, cfg.energy_tx = seed, energy_tx
    cfg.loss_exponent, cfg.min_delivery_prob = exponent, floor
    cfg.path_loss_alpha = alpha
    sim = Simulation(cfg)
    tx_nj = energy_costs_nj(cfg)[0]
    graph = _all_pairs(sim.positions, tx_range)
    assert {x: list(peers) for x, peers in sim.links.items()} == {
        x: [y for y, _ in peers] for x, peers in graph.items()}
    for x, peers in sim.links.items():
        for y, link in peers.items():
            d = dist(sim.positions[x], sim.positions[y])
            assert link == (
                min(1.0, max(floor, 1.0 - (d / tx_range) ** exponent)),
                d / LIGHT_SPEED, round(tx_nj * (d / tx_range) ** alpha))


def test_each_range_graph_edge_is_measured_once(monkeypatch):
    # On a field smaller than one cell every pair of nodes is a candidate:
    # each pair's distance is computed once, by `math.hypot`, and goes into
    # both ends' lists.
    calls = []
    hypot = math.hypot

    def counted(*args):
        calls.append(args)
        return hypot(*args)

    rng = random.Random(5)
    n, tx_range = 40, 100.0
    positions = {nid: Position(rng.uniform(0.0, 70.0), rng.uniform(0.0, 70.0))
                 for nid in range(n)}
    monkeypatch.setattr(math, "hypot", counted)
    graph = _neighbours(positions, tx_range)
    monkeypatch.undo()
    assert len(calls) == n * (n - 1) // 2
    assert graph == _all_pairs(positions, tx_range)
    assert all(len(peers) == n - 1 for peers in graph.values())


def test_set_up_builds_one_range_graph_per_placement(monkeypatch):
    # Each placement attempt whose sinks both hear a node buckets its
    # positions into cells once, in `_neighbours`, and the accepted
    # placement's graph is the one the links are built from: cell indices
    # are counted by their `math.floor` calls, two per node, so a second
    # index anywhere in set-up shows here. At default.yaml's seed, 1, four
    # placements are drawn and the third leaves a sink unheard: it makes no
    # positions and no graph.
    calls = {"_sink_unheard": 0, "_neighbours": 0, "_connected": 0,
             "floor": 0, "Position": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("_sink_unheard", "_neighbours", "_connected", "Position"):
        monkeypatch.setattr(simkernel, name,
                            counted(name, getattr(simkernel, name)))
    monkeypatch.setattr(math, "floor", counted("floor", math.floor))
    cfg = _default_config()
    sim = Simulation(cfg)
    assert calls["_sink_unheard"] == 4
    assert calls["_neighbours"] == calls["_connected"] == 3
    assert calls["floor"] == 2 * cfg.node_count * 3
    assert calls["Position"] == cfg.node_count * 3
    assert not hasattr(simkernel, "_Grid")
    assert len(sim.links) == cfg.node_count


# ---- end-to-end run invariants -------------------------------------------

def test_invalid_config_rejected_at_construction():
    cfg = mini_config()
    cfg.protocol = "flooding"
    with pytest.raises(ValueError):
        Simulation(cfg)


def test_run_is_deterministic_to_the_byte():
    cfg = mini_config(critical_rate=0.2, rng_seed=3)
    traces = []
    rows = []
    for _ in range(2):
        buf = io.StringIO()
        sim = Simulation(cfg, trace=buf)
        ledger = sim.run()
        traces.append(buf.getvalue())
        rows.append((ledger.generated_total, ledger.delivered_total,
                     ledger.total_energy_nj))
    assert traces[0] == traces[1]
    assert len(traces[0]) > 1000
    assert rows[0] == rows[1]


def test_different_seeds_diverge():
    a = Simulation(mini_config(rng_seed=1)).run()
    b = Simulation(mini_config(rng_seed=2)).run()
    assert (a.generated_total, a.total_energy_nj) \
        != (b.generated_total, b.total_energy_nj)


@pytest.mark.parametrize("protocol", ["tdthr", "one_hop_velocity", "greedy_geo"])
def test_run_invariants_per_protocol(protocol):
    cfg = mini_config(protocol=protocol, critical_rate=0.25,
                      delay_responsive_rate=0.25,
                      reliability_responsive_rate=0.25, rng_seed=4)
    sim = Simulation(cfg)
    ledger = sim.run()
    assert ledger.generated_total > 10
    assert 0 < ledger.delivered_total <= ledger.generated_total
    # energy conservation is exact: ledger total == battery depletion
    assert ledger.total_energy_nj == sim.initial_minus_residual_nj()
    assert ledger.total_energy_nj == sim.energy_spent_by_nodes_nj()
    # every generated packet is delivered, dropped, or still outstanding
    assert ledger.accounting_closed()
    for cls, counters in ledger.per_class.items():
        for delay in counters.delays:
            assert delay > 0


def test_every_open_copy_is_queued_or_in_an_exchange_when_a_run_stops(
        monkeypatch):
    # No orphan: a copy the ledger still holds open is in some node's queue,
    # or in the `_TxState` of an exchange that has not delivered it, pending
    # on the heap (which keeps every event not run). A delivered exchange
    # handed the copy to its receiver. No node dies and nothing drains, so
    # the runs stop with traffic in flight. Accounting closes and energy
    # agrees three ways. A copy's lag time never rises along its path: at
    # each hop's `_start_tx` it is at most what it was at the hop before.
    open_copies = []
    relayed = []
    lags = {}   # packet id -> its lag time after each `_start_tx`, in order
    start_tx = Simulation._start_tx

    def started(self, node, packet, queue_wait):
        start_tx(self, node, packet, queue_wait)
        lags.setdefault(packet.packet_id, []).append(packet.lag_time)

    monkeypatch.setattr(Simulation, "_start_tx", started)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(cfg=small_runs())
    def run_stops(cfg):
        lags.clear()
        sim = Simulation(cfg)
        ledger = sim.run()
        assert ledger.accounting_closed()
        assert (ledger.total_energy_nj == sim.initial_minus_residual_nj()
                == sim.energy_spent_by_nodes_nj())
        for pid, seen in lags.items():
            assert all(a >= b for a, b in zip(seen, seen[1:])), (pid, seen)
        relayed.append(sum(len(seen) > 1 for seen in lags.values()))
        held = {entry.packet.packet_id for node in sim.nodes.values()
                for q in node.queues.queues for entry in q}
        held.update(item.packet.packet_id for *_, payload in sim._heap
                    for item in payload if isinstance(item, simkernel._TxState)
                    and not item.delivered_any)
        copies = {pid for _, _, ids, _ in ledger._open.values() for pid in ids}
        assert copies <= held, sorted(copies - held)
        open_copies.append(len(copies))

    run_stops()
    assert sum(n > 0 for n in open_copies) >= len(open_copies) // 4
    assert sum(n > 0 for n in relayed) >= len(relayed) // 2


def _watch_hop_ends(monkeypatch):
    """Keep every `_TxState` built, in order, and count for each how often
    `_end_hop` ends it (`ends`), checking at each end that the node given is
    the state's sender and is not busy afterwards. `dead` counts the ends
    of a dead sender. The states themselves are kept: an id() is reused
    once its object is freed."""
    built, ends, dead = [], {}, [0]
    init, end_hop = simkernel._TxState.__init__, Simulation._end_hop

    def building(self, *args):
        init(self, *args)
        built.append(self)

    def ending(self, node, state, cause=None):
        end_hop(self, node, state, cause)
        assert node.id == state.sender and not node.busy
        ends[state] = ends.get(state, 0) + 1
        dead[0] += not node.alive

    monkeypatch.setattr(simkernel._TxState, "__init__", building)
    monkeypatch.setattr(Simulation, "_end_hop", ending)
    return built, ends, dead


def _assert_each_hop_ends_once(sim, built, ends) -> int:
    """Every exchange built in `sim`'s run has ended exactly once, but one
    that an event on the heap still holds, which has not ended. Returns how
    many are held."""
    held = {item for *_, payload in sim._heap for item in payload
            if isinstance(item, simkernel._TxState)}
    assert held <= set(built)
    for state in built:
        assert ends.get(state, 0) == (state not in held), state.packet
    return len(held)


def test_each_exchange_ends_once(monkeypatch):
    # One exit for a hop: every `_TxState` reaches `_end_hop` once, through
    # a deadline, a void, an ACK, or a timer that gives up, unless the run
    # stops while an event still holds it; its sender is then free.
    built, ends, _ = _watch_hop_ends(monkeypatch)
    runs = []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(cfg=small_runs())
    def run_stops(cfg):
        built.clear()
        ends.clear()
        sim = Simulation(cfg)
        sim.run()
        runs.append((len(built), _assert_each_hop_ends_once(sim, built, ends)))

    run_stops()
    assert sum(n for n, _ in runs) > 1000
    assert sum(held > 0 for _, held in runs) >= len(runs) // 4


@pytest.mark.parametrize("seed", range(1, 4))
def test_each_exchange_of_a_dying_sender_ends_once(monkeypatch, seed):
    # the same on runs where relays and the source die: a sender that dies
    # paying for an attempt or an ACK, or before its timer fires, ends its
    # exchange there, once
    built, ends, dead = _watch_hop_ends(monkeypatch)
    cfg = mini_config(stop_energy_fraction=0.0, duration=60.0, rng_seed=seed)
    cfg.energy_initial = battery_j(cfg, tx=3, rx=2)
    sim = Simulation(cfg)
    sim.run()
    _assert_each_hop_ends_once(sim, built, ends)
    assert len(built) > 5 and dead[0] > 0


def _kill(sim, node):
    sim._die(node)


def _leave_half_an_idle_charge(sim, node):
    node.energy.spent_nj = node.energy.initial_nj - sim._idle_nj // 2


@pytest.mark.parametrize("handler,strike", [
    ("_ev_ack_rx", _kill),                       # dead before its ACK
    ("_ev_ack_rx", _leave_half_an_idle_charge),  # killed paying for it
    ("_ev_ack_timeout", _kill),                  # dead before its timer
])
def test_an_exchange_whose_sender_dies_ends_once(monkeypatch, handler, strike):
    # exits too rare to count on: at the first such event of a relay, the
    # sender is struck just before the handler runs, which ends its
    # exchange there, once, with the sender dead and not busy
    built, ends, dead = _watch_hop_ends(monkeypatch)
    original = getattr(Simulation, handler)
    struck = []

    def striking(self, state):
        node = self.nodes[state.sender]
        if not struck and node.alive and state.sender != SOURCE:
            strike(self, node)
            struck.append(state)
        original(self, state)

    monkeypatch.setattr(Simulation, handler, striking)
    sim = Simulation(mini_config(rng_seed=3))
    sim.run()
    _assert_each_hop_ends_once(sim, built, ends)
    assert len(struck) == 1 and ends[struck[0]] == 1 and dead[0] >= 1
    assert not sim.nodes[struck[0].sender].alive


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=small_runs())
def test_a_random_small_run_is_the_same_traced_untraced_and_twice(cfg):
    # On the no-orphan property's runs: writing the trace changes nothing
    # the run computes, and a second run writes the same trace text.
    def run(trace):
        ledger = Simulation(cfg, trace=trace).run()
        return metrics.csv_row(ledger, config_hash(cfg), cfg.rng_seed,
                               cfg.protocol, cfg.critical_rate, cfg.duration)

    untraced = run(None)
    traces = [io.StringIO(), io.StringIO()]
    rows = [run(buf) for buf in traces]
    assert rows == [untraced, untraced]
    assert traces[0].getvalue() == traces[1].getvalue()
    assert " generated " in traces[0].getvalue()


def test_no_event_is_scheduled_in_the_past(monkeypatch):
    # On the no-orphan property's runs, every push onto the event heap is
    # at or after the simulation's `now`, with no slack: `_schedule`'s, a
    # beacon's batched receptions, `_deliver_hellos`' push-back and `run()`'s
    # return of the event past the stop. The kernel reaches the heap only
    # through its `heapq` module, here a stand-in that records each push.
    building, pushes = [], []
    init = Simulation.__init__

    def init_watched(self, *args, **kwargs):
        building.append(self)
        init(self, *args, **kwargs)

    def heappush(heap, item):
        pushes.append((item[0], building[-1].now))
        heapq.heappush(heap, item)

    monkeypatch.setattr(Simulation, "__init__", init_watched)
    monkeypatch.setattr(simkernel, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cfg=small_runs())
    def run(cfg):
        Simulation(cfg).run()

    run()
    assert len(pushes) > 10_000
    assert [(t, now) for t, now in pushes if t < now] == []


@pytest.mark.parametrize("protocol", ["tdthr", "one_hop_velocity", "greedy_geo"])
def test_a_run_leaves_no_reference_cycle_and_the_collector_as_it_was(protocol):
    # `Simulation` pauses the cyclic collector while it builds and runs,
    # which is safe only while neither leaves a cycle for it to find: with
    # the collector off throughout, a collection after the run, the
    # simulation still referenced, finds nothing, and the finished
    # simulation is freed by reference counting once it is dropped. The
    # runs die, drain at the energy stop and (for tdthr, which expires
    # packets in-network) drop late packets. The caller's collector
    # setting, on or off, is what it finds after each call, and after a
    # construction that raises.
    cfg = mini_config(protocol=protocol, rng_seed=4, rate_bytes_per_s=2000.0,
                      deadline=0.05, critical_rate=0.25,
                      delay_responsive_rate=0.25,
                      reliability_responsive_rate=0.25, traffic_start=11.0,
                      duration=60.0, stop_energy_fraction=0.02,
                      drain_window=2.0)
    # the idle charges cover the beacon warm-up, so the transmissions decide
    # when the first node runs low and dies
    cfg.energy_initial = battery_j(cfg, tx=38, idle=60)
    assert gc.isenabled()
    sim = Simulation(cfg)
    assert gc.isenabled()
    sim.run()
    assert gc.isenabled()
    bad = mini_config(protocol=protocol, duration=-1.0)
    with pytest.raises(ValueError):
        Simulation(bad)
    assert gc.isenabled()

    buf = io.StringIO()
    sim = None
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(cfg, trace=buf)
        assert not gc.isenabled()
        ledger = sim.run()
        assert not gc.isenabled()
        assert gc.collect() == 0
        with pytest.raises(ValueError):
            Simulation(bad)
        assert not gc.isenabled()
        drained = sim._drain_until is not None
        finished = weakref.ref(sim)
        sim = None
        assert finished() is None
        assert gc.collect() == 0
        # built and dropped without running: its pending events hold no
        # reference to it either
        unrun = weakref.ref(Simulation(cfg))
        assert unrun() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    trace = buf.getvalue()
    assert " death " in trace and " energy_low " in trace
    assert drained and ledger.first_death_time is not None
    assert ledger.accounting_closed() and ledger.delivered_total > 0
    assert (" deadline\n" in trace) == (protocol == "tdthr")


# sha256 of the event trace and the metrics CSV row of one short, congested
# run per protocol: duplicates, promotions, deadline drops, missed
# velocities, voids and deaths all occur in these runs. `desk_revisit` is
# the desk run in which packets come back to the source. A refactor must
# keep them; a change of behaviour updates them on purpose.
_FINGERPRINTS = {
    "tdthr": (
        "f5d64a85a887bae158172f307815fbce1095bb0ba10629b7b4b6294bc6b244d3",
        "dd8c6500c5ef,1,tdthr,0.25,0.4,0.857143,0,0.333333,0.109878,0.130924,,"
        "0.0719006,0.113661,0.169884,,0.0768293,0.833333,1.22511,11.4631,"
        "13.4762,0,0,1,9,3,24,11,26,8"),
    "one_hop_velocity": (
        "1bbd4dd3c4fd1455e2839b6f78d2fc95e219a053415bf1ed8bbaae817a084d4c",
        "16ec5478eba9,1,one_hop_velocity,0.25,0.6,0.4,0.538462,0.625,0.111197,"
        "0.109084,0.0982245,0.0798591,0.119673,0.114864,0.132523,0.116329,"
        "0.516129,0.633807,11.5962,10.7747,13,0,0,0,1,31,17,0,68"),
    "greedy_geo": (
        "a9b311a7b487206a933b7db37ca4a1ba67ccd991006cd16e1093f146c953dede",
        "bfdf0281d35c,1,greedy_geo,0.25,0.833333,0.75,0.714286,1,0.101355,"
        "0.0994352,0.0648396,0.0740819,0.138558,0.131165,0.110847,0.106294,"
        "0.655172,0.499747,20,11.9939,5,0,0,0,0,29,24,0,0"),
    "desk_revisit": (
        "15f21ac781143f1c8dc93bf4fdc6af7710169ca8ae79ebd7b9a8b00943a7d8dd",
        "cb856004a5a5,1000,tdthr,0.25,0.435897,0.567568,0.363636,0.6,0.168087,"
        "0.180022,0.120082,0.146894,0.530555,0.445143,0.185819,0.492384,"
        "0.0447761,4.43242,20,288.108,56,0,5,0,0,134,65,4,0"),
}


def _congested_config(protocol):
    return mini_config(protocol=protocol, rng_seed=1, rate_bytes_per_s=8000.0,
                       deadline=0.05, critical_rate=0.25,
                       delay_responsive_rate=0.25,
                       reliability_responsive_rate=0.25, traffic_start=11.0,
                       duration=20.0)


def _revisit_config():
    """`configs/desk.yaml` under the benchmark's desk_mixed_load overrides,
    at the seed of its first job: four classes at 4 kB/s, no energy stop."""
    cfg = load_config(f"{CONFIG_DIR}/desk.yaml")
    cfg.critical_rate = cfg.delay_responsive_rate = 0.25
    cfg.reliability_responsive_rate = 0.25
    cfg.rate_bytes_per_s = 4000.0
    cfg.energy_initial = 1000.0
    cfg.stop_energy_fraction = 0.0
    cfg.duration = 20.0
    cfg.rng_seed = 1000
    return cfg


@pytest.mark.parametrize("name", sorted(_FINGERPRINTS))
def test_behaviour_fingerprint(name):
    cfg = (_revisit_config() if name == "desk_revisit"
           else _congested_config(name))
    buf = io.StringIO()
    ledger = Simulation(cfg, trace=buf).run()
    row = metrics.csv_row(ledger, config_hash(cfg), cfg.rng_seed, cfg.protocol,
                          cfg.critical_rate, cfg.duration)
    trace_sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (trace_sha, row) == _FINGERPRINTS[name]


def test_a_packet_back_at_its_source_is_forwarded_and_promoted_by_its_own_visit(
        monkeypatch):
    # Greedy hops approach the sink, and a detour skips the nodes of the
    # packet's `hop_trace`, which leaves out the source: a packet may come
    # back to its source. In this run some do (packet 32 by node 38, to
    # name one). None is discarded silently: each is forwarded again,
    # dropped for a cause, or still queued when the run stops. Every
    # promotion fires at the deadline armed by its own visit's enqueue,
    # never at an earlier one's.
    armed = {}      # (bank, packet id) -> deadline of the packet's last entry
    promotions = []
    enqueue, expire = QueueBank.enqueue, QueueBank.on_timer_expire

    def enqueued(bank, packet, now):
        entry = enqueue(bank, packet, now)
        if entry is not None:
            armed[bank, packet.packet_id] = entry.timer_deadline
        return entry

    def expired(bank, entry, now):
        promoted = expire(bank, entry, now)
        if promoted:
            promotions.append((now, armed[bank, entry.packet.packet_id]))
        return promoted

    monkeypatch.setattr(QueueBank, "enqueue", enqueued)
    monkeypatch.setattr(QueueBank, "on_timer_expire", expired)
    buf = io.StringIO()
    sim = Simulation(_revisit_config(), trace=buf)
    sim.run()
    source = str(SOURCE)
    back, forwarded, dropped = set(), set(), set()
    for fields in (line.split() for line in buf.getvalue().splitlines()):
        if fields[1:3] == [source, "data_rx"]:
            back.add(fields[3])
        elif fields[1:3] == [source, "tx_attempt"] and fields[3] in back:
            forwarded.add(fields[3])
        elif fields[1:3] == [source, "drop"] and fields[3] in back:
            dropped.add(fields[3])
    assert "32" in forwarded and len(back) > 10
    queued = {str(e.packet.packet_id) for q in sim.nodes[SOURCE].queues.queues
              for e in q}
    assert back == forwarded | dropped | queued
    assert promotions
    assert all(now == deadline for now, deadline in promotions)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_traced_and_untraced_runs_agree(protocol):
    # writing the trace changes nothing the run computes: details are
    # formatted only for a trace that is written
    cfg = _congested_config(protocol)
    untraced = Simulation(cfg).run()
    buf = io.StringIO()
    traced = Simulation(cfg, trace=buf).run()
    assert buf.getvalue().count("tx_attempt") > 100
    assert vars(traced) == vars(untraced)
    rows = [metrics.csv_row(ledger, config_hash(cfg), cfg.rng_seed,
                            cfg.protocol, cfg.critical_rate, cfg.duration)
            for ledger in (untraced, traced)]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_one_decision_reads_the_table_once(monkeypatch, protocol):
    # each forwarding decision reads its node's table once, through
    # `live_records`, and filters F1 at most once; a decision that a packet
    # in recovery leaves through `_detour`, not having escaped its anchor,
    # filters none. Each beacon of a live node reads the table once, through
    # the `evict_stale` whose survivors `_build_hello` is given.
    calls = {"live_records": 0, "_select": 0, "evict_stale": 0,
             "live_beacons": 0, "favorable_one_hop": 0, "_detour": 0}
    f1_per_decision = []      # favorable_one_hop calls of each decision
    anchored_detours = []     # ... of each that detoured from the anchor

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    ev_hello = Simulation._ev_hello

    def beacon(self, nid):
        calls["live_beacons"] += self.nodes[nid].alive
        ev_hello(self, nid)

    counted(NeighborTable, "live_records")
    counted(NeighborTable, "evict_stale")
    counted(NeighborTable, "favorable_one_hop")
    counted(Simulation, "_detour")
    counted(Simulation, "_select")
    select = Simulation._select   # the counting wrapper

    def decision(self, node, packet):
        anchor = packet.recovery_anchor
        stays = (anchor is not None and self.sink_distance[
            packet.destination_sink][node.id] >= anchor)
        f1_before, detours_before = calls["favorable_one_hop"], calls["_detour"]
        try:
            return select(self, node, packet)
        finally:
            f1 = calls["favorable_one_hop"] - f1_before
            f1_per_decision.append(f1)
            if stays and calls["_detour"] > detours_before:
                anchored_detours.append(f1)

    monkeypatch.setattr(Simulation, "_select", decision)
    monkeypatch.setattr(Simulation, "_ev_hello", beacon)
    sim = Simulation(_congested_config(protocol))
    sim.run()
    assert calls["_select"] > 100
    assert calls["live_records"] == calls["_select"]
    assert calls["evict_stale"] == calls["live_beacons"] >= sim.metrics.hello_sent
    assert sim.metrics.hello_sent > 100
    assert set(f1_per_decision) <= {0, 1}
    assert anchored_detours == [0] * len(anchored_detours)
    if PROTOCOLS[protocol].recover is not None:
        assert len(anchored_detours) > 10
    else:
        assert calls["_detour"] == 0


def test_neighbor_records_keep_the_dq_they_were_sent(monkeypatch):
    # Tables share each HELLO's dq dict, and keep each ACK's, by reference.
    # Every dict is copied when it is built; at the end of a congested run
    # each record's dq must still equal the copy from the last HELLO or ACK
    # its neighbour sent, so a dict mutated in place fails here. The record's
    # energy is that message's, and so is its prr_xy where the message
    # reports one; where it does not, the record keeps the value it had, or
    # 1.0 if the message created it.
    sent = {}   # id(hello) -> (hello, dq, energy, reverse_prr as built)
    last = {}   # (owner, neighbour) -> (dq, energy, prr_xy, kind) expected
    build_hello = Simulation._build_hello
    process_hello = NeighborTable.process_hello
    process_ack_info = NeighborTable.process_ack_info

    def built(self, node, live):
        hello = build_hello(self, node, live)
        sent[id(hello)] = (hello, dict(hello.dq), hello.energy,
                           dict(hello.reverse_prr))
        return hello

    def expect(table, sender, dq, energy, prr_xy, kind):
        rec = table.records.get(sender)
        if prr_xy is None:
            prr_xy = 1.0 if rec is None else rec.prr_xy
        last[(table.owner, sender)] = (dq, energy, prr_xy, kind)

    def hello_heard(self, hello, now):
        _, dq, energy, reverse_prr = sent[id(hello)]
        expect(self, hello.sender, dq, energy, reverse_prr.get(self.owner),
               "hello")
        process_hello(self, hello, now)

    def ack_heard(self, sender, energy, dq, prr_xy, now):
        expect(self, sender, dict(dq), energy, prr_xy, "ack")
        process_ack_info(self, sender, energy, dq, prr_xy, now)

    monkeypatch.setattr(Simulation, "_build_hello", built)
    monkeypatch.setattr(NeighborTable, "process_hello", hello_heard)
    monkeypatch.setattr(NeighborTable, "process_ack_info", ack_heard)
    cfg = _congested_config("tdthr")
    cfg.energy_initial, cfg.stop_energy_fraction, cfg.duration = 1000.0, 0.0, 25.0
    sim = Simulation(cfg)
    sim.run()
    records = [(nid, rec) for nid, node in sim.nodes.items()
               for rec in node.table.records.values()]
    assert len(records) > 5 * len(sim.nodes)
    for nid, rec in records:
        assert (rec.dq, rec.energy, rec.prr_xy) == last[(nid, rec.neighbor)][:3]
    # both kinds of message have the last word somewhere, and the checked
    # fields are not all at their defaults
    kinds = {last[(nid, rec.neighbor)][3] for nid, rec in records}
    assert kinds == {"hello", "ack"}
    assert sum(rec.prr_xy < 1.0 for _, rec in records) > 10
    assert len({rec.energy for _, rec in records}) > 50
    # queues built up, and estimates moved after they were sent
    assert sum(any(v > 0 for v in rec.dq.values()) for _, rec in records) > 100
    current = {nid: node.delays.dq for nid, node in sim.nodes.items()}
    assert sum(rec.dq != current[rec.neighbor] for _, rec in records) > 50


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_ack_timer_can_act(monkeypatch, protocol):
    # a timer is armed only for an exchange that failed, so none finds its
    # exchange already acknowledged or abandoned. The finished states are
    # kept themselves: an id() is reused once its object is freed.
    finished = set()
    late = []
    ack_rx, timeout = Simulation._ev_ack_rx, Simulation._ev_ack_timeout

    def acked(self, state):
        ack_rx(self, state)
        finished.add(state)

    def timed_out(self, state):
        late.append(state in finished)
        attempts = state.attempts
        timeout(self, state)
        if state.attempts == attempts:   # no new attempt: abandoned
            finished.add(state)

    monkeypatch.setattr(Simulation, "_ev_ack_rx", acked)
    monkeypatch.setattr(Simulation, "_ev_ack_timeout", timed_out)
    Simulation(_congested_config(protocol)).run()
    assert len(late) > 50 and len(finished) > 50
    assert not any(late)


def test_set_up_converts_each_energy_to_nanojoules():
    # the shipped energies: a 2 J battery, tx 0.0522 J at full range,
    # rx 0.0591 J per data reception and 3 uJ per idle charge
    sim = Simulation(mini_config())
    assert sim.nodes[SOURCE].energy.initial_nj == 2_000_000_000
    assert (sim._tx_nj, sim._rx_nj, sim._idle_nj) == (
        52_200_000, 59_100_000, 3_000)


def test_set_up_takes_every_cost_from_the_energy_reading(monkeypatch):
    # `energy_costs_nj` is the one statement of how energies become costs:
    # given three other costs, set-up fixes those, and every link costs the
    # transmission's times its path-loss factor, which is 1 at full range
    costs = (7_000_003, 500_009, 11)
    monkeypatch.setattr(simkernel, "energy_costs_nj", lambda cfg: costs)
    cfg = mini_config()
    sim = Simulation(cfg)
    assert (sim._tx_nj, sim._rx_nj, sim._idle_nj) == costs
    for x, peers in sim.links.items():
        for y, link in peers.items():
            r = dist(sim.positions[x], sim.positions[y]) / cfg.tx_range
            assert link[2] == round(costs[0] * r ** cfg.path_loss_alpha)


@pytest.mark.parametrize("energies", [(0.0522, 0.0591, 0.000003),
                                      (0.3, 1.7, 1e-6), (1e-9, 2.5e-4, 0.02)])
def test_a_battery_sized_in_costs_pays_exactly_those_costs(energies):
    # tests size a battery as a number of actions (`helpers.battery_j`); in
    # nanojoules it is exactly the sum of their costs
    cfg = mini_config()
    cfg.energy_tx, cfg.energy_rx, cfg.energy_idle = energies
    tx, rx, idle = energy_costs_nj(cfg)
    counts = [0, 1, 2, 3, 38, 60] + list(range(499, 10**4, 1000)) + [10**4]
    for k in counts:
        for m in counts:
            for i in counts:
                assert joules_to_nj(battery_j(cfg, tx=k, rx=m, idle=i)) == (
                    k * tx + m * rx + i * idle)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_charge_is_a_cost_fixed_at_set_up(monkeypatch, protocol):
    # a data transmission costs its link's transmit cost; a reception costs
    # rx; everything else costs idle. The power score ranks by the same
    # link cost that is charged.
    charges, ranked = [], []
    spend = Simulation._spend
    pairs_of = NeighborTable.favorable_pairs

    def watched(self, node, cost_nj):
        charges.append((node.id, cost_nj))
        return spend(self, node, cost_nj)

    def priced(self, *args):
        pairs = pairs_of(self, *args)
        ranked.extend((self.owner, p.y, p.tx_cost_y) for p in pairs)
        return pairs

    monkeypatch.setattr(Simulation, "_spend", watched)
    monkeypatch.setattr(NeighborTable, "favorable_pairs", priced)
    sim = Simulation(_congested_config(protocol))
    sim.run()
    kinds = []
    for nid, cost in charges:
        tx = {link[2] for link in sim.links[nid].values()}
        kind = ("tx" if cost in tx else "rx" if cost == sim._rx_nj
                else "idle" if cost == sim._idle_nj else cost)
        kinds.append(kind)
    assert set(kinds) == {"tx", "rx", "idle"}
    assert sim.metrics.total_energy_nj == sim.energy_spent_by_nodes_nj()
    # only the two-hop protocol builds pairs
    assert bool(ranked) == (protocol == "tdthr")
    assert all(cost == sim.links[x][y][2] for x, y, cost in ranked)


def _sink_gap(cfg):
    """|d(source, primary) - d(source, secondary)|, as the kernel measures."""
    src, sinks = cfg.source_position, cfg.sink_positions
    return abs(dist(src, sinks[PRIMARY_SINK]) - dist(src, sinks[SECONDARY_SINK]))


def test_shipped_sinks_are_equidistant_from_the_source():
    # the source at the field centre, the sinks on its diagonal at equal
    # insets: each CBR copy may go to either sink, and they alternate
    for cfg in (_default_config(), mini_config(), load_config(
            f"{CONFIG_DIR}/desk.yaml")):
        assert _sink_gap(cfg) <= 1.2e-10


@settings(derandomize=True, max_examples=300, deadline=None)
@given(width=st.floats(1e-3, 1e6), height=st.floats(1e-3, 1e6),
       inset_share=st.floats(0.0, 1.0, exclude_max=True))
def test_sinks_are_equidistant_on_any_valid_field(width, height, inset_share):
    cfg = SimConfig(field_width=width, field_height=height,
                    node_density=SimConfig().node_count / (width * height),
                    sink_inset=inset_share * min(width, height) / 2)
    assume(cfg.validate() == [])
    assert _sink_gap(cfg) <= 1.2e-10


def test_single_copies_alternate_between_the_sinks(monkeypatch):
    made = []
    make = Simulation._make_packet

    def watched(self, cls, sink, logical):
        made.append(sink)
        return make(self, cls, sink, logical)

    monkeypatch.setattr(Simulation, "_make_packet", watched)
    ledger = Simulation(mini_config(
        critical_rate=0.5, reliability_responsive_rate=0.25,
        duplicate=False, duration=20.0)).run()
    assert len(made) == ledger.generated_total > 10
    assert made == [(PRIMARY_SINK, SECONDARY_SINK)[i % 2]
                    for i in range(len(made))]


def test_a_run_never_hashes_through_enum(monkeypatch):
    # PacketClass members hash by identity; Enum.__hash__ is a Python
    # function and would run on every per-class dict lookup
    calls = []
    enum_hash = enum.Enum.__hash__

    def counted(self):
        calls.append(self)
        return enum_hash(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counted)
    ledger = Simulation(_congested_config("tdthr")).run()
    assert ledger.delivered_total > 0
    assert calls == []


def test_the_per_event_path_reads_no_property(monkeypatch):
    # a property read costs several slot reads: charges, beacons, ACKs,
    # enqueues and the selection keys read slots instead. The run has the
    # energy stop on and drains, so every charge tests the threshold.
    read = []
    getter = EnergyBudget.residual_nj.fget

    def counted(self):
        read.append("residual_nj")
        return getter(self)
    monkeypatch.setattr(EnergyBudget, "residual_nj", property(counted))
    cfg = _congested_config("tdthr")
    cfg.energy_initial = battery_j(cfg, tx=38)
    assert cfg.stop_energy_fraction > 0
    buf = io.StringIO()
    sim = Simulation(cfg, trace=buf)
    ledger = sim.run()
    assert ledger.delivered_total > 0 and " energy_low " in buf.getvalue()
    assert read == []
    # the guard itself sees a read
    assert sim.nodes[SOURCE].energy.residual_nj >= 0
    assert read == ["residual_nj"]


@pytest.mark.parametrize("w", [0.0, 0.008, 1.0, 5.0, 600.0, 1800.0])
def test_backoff_draw_equals_uniform_bit_for_bit(w):
    # `_begin_attempt` draws its backoff, `generate_topology` each
    # coordinate (fields 600 and 1800 m wide) and `_schedule_initial` each
    # first beacon's offset (a 5 s period) as `w * rng.random()`, which is
    # what `rng.uniform(0.0, w)` computes: the same float from the same one
    # draw. An interpreter whose `uniform` differs fails here, not in a
    # trace.
    for seed in (0, 1, 7, 2024, "run:3"):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert a.uniform(0.0, w).hex() == (w * b.random()).hex()
        assert a.getstate() == b.getstate()


def test_duplication_only_for_loss_averse_classes():
    base = dict(critical_rate=0.5, reliability_responsive_rate=0.25,
                delay_responsive_rate=0.25, rng_seed=6, duration=25.0)
    dup = Simulation(mini_config(**base)).run()
    plain = Simulation(mini_config(duplicate=False, **base)).run()
    assert dup.duplicates_generated > 0
    assert plain.duplicates_generated == 0


def test_sinks_never_spend_energy():
    cfg = mini_config(rng_seed=7)
    sim = Simulation(cfg)
    sim.run()
    sinks = [sim.nodes[PRIMARY_SINK], sim.nodes[SECONDARY_SINK]]
    assert sim.metrics.delivered_total > 0
    assert [sink.energy.spent_nj for sink in sinks] == [0, 0]
    assert sim.nodes[SOURCE].energy.spent_nj > 0
    # mains power: a sink affords any cost, and the ledger does not move
    total = sim.metrics.total_energy_nj
    for sink in sinks:
        assert sim._spend(sink, sink.energy.initial_nj + 1) is True
        assert sink.alive and sink.energy.spent_nj == 0
    assert sim.metrics.total_energy_nj == total


def test_unaffordable_cost_is_charged_then_kills():
    # the low-energy mark sits at 10 nJ, so only the fatal charge crosses it
    buf = io.StringIO()
    sim = Simulation(mini_config(stop_energy_fraction=5e-9), trace=buf)
    relay = sim.nodes[7]
    relay.energy.spent_nj = relay.energy.initial_nj - 10
    assert sim._spend(relay, 12) is False
    assert not relay.alive and relay.energy.residual_nj == 0
    assert sim.metrics.total_energy_nj == 10
    kinds = [line.split()[2] for line in buf.getvalue().splitlines()]
    assert kinds[:2] == ["energy_low", "death"]


def _starve_first(monkeypatch, name, pick, residual_nj):
    """Run a mini simulation with `Simulation.<name>` wrapped: at the first
    call for which `pick(sim, *args)` returns `(node id, ...)`, that node
    is left `residual_nj(sim)` before the handler runs, and must be dead
    with nothing left after it. Returns the trace lines' fields after the
    time stamp, the simulation, and what `pick` returned."""
    handler = getattr(Simulation, name)
    starved, taken = [], []

    def starving(self, *args):
        chosen = None if starved else pick(self, *args)
        if chosen is not None:
            energy = self.nodes[chosen[0]].energy
            taken.append(energy.initial_nj - residual_nj(self) - energy.spent_nj)
            energy.spent_nj += taken[0]
            starved.append(chosen)
        handler(self, *args)
        if chosen is not None:
            node = self.nodes[chosen[0]]
            assert not node.alive and node.energy.residual_nj == 0

    monkeypatch.setattr(Simulation, name, starving)
    buf = io.StringIO()
    sim = Simulation(mini_config(rng_seed=3), trace=buf)
    ledger = sim.run()
    assert len(starved) == 1
    assert ledger.accounting_closed()
    # conservation, counting the energy taken outside the ledger
    assert ledger.total_energy_nj + taken[0] == sim.energy_spent_by_nodes_nj()
    return [line.split()[1:] for line in buf.getvalue().splitlines()], sim, \
        starved[0]


def test_a_receiver_that_cannot_pay_for_its_ack_dies(monkeypatch):
    # a relay that affords a reception but not its ACK's idle charge pays
    # what it has and dies. The ACK still goes out, and the fresh packet
    # dies with the relay.
    def fresh_at_relay(sim, state, seq):
        receiver = sim.nodes[state.next_hop]
        if (receiver.alive and not receiver.is_sink
                and not state.delivered_any):
            return state.next_hop, state.sender, state.packet.packet_id
        return None

    fields, _, (relay, sender, pid) = _starve_first(
        monkeypatch, "_ev_data_rx", fresh_at_relay,
        lambda sim: sim._rx_nj + sim._idle_nj // 2)
    relay, sender, pid = str(relay), str(sender), str(pid)
    death = fields.index([relay, "death", "-"])
    assert fields[death - 1] == [relay, "data_rx", pid, f"from={sender}"]
    assert [relay, "drop", pid, "dead_node"] in fields[death:]
    assert [sender, "ack_rx", pid, f"from={relay}"] in fields[death:]


def test_a_sender_that_cannot_pay_for_an_ack_dies(monkeypatch):
    # a relay that hears the ACK of its transmission but cannot pay for it
    # pays what it has, dies and ends the transmission, recording nothing
    # of the ACK
    def relay_sender(sim, state):
        if sim.nodes[state.sender].alive and state.sender != SOURCE:
            return state.sender, state.packet.packet_id
        return None

    fields, sim, (relay, pid) = _starve_first(
        monkeypatch, "_ev_ack_rx", relay_sender, lambda sim: sim._idle_nj // 2)
    assert not sim.nodes[relay].busy
    assert [str(relay), "death", "-"] in fields
    assert not any(f[:3] == [str(relay), "ack_rx", str(pid)] for f in fields)


@pytest.mark.parametrize("seed", range(1, 7))
def test_a_node_that_dies_transmitting_pays_what_it_had(seed):
    # batteries of a few data frames and no energy stop: relays and the
    # source die, some while transmitting, and each pays its last
    # nanojoules before it dies
    cfg = mini_config(stop_energy_fraction=0.0, duration=60.0, rng_seed=seed)
    cfg.energy_initial = battery_j(cfg, tx=3, rx=2)
    sim = Simulation(cfg)
    ledger = sim.run()
    dead = [node for node in sim.nodes.values()
            if not node.alive and not node.is_sink]
    assert dead
    assert [node.energy.residual_nj for node in dead] == [0] * len(dead)
    assert ledger.total_energy_nj == sim.initial_minus_residual_nj()
    assert ledger.total_energy_nj == sim.energy_spent_by_nodes_nj()


def test_first_death_ends_the_run_after_drain():
    # tiny batteries kill the first relay almost as soon as traffic starts
    cfg = mini_config(stop_energy_fraction=0.0, stop_at_first_death=True,
                      rng_seed=8)
    cfg.energy_initial = battery_j(cfg, tx=1, rx=1)
    sim = Simulation(cfg)
    ledger = sim.run()
    assert ledger.first_death_time is not None
    assert sim.now <= ledger.first_death_time + cfg.drain_window + 1e-9


def test_energy_floor_stops_generation_early():
    battery = battery_j(mini_config(), tx=38)
    stopped = Simulation(mini_config(stop_energy_fraction=0.9, rng_seed=9,
                                     energy_initial=battery)).run()
    full = Simulation(mini_config(stop_energy_fraction=0.0, rng_seed=9,
                                  energy_initial=battery)).run()
    assert stopped.generated_total < full.generated_total


_DYADIC = st.integers(0, 63).map(lambda k: k / 64)   # exact products


@settings(derandomize=True, max_examples=300, deadline=None)
@given(initial_nj=st.integers(1, 10**18) | st.integers(1, 10**18 // 64).map(
           lambda n: 64 * n),
       fraction=st.floats(0.0, 1.0, exclude_max=True) | _DYADIC)
@example(initial_nj=2_000_000_000, fraction=0.05)   # desk: 0.05 * initial = 1e8
@example(initial_nj=2**53 + 2, fraction=0.05)
@example(initial_nj=2**60, fraction=0.5)
@example(initial_nj=10**15, fraction=0.0)
def test_the_integer_drain_threshold_is_the_float_test(initial_nj, fraction):
    # `_spend` starts the drain when a node's spent nanojoules pass an
    # integer fixed at set-up; the rule it replaced was residual <
    # `fraction * initial_nj`, a float. Both must agree on every `spent_nj`
    # near the threshold, and at fraction 0 nothing drains.
    sim = Simulation(mini_config(energy_initial=initial_nj / 1e9,
                                 stop_energy_fraction=fraction))
    relay = sim.nodes[7]
    initial = relay.energy.initial_nj
    assert initial >= 1
    edge = initial - int(fraction * initial)
    spent_values = range(max(edge - 3, 0), min(edge + 4, initial + 1))
    if fraction == 0:
        assert edge == initial and initial in spent_values
    for spent in spent_values:
        relay.energy.spent_nj = spent
        sim._drain_until = None
        sim._spend(relay, 0)
        old = initial - spent < fraction * initial
        assert (sim._drain_until is not None) == old, spent
        assert not (fraction == 0 and old)


def _energy_state(sim) -> tuple:
    """What a charge can change: each node's life and budget, the drain,
    the ledger and the trace text."""
    return ([(n.id, n.alive, n.energy.spent_nj) for n in sim.nodes.values()],
            sim._drain_until, sim._stop_at, sim.metrics.total_energy_nj,
            sim.metrics.first_death_time, sim.metrics.partition_time,
            sim.metrics.per_class, sim.trace.getvalue())


def test_a_charge_is_the_charge_of_the_full_path():
    # `_spend` pays a charge that leaves `spent_nj` at or below
    # `_drain_after_nj` as an addition; `reference_spend` pays every charge
    # by deduct, record, drain test and death. On twin simulations both
    # give the same answer, budgets, drain, ledger and trace around both
    # edges, the drain threshold and the whole battery, for sinks, the
    # source and a relay, with and without a drain already begun.
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fraction=st.sampled_from([0.0, 0.05]),
           nid=st.sampled_from([PRIMARY_SINK, SECONDARY_SINK, SOURCE, 7]),
           edge=st.sampled_from(["drain", "initial"]),
           offset=st.integers(-2, 2),
           cost=st.sampled_from(["tx", "rx", "idle"]) | st.integers(0, 3 * 10**9),
           draining=st.booleans())
    def charge(fraction, nid, edge, offset, cost, draining):
        cfg = mini_config(stop_energy_fraction=fraction)
        fast, full = [Simulation(cfg, trace=io.StringIO()) for _ in range(2)]
        cost = dict(zip(["tx", "rx", "idle"], energy_costs_nj(cfg))).get(cost, cost)
        initial, limit = fast.nodes[nid].energy.initial_nj, fast._drain_after_nj
        target = limit if edge == "drain" else initial
        spent = min(max(target - cost + offset, 0), initial)
        for sim in (fast, full):
            sim.nodes[nid].energy.spent_nj = spent
            if draining:
                sim._begin_drain()
        paid = fast._spend(fast.nodes[nid], cost)
        assert paid == reference_spend(full, full.nodes[nid], cost)
        assert _energy_state(fast) == _energy_state(full)
        seen.update(name for name, hit in [
            ("sink", nid in (PRIMARY_SINK, SECONDARY_SINK)),
            ("cost 0", cost == 0), ("draining", draining),
            ("at the threshold", spent + cost == limit),
            ("one above it", spent + cost == limit + 1),
            ("the whole battery", spent + cost == initial),
            ("beyond it", spent + cost > initial),
            (f"fraction {fraction}", True)] if hit)

    charge()
    assert seen == {"sink", "cost 0", "draining", "at the threshold",
                    "one above it", "the whole battery", "beyond it",
                    "fraction 0.0", "fraction 0.05"}


class _PerRelayAudit(Simulation):
    """The audit as one full-path charge per live node, sinks included."""

    def _ev_audit(self):
        for node in self.nodes.values():
            if node.alive:
                reference_spend(self, node, self._idle_nj)
        if self._drain_until is None:
            self._schedule(self.now + self.cfg.audit_period, self._ev_audit)


def _heap_view(sim) -> list:
    """The heap's events by time, seq, handler and payload, the payload's
    objects by type: twin simulations hold equal but distinct objects."""
    return [(t, seq, handler.__name__,
             [x if isinstance(x, (int, float)) else type(x).__name__
              for x in payload]) for t, seq, handler, payload in sim._heap]


@pytest.mark.parametrize("fraction", [0.0, 0.05])
def test_the_audit_is_a_full_path_charge_per_relay(fraction):
    # Mid-field, relay 20's audit charge passes the drain threshold, and
    # relay 40, holding a queued packet, cannot pay and dies; relay 30 is
    # already dead, and every other relay pays in full. One audit on twin
    # simulations, the kernel's, whose charges at or below the threshold
    # are additions in `_spend`, and one that charges node by node through
    # the full path, leaves the same nodes, ledger, drain, heap and trace.
    cfg = mini_config(stop_energy_fraction=fraction)
    sims = [kind(cfg, trace=io.StringIO()) for kind in (Simulation, _PerRelayAudit)]
    for sim in sims:
        idle, limit = sim._idle_nj, sim._drain_after_nj
        draw = random.Random(5).randrange
        for node in sim.nodes.values():
            node.energy.spent_nj = 0 if node.is_sink else draw(limit - idle + 1)
        sim.nodes[20].energy.spent_nj = limit - idle + 1
        poor = sim.nodes[40]
        poor.energy.spent_nj = poor.energy.initial_nj - idle + 1
        sim.nodes[30].alive = False
        packet = sim._make_packet(PacketClass.REGULAR, PRIMARY_SINK, 0)
        sim.metrics.record_generated(0, PacketClass.REGULAR, 0.0,
                                     [packet.packet_id])
        sim._accept_packet(poor, packet)
        sim._ev_audit()
    kernel, per_relay = sims
    assert _energy_state(kernel) == _energy_state(per_relay)
    assert _heap_view(kernel) == _heap_view(per_relay)
    # the audit met both edges: relay 20 ran low (at fraction 0 it died),
    # relay 40 died and dropped its packet, and the rest paid in full
    lines = [line.split()[1:] for line in kernel.trace.getvalue().splitlines()]
    if fraction:
        assert lines[0] == ["20", "energy_low", "-"]
        assert kernel.nodes[20].alive
    else:
        assert lines[0] == ["20", "death", "-"]
    assert ["40", "death", "-"] in lines
    assert ["40", "drop", str(packet.packet_id), "dead_node"] in lines
    # a relay's death drains nothing here: the source lives and reaches a sink
    assert (kernel._drain_until is not None) == bool(fraction)
    assert sum(not node.alive for node in kernel.nodes.values()) == (
        2 if fraction else 3)


def test_trace_lines_are_well_formed():
    buf = io.StringIO()
    Simulation(mini_config(rng_seed=10, duration=20.0), trace=buf).run()
    lines = buf.getvalue().splitlines()
    assert lines
    times = []
    for line in lines:
        fields = line.split()
        assert len(fields) >= 4
        times.append(float(fields[0]))
    assert times == sorted(times)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_full_scale_default_config_builds_and_runs(seed):
    cfg = _default_config()
    cfg.rng_seed = seed
    cfg.duration = 6.0            # one HELLO round
    cfg.energy_initial = 1000.0   # so no node dies
    sim = Simulation(cfg)
    edges = {(x, y): link for x, peers in sim.links.items()
             for y, link in peers.items()}
    assert set(edges) == {(y, x) for x, y in edges}
    assert all(cfg.min_delivery_prob <= p <= 1 for p, *_ in edges.values())
    assert all(edges[(x, y)] == edges[(y, x)] for x, y in edges)
    ledger = sim.run()
    assert ledger.first_death_time is None
    assert ledger.accounting_closed()
    assert ledger.total_energy_nj == sim.initial_minus_residual_nj()
    assert ledger.total_energy_nj == sim.energy_spent_by_nodes_nj()
