"""Simulation-engine tests: configuration handling, topology generation, the
hidden link model, and end-to-end run invariants on a small field."""

import enum
import hashlib
import io
import math
import random

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdthr import metrics, simkernel
from tdthr.cli import config_hash, load_config
from tdthr.core import LIGHT_SPEED, EnergyBudget, Position, dist, joules_to_nj
from tdthr.neighborhood import NeighborTable
from tdthr.simkernel import (PRIMARY_SINK, SECONDARY_SINK, SOURCE, SimConfig,
                             Simulation, _connected, _neighbours,
                             delivery_probability, generate_topology, run)

from helpers import mini_config

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


def test_validation_messages():
    cfg = mini_config()
    cfg.node_count = 2
    cfg.critical_rate = 1.4
    cfg.protocol = "flooding"
    cfg.lifetime_metric = "vibes"
    errors = cfg.validate()
    joined = "\n".join(errors)
    assert "node_count" in joined
    assert "critical_rate" in joined
    assert "protocol.protocol" in joined
    assert "lifetime_metric" in joined


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

def test_delivery_probability_shape():
    cfg = mini_config()
    assert delivery_probability(0.0, cfg) == 1.0
    assert delivery_probability(cfg.tx_range, cfg) == cfg.min_delivery_prob
    last = 1.0
    for step in range(1, 11):
        p = delivery_probability(cfg.tx_range * step / 10, cfg)
        assert cfg.min_delivery_prob <= p <= last
        last = p


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


def test_impossible_topology_raises():
    cfg = mini_config(node_count=4, field_width=5000.0, field_height=5000.0,
                      node_density=4 / 25_000_000, sink_inset=0.0)
    with pytest.raises(ValueError):
        generate_topology(cfg, seed=1)


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
    # link's cost the nominal tx energy times the path-loss law
    # (d / tx_range) ** alpha, in nJ
    for sink in (PRIMARY_SINK, SECONDARY_SINK):
        assert sim.sink_distance[sink] == {
            nid: dist(pos, sim.positions[sink])
            for nid, pos in sim.positions.items()}
    tx_nj = joules_to_nj(cfg.energy_tx)
    for x, peers in sim.links.items():
        for y, (_, _, cost) in peers.items():
            d = dist(sim.positions[x], sim.positions[y])
            assert cost == round(tx_nj * (d / cfg.tx_range) ** cfg.path_loss_alpha)


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


def test_set_up_builds_one_range_graph_per_placement(monkeypatch):
    # Each placement attempt buckets its positions into cells once, in
    # `_neighbours`, and the accepted placement's graph is the one the links
    # are built from: cell indices are counted by their `math.floor` calls,
    # two per node, so a second index anywhere in set-up shows here.
    calls = {"_neighbours": 0, "_connected": 0, "floor": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("_neighbours", "_connected"):
        monkeypatch.setattr(simkernel, name,
                            counted(name, getattr(simkernel, name)))
    monkeypatch.setattr(math, "floor", counted("floor", math.floor))
    cfg = _default_config()
    sim = Simulation(cfg)
    assert calls["_connected"] >= 1
    assert calls["_neighbours"] == calls["_connected"]
    assert calls["floor"] == 2 * cfg.node_count * calls["_connected"]
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
    a = run(mini_config(rng_seed=1))
    b = run(mini_config(rng_seed=2))
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


# sha256 of the event trace and the metrics CSV row of one short, congested
# run per protocol: duplicates, promotions, deadline drops, missed
# velocities, voids and deaths all occur in these runs. A refactor must keep
# them; a change of behaviour updates them on purpose.
_FINGERPRINTS = {
    "tdthr": (
        "f5d64a85a887bae158172f307815fbce1095bb0ba10629b7b4b6294bc6b244d3",
        "89cdadcc4931,1,tdthr,0.25,0.4,0.857143,0,0.333333,0.109878,0.130924,,"
        "0.0719006,0.113661,0.169884,,0.0768293,0.833333,1.22511,11.4631,"
        "13.4762,0,0,1,9,3,24,11,26,8"),
    "one_hop_velocity": (
        "1bbd4dd3c4fd1455e2839b6f78d2fc95e219a053415bf1ed8bbaae817a084d4c",
        "7b8f6fe8a896,1,one_hop_velocity,0.25,0.6,0.4,0.538462,0.625,0.111197,"
        "0.109084,0.0982245,0.0798591,0.119673,0.114864,0.132523,0.116329,"
        "0.516129,0.633807,11.5962,10.7747,13,0,0,0,1,31,17,0,68"),
    "greedy_geo": (
        "a9b311a7b487206a933b7db37ca4a1ba67ccd991006cd16e1093f146c953dede",
        "bba43bf58891,1,greedy_geo,0.25,0.833333,0.75,0.714286,1,0.101355,"
        "0.0994352,0.0648396,0.0740819,0.138558,0.131165,0.110847,0.106294,"
        "0.655172,0.499747,20,11.9939,5,0,0,0,0,29,24,0,0"),
}


def _congested_config(protocol):
    return mini_config(protocol=protocol, rng_seed=1, rate_bytes_per_s=8000.0,
                       deadline=0.05, critical_rate=0.25,
                       delay_responsive_rate=0.25,
                       reliability_responsive_rate=0.25, traffic_start=11.0,
                       duration=20.0)


@pytest.mark.parametrize("protocol", sorted(_FINGERPRINTS))
def test_behaviour_fingerprint(protocol):
    cfg = _congested_config(protocol)
    buf = io.StringIO()
    ledger = Simulation(cfg, trace=buf).run()
    row = metrics.csv_row(ledger, config_hash(cfg), cfg.rng_seed, cfg.protocol,
                          cfg.critical_rate, cfg.duration)
    trace_sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (trace_sha, row) == _FINGERPRINTS[protocol]


@pytest.mark.parametrize("protocol", sorted(_FINGERPRINTS))
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


@pytest.mark.parametrize("protocol", sorted(_FINGERPRINTS))
def test_one_decision_reads_the_table_once(monkeypatch, protocol):
    # each forwarding decision reads its node's table once, through
    # `live_records`; each beacon of a live node reads it once, through the
    # `evict_stale` whose survivors `_build_hello` is given
    calls = {"live_records": 0, "_select": 0, "evict_stale": 0,
             "live_beacons": 0}

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
    counted(Simulation, "_select")
    monkeypatch.setattr(Simulation, "_ev_hello", beacon)
    sim = Simulation(_congested_config(protocol))
    sim.run()
    assert calls["_select"] > 100
    assert calls["live_records"] == calls["_select"]
    assert calls["evict_stale"] == calls["live_beacons"] >= sim.metrics.hello_sent
    assert sim.metrics.hello_sent > 100


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


@pytest.mark.parametrize("protocol", sorted(_FINGERPRINTS))
def test_every_ack_timer_can_act(monkeypatch, protocol):
    # a timer is armed only for an exchange that failed, so none finds its
    # exchange already acknowledged or abandoned. The finished states are
    # kept themselves: an id() is reused once its object is freed.
    finished = set()
    late = []
    ack_rx, timeout = Simulation._ev_ack_rx, Simulation._ev_ack_timeout

    def acked(self, sender_id, receiver_id, state):
        ack_rx(self, sender_id, receiver_id, state)
        finished.add(state)

    def timed_out(self, sender_id, state):
        late.append(state in finished)
        attempts = state.attempts
        timeout(self, sender_id, state)
        if state.attempts == attempts:   # no new attempt: abandoned
            finished.add(state)

    monkeypatch.setattr(Simulation, "_ev_ack_rx", acked)
    monkeypatch.setattr(Simulation, "_ev_ack_timeout", timed_out)
    Simulation(_congested_config(protocol)).run()
    assert len(late) > 50 and len(finished) > 50
    assert not any(late)


@pytest.mark.parametrize("protocol", sorted(_FINGERPRINTS))
def test_every_charge_is_a_cost_fixed_at_set_up(monkeypatch, protocol):
    # a data transmission costs its link's transmit cost; a reception costs
    # rx; everything else costs idle. The power score ranks by the same
    # link cost that is charged.
    cfg = _congested_config(protocol)
    rx_nj, idle_nj = joules_to_nj(cfg.energy_rx), joules_to_nj(cfg.energy_idle)
    charges, ranked = [], []
    charge = Simulation._charge
    pairs_of = NeighborTable.favorable_pairs

    def watched(self, node, cost_nj):
        charges.append((node.id, cost_nj))
        return charge(self, node, cost_nj)

    def priced(self, *args):
        pairs = pairs_of(self, *args)
        ranked.extend((self.owner, p.y, p.tx_cost_y) for p in pairs)
        return pairs

    monkeypatch.setattr(Simulation, "_charge", watched)
    monkeypatch.setattr(NeighborTable, "favorable_pairs", priced)
    sim = Simulation(cfg)
    sim.run()
    kinds = []
    for nid, cost in charges:
        tx = {link[2] for link in sim.links[nid].values()}
        kind = ("tx" if cost in tx else "rx" if cost == rx_nj
                else "idle" if cost == idle_nj else cost)
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
    ledger = run(mini_config(critical_rate=0.5, reliability_responsive_rate=0.25,
                             duplicate_critical=False,
                             duplicate_reliability=False, duration=20.0))
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
    assert cfg.stop_energy_fraction > 0
    buf = io.StringIO()
    sim = Simulation(cfg, trace=buf)
    ledger = sim.run()
    assert ledger.delivered_total > 0 and " energy_low " in buf.getvalue()
    assert read == []
    # the guard itself sees a read
    assert sim.nodes[SOURCE].energy.residual_nj >= 0
    assert read == ["residual_nj"]


@pytest.mark.parametrize("w", [0.0, 0.008, 1.0])
def test_backoff_draw_equals_uniform_bit_for_bit(w):
    # `_begin_attempt` draws its backoff as `w * rng.random()`, which is what
    # `rng.uniform(0.0, w)` computes: the same float from the same one draw.
    # An interpreter whose `uniform` differs fails here, not in a trace.
    for seed in (0, 1, 7, 2024, "run:3"):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert a.uniform(0.0, w).hex() == (w * b.random()).hex()
        assert a.getstate() == b.getstate()


def test_duplication_only_for_loss_averse_classes():
    base = dict(critical_rate=0.5, reliability_responsive_rate=0.25,
                delay_responsive_rate=0.25, rng_seed=6, duration=25.0)
    dup = run(mini_config(**base))
    plain = run(mini_config(duplicate_critical=False,
                            duplicate_reliability=False, **base))
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


@pytest.mark.parametrize("seed", range(1, 7))
def test_a_node_that_dies_transmitting_pays_what_it_had(seed):
    # small batteries and no stop rule: relays and the source die, some while
    # transmitting, and each pays its last nanojoules before it dies
    cfg = mini_config(energy_initial=0.3, stop_energy_fraction=0.0,
                      stop_when_partitioned=False, duration=60.0, rng_seed=seed)
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
    cfg = mini_config(energy_initial=0.12, stop_energy_fraction=0.0,
                      stop_at_first_death=True, rng_seed=8)
    sim = Simulation(cfg)
    ledger = sim.run()
    assert ledger.first_death_time is not None
    assert sim.now <= ledger.first_death_time + cfg.drain_window + 1e-9


def test_energy_floor_stops_generation_early():
    stopped = run(mini_config(stop_energy_fraction=0.9, rng_seed=9))
    full = run(mini_config(stop_energy_fraction=0.0, rng_seed=9))
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
    # `_charge` starts the drain when a node's spent nanojoules pass an
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
        sim._charge(relay, 0)
        old = initial - spent < fraction * initial
        assert (sim._drain_until is not None) == old, spent
        assert not (fraction == 0 and old)


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
