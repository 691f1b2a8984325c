"""Neighbor-table tests: beacon processing, eviction, and equivalence of the
table-derived neighbor/forwarder sets with brute-force geometric evaluation."""

import random

from tdthr.core import PacketClass, Position
from tdthr.estimators import DelayEstimator
from tdthr.neighborhood import (HELLO_HEADER_BYTES, HELLO_NEIGHBOR_ENTRY_BYTES,
                                HELLO_PRR_ENTRY_BYTES, HelloMessage,
                                NeighborTable)

from helpers import (brute_favorable_one_hop, brute_favorable_pairs,
                     build_tables, dist, favorable_one_hop, favorable_pairs,
                     geometric_one_hop, one_hop_set, random_positions,
                     two_hop_set)

TX_RANGE = 60.0


def _hello(sender, energy=2.0, one_hop=None, reverse_prr=None):
    return HelloMessage(sender=sender, energy=energy,
                        dq={cls: 0.0 for cls in PacketClass},
                        reverse_prr=reverse_prr or {}, one_hop=one_hop or {})


# ---- beacon processing ---------------------------------------------------

def test_first_hello_inserts_record():
    table = NeighborTable(owner=1, expiry=12.5)
    table.process_hello(_hello(2, reverse_prr={1: 0.8}), 0.0)
    rec = table.records[2]
    assert rec.prr_xy == 0.8
    assert rec.last_heard == 0.0


def test_repeat_hello_refreshes_fields():
    table = NeighborTable(owner=1, expiry=12.5)
    table.process_hello(_hello(2, energy=2.0), 0.0)
    table.process_hello(_hello(2, energy=1.5, reverse_prr={1: 0.7}), 5.0)
    rec = table.records[2]
    assert rec.energy == 1.5
    assert rec.prr_xy == 0.7
    assert rec.last_heard == 5.0


def test_two_hop_entries_exclude_owner():
    # the record keeps the beacon's dict itself, owner included; the owner
    # never becomes a second hop, being farther from the destination than
    # any favorable first hop
    table = NeighborTable(owner=1, expiry=12.5)
    positions = {1: Position(0, 0), 2: Position(10, 0), 3: Position(30, 0),
                 4: Position(40, 0)}
    dest = Position(200, 0)
    entries = {n: (0.005, 0.9) for n in (1, 3, 4)}
    without_owner = {n: e for n, e in entries.items() if n != 1}
    for now, one_hop in ((0.0, without_owner), (1.0, entries)):
        hello = _hello(2, one_hop=one_hop)
        table.process_hello(hello, now)
        assert table.records[2].two_hop is hello.one_hop
    pairs = favorable_pairs(table, positions, dest, PacketClass.CRITICAL, 0.0,
                            DelayEstimator(dt_prior=0.005), 1.0)
    assert [(p.y, p.z) for p in pairs] == [(2, 3), (2, 4)]


def test_silent_neighbor_is_evicted():
    table = NeighborTable(owner=1, expiry=12.5)
    table.process_hello(_hello(2), 0.0)
    assert one_hop_set(table, 12.5) == {2}
    assert one_hop_set(table, 12.6) == set()
    table.evict_stale(12.6)
    assert table.records == {}


def test_forgotten_neighbor_returns_with_its_next_hello():
    table = NeighborTable(owner=1, expiry=12.5)
    table.process_hello(_hello(2, reverse_prr={1: 0.8}), 0.0)
    table.process_hello(_hello(3), 0.0)
    table.forget(2)
    table.forget(4)   # no record: nothing to do
    assert one_hop_set(table, 1.0) == {3}
    table.process_hello(_hello(2), 5.0)
    assert one_hop_set(table, 5.0) == {2, 3}
    assert table.records[2].prr_xy == 1.0   # a new record


def test_ack_info_refreshes_without_touching_two_hop():
    table = NeighborTable(owner=1, expiry=12.5)
    entries = {3: (0.005, 0.9)}
    table.process_hello(_hello(2, one_hop=entries), 0.0)
    table.process_ack_info(2, energy=1.2, dq={PacketClass.REGULAR: 0.01},
                           prr_xy=0.6, now=3.0)
    rec = table.records[2]
    assert rec.energy == 1.2 and rec.prr_xy == 0.6 and rec.last_heard == 3.0
    assert set(rec.two_hop) == {3}


def test_unreported_reliability_keeps_the_last_value():
    # HELLOs and ACKs share one rule: a new record starts at prr_xy 1.0 when
    # the message reports none, and a later message without one keeps it
    table = NeighborTable(owner=1, expiry=12.5)
    dq = {cls: 0.0 for cls in PacketClass}
    table.process_ack_info(2, energy=1.0, dq=dq, prr_xy=None, now=0.0)
    table.process_hello(_hello(3, reverse_prr={4: 0.3}), 0.0)
    assert table.records[2].prr_xy == 1.0 and table.records[3].prr_xy == 1.0
    assert table.records[2].two_hop == {}
    table.process_hello(_hello(2, reverse_prr={1: 0.4}), 1.0)
    table.process_ack_info(3, energy=1.0, dq=dq, prr_xy=0.5, now=1.0)
    table.process_ack_info(2, energy=0.9, dq=dq, prr_xy=None, now=2.0)
    table.process_hello(_hello(3, energy=0.8), 2.0)
    assert table.records[2].prr_xy == 0.4 and table.records[3].prr_xy == 0.5
    assert table.records[2].energy == 0.9 and table.records[3].energy == 0.8
    assert table.records[2].last_heard == table.records[3].last_heard == 2.0


def test_hello_wire_size():
    hello = _hello(2, reverse_prr={1: 0.9, 3: 0.8},
                   one_hop={3: (0.005, 0.9)})
    assert hello.size_bytes == (HELLO_HEADER_BYTES + 2 * HELLO_PRR_ENTRY_BYTES
                                + HELLO_NEIGHBOR_ENTRY_BYTES)


# ---- small canonical topologies ------------------------------------------

def test_line_topology_two_hop():
    positions = {0: Position(0, 0), 1: Position(50, 0), 2: Position(100, 0)}
    tables = build_tables(positions, TX_RANGE)
    assert one_hop_set(tables[0], 1.0) == {1}
    assert two_hop_set(tables[0], 1.0) == {2}


def test_triangle_two_hop_includes_direct_neighbors():
    positions = {0: Position(0, 0), 1: Position(40, 0), 2: Position(20, 30)}
    tables = build_tables(positions, TX_RANGE)
    assert one_hop_set(tables[0], 1.0) == {1, 2}
    # a node two hops away may also be one hop away; the sets overlap
    assert two_hop_set(tables[0], 1.0) == {1, 2}


def test_isolated_node_has_empty_sets():
    positions = {0: Position(0, 0), 1: Position(500, 500), 2: Position(510, 500)}
    tables = build_tables(positions, TX_RANGE)
    assert one_hop_set(tables[0], 1.0) == set()
    assert two_hop_set(tables[0], 1.0) == set()


def test_destination_as_second_hop_is_ordinary():
    # x -- y -- D in a line: the (y, D) pair exists with zero distance left
    positions = {0: Position(0, 0), 1: Position(50, 0), 2: Position(100, 0)}
    tables = build_tables(positions, TX_RANGE)
    est = DelayEstimator(dt_prior=0.005)
    pairs = favorable_pairs(tables[0], positions, positions[2],
                            PacketClass.CRITICAL, 0.0, est, 1.0)
    assert [(p.y, p.z) for p in pairs] == [(1, 2)]
    assert pairs[0].progress == 100.0


def test_all_neighbors_behind_gives_empty_favorable_set():
    positions = {0: Position(0, 0), 1: Position(30, 0), 2: Position(40, 10)}
    tables = build_tables(positions, TX_RANGE)
    dest = Position(-200, 0)  # destination behind the owner
    assert favorable_one_hop(tables[0], positions, dest, 1.0) == []


# ---- brute-force oracle over random topologies ---------------------------

def test_tables_match_geometric_ground_truth():
    """After two loss-free beacon rounds, every derived set equals an
    independent geometric evaluation, on 60 random topologies."""
    _oracle_check(n_topologies=60, seed_base=500)


def _oracle_check(n_topologies: int, seed_base: int):
    for trial in range(n_topologies):
        rng = random.Random(seed_base + trial)
        positions = random_positions(rng)
        n1 = geometric_one_hop(positions, TX_RANGE)
        tables = build_tables(positions, TX_RANGE)
        dest = Position(rng.uniform(0, 250), rng.uniform(0, 250))
        est = DelayEstimator(dt_prior=0.005)
        for x in positions:
            assert one_hop_set(tables[x], 1.0) == n1[x]
            expected_two_hop = set().union(*(n1[y] for y in n1[x])) - {x} \
                if n1[x] else set()
            assert two_hop_set(tables[x], 1.0) == expected_two_hop
            favorable = {r.neighbor for r, _ in
                         favorable_one_hop(tables[x], positions, dest, 1.0)}
            assert favorable == brute_favorable_one_hop(positions, n1, x, dest)
            pairs = favorable_pairs(
                tables[x], positions, dest, PacketClass.CRITICAL, 0.002, est,
                1.0, tx_range=TX_RANGE)
            assert ({(p.y, p.z) for p in pairs}
                    == brute_favorable_pairs(positions, n1, x, dest))
            d_x = dist(positions[x], dest)
            for p in pairs:
                assert p.progress == d_x - dist(positions[p.z], dest)
                assert p.progress > 0
                assert p.velocity == p.progress / p.denominator
                # both-hop delay budget: local queue + both links + next queue
                assert p.denominator == 0.002 + 0.005 + 0.002 + 0.005
