"""Shared test utilities: independent brute-force oracles and canned
configurations.

The oracles here deliberately re-derive every rule from scratch with plain
loops — they must not share logic with the package, or the oracle tests
would only prove the code agrees with itself. The one exception is
`ReferenceSimulation`, the kernel itself with one method replaced: it is
the oracle of a single decision, how a beacon's receptions are batched on
the heap, and differs from the kernel in nothing else.
"""

from __future__ import annotations

import heapq
import random

from tdthr.core import PacketClass, Position, dist
from tdthr.estimators import DelayEstimator
from tdthr.neighborhood import ForwarderPair, HelloMessage, NeighborTable
from tdthr.simkernel import SimConfig, Simulation, energy_costs_nj


# ---- desk-scale configuration -------------------------------------------

def desk_config(**overrides) -> SimConfig:
    """100 nodes on 600x600 m, range 100 m, 120 s: the small field used by
    the trend tests. Sinks sit 80 m in from the corners so they stay
    surrounded by relays; traffic starts after three beacon rounds."""
    cfg = SimConfig(
        node_count=100,
        field_width=600.0,
        field_height=600.0,
        node_density=0.000278,
        sink_inset=80.0,
        tx_range=100.0,
        rate_bytes_per_s=1000.0,
        payload_bytes=150,
        traffic_start=15.0,
        deadline=0.3,
        max_retries=4,
        min_delivery_prob=0.6,
        duration=120.0,
        stop_energy_fraction=0.05,
    )
    for name, value in overrides.items():
        if not hasattr(cfg, name):
            raise AttributeError(f"unknown config field {name}")
        setattr(cfg, name, value)
    return cfg


def mini_config(**overrides) -> SimConfig:
    """A fast variant for plumbing tests (a run takes well under a second)."""
    overrides.setdefault("node_count", 60)
    overrides.setdefault("field_width", 450.0)
    overrides.setdefault("field_height", 450.0)
    overrides.setdefault("node_density", 60 / (450.0 * 450.0))
    overrides.setdefault("sink_inset", 60.0)
    overrides.setdefault("duration", 30.0)
    return desk_config(**overrides)


def battery_j(cfg: SimConfig, tx: int = 0, rx: int = 0, idle: int = 0) -> float:
    """The joules of a battery that pays exactly `tx` full-range
    transmissions, `rx` receptions and `idle` idle charges at the costs
    `energy_costs_nj` reads from `cfg`. A test that needs a node to die or
    drain sizes its battery here, in actions, so the battery follows the
    energy reading. Exact: `joules_to_nj` of the result gives the sum back
    (tested), since the sum stays far below 2**51 nJ."""
    tx_nj, rx_nj, idle_nj = energy_costs_nj(cfg)
    return (tx * tx_nj + rx * rx_nj + idle * idle_nj) / 1e9


# ---- the beacon plane with one event per reception -------------------------

class ReferenceSimulation(Simulation):
    """The kernel with one heap entry per beacon reception, kept as the
    oracle of event order: `_deliver_hellos` runs one reception and puts the
    rest back on the heap under the next one's `(t, seq)`, so `run()`'s own
    ordering and stop test decide when each runs. Every other rule, the
    link numbering included, is the kernel's own."""

    def _deliver_hellos(self, sender, hello, receptions):
        _, _, peer, seq = receptions.pop()
        self._ev_hello_rx(peer, sender, hello, seq)
        if receptions:
            t, order = receptions[-1][:2]
            heapq.heappush(self._heap, (t, order, type(self)._deliver_hellos,
                                        (sender, hello, receptions)))


# ---- the receiver's sequence mark, as the kernel kept it -----------------

def reference_gap_rule(last: int, seq: int) -> tuple:
    """The earlier rule for a frame numbered `seq` from a sender whose mark
    (the receiver's per-sender `seq_seen`) stood at `last`: returns the new
    mark and the outcomes recorded for the frame, in order. Each number
    skipped is a lost frame, and a late or repeated frame moves no mark."""
    if seq == last + 1:
        return seq, [True]
    return max(last, seq), [False] * max(0, seq - last - 1) + [True]


# ---- random geometric topologies and neighbor tables --------------------

def random_positions(rng: random.Random, max_nodes: int = 50,
                     side: float = 250.0) -> dict:
    n = rng.randint(5, max_nodes)
    return {nid: Position(rng.uniform(0, side), rng.uniform(0, side))
            for nid in range(n)}


def geometric_one_hop(positions: dict, tx_range: float) -> dict:
    """Ground-truth neighbor sets straight from the geometry."""
    return {x: {y for y in positions
                if y != x and dist(positions[x], positions[y]) <= tx_range}
            for x in positions}


def build_tables(positions: dict, tx_range: float,
                 dq_value: float = 0.002, prr_value: float = 0.9,
                 energy: float = 2.0, dt_yz: float = 0.005,
                 expiry: float = 1e9) -> dict:
    """Populate one table per node via two loss-free beacon rounds.

    Round one fills the one-hop tables (empty neighbor lists); round two
    carries each sender's freshly learned one-hop list, which becomes the
    receivers' two-hop view — exactly how the live protocol converges.
    """
    n1 = geometric_one_hop(positions, tx_range)
    dq = {cls: dq_value for cls in PacketClass}
    tables = {x: NeighborTable(x, expiry) for x in positions}
    for rnd, now in ((1, 0.0), (2, 1.0)):
        for sender in positions:
            one_hop = {}
            if rnd == 2:
                one_hop = {
                    rec.neighbor: (dt_yz, rec.prr_xy)
                    for rec in tables[sender].live_records(now)}
            hello = HelloMessage(
                sender=sender, energy=energy, dq=dict(dq),
                reverse_prr={peer: prr_value for peer in n1[sender]},
                one_hop=one_hop)
            for receiver in n1[sender]:
                tables[receiver].process_hello(hello, now)
    return tables


# ---- what a table shows, read the way the engine reads it -----------------

def one_hop_set(table: NeighborTable, now: float) -> set:
    return {r.neighbor for r in table.live_records(now)}


def two_hop_set(table: NeighborTable, now: float) -> set:
    out = set()
    for r in table.live_records(now):
        out.update(r.two_hop)
    out.discard(table.owner)
    return out


def distances_to(positions: dict, dest: Position) -> dict:
    """Each node's distance to `dest`: the table the kernel fixes per sink."""
    return {nid: dist(pos, dest) for nid, pos in positions.items()}


def favorable_one_hop(table: NeighborTable, positions: dict, dest: Position,
                      now: float) -> list:
    """F1 as `Simulation._select` derives it: one read of the table, one
    filter."""
    to_dest = distances_to(positions, dest)
    return table.favorable_one_hop(table.live_records(now),
                                   to_dest[table.owner], to_dest)


_TX_NJ = energy_costs_nj(SimConfig())[0]


def favorable_pairs(table: NeighborTable, positions: dict, dest: Position,
                    cls: PacketClass, dq_x: float, delays, now: float,
                    tx_range: float = 100.0, tx_nj: int = _TX_NJ) -> list:
    """The forwarder pairs over that F1. The owner's links carry the
    transmit cost in nJ of each first hop, as the kernel's do: the
    full-range cost `tx_nj`, by default the default config's, times the
    path-loss factor (d / tx_range)**2."""
    to_dest = distances_to(positions, dest)
    own = positions[table.owner]
    links = {y: (1.0, 0.0, round(tx_nj * (dist(own, pos) / tx_range) ** 2))
             for y, pos in positions.items()}
    return table.favorable_pairs(favorable_one_hop(table, positions, dest, now),
                                 to_dest, to_dest[table.owner], cls, dq_x,
                                 delays, links)


def brute_favorable_one_hop(positions, n1, x, dest: Position) -> set:
    d_x = dist(positions[x], dest)
    return {y for y in n1[x] if d_x - dist(positions[y], dest) > 0}


def brute_favorable_pairs(positions, n1, x, dest: Position) -> set:
    """All (y, z): y a favorable neighbor of x, z a neighbor of y (z != x)
    strictly closer to the destination than y."""
    pairs = set()
    for y in brute_favorable_one_hop(positions, n1, x, dest):
        d_y = dist(positions[y], dest)
        for z in n1[y]:
            if z == x:
                continue
            if d_y - dist(positions[z], dest) > 0:
                pairs.add((y, z))
    return pairs


# ---- next-hop selection oracle ------------------------------------------

# Discrete value grids so that ties actually occur.
_PROGRESS = (20.0, 40.0, 60.0)
_DENOM = (0.02, 0.04, 0.05)
_PRR = (0.7, 0.8, 0.9, 0.95, 1.0)
_ENERGY = (0.5, 1.0, 1.5, 2.0)
_TX_COST = (0.01, 0.02, 0.04)
_V_REQ = (0.0, 300.0, 500.0, 1000.0, 1500.0, 5000.0)


def random_pair_snapshot(rng: random.Random):
    """A randomized candidate-pair set plus a velocity requirement."""
    pairs = []
    for _ in range(rng.randint(0, 8)):
        progress = rng.choice(_PROGRESS)
        denom = rng.choice(_DENOM)
        pairs.append(ForwarderPair(
            y=rng.randint(3, 9), z=rng.randint(3, 11),
            progress=progress, denominator=denom,
            velocity=progress / denom,
            prr_xy=rng.choice(_PRR), prr_yz=rng.choice(_PRR),
            energy_y=rng.choice(_ENERGY), tx_cost_y=rng.choice(_TX_COST)))
    return pairs, rng.choice(_V_REQ)


def brute_select(pairs, v_req: float, cls: PacketClass):
    """Independent re-derivation of the class-differentiated selection.

    Returns the winning (y, z) or None when no pair meets the requirement.
    """
    s_req = [p for p in pairs if p.velocity >= v_req]
    if not s_req:
        return None
    if len(s_req) == 1:
        return (s_req[0].y, s_req[0].z)
    if cls is PacketClass.DELAY_RESPONSIVE:
        # most residual energy; ties: cheapest transmission, then lowest ids
        best = None
        for p in s_req:
            rank = (p.energy_y, -p.tx_cost_y, -p.y, -p.z)
            if best is None or rank > best[0]:
                best = (rank, p)
        return (best[1].y, best[1].z)
    # critical: most reliable path, ties by energy per unit cost, then lowest ids
    reliabilities = [p.prr_xy * p.prr_yz for p in s_req]
    top = max(reliabilities)
    s_c = [p for p, r in zip(s_req, reliabilities) if r == top]
    if len(s_c) == 1:
        return (s_c[0].y, s_c[0].z)
    best = None
    for p in s_c:
        rank = (p.energy_y / p.tx_cost_y, -p.y, -p.z)
        if best is None or rank > best[0]:
            best = (rank, p)
    return (best[1].y, best[1].z)


def line_pairs(dq_x, dt_xy, dq_y=0.0, dt_yz=0.0, prr_xy=0.9, prr_yz=0.9,
               energy=2.0, tx_nj=_TX_NJ):
    """The forwarder pairs node 1 at x=0 sees toward a destination at x=200
    through the engine's own `favorable_pairs`: one pair, relay 2 at x=30 and
    second hop 3 at x=60, so progress is 60 m. The delays are the four terms
    of the offered-velocity denominator; relay 2 reports `energy`, the
    reliability `prr_xy` of link 1->2 and `prr_yz` of link 2->3, and link
    1->2 costs `tx_nj` at full range."""
    cls = PacketClass.CRITICAL
    positions = {1: Position(0.0, 0.0), 2: Position(30.0, 0.0),
                 3: Position(60.0, 0.0)}
    table = NeighborTable(owner=1, expiry=10.0)
    table.process_hello(HelloMessage(
        sender=2, energy=energy, dq={cls: dq_y}, reverse_prr={1: prr_xy},
        one_hop={3: (dt_yz, prr_yz)}), 0.0)
    return favorable_pairs(table, positions, Position(200.0, 0.0), cls, dq_x,
                           DelayEstimator(dt_prior=dt_xy), 0.0, tx_nj=tx_nj)


def delay_estimator_with(dt: float, gamma: float = 0.5) -> DelayEstimator:
    return DelayEstimator(gamma=gamma, dt_prior=dt)


# ---- logical-packet ledger oracle ----------------------------------------

class ReferenceLedger:
    """The packet accounting of `MetricsLedger`, kept in four parallel
    containers: the copies still out, each packet's class and creation, the
    delivered packets and the packets that missed their deadline. Counters
    are plain dicts: cls -> {"generated", "delivered", "deadline_misses",
    "drops": {cause: n}, "delays": [...]}."""

    def __init__(self, causes):
        self.causes = tuple(causes)
        self.per_class = {}
        self._outstanding = {}   # logical_id -> set of copy ids still out
        self._meta = {}          # logical_id -> (class, creation)
        self._delivered = set()
        self._missed = set()

    def _counters(self, cls):
        if cls not in self.per_class:
            self.per_class[cls] = {"generated": 0, "delivered": 0,
                                   "deadline_misses": 0, "delays": [],
                                   "drops": {c: 0 for c in self.causes}}
        return self.per_class[cls]

    def record_generated(self, logical_id, cls, creation, copy_ids):
        self._counters(cls)["generated"] += 1
        self._outstanding[logical_id] = set(copy_ids)
        self._meta[logical_id] = (cls, creation)

    def record_delivery(self, logical_id, packet_id, arrival, deadline):
        cls, creation = self._meta[logical_id]
        c = self._counters(cls)
        if logical_id not in self._delivered:
            self._delivered.add(logical_id)
            c["delivered"] += 1
            c["delays"].append(arrival - creation)
            if arrival - creation > deadline and logical_id not in self._missed:
                self._missed.add(logical_id)
                c["deadline_misses"] += 1
        self._outstanding[logical_id].discard(packet_id)

    def record_copy_lost(self, logical_id, packet_id, cls, cause):
        copies = self._outstanding.get(logical_id)
        if copies is None:
            return
        copies.discard(packet_id)
        c = self._counters(cls)
        if cause == "deadline" and logical_id not in self._missed \
                and logical_id not in self._delivered:
            self._missed.add(logical_id)
            c["deadline_misses"] += 1
        if not copies and logical_id not in self._delivered:
            c["drops"][cause] += 1

    def open_ids(self) -> set:
        """Logical packets neither delivered nor lost in every copy."""
        return {lid for lid, copies in self._outstanding.items()
                if copies and lid not in self._delivered}

    def closed_by_loss(self, logical_id) -> bool:
        return (not self._outstanding[logical_id]
                and logical_id not in self._delivered)

    def accounting_closed(self) -> bool:
        open_ids = self.open_ids()
        for cls, c in self.per_class.items():
            in_flight = sum(1 for lid in open_ids if self._meta[lid][0] is cls)
            if c["generated"] != (c["delivered"] + sum(c["drops"].values())
                                  + in_flight):
                return False
        return True
