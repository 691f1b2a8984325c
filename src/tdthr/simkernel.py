"""Deterministic discrete-event engine.

Topology generation, the hidden link ground truth, an idealized contention
MAC with ACKs and retries, energy accounting in integer nanojoules, HELLO
dissemination, traffic generation, and the per-node event loop that wires
the estimators, neighbor tables, forwarding rules and queuing controller
together. The full event trace is a pure function of (config, seed).
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
import random

from .config import PRIMARY_SINK, SECONDARY_SINK, SOURCE, SimConfig
from .core import (LIGHT_SPEED, EnergyBudget, NodeId, Packet, PacketClass,
                   Position, joules_to_nj)
from .estimators import DelayEstimator, PrrEstimator
from .forwarding import PROTOCOLS, DeadlineExpired, VoidRegion, update_lag_time
from .metrics import MetricsLedger
from .neighborhood import HelloMessage, NeighborTable
from .queueing import QueueBank, QueueEntry


_TOPOLOGY_RETRIES = 50


def generate_topology(cfg: SimConfig, seed: int) -> tuple:
    """Random uniform node placement with fixed sink/source positions.

    Ids 0 and 1 are the primary and secondary sinks, id 2 the source, the
    rest are relays. Regenerates (bounded) until the source can reach both
    sinks over the range graph; returns the positions and that graph.

    A placement that leaves a sink with no other node in range
    (`_sink_unheard`) is skipped before its range graph is built: such a
    sink has an empty list in that graph, so `_connected` would reject the
    placement too, and the accepted placement and its graph are the same.
    """
    width, height, tx_range = cfg.field_width, cfg.field_height, cfg.tx_range
    sinks = cfg.sink_positions
    fixed = [(p.x, p.y) for p in (sinks[PRIMARY_SINK], sinks[SECONDARY_SINK],
                                  cfg.source_position)]
    unheard = cut_off = 0
    for attempt in range(_TOPOLOGY_RETRIES):
        draw = random.Random(f"topology:{seed}:{attempt}").random
        # `w * draw()` is `uniform(0.0, w)`'s float from the same draw (see
        # `_begin_attempt`); x is drawn before y
        points = fixed + [(width * draw(), height * draw())
                          for _ in range(3, cfg.node_count)]
        if _sink_unheard(points, tx_range):
            unheard += 1
            continue
        positions = {nid: Position(x, y) for nid, (x, y) in enumerate(points)}
        neighbours = _neighbours(positions, tx_range)
        if _connected(neighbours, SOURCE, {PRIMARY_SINK, SECONDARY_SINK}):
            return positions, neighbours
        cut_off += 1
    raise ValueError(
        f"could not generate a topology connecting the source to both sinks "
        f"after {_TOPOLOGY_RETRIES} attempts (seed {seed}): {unheard} left a "
        f"sink that no node hears, {cut_off} cut the source off from a sink; "
        f"increase density or range, or move the sinks inward "
        f"(network.sink_inset)")


def _sink_unheard(points, tx_range) -> bool:
    """Whether a sink has no other node within tx_range, `points` being the
    (x, y) of every node by id. Each distance is the `hypot` float that
    `_neighbours` computes for the pair: `a - b` is exactly `-(b - a)` and
    `hypot` ignores signs, so this holds exactly when `_neighbours` would
    give the sink an empty list. A node on top of the sink is in range."""
    hypot = math.hypot
    for sink in (PRIMARY_SINK, SECONDARY_SINK):
        x0, y0 = points[sink]
        if not any(hypot(x0 - x, y0 - y) <= tx_range
                   for x, y in points[:sink] + points[sink + 1:]):
            return True
    return False


def _neighbours(positions, tx_range) -> dict:
    """The range graph: nid -> [(peer, distance)] for every other node within
    tx_range, peers ascending. Positions are bucketed into square cells about
    tx_range wide, so a node's neighbours lie in its own cell or the eight
    around it. Each cell is scanned against itself and the four cells ahead
    of it, so each nearby pair is measured once and its distance goes into
    both lists; the build costs O(n * degree) instead of O(n^2)."""
    # The cell side is a hair wider than tx_range so that two points
    # exactly tx_range apart never land two cells apart once x / side is
    # rounded: that rounding is a few ulps of x / side, far below the
    # 1e-9 slack on any field under ~10^6 ranges across. A 3x3 scan
    # then finds every neighbour.
    side = tx_range * (1 + 1e-9)
    floor, hypot = math.floor, math.hypot
    graph = {nid: [] for nid in positions}
    cells = {}   # cell -> [(id, x, y, id's list)]
    for nid, p in positions.items():
        cells.setdefault((floor(p.x / side), floor(p.y / side)), []).append(
            (nid, p.x, p.y, graph[nid]))
    for (cx, cy), members in cells.items():
        # The cells behind scan this one. `hypot` of the negated
        # differences is the same float, so each end's list holds the
        # distance it would measure itself.
        scan = members + [q for cell in ((cx + 1, cy - 1), (cx + 1, cy),
                                         (cx + 1, cy + 1), (cx, cy + 1))
                          for q in cells.get(cell, ())]
        for i, (x, x0, y0, found) in enumerate(members, 1):
            for y, qx, qy, theirs in scan[i:]:
                # dist(p, q) inlined: set-up's hottest line
                d = hypot(x0 - qx, y0 - qy)
                if d <= tx_range:
                    found.append((y, d))
                    theirs.append((x, d))
    for found in graph.values():
        found.sort()
    return graph


def _connected(neighbours, start, targets) -> bool:
    frontier = [start]
    seen = {start}
    remaining = set(targets)
    while frontier and remaining:
        nxt = []
        for x in frontier:
            for y, _ in neighbours[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    remaining.discard(y)
        frontier = nxt
    return not remaining


def energy_costs_nj(cfg: SimConfig) -> tuple:
    """How the config's energies become what an action costs, in integer
    nanojoules: `(tx, rx, idle)`, a data transmission at full range, a data
    reception, and every other charge (a beacon sent or heard, an ACK, an
    audit). Each of `energy_tx`, `energy_rx` and `energy_idle` is read as
    the joules of one such action. The one statement of that reading: the
    kernel fixes its costs from it, and the tests size batteries by it."""
    return (joules_to_nj(cfg.energy_tx), joules_to_nj(cfg.energy_rx),
            joules_to_nj(cfg.energy_idle))


def _link_table(neighbours, cfg: SimConfig, tx_nj: int) -> dict:
    """The hidden link truth, never read by the protocol side: nid -> {peer:
    (delivery probability, propagation delay, transmit cost in nJ)} for each
    edge of the range graph, nodes and peers ascending. With r = d /
    tx_range, the probability is 1 - r ** loss_exponent clamped to
    [min_delivery_prob, 1], and the cost, which `_begin_attempt` charges and
    `favorable_pairs` ranks by, is round(tx_nj * r ** path_loss_alpha).
    An edge's two directions share one tuple (their `hypot` distances are
    equal bit for bit), built from the lower end."""
    tx_range, exponent, light = cfg.tx_range, cfg.loss_exponent, LIGHT_SPEED
    floor, alpha = cfg.min_delivery_prob, cfg.path_loss_alpha
    links = {nid: {} for nid in sorted(neighbours)}
    for x, found in links.items():
        for y, d in neighbours[x]:
            if y > x:
                if d <= 0:   # two coincident nodes: a link with no cost
                    raise ValueError(
                        f"transmission distance must be positive, got {d}")
                if d > tx_range:
                    raise ValueError(f"distance {d} m exceeds transmission "
                                     f"range {tx_range} m")
                r = d / tx_range
                # min(1.0, max(floor, p)) to the bit, without builtin calls
                p = 1.0 - r ** exponent
                p = p if p > floor else floor
                found[y] = links[y][x] = (p if p < 1.0 else 1.0, d / light,
                                          round(tx_nj * r ** alpha))
    return links


def _gc_paused(fn):
    """`fn` run with CPython's cyclic garbage collector paused, and the
    caller's setting restored however it returns. Building and running a
    simulation leave no unreachable reference cycle, and a simulation, run
    or not, holds no reference to itself (both tested), so the collector's
    passes over its objects, which grow with every node, link and event,
    would free nothing: reference counting frees what the build and the
    run let go of, and the simulation once it is dropped."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


class _Node:
    __slots__ = ("id", "is_sink", "alive", "energy", "table", "delays",
                 "prr_in", "hellos", "data_out", "queues", "busy")

    def __init__(self, nid, is_sink, expiry: float, gamma: float,
                 capacity: int, single_queue: bool, initial_nj: int,
                 dt_prior: float):
        self.id = nid
        self.is_sink = is_sink
        self.alive = True
        self.energy = EnergyBudget(initial_nj)   # a sink's is never charged
        self.table = NeighborTable(nid, expiry)
        self.delays = DelayEstimator(gamma, dt_prior)
        self.prr_in = {}       # sender -> PrrEstimator (receiver-side)
        # Every frame to a peer, HELLO or data attempt, takes the next
        # sequence number on that link: a beacon goes to every peer, so the
        # number is `hellos + data_out[peer]`, counted after the frame.
        # test_every_frame_carries_its_link_number counts the frames sent
        # on each link and checks the number each reception carries.
        self.hellos = 0        # beacons sent
        self.data_out = {}     # receiver -> data attempts sent to it
        self.queues = QueueBank(capacity, single_queue)
        self.busy = False

    @property
    def reported_energy(self) -> float:
        if self.is_sink:
            return 1e9
        energy = self.energy   # read as slots (per beacon, per ACK)
        return (energy.initial_nj - energy.spent_nj) / 1e9


class _TxState:
    __slots__ = ("packet", "next_hop", "t_s", "attempts", "delivered_any",
                 "timeout")

    def __init__(self, packet, next_hop, t_s):
        self.packet = packet
        self.next_hop = next_hop
        self.t_s = t_s
        self.attempts = 0
        self.delivered_any = False
        self.timeout = 0.0   # when the current attempt's ACK timer fires


class Simulation:
    """One protocol run. `run()` drives events until the configured duration
    elapses or a drain ends. A drain stops traffic generation and ends the
    run `drain_window` later; it starts when a node's residual falls below
    the energy floor, when the source dies, when a death cuts the source
    off from both sinks, or at the first death under `stop_at_first_death`
    (`_begin_drain`)."""

    @_gc_paused
    def __init__(self, cfg: SimConfig, trace=None):
        errors = cfg.validate()
        if errors:
            raise ValueError("invalid configuration: " + "; ".join(errors))
        self.cfg = cfg
        self._protocol = PROTOCOLS[cfg.protocol]
        self.rng = random.Random(f"run:{cfg.rng_seed}")
        self.positions, neighbours = generate_topology(cfg, cfg.rng_seed)
        # Energy in integer nanojoules. What each action costs is the same
        # for every node and the whole run, so it is fixed here; a data
        # transmission costs its link's cost, fixed with the links below
        # from `_tx_nj`, the cost at full range.
        initial_nj = joules_to_nj(cfg.energy_initial)
        self._tx_nj, self._rx_nj, self._idle_nj = energy_costs_nj(cfg)
        # A node whose residual falls below D = `stop_energy_fraction *
        # initial_nj` starts the drain. A residual r is an integer, so r < D
        # exactly when r < ceil(D): the drain starts once a node has spent
        # more than this, which no node does at fraction 0.
        self._drain_after_nj = initial_nj - math.ceil(
            cfg.stop_energy_fraction * initial_nj)
        # Airtimes in seconds; a HELLO's depends on its size (`_ev_hello`).
        self._payload_ser = cfg.payload_bytes * 8 / cfg.bandwidth_bps
        self._ack_ser = cfg.ack_bytes * 8 / cfg.bandwidth_bps
        # every node is built from these run-wide constants, read once
        node_args = (cfg.neighbor_expiry, cfg.delay_gamma, cfg.queue_capacity,
                     not self._protocol.priority_queues, initial_nj,
                     self._payload_ser)
        self.nodes = {nid: _Node(nid, nid in (PRIMARY_SINK, SECONDARY_SINK),
                                 *node_args) for nid in sorted(self.positions)}
        # Positions never move: sink -> {nid: distance to that sink}, fixed
        # here as `dist(pos, sink)` computes it.
        hypot = math.hypot
        self.sink_distance = {}
        for sink in (PRIMARY_SINK, SECONDARY_SINK):
            at = self.positions[sink]
            sx, sy = at.x, at.y
            self.sink_distance[sink] = {nid: hypot(pos.x - sx, pos.y - sy)
                                        for nid, pos in self.positions.items()}
        self.links = _link_table(neighbours, cfg, self._tx_nj)
        self.metrics = MetricsLedger()
        self.trace = trace                     # file-like or None
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._next_packet_id = 0
        self._next_logical_id = 0
        self._drain_until = None
        self._stop_at = cfg.duration   # lowered by `_begin_drain`
        self._schedule_initial()

    # ---- event plumbing --------------------------------------------------

    def _schedule(self, t, handler, *payload):
        """Run `handler(*payload)` at time `t`, after every event already
        due at `t`: the heap orders events by `(t, seq)`. `handler` is a
        bound `_ev_*` method, looked up at schedule time, so a wrapper put on
        the class before construction is the one that runs. The heap keeps
        its function, which `run()` calls with the simulation: no event
        refers to the simulation, so a simulation that is dropped, run or
        not, is freed by reference counting. The first beacons
        (`_schedule_initial`) and a beacon's receptions, which share one
        heap entry (`_deliver_hellos`), do not come here: each gets the seq
        that a `_schedule` of its own would, and `self._seq` is advanced
        for it."""
        if t < self.now - 1e-12:
            raise RuntimeError(f"event {handler.__name__} scheduled in the past "
                               f"({t} < {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, handler.__func__, payload))

    def _log(self, node, kind, packet_id="-", detail="", *args):
        # `detail` is formatted only for a trace that is written
        if self.trace is not None:
            self.trace.write(f"{self.now:.9f} {node} {kind} {packet_id} "
                             f"{detail.format(*args)}\n")

    def _schedule_initial(self):
        cfg = self.cfg
        draw = self.rng.random
        # The first beacons, one per node in ascending id order, each at
        # `uniform(0.0, hello_period)`'s float (see `_begin_attempt`), with
        # the seqs `_schedule` would give them, heapified at once: their
        # `(t, seq)` keys are unique, so the heap pops them as if pushed.
        hello, seq = self._ev_hello.__func__, self._seq
        self._heap.extend((cfg.hello_period * draw(), seq + i, hello, (nid,))
                          for i, nid in enumerate(self.nodes, 1))
        heapq.heapify(self._heap)
        self._seq = seq + len(self.nodes)
        self._schedule(cfg.traffic_start, self._ev_cbr)
        self._schedule(cfg.audit_period, self._ev_audit)

    @_gc_paused
    def run(self) -> MetricsLedger:
        heap = self._heap
        while heap:
            t, seq, handler, payload = heapq.heappop(heap)
            # the stop test, which `_deliver_hellos` repeats. The event that
            # fails it goes back: the heap holds every event not run.
            if t > self._stop_at:
                heapq.heappush(heap, (t, seq, handler, payload))
                break
            self.now = t
            handler(self, *payload)
        return self.metrics

    # ---- energy / death --------------------------------------------------

    def _spend(self, node: _Node, cost_nj: int) -> bool:
        """Pay or die: deduct `cost_nj` from `node`, or all it has left if
        that is less, and then kill it. Returns whether it could afford the
        cost. Every charge of a run comes here. Sinks are mains-powered:
        they always afford it, and nothing is recorded."""
        if node.is_sink:
            return True
        energy = node.energy
        actual = energy.deduct(cost_nj)
        self.metrics.record_energy(actual)
        if energy.spent_nj > self._drain_after_nj and self._drain_until is None:
            self._log(node.id, "energy_low")
            self._begin_drain()
        if actual == cost_nj:
            return True
        self._die(node)
        return False

    def _die(self, node: _Node):
        if not node.alive:
            return
        node.alive = False
        self.metrics.record_death(self.now)
        self._log(node.id, "death")
        for packet in node.queues.flush():
            self._drop(packet, "dead_node", node.id)
        if node.id == SOURCE or self.cfg.stop_at_first_death:
            self._begin_drain()
        elif not self._sinks_reachable():
            self.metrics.record_partition(self.now)
            self._log(node.id, "partitioned")
            self._begin_drain()

    def _begin_drain(self):
        """Stop traffic generation; let in-flight packets settle briefly so
        the reception ratio is not censored by an abrupt halt."""
        if self._drain_until is None:
            self._drain_until = self.now + self.cfg.drain_window
            self._stop_at = min(self._stop_at, self._drain_until)

    def _sinks_reachable(self) -> bool:
        """True while an all-alive path links the source to either sink."""
        frontier = [SOURCE]
        seen = {SOURCE}
        while frontier:
            nxt = []
            for x in frontier:
                for y in self.links[x]:
                    if y in seen or not self.nodes[y].alive:
                        continue
                    if y in (PRIMARY_SINK, SECONDARY_SINK):
                        return True
                    seen.add(y)
                    nxt.append(y)
            frontier = nxt
        return False

    # ---- sequence-number reception accounting ----------------------------

    def _note_reception(self, receiver: _Node, sender: NodeId, seq: int):
        est = receiver.prr_in.get(sender)
        if est is None:
            est = PrrEstimator(window=self.cfg.prr_window, beta=self.cfg.prr_beta)
            receiver.prr_in[sender] = est
        est.observe(seq)

    # ---- HELLO dissemination ---------------------------------------------

    def _ev_hello(self, nid: NodeId):
        node = self.nodes[nid]
        if not node.alive:
            return
        cfg = self.cfg
        live = node.table.evict_stale(self.now)
        if not self._spend(node, self._idle_nj):
            return
        hello = self._build_hello(node, live)
        self.metrics.hello_sent += 1
        node.hellos += 1
        sent = self.now + hello.size_bytes * 8 / cfg.bandwidth_bps
        # Each reception, `(arrival, event seq, peer, link seq)`, takes the
        # event seq that a `_schedule` of its own would give it, in peer order.
        draw = self.rng.random
        hellos, data_out = node.hellos, node.data_out
        seq = self._seq
        receptions = []
        for peer, (p, prop, _) in self.links[nid].items():
            if draw() < p:
                seq += 1
                receptions.append((sent + prop, seq, peer,
                                   hellos + data_out.get(peer, 0)))
        self._seq = seq
        if receptions:
            receptions.sort(reverse=True)   # the earliest last
            t, seq = receptions[-1][:2]
            if t < self.now - 1e-12:
                raise RuntimeError(f"HELLO reception scheduled in the past "
                                   f"({t} < {self.now})")
            heapq.heappush(self._heap, (t, seq, type(self)._deliver_hellos,
                                        (nid, hello, receptions)))
        self._log(nid, "hello")
        self._schedule(self.now + cfg.hello_period, self._ev_hello, nid)

    def _deliver_hellos(self, sender: NodeId, hello: HelloMessage,
                        receptions: list):
        """Run one beacon's receptions, each an `_ev_hello_rx` event, in the
        order they would run as heap entries of their own. Only the earliest
        is on the heap; `receptions` holds it and the rest, latest first.
        The next one runs here directly only while it is strictly before the
        heap top in `(t, seq)` order and passes `run()`'s stop test, both
        read again after every reception; otherwise the rest go back on the
        heap under its `(t, seq)`. Not named `_ev_*`: it is no event."""
        receive = self._ev_hello_rx
        heap = self._heap
        _, _, peer, seq = receptions.pop()
        receive(peer, sender, hello, seq)
        while receptions:
            t, order, peer, seq = receptions[-1]
            # seqs are unique, so the comparison never reaches a handler
            if (heap and heap[0] < (t, order)) or t > self._stop_at:
                heapq.heappush(heap, (t, order, type(self)._deliver_hellos,
                                      (sender, hello, receptions)))
                return
            receptions.pop()
            self.now = t
            receive(peer, sender, hello, seq)

    def _build_hello(self, node: _Node, live: list) -> HelloMessage:
        """One snapshot per beacon, shared by every receiver: tables keep
        references to its entries, so nothing may mutate them once built.
        `live` is the node's live records, as `evict_stale` returned them at
        this `now`. `dq` is the estimator's own dict, which `dq_update`
        replaces."""
        dt, dt_prior = node.delays.dt, node.delays.dt_prior
        one_hop = {rec.neighbor: (dt.get(rec.neighbor, dt_prior), rec.prr_xy)
                   for rec in live}
        return HelloMessage(
            node.id, node.reported_energy, node.delays.dq,
            {s: est.prr for s, est in node.prr_in.items()}, one_hop)

    def _ev_hello_rx(self, receiver_id: NodeId, sender_id: NodeId,
                     hello: HelloMessage, seq: int):
        node = self.nodes[receiver_id]
        if not node.alive:
            return
        if not self._spend(node, self._idle_nj):
            return
        self._note_reception(node, sender_id, seq)
        node.table.process_hello(hello, self.now)

    # ---- traffic generation ----------------------------------------------

    def _ev_cbr(self):
        cfg = self.cfg
        source = self.nodes[SOURCE]
        if not source.alive or self._drain_until is not None:
            return
        cls = self._draw_class()
        # The source sits at the field centre, the sinks on its diagonal at
        # equal insets: both are nearest, so copies alternate between them.
        logical = self._next_logical_id
        self._next_logical_id += 1
        nearest, other = ((PRIMARY_SINK, SECONDARY_SINK) if logical % 2 == 0
                          else (SECONDARY_SINK, PRIMARY_SINK))
        copies = [self._make_packet(cls, nearest, logical)]
        duplicated = (self._protocol.duplicates
                      and ((cls is PacketClass.CRITICAL and cfg.duplicate_critical)
                           or (cls is PacketClass.RELIABILITY_RESPONSIVE
                               and cfg.duplicate_reliability)))
        if duplicated:
            copies.append(self._make_packet(cls, other, logical))
            self.metrics.duplicates_generated += 1
        self.metrics.record_generated(logical, cls, self.now,
                                      [p.packet_id for p in copies])
        self._log(SOURCE, "generated", logical, cls.value)
        for packet in copies:
            self._accept_packet(source, packet)
        self._schedule(self.now + cfg.cbr_interval, self._ev_cbr)

    def _draw_class(self) -> PacketClass:
        cfg = self.cfg
        u = self.rng.random()
        if u < cfg.critical_rate:
            return PacketClass.CRITICAL
        u -= cfg.critical_rate
        if u < cfg.delay_responsive_rate:
            return PacketClass.DELAY_RESPONSIVE
        u -= cfg.delay_responsive_rate
        if u < cfg.reliability_responsive_rate:
            return PacketClass.RELIABILITY_RESPONSIVE
        return PacketClass.REGULAR

    def _make_packet(self, cls, sink, logical) -> Packet:
        pid = self._next_packet_id
        self._next_packet_id += 1
        return Packet(packet_id=pid, cls=cls, destination_sink=sink,
                      lag_time=self.cfg.deadline, deadline=self.cfg.deadline,
                      logical_id=logical, received_time=self.now)

    # ---- queueing --------------------------------------------------------

    def _accept_packet(self, node: _Node, packet: Packet):
        """Enqueue at `node` and kick the transmitter. The bank decides
        whether the new entry's promotion timer is armed."""
        cfg = self.cfg
        entry = node.queues.enqueue(packet, self.now, self.now + max(
            cfg.promotion_floor, cfg.promotion_fraction * packet.lag_time))
        if entry is None:
            self._drop(packet, "queue_full", node.id)
            return
        if entry.timer_deadline is not None:
            self._schedule(entry.timer_deadline, self._ev_promo, node.id, entry)
        self._schedule(self.now, self._ev_kick, node.id)

    def _ev_promo(self, nid: NodeId, entry: QueueEntry):
        # a dead node's bank was flushed, which disarmed its entries
        if self.nodes[nid].queues.on_timer_expire(entry, self.now):
            self.metrics.promotions += 1
            self._log(nid, "promoted", entry.packet.packet_id)

    def _ev_kick(self, nid: NodeId):
        node = self.nodes[nid]
        if not node.alive or node.busy:
            return
        item = node.queues.dequeue_next(self.now)
        if item is None:
            return
        packet, wait = item
        node.busy = True
        self._start_tx(node, packet, wait)

    def _finish_tx(self, node: _Node):
        node.busy = False
        if node.alive:
            self._schedule(self.now, self._ev_kick, node.id)

    # ---- forwarding decision ---------------------------------------------

    def _start_tx(self, node: _Node, packet: Packet, queue_wait: float):
        node.delays.dq_update(packet.cls, queue_wait)
        try:
            packet.lag_time = update_lag_time(
                packet.lag_time, packet.received_time, self.now,
                self._payload_ser)
        except DeadlineExpired:
            # Only the protocol's expiring classes are discarded in-network;
            # everything else is delivered late (and scored as a deadline
            # miss at the sink).
            if packet.cls in self._protocol.expire_in_network:
                self._drop(packet, "deadline", node.id)
                self._finish_tx(node)
                return
            packet.lag_time = 0.0
        try:
            next_hop = self._select(node, packet)
        except VoidRegion:
            self._drop(packet, "void", node.id)
            self._finish_tx(node)
            return
        state = _TxState(packet, next_hop, t_s=self.now)
        self._begin_attempt(node, state)

    def _select(self, node: _Node, packet: Packet) -> NodeId:
        """One view of the neighborhood per decision: the live records, read
        once, the owner's distance `d_own` to the destination, and F1, the
        favorable records with their own distances, filtered once. The one
        entry into recovery: a packet still in recovery, or a void of a
        protocol that `recovers`, goes to `_detour`."""
        dest = packet.destination_sink
        live = node.table.live_records(self.now)
        for r in live:
            if r.neighbor == dest:
                return dest
        to_dest = self.sink_distance[dest]
        d_own = to_dest[node.id]
        if packet.recovery_anchor is not None:
            if d_own < packet.recovery_anchor:
                packet.recovery_anchor = None  # escaped the dead-end region
            else:
                return self._detour(node, packet, to_dest, d_own, live)
        f1 = node.table.favorable_one_hop(live, d_own, to_dest)
        try:
            next_hop, missed = self._protocol.select(
                node, packet, to_dest, d_own, f1, self.links[node.id])
        except VoidRegion:
            if not self._protocol.recovers:
                raise
            return self._detour(node, packet, to_dest, d_own, live)
        if missed:   # the packet leaves slower than its deadline requires
            self.metrics.missed_velocity += 1
        return next_hop

    def _detour(self, node: _Node, packet: Packet, to_dest, d_own, live) -> NodeId:
        """Local-minimum escape: no live neighbor offers positive progress, so
        hand the packet to the neighbor closest to the destination that it has
        not visited yet. The packet stays in recovery mode until it gets
        strictly closer to the destination than where the detour began; the
        hop trace breaks routing loops and the deadline bounds the
        excursion."""
        if packet.recovery_anchor is None:
            packet.recovery_anchor = d_own
        visited = {node.id, *packet.hop_trace}
        candidates = [(to_dest[r.neighbor], r.neighbor)
                      for r in live if r.neighbor not in visited]
        if not candidates:
            raise VoidRegion("no unvisited neighbor for detour")
        return min(candidates)[1]

    # ---- MAC: attempts, ACKs, retries ------------------------------------

    def _begin_attempt(self, node: _Node, state: _TxState):
        cfg = self.cfg
        packet = state.packet
        peer = state.next_hop
        p, prop, cost = self.links[node.id][peer]
        if not self._spend(node, cost):
            if not state.delivered_any:
                self._drop(packet, "dead_node", node.id)
            return
        state.attempts += 1
        n_data = node.data_out[peer] = node.data_out.get(peer, 0) + 1
        seq = node.hellos + n_data
        # CPython's `uniform(0.0, w)` is `0.0 + (w - 0.0) * random()`: the
        # same one draw and the same float, without the call (checked by
        # test_backoff_draw_equals_uniform_bit_for_bit)
        backoff = cfg.backoff_window * self.rng.random()
        arrival = self.now + backoff + self._payload_ser + prop
        delivered = self.rng.random() < p
        self._log(node.id, "tx_attempt", packet.packet_id, "to={} n={} seq={}",
                  peer, state.attempts, seq)
        # An ACK timer is armed only where the exchange fails: here if the
        # data is lost, else in `_ev_data_rx`. An ACK beats its timer.
        state.timeout = arrival + self._ack_ser + prop + cfg.ack_timeout_guard
        if delivered:
            self._schedule(arrival, self._ev_data_rx, peer, node.id, state, seq)
        else:
            self._schedule(state.timeout, self._ev_ack_timeout, node.id, state)

    def _ev_data_rx(self, receiver_id: NodeId, sender_id: NodeId,
                    state: _TxState, seq: int):
        receiver = self.nodes[receiver_id]
        if not (receiver.alive and self._spend(receiver, self._rx_nj)):
            self._schedule(state.timeout, self._ev_ack_timeout, sender_id, state)
            return
        self._note_reception(receiver, sender_id, seq)
        # every attempt of one hop shares `state`: a frame after the first
        # delivered one is a repeat of the same exchange
        fresh = not state.delivered_any
        state.delivered_any = True
        packet = state.packet
        if fresh:
            self._log(receiver_id, "data_rx", packet.packet_id, "from={}", sender_id)
        # ACK back (control-plane energy, idle rate), subject to reverse loss
        p, prop, _ = self.links[receiver_id][sender_id]
        if self.rng.random() < p:
            ack_t = self.now + self._ack_ser + prop
            self._schedule(ack_t, self._ev_ack_rx, sender_id, receiver_id, state)
        else:
            self._schedule(state.timeout, self._ev_ack_timeout, sender_id, state)
        if not self._spend(receiver, self._idle_nj):
            # dead paying for its ACK, which still goes out: a fresh packet
            # dies with the receiver
            if fresh:
                self._drop(packet, "dead_node", receiver_id)
            return
        if not fresh:
            return
        if receiver.is_sink:
            self.metrics.record_delivery(packet.logical_id, packet.packet_id,
                                         self.now, packet.deadline)
            self._log(receiver_id, "delivered", packet.packet_id, "class={}",
                      packet.cls.value)
            return
        packet.received_time = self.now
        packet.hop_trace.append(receiver_id)
        self._accept_packet(receiver, packet)

    def _ev_ack_rx(self, sender_id: NodeId, receiver_id: NodeId, state: _TxState):
        node = self.nodes[sender_id]
        if not node.alive:
            # no timer follows: the exchange delivered, so there is no drop
            return
        if not self._spend(node, self._idle_nj):
            # dead paying for the ACK: the transmission ends, and nothing else
            self._finish_tx(node)
            return
        peer = self.nodes[receiver_id]
        node.delays.dt_update(receiver_id, state.t_s, self.now, self._ack_ser)
        # piggybacked state of the ACKing node
        rev = peer.prr_in.get(sender_id)
        node.table.process_ack_info(
            receiver_id, peer.reported_energy, peer.delays.dq,
            rev.prr if rev is not None else None, self.now)
        self._log(sender_id, "ack_rx", state.packet.packet_id, "from={}", receiver_id)
        self._finish_tx(node)

    def _ev_ack_timeout(self, sender_id: NodeId, state: _TxState):
        node = self.nodes[sender_id]
        if not node.alive:
            if not state.delivered_any:
                self._drop(state.packet, "dead_node", sender_id)
            return
        if state.attempts > self.cfg.max_retries:
            self._log(sender_id, "hop_failed", state.packet.packet_id, "to={}",
                      state.next_hop)
            # unreachable-neighbor detection: a hop that never ACKed is
            # dropped from the table until its next HELLO revives it
            node.table.forget(state.next_hop)
            if not state.delivered_any:
                self._drop(state.packet, "retries_exhausted", sender_id)
            self._finish_tx(node)
            return
        self._begin_attempt(node, state)

    # ---- housekeeping ----------------------------------------------------

    def _ev_audit(self):
        for node in self.nodes.values():   # built in ascending id order
            if node.alive:
                self._spend(node, self._idle_nj)
        if self._drain_until is None:
            self._schedule(self.now + self.cfg.audit_period, self._ev_audit)

    def _drop(self, packet: Packet, cause: str, nid: NodeId):
        self.metrics.record_copy_lost(packet.logical_id, packet.packet_id, cause)
        self._log(nid, "drop", packet.packet_id, cause)

    # ---- verification hooks ----------------------------------------------

    def energy_spent_by_nodes_nj(self) -> int:
        return sum(node.energy.spent_nj for node in self.nodes.values())

    def initial_minus_residual_nj(self) -> int:
        return sum(node.energy.initial_nj - node.energy.residual_nj
                   for node in self.nodes.values())


def run(cfg: SimConfig, trace=None) -> MetricsLedger:
    sim = Simulation(cfg, trace=trace)
    return sim.run()
