"""Next-hop selection: velocity computation, deadline bookkeeping, the
class-differentiated decision rules, tdthr's void recovery, and the table
of routing protocols.

Delay-responsive and critical packets are routed with the two-hop velocity
rule: among forwarder pairs whose offered velocity meets the required
velocity, delay-responsive traffic picks the most power-efficient first hop,
critical traffic first maximizes path reliability and breaks ties on power.
Regular traffic is plain greedy-geographic; reliability-responsive traffic
maximizes path reliability unconditionally. Offered velocities are computed
where the pairs are built, in `NeighborTable.favorable_pairs`.

`PROTOCOLS` holds each protocol's next-hop rule, its recovery rule and its
per-class policy (the queue each class waits in, the classes dropped once
late, the classes sent to both sinks), so that the kernel never knows which
protocol it runs. A rule takes one `Decision`, the view of the
neighbourhood that `Simulation._select` builds once per decision, and reads
nothing else: no config and no kernel object. It returns a live neighbour,
or None for "no next hop", never raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .core import NodeId, Packet, PacketClass
from .estimators import DelayEstimator
from .neighborhood import ForwarderPair, NeighborTable


class NoQualifyingPair(Exception):
    """No forwarder pair offers the required velocity."""


class VoidRegion(Exception):
    """No next hop: the kernel's verdict where a protocol's rules give None."""


def required_velocity(dist_to_sink: float, lag_time: float) -> float:
    if lag_time <= 0:
        raise ValueError(f"lag time {lag_time} s is not positive")
    return dist_to_sink / lag_time


def update_lag_time(lt_p: float, t_rx: float, t_tx: float,
                    airtime: float) -> float:
    """Renew the remaining deadline budget at transmission time: subtract
    the local sojourn (t_tx - t_rx) plus the frame's airtime in seconds.
    A budget at or below 0 means the packet is late."""
    if t_tx < t_rx:
        raise ValueError("transmission cannot precede reception")
    return lt_p - (t_tx - t_rx + airtime)


def _energy_key(pair: ForwarderPair):
    # Most residual energy first, then the cheapest transmission; the fixed
    # per-reception cost dwarfs short-hop savings, so energy must dominate
    # the ordering or nearby relays get starved to death. Deterministic
    # tie-break on lower y then z id.
    return (-pair.energy_y, pair.tx_cost_y, pair.y, pair.z)


def _efficiency_key(pair: ForwarderPair):
    # argmax residual energy per unit of transmission cost; a 0 nJ hop first
    cost = pair.tx_cost_y
    return (-(pair.energy_y / cost) if cost else -math.inf, pair.y, pair.z)


def select_next_hop(pairs, v_req: float, cls: PacketClass) -> ForwarderPair:
    """Two-hop velocity selection for delay-responsive and critical traffic.

    Filters pairs by offered velocity >= v_req; a single survivor wins
    outright. Otherwise delay-responsive picks the relay with the most
    residual energy (cheapest transmission on ties) and critical picks the
    most reliable path, prr_xy * prr_yz, power efficiency (residual energy
    per unit of transmission cost) breaking reliability ties.
    """
    if cls not in (PacketClass.DELAY_RESPONSIVE, PacketClass.CRITICAL):
        raise ValueError(f"velocity selection does not apply to {cls}")
    s_req = [p for p in pairs if p.velocity >= v_req]
    if not s_req:
        raise NoQualifyingPair(f"no pair offers {v_req:.3f} m/s")
    if len(s_req) == 1:
        return s_req[0]
    if cls is PacketClass.DELAY_RESPONSIVE:
        return min(s_req, key=_energy_key)
    # critical: most reliable path (computed once per survivor), then power
    prrs = [p.prr_xy * p.prr_yz for p in s_req]
    best = max(prrs)
    s_c = [p for p, prr in zip(s_req, prrs) if prr == best]
    if len(s_c) == 1:
        return s_c[0]
    return min(s_c, key=_efficiency_key)


def best_effort_pair(pairs) -> ForwarderPair | None:
    """Fallback when no pair meets the required velocity: take the fastest
    pair anyway (the packet is flagged as having missed its velocity)."""
    return min(pairs, key=lambda p: (-p.velocity, p.y, p.z), default=None)


def route_regular(candidates) -> NodeId | None:
    """Greedy geographic choice over (neighbor, progress) candidates."""
    if not candidates:
        return None
    return min(candidates, key=lambda c: (-c[1], c[0]))[0]


def route_reliability(pairs) -> NodeId:
    """Most reliable path over a non-empty list of pairs: argmax
    prr_xy * prr_yz, ties broken by residual energy, transmission cost,
    then lower id."""
    return min(pairs, key=lambda p: (-(p.prr_xy * p.prr_yz), -p.energy_y,
                                     p.tx_cost_y, p.y, p.z)).y


@dataclass(slots=True)
class Decision:
    """A forwarding decision's view, built once by `Simulation._select`."""
    owner: NodeId
    packet: Packet
    table: NeighborTable      # the owner's; `live` is its records, read once
    delays: DelayEstimator    # the owner's dq and dt estimates
    live: list
    to_dest: dict             # node id -> distance to the packet's sink
    d_own: float              # the owner's distance to that sink
    links: dict               # neighbour id -> the owner's (p, delay, cost nJ)
    # set by a select rule whose hop is slower than the deadline requires
    missed: bool = False


@dataclass(frozen=True)
class RoutingProtocol:
    """All the kernel knows of a routing protocol; see `PROTOCOLS`."""
    # `Simulation._select` calls select(view), a `Decision` -> a neighbour in
    # `view.live` or None, which goes to `recover`, or is a void where there
    # is none; a hop slower than the deadline requires sets `view.missed`
    select: Callable
    recover: Callable | None = None  # the same view -> next hop, or None
    # class -> the queue it waits in (`queueing.QueueBank`); queue 0 is
    # served first, and an entry in any other is promoted to it when aged.
    # By default every class shares queue 0, one FIFO with no promotion.
    lanes: dict = field(default_factory=lambda: dict.fromkeys(PacketClass, 0))
    expire_in_network: frozenset = frozenset()  # classes dropped once late
    # classes also sent to the other sink, where `protocol.duplicate` is on
    duplicated: frozenset = frozenset()


def _progress(d_own: float, f1) -> list:
    """(neighbor, progress toward the destination) for each F1 entry."""
    return [(r.neighbor, d_own - d_y) for r, d_y in f1]


def select_greedy_geo(view: Decision) -> NodeId | None:
    f1 = view.table.favorable_one_hop(view.live, view.d_own, view.to_dest)
    return route_regular(_progress(view.d_own, f1))


def select_tdthr(view: Decision) -> NodeId | None:
    packet, d_own = view.packet, view.d_own
    anchor = packet.recovery_anchor
    if anchor is not None:
        if d_own >= anchor:
            return None   # still in recovery: `detour` again
        packet.recovery_anchor = None  # escaped the dead-end region
    f1 = view.table.favorable_one_hop(view.live, d_own, view.to_dest)
    if not f1:
        return None   # a void: every class's rule would end here
    cls = packet.cls
    if cls is PacketClass.REGULAR:
        return route_regular(_progress(d_own, f1))
    delays = view.delays
    pairs = view.table.favorable_pairs(
        f1, view.to_dest, d_own, cls, delays.dq[cls], delays, view.links)
    if cls is PacketClass.RELIABILITY_RESPONSIVE:
        if pairs:
            return route_reliability(pairs)
        # no pair known: the most reliable first hop
        return route_regular([(r.neighbor, r.prr_xy) for r, _ in f1])
    # critical / delay-responsive: velocity-filtered two-hop selection, or
    # greedy where no pair is known
    if not pairs:
        return route_regular(_progress(d_own, f1))
    v_req = required_velocity(d_own, packet.lag_time)
    try:
        return select_next_hop(pairs, v_req, cls).y
    except NoQualifyingPair:
        view.missed = True
        return best_effort_pair(pairs).y


def detour(view: Decision) -> NodeId | None:
    """tdthr's recovery, a local-minimum escape: no live neighbor offers
    positive progress, so hand the packet to the neighbor closest to the
    destination that it has not visited yet. The packet stays in recovery
    mode until it gets strictly closer to the destination than where the
    detour began (`select_tdthr`); the hop trace breaks routing loops and
    the deadline bounds the excursion."""
    if view.packet.recovery_anchor is None:
        view.packet.recovery_anchor = view.d_own
    visited = {view.owner, *view.packet.hop_trace}
    candidates = [(view.to_dest[r.neighbor], r.neighbor)
                  for r in view.live if r.neighbor not in visited]
    return min(candidates)[1] if candidates else None


def select_one_hop_velocity(view: Decision) -> NodeId | None:
    f1 = view.table.favorable_one_hop(view.live, view.d_own, view.to_dest)
    if not f1:
        return None
    speeds = [(nid, progress / view.delays.dt_for(nid))
              for nid, progress in _progress(view.d_own, f1)]
    if view.packet.lag_time > 0:
        v_req = required_velocity(view.d_own, view.packet.lag_time)
        qualifying = [s for s in speeds if s[1] >= v_req]
    else:
        qualifying = []
    if not qualifying:
        view.missed = True
        qualifying = speeds
    return min(qualifying, key=lambda s: (-s[1], s[0]))[0]


# Adding a protocol takes one entry here and one select function above
# (and a recover function, if a void should not drop the packet).
PROTOCOLS = {
    "tdthr": RoutingProtocol(
        select_tdthr, recover=detour,
        # the paper's three priority queues: reliability-responsive and
        # regular traffic share the last
        lanes={PacketClass.CRITICAL: 0, PacketClass.DELAY_RESPONSIVE: 1,
               PacketClass.RELIABILITY_RESPONSIVE: 2, PacketClass.REGULAR: 2},
        expire_in_network=frozenset({PacketClass.CRITICAL,
                                     PacketClass.DELAY_RESPONSIVE}),
        duplicated=frozenset({PacketClass.CRITICAL,
                              PacketClass.RELIABILITY_RESPONSIVE})),
    "one_hop_velocity": RoutingProtocol(select_one_hop_velocity),
    "greedy_geo": RoutingProtocol(select_greedy_geo),
}
