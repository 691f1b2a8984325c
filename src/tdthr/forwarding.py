"""Next-hop selection: velocity computation, deadline bookkeeping, the
class-differentiated decision rules, and the table of routing protocols.

Delay-responsive and critical packets are routed with the two-hop velocity
rule: among forwarder pairs whose offered velocity meets the required
velocity, delay-responsive traffic picks the most power-efficient first hop,
critical traffic first maximizes path reliability and breaks ties on power.
Regular traffic is plain greedy-geographic; reliability-responsive traffic
maximizes path reliability unconditionally. Offered velocities are computed
where the pairs are built, in `NeighborTable.favorable_pairs`.

`PROTOCOLS` holds each protocol's next-hop rule and the traits the kernel
reads, so that the kernel never knows which protocol it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import NodeId, PacketClass
from .neighborhood import ForwarderPair


class NoQualifyingPair(Exception):
    """No forwarder pair offers the required velocity."""


class VoidRegion(Exception):
    """No neighbor offers positive progress toward the destination."""


class DeadlineExpired(Exception):
    """The packet's remaining time budget is exhausted."""


def required_velocity(dist_to_sink: float, lag_time: float) -> float:
    if lag_time <= 0:
        raise DeadlineExpired(f"lag time {lag_time} s is not positive")
    return dist_to_sink / lag_time


def update_lag_time(lt_p: float, t_rx: float, t_tx: float,
                    airtime: float) -> float:
    """Renew the remaining deadline budget at transmission time: subtract
    the local sojourn (t_tx - t_rx) plus the frame's airtime in seconds."""
    if t_tx < t_rx:
        raise ValueError("transmission cannot precede reception")
    lt = lt_p - (t_tx - t_rx + airtime)
    if lt <= 0:
        raise DeadlineExpired(f"deadline unreachable, lag {lt:.6f} s")
    return lt


def _energy_key(pair: ForwarderPair):
    # Most residual energy first, then the cheapest transmission; the fixed
    # per-reception cost dwarfs short-hop savings, so energy must dominate
    # the ordering or nearby relays get starved to death. Deterministic
    # tie-break on lower y then z id.
    return (-pair.energy_y, pair.tx_cost_y, pair.y, pair.z)


def _efficiency_key(pair: ForwarderPair):
    # argmax residual energy per unit of transmission cost
    return (-(pair.energy_y / pair.tx_cost_y), pair.y, pair.z)


def select_next_hop(pairs, v_req: float, cls: PacketClass,
                    critical_prr_scope: str = "two_hop") -> ForwarderPair:
    """Two-hop velocity selection for delay-responsive and critical traffic.

    Filters pairs by offered velocity >= v_req; a single survivor wins
    outright. Otherwise delay-responsive picks the relay with the most
    residual energy (cheapest transmission on ties) and critical picks
    maximum reliability (first-hop or path reliability per
    `critical_prr_scope`), power efficiency (residual energy per unit of
    transmission cost) breaking reliability ties.
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
    # critical: maximize reliability (computed once per survivor), then power
    if critical_prr_scope == "one_hop":
        prrs = [p.prr_xy for p in s_req]
    elif critical_prr_scope == "two_hop":
        prrs = [p.prr_xy * p.prr_yz for p in s_req]
    else:
        raise ValueError(f"unknown critical_prr_scope {critical_prr_scope!r}")
    best = max(prrs)
    s_c = [p for p, prr in zip(s_req, prrs) if prr == best]
    if len(s_c) == 1:
        return s_c[0]
    return min(s_c, key=_efficiency_key)


def best_effort_pair(pairs) -> ForwarderPair:
    """Fallback when no pair meets the required velocity: take the fastest
    pair anyway (the packet is flagged as having missed its velocity)."""
    if not pairs:
        raise VoidRegion("no forwarder pairs available")
    return min(pairs, key=lambda p: (-p.velocity, p.y, p.z))


def route_regular(candidates) -> NodeId:
    """Greedy geographic choice over (neighbor, progress) candidates."""
    if not candidates:
        raise VoidRegion("no favorable one-hop forwarder")
    return min(candidates, key=lambda c: (-c[1], c[0]))[0]


def route_reliability(pairs, one_hop_fallback=()) -> NodeId:
    """Most reliable path: argmax prr_xy * prr_yz over pairs, ties broken by
    residual energy then lower id. Falls back to the one-hop neighbor with
    the best link reliability when no pair exists."""
    if pairs:
        return min(pairs, key=lambda p: (-(p.prr_xy * p.prr_yz), -p.energy_y,
                                         p.tx_cost_y, p.y, p.z)).y
    if one_hop_fallback:
        return min(one_hop_fallback, key=lambda c: (-c[1], c[0]))[0]
    raise VoidRegion("no favorable forwarder at all")


@dataclass(frozen=True)
class RoutingProtocol:
    """All the kernel knows of a routing protocol; see `PROTOCOLS`."""
    # `Simulation._select` calls (node, packet, to_dest, d_own, f1, links,
    # cfg) -> (next hop, whether it is slower than the deadline requires)
    select: Callable
    priority_queues: bool  # three priority queues with promotion, else one FIFO
    duplicates: bool       # honours duplicate_critical / duplicate_reliability
    recovers: bool = False  # a void enters recovery (`Simulation._detour`)
    expire_in_network: frozenset = frozenset()  # classes dropped once late


def _progress(d_own: float, f1) -> list:
    """(neighbor, progress toward the destination) for each F1 entry."""
    return [(r.neighbor, d_own - d_y) for r, d_y in f1]


def select_greedy_geo(node, packet, to_dest, d_own, f1, links, cfg):
    return route_regular(_progress(d_own, f1)), False


def select_tdthr(node, packet, to_dest, d_own, f1, links, cfg):
    cls = packet.cls
    if cls is PacketClass.REGULAR:
        return route_regular(_progress(d_own, f1)), False
    pairs = node.table.favorable_pairs(
        f1, to_dest, d_own, cls, node.delays.dq[cls], node.delays, links)
    if cls is PacketClass.RELIABILITY_RESPONSIVE:
        fallback = [(r.neighbor, r.prr_xy) for r, _ in f1]
        return route_reliability(pairs, fallback), False
    # critical / delay-responsive: velocity-filtered two-hop selection
    v_req = required_velocity(d_own, packet.lag_time)
    try:
        return select_next_hop(pairs, v_req, cls, cfg.critical_prr_scope).y, False
    except NoQualifyingPair:
        if pairs:
            return best_effort_pair(pairs).y, True
        return route_regular(_progress(d_own, f1)), False


def select_one_hop_velocity(node, packet, to_dest, d_own, f1, links, cfg):
    if not f1:
        raise VoidRegion("no favorable one-hop forwarder")
    speeds = [(nid, progress / node.delays.dt_for(nid))
              for nid, progress in _progress(d_own, f1)]
    if packet.lag_time > 0:
        v_req = required_velocity(d_own, packet.lag_time)
        qualifying = [s for s in speeds if s[1] >= v_req]
    else:
        qualifying = []
    missed = not qualifying
    if missed:
        qualifying = speeds
    return min(qualifying, key=lambda s: (-s[1], s[0]))[0], missed


# Adding a protocol takes one entry here and one select function above.
PROTOCOLS = {
    "tdthr": RoutingProtocol(
        select_tdthr, priority_queues=True, duplicates=True, recovers=True,
        expire_in_network=frozenset({PacketClass.CRITICAL,
                                     PacketClass.DELAY_RESPONSIVE})),
    "one_hop_velocity": RoutingProtocol(
        select_one_hop_velocity, priority_queues=False, duplicates=False),
    "greedy_geo": RoutingProtocol(
        select_greedy_geo, priority_queues=False, duplicates=False),
}
