"""Next-hop selection: velocity computation, deadline bookkeeping, and the
class-differentiated decision rules.

Delay-responsive and critical packets are routed with the two-hop velocity
rule: among forwarder pairs whose offered velocity meets the required
velocity, delay-responsive traffic picks the most power-efficient first hop,
critical traffic first maximizes path reliability and breaks ties on power.
Regular traffic is plain greedy-geographic; reliability-responsive traffic
maximizes path reliability unconditionally. Offered velocities are computed
where the pairs are built, in `NeighborTable.favorable_pairs`.
"""

from __future__ import annotations

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
                    packet_size: int, bandwidth: float) -> float:
    """Renew the remaining deadline budget at transmission time: subtract
    the local sojourn (t_tx - t_rx) plus serialization time."""
    if t_tx < t_rx:
        raise ValueError("transmission cannot precede reception")
    lt = lt_p - (t_tx - t_rx + packet_size * 8 / bandwidth)
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
    return (-pair.power_score, pair.y, pair.z)


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
    # critical: maximize reliability, then power
    if critical_prr_scope == "one_hop":
        prr_of = lambda p: p.prr_xy
    elif critical_prr_scope == "two_hop":
        prr_of = lambda p: p.prr_path
    else:
        raise ValueError(f"unknown critical_prr_scope {critical_prr_scope!r}")
    best = max(prr_of(p) for p in s_req)
    s_c = [p for p in s_req if prr_of(p) == best]
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
        return min(pairs, key=lambda p: (-p.prr_path, -p.energy_y,
                                         p.tx_cost_y, p.y, p.z)).y
    if one_hop_fallback:
        return min(one_hop_fallback, key=lambda c: (-c[1], c[0]))[0]
    raise VoidRegion("no favorable forwarder at all")
