"""One- and two-hop neighbor tables maintained from HELLO beacons and
ACK piggybacking, plus the favorable-forwarder set computations.

A node x learns about neighbor y from y's periodic HELLO: y's residual
energy, per-class queuing-delay estimates, the reliability y measured on the
link x->y, and y's own one-hop list (which gives x its two-hop view): a dict
z -> `(dt_yz, prr_yz)`, y's transmission-delay estimate toward z and the
reliability of link y->z as reported to y. ACKs refresh the ACKing node's
own fields between HELLOs. Positions are not carried: the geometry is fixed,
and distances are read by node id from the kernel
(`Simulation.sink_distance`, `Simulation.positions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NodeId, PacketClass

# Simulated wire sizes (bytes) for energy/overhead accounting. The header
# still counts 8 bytes of position, which a deployed node would send: HELLO
# airtime sets the arrival times in the event trace.
HELLO_HEADER_BYTES = 4 + 8 + 4 + 16      # sender id, position, energy, 4x dq
HELLO_PRR_ENTRY_BYTES = 6
HELLO_NEIGHBOR_ENTRY_BYTES = 26


@dataclass(slots=True)
class HelloMessage:
    sender: NodeId
    energy: float
    dq: dict                           # sender's per-class queuing estimates
    reverse_prr: dict                  # NodeId -> prr of link (that node -> sender)
    # NodeId -> (dt_yz, prr_yz): tuples, so one beacon's entries can be
    # shared by every table that hears it
    one_hop: dict

    @property
    def size_bytes(self) -> int:
        return (HELLO_HEADER_BYTES
                + HELLO_PRR_ENTRY_BYTES * len(self.reverse_prr)
                + HELLO_NEIGHBOR_ENTRY_BYTES * len(self.one_hop))


@dataclass(slots=True)
class NeighborRecord:
    neighbor: NodeId
    prr_xy: float            # as last reported by the neighbor (receiver side)
    # The neighbor's per-class queuing estimates: its own `DelayEstimator.dq`
    # as of the HELLO or ACK that last refreshed the record, shared with every
    # other receiver of that message. It is only ever replaced, never mutated.
    dq: dict
    energy: float
    last_heard: float
    # The one_hop dict of the neighbor's last HELLO, shared with every other
    # receiver of that beacon. It may list the owner itself, which never
    # forms a pair: see `favorable_pairs`.
    two_hop: dict = field(default_factory=dict)   # NodeId -> (dt_yz, prr_yz)


@dataclass(slots=True)
class ForwarderPair:
    """A candidate (first hop y, second hop z) with its routing metrics.
    `favorable_pairs` builds one per pair, positionally, in field order."""
    y: NodeId
    z: NodeId
    progress: float          # dist(x, D) - dist(z, D), meters
    denominator: float       # dq_x + dt_xy + dq_y + dt_yz, seconds
    velocity: float          # progress / denominator, m/s
    prr_xy: float
    prr_yz: float
    energy_y: float
    tx_cost_y: int           # energy cost of the x->y transmission, nJ


class NeighborTable:
    """Per-node neighbor state. Records expire if no HELLO (or ACK) is
    heard within `expiry` seconds."""

    def __init__(self, owner: NodeId, expiry: float):
        self.owner = owner
        self.expiry = expiry
        self.records: dict[NodeId, NeighborRecord] = {}
        self.malformed_dropped = 0

    def process_hello(self, hello, now: float) -> None:
        if not self._well_formed(hello):
            self.malformed_dropped += 1
            return
        rec = self._refresh(hello.sender, hello.energy, hello.dq,
                            hello.reverse_prr.get(self.owner), now)
        rec.two_hop = hello.one_hop

    def process_ack_info(self, sender: NodeId, energy: float, dq: dict,
                         prr_xy: float | None, now: float) -> None:
        """ACK piggyback: refresh the ACKing node's own fields only."""
        self._refresh(sender, energy, dq, prr_xy, now)

    def _refresh(self, sender: NodeId, energy: float, dq: dict,
                 prr_xy: float | None, now: float) -> NeighborRecord:
        """Create or refresh `sender`'s record from a HELLO or an ACK. A
        message that reports no reliability (`prr_xy` None) leaves the old
        value, or 1.0 in a new record. The record keeps `dq` itself."""
        rec = self.records.get(sender)
        if rec is None:
            rec = self.records[sender] = NeighborRecord(sender, 1.0, dq,
                                                        energy, now)
        rec.dq = dq
        rec.energy = energy
        rec.last_heard = now
        if prr_xy is not None:
            rec.prr_xy = prr_xy
        return rec

    def _well_formed(self, hello) -> bool:
        return isinstance(hello, HelloMessage) and hello.sender != self.owner

    def forget(self, neighbor: NodeId) -> None:
        """Drop `neighbor`'s record, if any, until its next HELLO or ACK."""
        self.records.pop(neighbor, None)

    def evict_stale(self, now: float) -> list:
        """Drop the records not heard within `expiry` of `now`, and return
        the rest in table order: what `live_records(now)` would return."""
        expiry = self.expiry
        records = self.records
        live = [r for r in records.values() if now - r.last_heard <= expiry]
        if len(live) < len(records):
            for n in [n for n, r in records.items()
                      if now - r.last_heard > expiry]:
                del records[n]
        return live

    def live_records(self, now: float):
        expiry = self.expiry
        return [r for r in self.records.values() if now - r.last_heard <= expiry]

    def favorable_one_hop(self, live, d_own: float, to_dest):
        """F1: (record, its distance to the destination) for each of the
        `live` records strictly closer to the destination than the owner,
        which lies `d_own` from it. `to_dest` maps every node id to its
        distance to the destination."""
        return [(r, d_y) for r in live
                if d_own - (d_y := to_dest[r.neighbor]) > 0]

    def favorable_pairs(self, f1, to_dest, d_own: float, cls: PacketClass,
                        dq_x: float, delays, links):
        """All (y, z) forwarder pairs with positive progress at both hops,
        over F1 as `favorable_one_hop` returns it.

        `delays` supplies dt_for(neighbor). `links[y]` is the owner's link to
        y, whose third field is its transmit cost in nJ: the first-hop cost
        of the power score. The owner, which y may list, fails the second-hop
        test: its distance `d_own` exceeds y's.
        """
        pairs = []
        append, dt_for = pairs.append, delays.dt_for
        for rec, d_y in f1:
            y = rec.neighbor
            prr_xy, energy_y = rec.prr_xy, rec.energy
            cost_y = links[y][2]
            # dq_x + dt_xy + dq_y + dt_yz, summed left to right
            partial = dq_x + dt_for(y) + rec.dq.get(cls, 0.0)
            for z, (dt_yz, prr_yz) in rec.two_hop.items():
                d_z = to_dest[z]
                if d_y - d_z <= 0:
                    continue
                progress = d_own - d_z
                denom = partial + dt_yz
                if denom <= 0:
                    raise ZeroDivisionError(
                        f"zero delay denominator for pair ({y},{z})")
                append(ForwarderPair(y, z, progress, denom, progress / denom,
                                     prr_xy, prr_yz, energy_y, cost_y))
        return pairs
