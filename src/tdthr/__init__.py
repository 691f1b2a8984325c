"""Traffic-differentiated two-hop QoS routing for wireless sensor networks,
with a deterministic discrete-event simulator and baseline protocols."""

from .config import SimConfig
from .core import NodeId, Packet, PacketClass, Position
from .estimators import DelayEstimator, PrrEstimator
from .forwarding import (NoQualifyingPair, VoidRegion, required_velocity,
                         select_next_hop, update_lag_time)
from .metrics import MetricsLedger
from .neighborhood import ForwarderPair, HelloMessage, NeighborTable
from .queueing import QueueBank
from .simkernel import Simulation, generate_topology

__all__ = [
    "NodeId", "Packet", "PacketClass", "Position",
    "DelayEstimator", "PrrEstimator",
    "NoQualifyingPair", "VoidRegion",
    "required_velocity", "select_next_hop", "update_lag_time",
    "MetricsLedger", "ForwarderPair", "HelloMessage", "NeighborTable",
    "QueueBank", "SimConfig", "Simulation", "generate_topology",
]

__version__ = "0.1.0"
