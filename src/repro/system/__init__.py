"""Synchronous distributed-system substrate.

Implements the paper's system model from scratch: a synchronous, round-based
message-passing system in either the **server-based** architecture (trusted
server, up to ``f`` Byzantine agents) or the **peer-to-peer** architecture
(agents simulate the server via Byzantine broadcast, requiring ``f < n/3``).

The :mod:`repro.system.netfaults` / :mod:`repro.system.healing` pair drops
the synchrony assumption: a deterministic partially-synchronous network
(bounded delay, drops, duplicates, payload corruption, stragglers,
crash-recovery) and the self-healing server runtime that survives it.
"""

from repro.system.adversary import Adversary
from repro.system.agents import Agent, CrashAgent, HonestAgent
from repro.system.broadcast import BroadcastResult, EquivocatingSender, byzantine_broadcast
from repro.system.messages import EstimateBroadcast, GradientMessage, Message
from repro.system.network import DeliveryRecord, SynchronousNetwork
from repro.system.batch import batch_unsupported_reason, run_dgd_batch
from repro.system.faultinjection import (
    CallCounter,
    CrashOnCalls,
    FailEveryNth,
    FailMatching,
    FailOnCalls,
    FaultPolicy,
    FaultyWorker,
    HangOnCalls,
    RandomFaults,
    TransientlyUnpicklable,
    corrupt_cache_entry,
    corrupt_json_file,
    deterministic_choice,
    deterministic_draw,
)
from repro.system.decentralized import (
    DECENTRALIZED_AGGREGATIONS,
    DecentralizedExecutionResult,
    run_decentralized_dgd,
)
from repro.system.healing import (
    LivenessTracker,
    NeighborhoodLiveness,
    ResiliencePolicy,
    ResilientDGDServer,
    RoundInbox,
)
from repro.system.netfaults import (
    CORRUPTION_MODES,
    ChurnWindow,
    FaultProfile,
    LinkFaultModel,
    LinkFaultProfile,
    NetworkFaultModel,
    PartiallySynchronousNetwork,
    PartitionWindow,
    corrupt_gradient,
    corrupt_payload_rows,
)
from repro.system.peer_to_peer import PeerExecutionResult, run_peer_to_peer_dgd
from repro.system.topology import (
    Topology,
    available_topologies,
    complete_topology,
    make_topology,
    random_geometric_topology,
    random_regular_topology,
    ring_topology,
    scale_free_topology,
    torus_topology,
)
from repro.system.runner import DGDConfig, Trace, apply_config_overrides, run_dgd
from repro.system.server import DGDServer, fixed_filter_factory

__all__ = [
    "Message",
    "EstimateBroadcast",
    "GradientMessage",
    "SynchronousNetwork",
    "DeliveryRecord",
    "Agent",
    "HonestAgent",
    "CrashAgent",
    "Adversary",
    "DGDServer",
    "DGDConfig",
    "Trace",
    "run_dgd",
    "run_dgd_batch",
    "batch_unsupported_reason",
    "apply_config_overrides",
    "byzantine_broadcast",
    "BroadcastResult",
    "EquivocatingSender",
    "run_peer_to_peer_dgd",
    "PeerExecutionResult",
    "FaultPolicy",
    "FaultyWorker",
    "CallCounter",
    "FailEveryNth",
    "FailOnCalls",
    "FailMatching",
    "HangOnCalls",
    "CrashOnCalls",
    "RandomFaults",
    "TransientlyUnpicklable",
    "corrupt_json_file",
    "corrupt_cache_entry",
    "deterministic_draw",
    "deterministic_choice",
    "CORRUPTION_MODES",
    "FaultProfile",
    "NetworkFaultModel",
    "PartiallySynchronousNetwork",
    "corrupt_gradient",
    "ResiliencePolicy",
    "LivenessTracker",
    "NeighborhoodLiveness",
    "RoundInbox",
    "ResilientDGDServer",
    "fixed_filter_factory",
    "ChurnWindow",
    "LinkFaultModel",
    "LinkFaultProfile",
    "PartitionWindow",
    "corrupt_payload_rows",
    "Topology",
    "available_topologies",
    "complete_topology",
    "make_topology",
    "random_geometric_topology",
    "random_regular_topology",
    "ring_topology",
    "scale_free_topology",
    "torus_topology",
    "DECENTRALIZED_AGGREGATIONS",
    "DecentralizedExecutionResult",
    "run_decentralized_dgd",
]
