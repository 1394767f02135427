"""Tornado-style approximate/exact query serving over streaming graphs.

Tornado (SIGMOD'16, discussed in the paper's related work) serves
real-time analytics with a *main loop* that cheaply maintains
approximate results as the graph evolves and *branch loops* that, on a
user query, fork off the current state and iterate it to an exact
answer.  :class:`~repro.serving.server.StreamingAnalyticsServer`
realises that architecture on GraphBolt: the main loop is a
GraphBolt engine running a short BSP window (kept exact-for-its-window
by dependency-driven refinement), and a query branches the rolling
state forward to the full window or to convergence without disturbing
ingestion.

:mod:`repro.serving.resilience` wraps the server in an overload layer:
bounded-queue admission control, deadline-budgeted queries, and a
degradation circuit breaker over the recovery path.
:mod:`repro.serving.observe` attaches the observability layer: a
:class:`~repro.serving.observe.ServingObserver` turns every applied
batch and served query into a wide event and an SLO evaluator tick.
:mod:`repro.serving.replication` ships the durable writer's WAL tail
and checkpoints to read replicas (with epoch fencing and promotion)
over the links of :mod:`repro.serving.transport`, and
:mod:`repro.serving.router` routes deadline-budgeted
queries across them with lag-aware candidate selection and
deadline-preserving failover.  :mod:`repro.serving.chaos` turns the
transport hostile on demand -- seeded drop/duplicate/reorder/delay/
corrupt fault plans -- which the bounded
:class:`~repro.serving.transport.RetryPolicy`, CRC NACKs, and the
durable dead-letter ledger are proven against.
"""

from repro.serving.chaos import ChaosConfig, ChaosTransport, wrap_cluster
from repro.serving.observe import PlantedLatency, ServingObserver
from repro.serving.replication import (
    ReadReplica,
    ReplicaUnavailableError,
    ReplicationCluster,
    ReplicationGapError,
    ReplicationWriter,
    ShipmentIntegrityError,
    replication_status,
)
from repro.serving.resilience import (
    ADMISSION_POLICIES,
    BreakerConfig,
    CircuitBreaker,
    HealthSnapshot,
    ResilientAnalyticsServer,
)
from repro.serving.router import (
    NoReplicaAvailableError,
    QueryRouter,
    RoutedResult,
    StalenessError,
)
from repro.serving.server import QueryResult, StreamingAnalyticsServer
from repro.serving.transport import (
    DeadLetterLedger,
    DirectoryTransport,
    EpochAuthority,
    InProcessTransport,
    ReplicationError,
    RetryPolicy,
    Shipment,
    corrupt_shipment,
)

__all__ = [
    "ADMISSION_POLICIES",
    "BreakerConfig",
    "ChaosConfig",
    "ChaosTransport",
    "CircuitBreaker",
    "DeadLetterLedger",
    "DirectoryTransport",
    "EpochAuthority",
    "HealthSnapshot",
    "InProcessTransport",
    "NoReplicaAvailableError",
    "PlantedLatency",
    "QueryResult",
    "QueryRouter",
    "ReadReplica",
    "ReplicaUnavailableError",
    "ReplicationCluster",
    "ReplicationError",
    "ReplicationGapError",
    "ReplicationWriter",
    "ResilientAnalyticsServer",
    "RetryPolicy",
    "RoutedResult",
    "ServingObserver",
    "Shipment",
    "ShipmentIntegrityError",
    "StalenessError",
    "StreamingAnalyticsServer",
    "corrupt_shipment",
    "wrap_cluster",
]
