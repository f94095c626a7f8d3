"""Simulated partitioned cluster: physical placement, 2PC accounting,
fault injection, and live repartitioning."""

from repro.cluster.cluster import Cluster, CostConfig
from repro.cluster.faults import CRASH, RECOVER, REPARTITION, FaultEvent, FaultPlan
from repro.cluster.node import Node
from repro.core.metrics import ClusterMetrics
from repro.errors import ClusterError, ClusterUnavailable

__all__ = [
    "CRASH",
    "RECOVER",
    "REPARTITION",
    "Cluster",
    "ClusterError",
    "ClusterMetrics",
    "ClusterUnavailable",
    "CostConfig",
    "FaultEvent",
    "FaultPlan",
    "Node",
]
