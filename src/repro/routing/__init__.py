"""Runtime routing of transactions to partitions (Section 3).

After partitioning, each incoming stored-procedure call must be routed.
The router selects a *routing attribute* among the attributes bound to the
procedure's parameters, consults a lookup table built over that attribute,
and falls back to broadcast when no routable attribute exists.

The tier is built for live workloads: lookup tables are group-by views
over a maintained placement store (:mod:`repro.core.placement`), which
hands them every change to their rows (with a version-checked rebuild
as the safety net). A lookup is built when a call first consults it, and
each procedure's routing plan is kept until a write or a column refill
moves the router's stamp; calls can be routed in batches, and a
:class:`RoutingMetrics` block records what the tier did.
"""

from repro.core.metrics import LatencyHistogram, RoutingMetrics
from repro.routing.lookup_table import LookupTable
from repro.routing.router import Router, RouteSummary, RoutingDecision

__all__ = [
    "LatencyHistogram",
    "LookupTable",
    "Router",
    "RouteSummary",
    "RoutingDecision",
    "RoutingMetrics",
]
