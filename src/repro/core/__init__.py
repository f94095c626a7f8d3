"""JECB core: the paper's primary contribution.

Public surface:

* :class:`JECBPartitioner` / :class:`JECBConfig` / :class:`JECBResult` —
  run the three-phase pipeline end to end;
* :class:`JoinPath`, :class:`JoinTree`, :class:`AttributeLattice` — the
  Definition 2/3/12 machinery;
* mapping functions and the solution model (Definitions 4, 10, 11).
"""

from repro.core.compat import AttributeLattice
from repro.core.join_graph import JoinGraph
from repro.core.join_path import JoinPath, paths_compatible
from repro.core.join_tree import JoinTree, prune_compatible_trees, tree_relation
from repro.core.mapping import (
    REPLICATED,
    HashMapping,
    IdentityModMapping,
    LookupMapping,
    MappingFunction,
    RangeMapping,
    ReplicateMapping,
    stable_hash,
)
from repro.core.metrics import CacheStats, ClassMetrics, SearchMetrics
from repro.core.partitioner import JECBConfig, JECBPartitioner, JECBResult
from repro.core.path_eval import SnapshotIndex
from repro.core.placement import UNROUTABLE, PlacementStore
from repro.core.phase2 import ClassResult, Phase2Config, partition_class
from repro.core.phase3 import Phase3Config, Phase3Result, combine
from repro.core.solution import (
    PARTIAL,
    TOTAL,
    ClassSolution,
    DatabasePartitioning,
    TableSolution,
)

__all__ = [
    "AttributeLattice",
    "JoinGraph",
    "JoinPath",
    "paths_compatible",
    "JoinTree",
    "prune_compatible_trees",
    "tree_relation",
    "REPLICATED",
    "HashMapping",
    "IdentityModMapping",
    "LookupMapping",
    "MappingFunction",
    "RangeMapping",
    "ReplicateMapping",
    "stable_hash",
    "CacheStats",
    "ClassMetrics",
    "SearchMetrics",
    "JECBConfig",
    "JECBPartitioner",
    "JECBResult",
    "SnapshotIndex",
    "UNROUTABLE",
    "PlacementStore",
    "ClassResult",
    "Phase2Config",
    "partition_class",
    "Phase3Config",
    "Phase3Result",
    "combine",
    "PARTIAL",
    "TOTAL",
    "ClassSolution",
    "DatabasePartitioning",
    "TableSolution",
]
