"""Join trees (Definition 3) and their trace-driven properties.

A join tree ``Tree(W, X)`` combines one join path per partitioned table of
a homogeneous workload ``W``, all ending at the root attribute ``X``. The
tree maps every tuple the workload touches to a value of ``X``; a tree is a
**mapping-independent** solution (Definition 7) when every transaction's
tuples map to a *single* root value. The test runs on interned class
views only, through :class:`~repro.core.path_eval.ColumnarEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import PartitioningError
from repro.schema.attribute import Attr
from repro.core.join_path import JoinPath
from repro.core.metrics import ClassMetrics
from repro.core.path_eval import ColumnarEngine
from repro.trace.columnar import ColumnarClassTrace


@dataclass(frozen=True)
class JoinTree:
    """One join path per covered table, all rooted at ``root``."""

    root: Attr
    paths: Mapping[str, JoinPath]

    def __post_init__(self) -> None:
        for table, path in self.paths.items():
            if path.source_table != table:
                raise PartitioningError(
                    f"path for {table} starts at {path.source_table}"
                )
            if path.destination != self.root:
                raise PartitioningError(
                    f"path for {table} ends at {path.destination}, not {self.root}"
                )

    @property
    def tables(self) -> frozenset[str]:
        return frozenset(self.paths)

    def path(self, table: str) -> JoinPath:
        return self.paths[table]

    def __hash__(self) -> int:
        return hash((self.root, tuple(sorted(self.paths.items(), key=lambda kv: kv[0]))))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JoinTree)
            and self.root == other.root
            and dict(self.paths) == dict(other.paths)
        )

    def __str__(self) -> str:
        lines = [f"Tree(root={self.root})"]
        for table in sorted(self.paths):
            lines.append(f"  {table}: {self.paths[table]}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # trace-driven semantics
    # ------------------------------------------------------------------
    def is_mapping_independent(
        self,
        view: ColumnarClassTrace,
        engine: ColumnarEngine,
        metrics: ClassMetrics | None = None,
    ) -> bool:
        """Definition 7: every transaction maps to exactly one root value.

        *view* is a class view of *engine*'s interned trace; the verdict
        comes from :meth:`ColumnarEngine.tree_is_mapping_independent`.
        *metrics* collects the test, its refutation, the covered tuple
        probes, its wall time and the engine's column hits and misses.
        """
        started = time.perf_counter()
        verdict, probes = engine.tree_is_mapping_independent(
            self, view, None if metrics is None else metrics.cache
        )
        if metrics is not None:
            metrics.mi_tests += 1
            if not verdict:
                metrics.mi_refuted += 1
            metrics.path_evaluations += probes
            metrics.mi_seconds += time.perf_counter() - started
        return verdict

    def restrict(self, tables: Iterable[str]) -> "JoinTree":
        """The tree covering only *tables* (a workload-elimination view)."""
        subset = {t for t in tables if t in self.paths}
        return JoinTree(self.root, {t: self.paths[t] for t in subset})

    # ------------------------------------------------------------------
    # sub-trees (partial solutions)
    # ------------------------------------------------------------------
    def subtrees(self) -> list["JoinTree"]:
        """Sub-join-trees obtained by removing the root attribute.

        Each covered table's path is shortened by its final hop; paths that
        then end at different attributes split the tree into one sub-tree
        per new root. Tables whose path becomes empty (the root was inside
        the table itself) drop out.
        """
        truncated: dict[Attr, dict[str, JoinPath]] = {}
        for table, path in self.paths.items():
            if len(path) <= 1:
                continue
            shorter = JoinPath(path.nodes[:-1], path.steps[:-1])
            if len(shorter.nodes[-1]) != 1:
                # New terminal is a composite key set; per Definition 2 a
                # destination must be a single attribute, so walk back one
                # more hop if possible.
                if len(shorter) <= 1:
                    continue
                shorter = JoinPath(shorter.nodes[:-1], shorter.steps[:-1])
                if len(shorter.nodes[-1]) != 1:
                    continue
            (new_root,) = shorter.nodes[-1]
            truncated.setdefault(new_root, {})[table] = shorter
        out = []
        for new_root, paths in sorted(truncated.items()):
            out.append(JoinTree(new_root, paths))
        return out


def tree_relation(finer: JoinTree, coarser: JoinTree) -> bool:
    """Definition 9: is *coarser* equal to *finer* + one path p(X, Y)?

    True when both trees cover the same tables and every table's coarser
    path extends its finer path by one identical suffix starting at the
    finer root.
    """
    if finer.tables != coarser.tables:
        return False
    expected_suffix: tuple | None = None
    for table in finer.tables:
        fine_path = finer.paths[table]
        coarse_path = coarser.paths[table]
        if not fine_path.is_prefix_of(coarse_path):
            return False
        suffix = coarse_path.nodes[len(fine_path) - 1 :]
        if suffix[0] != frozenset({finer.root}):
            return False
        if expected_suffix is None:
            expected_suffix = suffix
        elif suffix != expected_suffix:
            return False
    # A genuine extension p(X, Y) has at least two nodes (X != Y);
    # otherwise the trees are identical, not finer/coarser.
    return expected_suffix is not None and len(expected_suffix) >= 2


def prune_compatible_trees(trees: Iterable[JoinTree]) -> list[JoinTree]:
    """Drop trees that are coarser versions of another tree in the set.

    Phase 2 keeps the finest representative of each compatible family: the
    finer tree yields finer partitions and composes better in Phase 3
    (Property 1 guarantees it stays mapping independent).
    """
    trees = list(trees)
    keep: list[JoinTree] = []
    for candidate in trees:
        is_coarser = any(
            other is not candidate and tree_relation(other, candidate)
            for other in trees
        )
        if not is_coarser:
            keep.append(candidate)
    return keep
