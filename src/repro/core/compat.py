"""Attribute-granularity lattice: Definition 12 and Property 2.

Two attributes are *compatible* when one functionally determines the other
through key--foreign-key structure:

* attributes related by a foreign key (component-wise or as whole sets)
  have the **same granularity** (``X ≡ Y``);
* if a join path leads from ``X`` to ``Y``, then ``Y`` is **coarser**
  (``Y > X``) — many ``X`` values share one ``Y`` value.

The lattice is computed once per schema: union-find merges FK-correspondent
attribute sets into granularity classes, and a class digraph records the
coarsening step "primary key of T determines every attribute of T".
Comparisons are then equality / reachability queries, which makes
Property 2's transitivity automatic.
"""

from __future__ import annotations

from typing import Iterable

from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema

Node = frozenset  # frozenset[Attr]

EQUAL = "equal"
FIRST_COARSER = "first_coarser"
SECOND_COARSER = "second_coarser"


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Node, Node] = {}

    def find(self, item: Node) -> Node:
        parent = self._parent.setdefault(item, item)
        if parent is item or parent == item:
            return parent
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Node, b: Node) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


class AttributeLattice:
    """Granularity classes and coarseness reachability for one schema."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._uf = _UnionFind()
        # Merge FK correspondences: whole sets and component-wise.
        for fk in schema.foreign_keys():
            src_set = frozenset(Attr(fk.table, c) for c in fk.columns)
            dst_set = frozenset(Attr(fk.ref_table, c) for c in fk.ref_columns)
            self._uf.union(src_set, dst_set)
            for src_col, dst_col in zip(fk.columns, fk.ref_columns):
                self._uf.union(
                    frozenset({Attr(fk.table, src_col)}),
                    frozenset({Attr(fk.ref_table, dst_col)}),
                )
        # Coarsening edges: PK class -> class of every single attribute.
        self._edges: dict[Node, set[Node]] = {}
        for table in schema.tables:
            pk_node = frozenset(Attr(table.name, c) for c in table.primary_key)
            pk_class = self._uf.find(pk_node)
            for column in table.column_names:
                attr_class = self._uf.find(frozenset({Attr(table.name, column)}))
                if attr_class != pk_class:
                    self._edges.setdefault(pk_class, set()).add(attr_class)
        self._reach_cache: dict[Node, frozenset[Node]] = {}

    # ------------------------------------------------------------------
    # class queries
    # ------------------------------------------------------------------
    def class_of(self, attrs: Attr | Iterable[Attr]) -> Node:
        """Canonical granularity class of an attribute (or attribute set)."""
        if isinstance(attrs, Attr):
            node = frozenset({attrs})
        else:
            node = frozenset(attrs)
        return self._uf.find(node)

    def _reachable(self, start: Node) -> frozenset[Node]:
        """All classes reachable from *start* through coarsening edges."""
        cached = self._reach_cache.get(start)
        if cached is not None:
            return cached
        seen: set[Node] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        result = frozenset(seen)
        self._reach_cache[start] = result
        return result

    # ------------------------------------------------------------------
    # Definition 12
    # ------------------------------------------------------------------
    def compare(self, first: Attr, second: Attr) -> str | None:
        """Compare two attributes' granularity.

        Returns ``"equal"`` when they share a granularity class,
        ``"first_coarser"`` / ``"second_coarser"`` when a join path leads
        from one to the other, and ``None`` when incompatible.
        """
        ca, cb = self.class_of(first), self.class_of(second)
        if ca == cb:
            return EQUAL
        a_from_b = ca in self._reachable(cb)
        b_from_a = cb in self._reachable(ca)
        if a_from_b and b_from_a:
            # A foreign-key cycle: the classes determine each other.
            return EQUAL
        if b_from_a:
            return SECOND_COARSER
        if a_from_b:
            return FIRST_COARSER
        return None

    def compatible(self, first: Attr, second: Attr) -> bool:
        return self.compare(first, second) is not None

    def coarsest(self, attrs: Iterable[Attr]) -> list[Attr]:
        """Reduce *attrs* to pairwise-incompatible representatives.

        When two attributes are compatible the coarser one is kept
        (Phase 3, step 1); for equal granularity the first seen wins.

        A new attribute may be coarser than *several* kept entries at once
        (they were pairwise incompatible but all finer than it), so
        admission removes every kept entry the newcomer dominates rather
        than replacing just the first — otherwise the result can keep a
        compatible pair and violate Property 2's reduction.
        """
        kept: list[Attr] = []
        for attr in attrs:
            dominated = any(
                self.compare(existing, attr) in (EQUAL, FIRST_COARSER)
                for existing in kept
            )
            if dominated:
                continue
            # attr survives: evict everything strictly finer than it.
            kept = [
                existing
                for existing in kept
                if self.compare(attr, existing) != FIRST_COARSER
            ]
            kept.append(attr)
        return kept
