"""Static layer hierarchies over a layered indoor graph (Section 3.2).

The paper's key departure from plain IndoorGML MLSM is a **static,
predefined layer hierarchy** instead of ad-hoc node subdivision:

    "we define a layer hierarchy as k ≥ 2 ordered layers Gi of G that
    are only consecutively connected by joint edges.  Similar to [17],
    we exclude 'overlap' relations from layer hierarchies, but contrary
    to it, we also exclude 'equal' relations to prohibit node repetition
    and instead favor a proper hierarchy.  Instead of [17]'s 'inside'
    and 'coveredBy', we assume 'contains', 'covers', and a corresponding
    top to bottom joint edge direction."

plus the required core hierarchy Building → Floor → Room, optionally
extended to Building Complex → Building → Floor → Room → RoI, with
"Ad-hoc refinements ... possible ... as long as joint edges represent
'contain' or 'cover' relations and do not skip layers."

:class:`LayerHierarchy` validates all of those rules and provides the
multi-granularity primitives the SITM analytics rely on: ``parent``,
``children``, ``ancestors``, ``descendants`` and ``lift`` (infer a
moving object's location "at all levels of granularity above the
detection data level").
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.indoor.multilayer import JointEdge, LayeredIndoorGraph
from repro.spatial.topology import HIERARCHY_RELATIONS, TopologicalRelation


#: Distinguishes "cached None" from "not cached" in the LCA memo.
_MISSING = object()
#: The similarity memo of a hierarchy that has scored no node yet.
_EMPTY_MEMO: Tuple[Dict[str, int], np.ndarray] = ({}, np.empty((0, 0)))


class LayerRole(enum.Enum):
    """Semantic roles of the paper's canonical layers."""

    BUILDING_COMPLEX = "building_complex"
    BUILDING = "building"
    FLOOR = "floor"
    ROOM = "room"
    ROI = "roi"
    SEMANTIC = "semantic"


#: The required core hierarchy roles, top to bottom ("virtually any
#: indoor environment is characterized by a basic three-layer
#: hierarchy").
CORE_LAYER_ROLES: Tuple[LayerRole, ...] = (
    LayerRole.BUILDING,
    LayerRole.FLOOR,
    LayerRole.ROOM,
)

#: The full canonical stack with the two optional layers.
CANONICAL_LAYER_ROLES: Tuple[LayerRole, ...] = (
    LayerRole.BUILDING_COMPLEX,
    LayerRole.BUILDING,
    LayerRole.FLOOR,
    LayerRole.ROOM,
    LayerRole.ROI,
)


class HierarchyValidationError(ValueError):
    """Raised when a layer stack violates the Section 3.2 rules."""


class LayerHierarchy:
    """An ordered stack of layers of a :class:`LayeredIndoorGraph`.

    Args:
        graph: the layered graph holding the layers and joint edges.
        ordered_layers: layer names from **top** (coarsest) to
            **bottom** (finest).
        roles: optional role tags parallel to ``ordered_layers``.
        validate: run :meth:`validate` eagerly (default).
    """

    def __init__(self, graph: LayeredIndoorGraph,
                 ordered_layers: Sequence[str],
                 roles: Optional[Sequence[LayerRole]] = None,
                 validate: bool = True) -> None:
        if len(ordered_layers) < 2:
            raise HierarchyValidationError(
                "a layer hierarchy needs k >= 2 ordered layers")
        if len(set(ordered_layers)) != len(ordered_layers):
            raise HierarchyValidationError("layers must be distinct")
        for name in ordered_layers:
            if name not in graph.layer_names:
                raise HierarchyValidationError(
                    "layer {!r} is not part of the graph".format(name))
        if roles is not None and len(roles) != len(ordered_layers):
            raise HierarchyValidationError(
                "roles must parallel ordered_layers")
        self.graph = graph
        self._layers: Tuple[str, ...] = tuple(ordered_layers)
        self._roles: Optional[Tuple[LayerRole, ...]] = (
            tuple(roles) if roles is not None else None)
        self._level: Dict[str, int] = {
            name: i for i, name in enumerate(self._layers)}
        self._parent: Dict[str, str] = {}
        self._children: Dict[str, List[str]] = {}
        # Bounded memos for the hot multi-granularity lookups; see
        # invalidate_caches()/reindex() for the mutation contract.
        self._cache_limit = 1 << 16
        self._lca_cache: Dict[Tuple[str, str], Optional[str]] = {}
        self._depth_cache: Dict[str, int] = {}
        # node -> code and the node_similarity of every code pair;
        # replaced whole (never mutated), so readers on other threads
        # always see a matching pair.
        self._similarity_memo: Tuple[Dict[str, int], np.ndarray] = \
            _EMPTY_MEMO
        self._index_edges()
        if validate:
            errors = self.validate()
            if errors:
                raise HierarchyValidationError("; ".join(errors))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _index_edges(self) -> None:
        """Build parent/child maps from the graph's joint edges."""
        for edge in self.graph.joint_edges:
            if edge.relation not in HIERARCHY_RELATIONS:
                continue
            src_level = self._level.get(edge.source_layer)
            dst_level = self._level.get(edge.target_layer)
            if src_level is None or dst_level is None:
                continue
            if dst_level != src_level + 1:
                continue
            # source is one level above target and contains/covers it.
            self._parent[edge.target] = edge.source
            self._children.setdefault(edge.source, []).append(edge.target)

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def layers(self) -> Tuple[str, ...]:
        """Layer names, top to bottom."""
        return self._layers

    @property
    def depth(self) -> int:
        """Number of layers (the paper's k)."""
        return len(self._layers)

    def level_of_layer(self, layer_name: str) -> int:
        """0-based level of a layer; 0 is the top (coarsest)."""
        return self._level[layer_name]

    def role_of_layer(self, layer_name: str) -> Optional[LayerRole]:
        """The role tag of a layer, when roles were provided."""
        if self._roles is None:
            return None
        return self._roles[self._level[layer_name]]

    def layer_for_role(self, role: LayerRole) -> Optional[str]:
        """The layer name carrying ``role``, when roles were provided."""
        if self._roles is None:
            return None
        for name, layer_role in zip(self._layers, self._roles):
            if layer_role is role:
                return name
        return None

    def has_core_roles(self) -> bool:
        """True when Building, Floor, Room appear in top-to-bottom order.

        This is the paper's "basic three-layer hierarchy" requirement.
        """
        if self._roles is None:
            return False
        positions = []
        for role in CORE_LAYER_ROLES:
            found = [i for i, r in enumerate(self._roles) if r is role]
            if not found:
                return False
            positions.append(found[0])
        return positions == sorted(positions)

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def parent(self, node: str) -> Optional[str]:
        """The node's parent in the next layer up, or ``None`` at the top."""
        return self._parent.get(node)

    def children(self, node: str) -> List[str]:
        """The node's children in the next layer down."""
        return list(self._children.get(node, ()))

    def ancestors(self, node: str) -> List[str]:
        """Parents up to the hierarchy top, nearest first."""
        chain: List[str] = []
        current = self._parent.get(node)
        while current is not None:
            chain.append(current)
            current = self._parent.get(current)
        return chain

    def descendants(self, node: str) -> List[str]:
        """All transitive children, breadth-first."""
        result: List[str] = []
        frontier = list(self._children.get(node, ()))
        while frontier:
            current = frontier.pop(0)
            result.append(current)
            frontier.extend(self._children.get(current, ()))
        return result

    def lift(self, node: str, target_layer: str) -> Optional[str]:
        """Infer the node's location at a coarser layer.

        "By only allowing 'proper part' types of relationships, we allow
        inference of a MO's location at all levels of granularity above
        the detection data level" (Section 3.2).

        Returns ``None`` when ``target_layer`` is below the node's layer
        or the parent chain is broken (partial hierarchies).

        Raises:
            KeyError: when ``target_layer`` is not in the hierarchy.
        """
        target_level = self._level[target_layer]
        current = node
        current_level = self._level[self.graph.layer_of(node)]
        if target_level > current_level:
            return None
        while current_level > target_level:
            parent = self._parent.get(current)
            if parent is None:
                return None
            current = parent
            current_level -= 1
        return current

    def lowest_common_ancestor(self, node_a: str,
                               node_b: str) -> Optional[str]:
        """The nearest node containing both arguments, if any.

        Used by hierarchy-aware trajectory similarity: two exhibits in
        the same room are semantically closer than two exhibits that
        only share a wing.  Results are memoized (the hierarchy is
        static after construction — call :meth:`reindex` after
        mutating the underlying graph).
        """
        key = (node_a, node_b)
        cached = self._lca_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        chain_a = [node_a] + self.ancestors(node_a)
        chain_b = set([node_b] + self.ancestors(node_b))
        result: Optional[str] = None
        for candidate in chain_a:
            if candidate in chain_b:
                result = candidate
                break
        if len(self._lca_cache) >= self._cache_limit:
            self._lca_cache.clear()
        self._lca_cache[key] = result
        self._lca_cache[(node_b, node_a)] = result  # LCA is symmetric
        return result

    def depth_of_node(self, node: str) -> int:
        """The node's 0-based layer level (memoized)."""
        depth = self._depth_cache.get(node)
        if depth is None:
            depth = self._level[self.graph.layer_of(node)]
            if len(self._depth_cache) >= self._cache_limit:
                self._depth_cache.clear()
            self._depth_cache[node] = depth
        return depth

    def node_similarity(self, node_a: str, node_b: str) -> float:
        """Wu–Palmer-style similarity of two nodes in [0, 1].

        ``2·depth(lca) / (depth(a) + depth(b))`` with layer levels as
        depths (+1 so the root level is non-zero).  Nodes with no
        common ancestor score 0; a node scores 1 with itself.
        """
        if node_a == node_b:
            return 1.0
        lca = self.lowest_common_ancestor(node_a, node_b)
        if lca is None:
            return 0.0
        depth_a = self.depth_of_node(node_a) + 1
        depth_b = self.depth_of_node(node_b) + 1
        depth_lca = self.depth_of_node(lca) + 1
        return 2.0 * depth_lca / (depth_a + depth_b)

    def similarity_table(self, nodes: Sequence[str]) -> np.ndarray:
        """:meth:`node_similarity` of every pair of ``nodes``, as a
        ``len(nodes)`` square matrix.

        Read from a memo over every node scored so far, so each pair
        is walked once per hierarchy rather than once per call; the
        memo holds at most ``_cache_limit`` cells and starts over when
        a call would pass that.
        """
        index, values = self._similarity_memo
        fresh = [node for node in dict.fromkeys(nodes)
                 if node not in index]
        if fresh:
            if (len(index) + len(fresh)) ** 2 > self._cache_limit:
                index, values = _EMPTY_MEMO
                fresh = list(dict.fromkeys(nodes))
            index, values = self._extend_memo(index, values, fresh)
            if len(values) ** 2 <= self._cache_limit:
                self._similarity_memo = (index, values)
        codes = [index[node] for node in nodes]
        return values[np.ix_(codes, codes)]

    def _extend_memo(self, index: Dict[str, int], values: np.ndarray,
                     fresh: List[str]
                     ) -> Tuple[Dict[str, int], np.ndarray]:
        """A copy of the memo ``(index, values)`` that also scores
        the ``fresh`` nodes against every node."""
        index = dict(index)
        for node in fresh:
            index[node] = len(index)
        grown = np.empty((len(index), len(index)))
        grown[:len(values), :len(values)] = values
        nodes = list(index)
        for node_a in fresh:
            code_a = index[node_a]
            for code_b in range(code_a + 1):
                grown[code_a, code_b] = grown[code_b, code_a] = \
                    self.node_similarity(node_a, nodes[code_b])
        return index, grown

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop the memoized LCA/depth lookups and similarities.

        Needed only when the underlying graph changed; :meth:`reindex`
        calls this automatically.
        """
        self._lca_cache.clear()
        self._depth_cache.clear()
        self._similarity_memo = _EMPTY_MEMO

    def reindex(self) -> None:
        """Rebuild parent/child maps after graph mutation.

        The hierarchy indexes the graph's joint edges at construction;
        adding nodes or hierarchy edges afterwards (e.g. via
        :func:`add_hierarchy_edge`) requires a reindex for navigation
        — and the memoized lookups — to observe them.
        """
        self._parent.clear()
        self._children.clear()
        self._index_edges()
        self.invalidate_caches()

    # ------------------------------------------------------------------
    # validation (the Section 3.2 rules)
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Check every hierarchy rule; return human-readable violations.

        Rules checked:

        1. joint edges between hierarchy layers must be consecutive
           (no layer skipping);
        2. downward joint edges within the hierarchy carry only
           ``contains``/``covers`` (no ``overlap``, no ``equal``);
        3. proper hierarchy: every node has at most one parent;
        4. direction: hierarchical joint edges point top → bottom.
        """
        problems: List[str] = []
        hierarchy_layers = set(self._layers)
        seen_parent: Dict[str, str] = {}
        for edge in self.graph.joint_edges:
            src_in = edge.source_layer in hierarchy_layers
            dst_in = edge.target_layer in hierarchy_layers
            if not (src_in and dst_in):
                continue
            src_level = self._level[edge.source_layer]
            dst_level = self._level[edge.target_layer]
            gap = abs(src_level - dst_level)
            if gap == 0:
                problems.append(
                    "joint edge {}→{} connects nodes of the same "
                    "hierarchy layer".format(edge.source, edge.target))
                continue
            if gap > 1:
                problems.append(
                    "joint edge {}→{} skips layers ({} → {})".format(
                        edge.source, edge.target, edge.source_layer,
                        edge.target_layer))
                continue
            downward = dst_level == src_level + 1
            relation = edge.relation if downward else \
                edge.relation.converse()
            if relation not in HIERARCHY_RELATIONS:
                problems.append(
                    "joint edge {}→{} carries {!r}; hierarchies admit "
                    "only contains/covers (and their converses "
                    "upward)".format(edge.source, edge.target,
                                     edge.relation.value))
                continue
            child = edge.target if downward else edge.source
            parent = edge.source if downward else edge.target
            previous = seen_parent.get(child)
            if previous is not None and previous != parent:
                problems.append(
                    "node {!r} has two parents ({!r}, {!r}); a proper "
                    "hierarchy forbids this".format(child, previous,
                                                    parent))
            seen_parent[child] = parent
        return problems

    def orphans(self, layer_name: str) -> List[str]:
        """Nodes of a non-top layer lacking a parent.

        Orphans are legal (the hierarchy may be partial) but relevant to
        coverage analysis: an orphan RoI cannot be lifted.
        """
        if self._level[layer_name] == 0:
            return []
        layer_graph = self.graph.layer(layer_name)
        return [n for n in layer_graph.nodes if n not in self._parent]


def add_hierarchy_edge(graph: LayeredIndoorGraph, parent: str, child: str,
                       relation: TopologicalRelation
                       = TopologicalRelation.CONTAINS,
                       ) -> JointEdge:
    """Declare that ``parent`` contains/covers ``child``.

    Convenience wrapper used when hierarchies are authored symbolically
    (no geometry): it adds the downward joint edge and its converse.

    Raises:
        ValueError: when ``relation`` is not ``contains``/``covers``.
    """
    if relation not in HIERARCHY_RELATIONS:
        raise ValueError(
            "hierarchy edges carry contains/covers, not {!r}".format(
                relation.value))
    edge = JointEdge(graph.layer_of(parent), parent,
                     graph.layer_of(child), child, relation)
    graph.add_joint_edge(edge)
    return edge
