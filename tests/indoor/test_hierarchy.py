"""Tests for layer hierarchies and the Section 3.2 rules."""

import pytest

from repro.indoor.hierarchy import (
    CANONICAL_LAYER_ROLES,
    CORE_LAYER_ROLES,
    HierarchyValidationError,
    LayerHierarchy,
    LayerRole,
    add_hierarchy_edge,
)
from repro.indoor.multilayer import JointEdge, LayeredIndoorGraph
from repro.indoor.nrg import NodeRelationGraph
from repro.spatial.topology import TopologicalRelation as R


def layer(name, nodes):
    graph = NodeRelationGraph(name)
    for node in nodes:
        graph.add_node(node)
    return graph


@pytest.fixture
def museum_graph():
    """building → floor → room, fully parented."""
    graph = LayeredIndoorGraph("museum")
    graph.add_layer(layer("building", ["B"]))
    graph.add_layer(layer("floor", ["F0", "F1"]))
    graph.add_layer(layer("room", ["r1", "r2", "r3"]))
    add_hierarchy_edge(graph, "B", "F0")
    add_hierarchy_edge(graph, "B", "F1")
    add_hierarchy_edge(graph, "F0", "r1")
    add_hierarchy_edge(graph, "F0", "r2")
    add_hierarchy_edge(graph, "F1", "r3", R.COVERS)
    return graph


@pytest.fixture
def hierarchy(museum_graph):
    return LayerHierarchy(
        museum_graph, ["building", "floor", "room"],
        roles=[LayerRole.BUILDING, LayerRole.FLOOR, LayerRole.ROOM])


class TestConstruction:
    def test_needs_two_layers(self, museum_graph):
        with pytest.raises(HierarchyValidationError):
            LayerHierarchy(museum_graph, ["building"])

    def test_distinct_layers_required(self, museum_graph):
        with pytest.raises(HierarchyValidationError):
            LayerHierarchy(museum_graph, ["floor", "floor"])

    def test_unknown_layer_rejected(self, museum_graph):
        with pytest.raises(HierarchyValidationError):
            LayerHierarchy(museum_graph, ["building", "ghost"])

    def test_roles_must_parallel(self, museum_graph):
        with pytest.raises(HierarchyValidationError):
            LayerHierarchy(museum_graph, ["building", "floor"],
                           roles=[LayerRole.BUILDING])

    def test_depth_and_levels(self, hierarchy):
        assert hierarchy.depth == 3
        assert hierarchy.level_of_layer("building") == 0
        assert hierarchy.level_of_layer("room") == 2

    def test_roles(self, hierarchy):
        assert hierarchy.role_of_layer("floor") is LayerRole.FLOOR
        assert hierarchy.layer_for_role(LayerRole.ROOM) == "room"
        assert hierarchy.has_core_roles()

    def test_core_roles_constant(self):
        assert CORE_LAYER_ROLES == (LayerRole.BUILDING, LayerRole.FLOOR,
                                    LayerRole.ROOM)
        assert len(CANONICAL_LAYER_ROLES) == 5


class TestNavigation:
    def test_parent_child(self, hierarchy):
        assert hierarchy.parent("r1") == "F0"
        assert hierarchy.parent("B") is None
        assert sorted(hierarchy.children("F0")) == ["r1", "r2"]

    def test_ancestors(self, hierarchy):
        assert hierarchy.ancestors("r3") == ["F1", "B"]

    def test_descendants(self, hierarchy):
        assert set(hierarchy.descendants("B")) \
            == {"F0", "F1", "r1", "r2", "r3"}

    def test_lift(self, hierarchy):
        assert hierarchy.lift("r1", "floor") == "F0"
        assert hierarchy.lift("r1", "building") == "B"
        assert hierarchy.lift("r1", "room") == "r1"

    def test_lift_downward_is_none(self, hierarchy):
        assert hierarchy.lift("F0", "room") is None

    def test_lift_unknown_layer_raises(self, hierarchy):
        with pytest.raises(KeyError):
            hierarchy.lift("r1", "wing")

    def test_lowest_common_ancestor(self, hierarchy):
        assert hierarchy.lowest_common_ancestor("r1", "r2") == "F0"
        assert hierarchy.lowest_common_ancestor("r1", "r3") == "B"
        assert hierarchy.lowest_common_ancestor("r1", "r1") == "r1"

    def test_depth_of_node(self, hierarchy):
        assert hierarchy.depth_of_node("B") == 0
        assert hierarchy.depth_of_node("r2") == 2

    def test_orphans(self, museum_graph):
        museum_graph.add_layer(layer("roi", ["exhibit"]))
        hierarchy = LayerHierarchy(
            museum_graph, ["building", "floor", "room", "roi"])
        assert hierarchy.orphans("roi") == ["exhibit"]
        assert hierarchy.orphans("building") == []
        assert hierarchy.lift("exhibit", "floor") is None


class TestSectionRules:
    def test_layer_skipping_rejected(self, museum_graph):
        museum_graph.add_joint_edge(
            JointEdge("building", "B", "room", "r1", R.CONTAINS))
        with pytest.raises(HierarchyValidationError) as excinfo:
            LayerHierarchy(museum_graph, ["building", "floor", "room"])
        assert "skips" in str(excinfo.value)

    def test_overlap_in_hierarchy_rejected(self, museum_graph):
        museum_graph.add_joint_edge(
            JointEdge("floor", "F0", "room", "r3", R.OVERLAP))
        with pytest.raises(HierarchyValidationError) as excinfo:
            LayerHierarchy(museum_graph, ["building", "floor", "room"])
        assert "contains/covers" in str(excinfo.value)

    def test_equal_in_hierarchy_rejected(self, museum_graph):
        museum_graph.add_joint_edge(
            JointEdge("floor", "F1", "room", "r2", R.EQUAL))
        with pytest.raises(HierarchyValidationError):
            LayerHierarchy(museum_graph, ["building", "floor", "room"])

    def test_two_parents_rejected(self, museum_graph):
        museum_graph.add_joint_edge(
            JointEdge("floor", "F1", "room", "r1", R.CONTAINS))
        with pytest.raises(HierarchyValidationError) as excinfo:
            LayerHierarchy(museum_graph, ["building", "floor", "room"])
        assert "two parents" in str(excinfo.value)

    def test_outside_layers_ignored(self, museum_graph):
        """Joint edges to layers outside the hierarchy are legal."""
        museum_graph.add_layer(layer("zones", ["z"]))
        museum_graph.add_joint_edge(
            JointEdge("zones", "z", "room", "r1", R.OVERLAP))
        hierarchy = LayerHierarchy(museum_graph,
                                   ["building", "floor", "room"])
        assert hierarchy.validate() == []

    def test_add_hierarchy_edge_rejects_overlap(self, museum_graph):
        with pytest.raises(ValueError):
            add_hierarchy_edge(museum_graph, "F0", "r3", R.OVERLAP)


class TestMemoization:
    """LCA/depth lookups are memoized; reindex() refreshes both the
    navigation maps and the memos after graph mutation."""

    def test_cached_results_stable(self, hierarchy):
        first = hierarchy.lowest_common_ancestor("r1", "r2")
        assert first == "F0"
        assert hierarchy.lowest_common_ancestor("r1", "r2") == first
        # symmetric pair is cached too and agrees
        assert hierarchy.lowest_common_ancestor("r2", "r1") == first
        assert hierarchy.depth_of_node("r1") == 2
        assert hierarchy.depth_of_node("r1") == 2

    def test_cached_none_is_remembered(self, museum_graph):
        graph = LayeredIndoorGraph("partial")
        graph.add_layer(layer("building", ["B"]))
        graph.add_layer(layer("floor", ["F0", "F1"]))
        hierarchy = LayerHierarchy(graph, ["building", "floor"])
        assert hierarchy.lowest_common_ancestor("F0", "F1") is None
        assert hierarchy.lowest_common_ancestor("F0", "F1") is None

    def test_reindex_picks_up_new_edges(self):
        graph = LayeredIndoorGraph("growing")
        graph.add_layer(layer("building", ["B"]))
        graph.add_layer(layer("floor", ["F0", "F1"]))
        hierarchy = LayerHierarchy(graph, ["building", "floor"])
        # Prime the memo with the unparented answer.
        assert hierarchy.lowest_common_ancestor("F0", "F1") is None
        add_hierarchy_edge(graph, "B", "F0")
        add_hierarchy_edge(graph, "B", "F1")
        hierarchy.reindex()
        assert hierarchy.parent("F0") == "B"
        assert hierarchy.lowest_common_ancestor("F0", "F1") == "B"

    def test_similarity_table_matches_node_similarity(self, hierarchy):
        nodes = ["r1", "r3", "F0", "B", "r1", "ghost"]
        table = hierarchy.similarity_table(nodes)
        assert table.shape == (6, 6)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                assert table[i, j] == hierarchy.node_similarity(a, b)
        assert hierarchy.node_similarity("r1", "r2") == 2 * 2 / (3 + 3)
        # A second call reads the memo, new nodes extend it.
        assert hierarchy.similarity_table(["r2", "r1"]).tolist() \
            == [[1.0, 2 / 3], [2 / 3, 1.0]]

    def test_similarity_memo_is_bounded(self, hierarchy):
        hierarchy._cache_limit = 9  # three nodes
        hierarchy.similarity_table(["r1", "r2"])
        assert len(hierarchy._similarity_memo[0]) == 2
        # Four nodes would pass the limit: the memo starts over.
        table = hierarchy.similarity_table(["r3", "F1"])
        assert len(hierarchy._similarity_memo[0]) == 2
        assert table[0, 1] == hierarchy.node_similarity("r3", "F1")
        # A call whose nodes alone pass it is answered, not kept.
        nodes = ["r1", "r2", "r3", "F0"]
        table = hierarchy.similarity_table(nodes)
        assert table[0, 3] == hierarchy.node_similarity("r1", "F0")
        assert len(hierarchy._similarity_memo[0]) <= 3

    def test_reindex_refreshes_similarities(self):
        graph = LayeredIndoorGraph("growing")
        graph.add_layer(layer("building", ["B"]))
        graph.add_layer(layer("floor", ["F0", "F1"]))
        hierarchy = LayerHierarchy(graph, ["building", "floor"])
        assert hierarchy.similarity_table(["F0", "F1"])[0, 1] == 0.0
        add_hierarchy_edge(graph, "B", "F0")
        add_hierarchy_edge(graph, "B", "F1")
        hierarchy.reindex()
        assert hierarchy.similarity_table(["F0", "F1"])[0, 1] == 0.5

    def test_invalidate_caches_alone_keeps_navigation(self, hierarchy):
        assert hierarchy.lowest_common_ancestor("r1", "r2") == "F0"
        hierarchy.invalidate_caches()
        assert hierarchy.lowest_common_ancestor("r1", "r2") == "F0"
        assert hierarchy.depth_of_node("r3") == 2
