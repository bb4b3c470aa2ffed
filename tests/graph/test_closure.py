"""Unit tests for closure, SCC, and longest-chain computations."""

import pytest

from repro.graph import (
    Digraph,
    ancestors,
    condensation,
    descendants,
    dirty_region,
    iter_bits,
    longest_chain_length,
    strongly_connected_components,
    topological_order,
    transitive_closure,
)


def test_transitive_closure_chain():
    graph = Digraph([(0, 1), (1, 2)])
    closure = transitive_closure(graph)
    assert closure.has_edge(0, 2)
    assert not closure.has_edge(0, 0)  # acyclic: no reflexive edges


def test_transitive_closure_cycle_adds_self_edges():
    graph = Digraph([("a", "b"), ("b", "a")])
    closure = transitive_closure(graph)
    assert closure.has_edge("a", "a")
    assert closure.has_edge("b", "b")


def test_scc_singletons_on_dag():
    graph = Digraph([(0, 1), (1, 2)])
    components = strongly_connected_components(graph)
    assert sorted(len(c) for c in components) == [1, 1, 1]


def test_scc_detects_cycle():
    graph = Digraph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    components = strongly_connected_components(graph)
    sizes = sorted(len(c) for c in components)
    assert sizes == [1, 3]
    big = next(c for c in components if len(c) == 3)
    assert big == {"a", "b", "c"}


def test_scc_reverse_topological_order():
    graph = Digraph([("a", "b")])
    components = strongly_connected_components(graph)
    # Tarjan emits a component before any component that reaches it.
    assert components.index(frozenset({"b"})) < components.index(frozenset({"a"}))


def test_condensation():
    graph = Digraph([("a", "b"), ("b", "a"), ("b", "c")])
    dag, component_of = condensation(graph)
    assert len(dag) == 2
    assert component_of["a"] == component_of["b"]
    assert component_of["c"] != component_of["a"]
    assert dag.has_edge(component_of["a"], component_of["c"])


def test_condensation_no_self_edges():
    graph = Digraph([("a", "b"), ("b", "a")])
    dag, component_of = condensation(graph)
    assert dag.edge_count == 0


def test_topological_order():
    graph = Digraph([(0, 1), (0, 2), (1, 3), (2, 3)])
    order = topological_order(graph)
    assert order.index(0) < order.index(1) < order.index(3)
    assert order.index(0) < order.index(2) < order.index(3)


def test_topological_order_rejects_cycles():
    graph = Digraph([("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        topological_order(graph)


def test_longest_chain_length_chain():
    graph = Digraph([(i, i + 1) for i in range(5)])
    assert longest_chain_length(graph) == 5


def test_longest_chain_length_empty_and_single():
    assert longest_chain_length(Digraph()) == 0
    single = Digraph()
    single.add_vertex("x")
    assert longest_chain_length(single) == 0


def test_longest_chain_collapses_cycles():
    # a <-> b cycle then chain to c: cycle counts as one link source.
    graph = Digraph([("a", "b"), ("b", "a"), ("b", "c")])
    assert longest_chain_length(graph) == 1


def test_longest_chain_restricted():
    graph = Digraph([(0, 1), (1, 2), (2, 3)])
    assert longest_chain_length(graph, restrict_to=[0, 1, 2]) == 2


def test_longest_chain_diamond():
    graph = Digraph([("t", "l"), ("t", "r"), ("l", "b"), ("r", "b"), ("l", "r")])
    # t -> l -> r -> b is the longest.
    assert longest_chain_length(graph) == 3


def window_region(graph, since):
    """The journal window since ``since``, its decoded region (absent
    seeds included as themselves), and the definitional region: the
    union of per-seed ancestors / descendants."""
    window = dirty_region(graph, since)
    decoded = (
        frozenset(graph.vertex_of(i) for i in iter_bits(window.upstream))
        | window.absent_sources,
        frozenset(graph.vertex_of(i) for i in iter_bits(window.downstream))
        | window.absent_targets,
    )
    definitional = (
        frozenset().union(
            *(ancestors(graph, v) for v in window.edge_sources)
        ),
        frozenset().union(
            *(descendants(graph, v) for v in window.edge_targets)
        ),
    )
    return window, decoded, definitional


class TestDirtyRegion:
    def test_chain_regions(self):
        graph = Digraph([("a", "b"), ("c", "d")])
        since = graph.version
        graph.add_edge("b", "c")
        _, decoded, definitional = window_region(graph, since)
        assert decoded == definitional
        assert decoded == (frozenset({"a", "b"}), frozenset({"c", "d"}))

    def test_cycle_pulls_whole_component(self):
        graph = Digraph([("a", "b"), ("b", "a"), ("b", "c")])
        since = graph.version
        graph.add_edge("a", "c")
        _, decoded, definitional = window_region(graph, since)
        assert decoded == definitional
        assert decoded == (frozenset({"a", "b"}), frozenset({"c"}))

    def test_deleted_seed_included_as_itself(self):
        graph = Digraph([("x", "gone"), ("gone", "y")])
        since = graph.version
        graph.remove_vertex("gone")
        window, decoded, definitional = window_region(graph, since)
        assert window.absent_sources == {"gone"}
        assert window.absent_targets == {"gone"}
        assert decoded == definitional
        assert decoded == (frozenset({"x", "gone"}), frozenset({"y", "gone"}))

    def test_multi_seed_union(self):
        graph = Digraph([("a", "b"), ("c", "d")])
        since = graph.version
        graph.add_edge("b", "d")
        graph.add_edge("d", "b")
        _, decoded, definitional = window_region(graph, since)
        assert decoded == definitional
        assert decoded == (
            frozenset({"a", "b", "c", "d"}), frozenset({"b", "d"})
        )
