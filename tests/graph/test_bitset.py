"""The vertex interner, the bitset reachability kernel, and journal
compaction (graph layer of the compiled authorization kernel)."""

import random

import pytest

from repro.graph import (
    Digraph,
    ReachabilityCache,
    ancestors,
    ancestors_bits,
    ancestors_of_mask,
    descendants,
    descendants_bits,
    descendants_of_mask,
    dirty_region,
    iter_bits,
    pack_bits,
    reaches,
)


def decode(graph, mask):
    return frozenset(graph.vertex_of(i) for i in iter_bits(mask))


def random_graph(seed, n=30, edges=90):
    rng = random.Random(seed)
    graph = Digraph()
    for _ in range(edges):
        graph.add_edge(rng.randrange(n), rng.randrange(n))
    return graph, rng


class TestInterner:
    def test_vid_stable_and_dense(self):
        graph = Digraph()
        for name in "abcd":
            graph.add_vertex(name)
        ids = [graph.vid(name) for name in "abcd"]
        assert sorted(ids) == [0, 1, 2, 3]
        graph.add_edge("a", "d")  # existing vertices: ids unchanged
        assert [graph.vid(name) for name in "abcd"] == ids
        for name, index in zip("abcd", ids):
            assert graph.vertex_of(index) == name

    def test_unknown_vertex_raises(self):
        graph = Digraph()
        graph.add_vertex("a")
        with pytest.raises(KeyError):
            graph.vid("missing")
        with pytest.raises(LookupError):
            graph.vertex_of(5)

    def test_free_list_reuse_after_removal(self):
        graph = Digraph()
        for name in "abc":
            graph.add_vertex(name)
        freed = graph.vid("b")
        graph.remove_vertex("b")
        with pytest.raises(LookupError):
            graph.vertex_of(freed)
        graph.add_vertex("fresh")
        assert graph.vid("fresh") == freed  # recycled, still dense
        assert graph.vid_capacity == 3

    def test_adjacency_bits_track_edges(self):
        graph = Digraph([("a", "b"), ("a", "c")])
        a = graph.vid("a")
        succ = graph._succ_bits[a]
        assert decode(graph, succ) == {"b", "c"}
        graph.remove_edge("a", "c")
        assert decode(graph, graph._succ_bits[a]) == {"b"}
        assert decode(graph, graph._pred_bits[graph.vid("b")]) == {"a"}


class TestBitsKernelParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_descendants_and_ancestors_match_frozensets(self, seed):
        graph, rng = random_graph(seed)
        # Churn, including vertex removal (frees IDs) and re-adds.
        for _ in range(25):
            graph.remove_edge(rng.randrange(30), rng.randrange(30))
        for victim in rng.sample(range(30), 3):
            graph.remove_vertex(victim)
        for _ in range(40):
            graph.add_edge(rng.randrange(30), rng.randrange(30))
        for vertex in list(graph.vertices()):
            assert decode(graph, descendants_bits(graph, vertex)) == (
                descendants(graph, vertex)
            )
            assert decode(graph, ancestors_bits(graph, vertex)) == (
                ancestors(graph, vertex)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_mask_sweeps_equal_the_union_of_seed_sweeps(self, seed):
        graph, rng = random_graph(seed)
        # Holes from removed vertices, then recycled IDs for newcomers.
        for victim in rng.sample(range(30), 4):
            graph.remove_vertex(victim)
        for newcomer in range(100, 103):
            graph.add_edge(newcomer, rng.choice(list(graph.vertices())))
        assert any(graph.vid(v) < 30 for v in range(100, 103))
        vertices = list(graph.vertices())
        for size in (1, 2, 5, len(vertices)):
            seeds = rng.sample(vertices, size)
            mask = pack_bits(graph, seeds)
            forward = backward = 0
            for vertex in seeds:
                forward |= descendants_bits(graph, vertex)
                backward |= ancestors_bits(graph, vertex)
            assert descendants_of_mask(graph, mask) == forward
            assert ancestors_of_mask(graph, mask) == backward

    def test_empty_mask_sweeps_to_nothing(self):
        graph = Digraph([("a", "b"), ("b", "c")])
        assert descendants_of_mask(graph, 0) == 0
        assert ancestors_of_mask(graph, 0) == 0

    def test_absent_vertex_has_no_mask(self):
        graph = Digraph([("a", "b")])
        assert descendants_bits(graph, "ghost") == 0
        assert ancestors_bits(graph, "ghost") == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_dirty_region_bits_matches_frozensets(self, seed):
        graph, rng = random_graph(seed)
        since = graph.version
        for _ in range(4):
            graph.add_edge(rng.randrange(30), rng.randrange(30))
            edges = sorted(graph.edges())
            graph.remove_edge(*rng.choice(edges))
        window = dirty_region(graph, since)
        assert window.edge_sources and window.edge_targets
        upstream = frozenset().union(
            *(ancestors(graph, v) for v in window.edge_sources)
        )
        downstream = frozenset().union(
            *(descendants(graph, v) for v in window.edge_targets)
        )
        assert decode(graph, window.upstream) == upstream
        assert decode(graph, window.downstream) == downstream
        # No vertex left the graph, so every seed is present.
        assert not window.absent_sources and not window.absent_targets

    def test_dirty_region_bits_reports_absent_seeds(self):
        graph = Digraph([("ghost-src", "a"), ("b", "ghost-tgt")])
        since = graph.version
        graph.remove_vertex("ghost-src")
        graph.remove_vertex("ghost-tgt")
        window = dirty_region(graph, since)
        assert window.absent_sources == {"ghost-src"}
        assert window.absent_targets == {"ghost-tgt"}
        # Absent seeds carry no bit; the definitional union includes
        # them as themselves (ancestors/descendants are reflexive).
        assert decode(graph, window.upstream) | window.absent_sources == (
            ancestors(graph, "ghost-src") | ancestors(graph, "b")
        )
        assert decode(graph, window.downstream) | window.absent_targets == (
            descendants(graph, "a") | descendants(graph, "ghost-tgt")
        )


class TestCacheBits:
    @pytest.mark.parametrize("seed", range(4))
    def test_memo_parity_under_churn(self, seed):
        graph, rng = random_graph(seed)
        cache = ReachabilityCache(graph)
        vertices = list(graph.vertices())
        for vertex in vertices:
            assert decode(graph, cache.descendants_bits(vertex)) == (
                descendants(graph, vertex)
            )
        for _ in range(30):
            if rng.random() < 0.5:
                graph.add_edge(rng.randrange(30), rng.randrange(30))
            else:
                graph.remove_edge(rng.randrange(30), rng.randrange(30))
            probe = rng.choice(vertices)
            if probe in graph:
                assert decode(graph, cache.descendants_bits(probe)) == (
                    descendants(graph, probe)
                )

    def test_absorption_skips_warm_subtrees(self):
        graph = Digraph([("root", "mid"), ("mid", "leaf1"), ("mid", "leaf2")])
        cache = ReachabilityCache(graph)
        warm = cache.descendants_bits("mid")
        assert decode(graph, warm) == {"mid", "leaf1", "leaf2"}
        # The root BFS absorbs mid's mask instead of re-walking it.
        assert decode(graph, cache.descendants_bits("root")) == (
            {"root", "mid", "leaf1", "leaf2"}
        )
        assert cache._bits_by_vid[graph.vid("mid")] == warm

    def test_id_reuse_cannot_leak_into_surviving_masks(self):
        graph = Digraph([("a", "b"), ("x", "y")])
        cache = ReachabilityCache(graph)
        cache.descendants_bits("a")  # contains b
        cache.descendants_bits("x")  # disjoint from a/b
        freed = graph.vid("b")
        graph.remove_vertex("b")
        graph.add_vertex("recycled")
        assert graph.vid("recycled") == freed
        # a's mask (which contained b's bit) must be gone; x's mask
        # survives and must not claim to contain the recycled vertex.
        assert decode(graph, cache.descendants_bits("x")) == {"x", "y"}
        assert decode(graph, cache.descendants_bits("a")) == {"a"}

    def test_peek_and_reaches_consult_warm_cache(self):
        graph = Digraph([("a", "b"), ("b", "c")])
        cache = ReachabilityCache(graph)
        assert cache.peek_descendants("a") is None
        assert cache.peek_reaches("a", "c") is None  # cold: no answer
        cache.descendants("a")
        assert cache.peek_descendants("a") == {"a", "b", "c"}
        assert cache.peek_reaches("a", "c") is True
        assert reaches(graph, "a", "c", cache=cache) is True
        # bits-representation warmth counts too
        cache2 = ReachabilityCache(graph)
        cache2.descendants_bits("a")
        assert cache2.peek_reaches("a", "c") is True
        assert cache2.peek_reaches("a", "ghost") is False

    def test_reaches_skips_walk_when_cache_is_warm(self):
        class CountingGraph(Digraph):
            __slots__ = ("walks",)

            def __init__(self, edges=()):
                self.walks = 0
                super().__init__(edges)

            def successors(self, vertex):
                self.walks += 1
                return super().successors(vertex)

        graph = CountingGraph([("a", "b"), ("b", "c")])
        cache = ReachabilityCache(graph)
        cache.descendants("a")
        graph.walks = 0
        assert reaches(graph, "a", "c", cache=cache) is True
        assert reaches(graph, "a", "ghost", cache=cache) is False
        assert graph.walks == 0  # both answered from the warm memo
        assert reaches(graph, "b", "c", cache=cache) is True  # cold: walks
        assert graph.walks > 0

    def test_reaches_without_cache_still_walks(self):
        graph = Digraph([("a", "b")])
        assert reaches(graph, "a", "b")
        assert not reaches(graph, "b", "a")


class TestJournalCompaction:
    def test_even_pairs_cancel(self):
        graph = Digraph([("a", "b"), ("b", "c")])
        version = graph.version
        graph.add_edge("a", "c")
        graph.remove_edge("a", "c")
        deltas = graph.changes_since(version)
        # The edge pair nets out entirely.
        assert deltas == ()
        raw = graph.changes_since(version, compact=False)
        assert len(raw) == 2

    def test_odd_runs_keep_net_effect(self):
        graph = Digraph([("a", "b")])
        version = graph.version
        graph.remove_edge("a", "b")
        graph.add_edge("a", "b")
        graph.remove_edge("a", "b")
        deltas = graph.changes_since(version)
        assert [(d.kind, d.source, d.target) for d in deltas] == [
            ("remove-edge", "a", "b")
        ]
        # The surviving delta is the original final record (version
        # stamp preserved), not a synthesized one.
        assert deltas[0].version == graph.version

    def test_vertex_deltas_never_coalesce(self):
        graph = Digraph()
        graph.add_vertex("u")
        version = graph.version
        graph.add_edge("u", "r")
        graph.remove_edge("u", "r")
        graph.remove_vertex("u")
        graph.add_vertex("u")
        kinds = [d.kind for d in graph.changes_since(version)]
        # The vertex deltas all survive — and so do the edge deltas,
        # because their endpoints are vertex-churned in this window
        # (the ID-recycling exemption below).
        assert kinds == [
            "add-vertex", "add-edge", "remove-edge",
            "remove-vertex", "add-vertex",
        ]

    def test_vertex_churned_edges_are_exempt(self):
        """Edges incident to a vertex added/removed in the window keep
        their deltas: the compiled caches' eviction rules read them to
        retire masks before the freed ID is recycled."""
        graph = Digraph([("a", "b")])
        version = graph.version
        graph.add_edge("a", "ghost")    # ghost is new this window
        graph.remove_edge("a", "ghost")
        graph.remove_vertex("ghost")
        deltas = graph.changes_since(version)
        kinds = [(d.kind, d.source, d.target) for d in deltas]
        assert ("add-edge", "a", "ghost") in kinds
        assert ("remove-edge", "a", "ghost") in kinds

    def test_provisioning_burst_costs_consumers_nothing(self):
        """A grant+revoke burst of the same edges must not evict cache
        entries: the compacted window has weight zero."""
        graph = Digraph([("a", "b"), ("b", "c")])
        cache = ReachabilityCache(graph)
        cache.descendants("a")
        for _ in range(10):
            graph.add_edge("a", "c")
            graph.remove_edge("a", "c")
        assert cache.descendants("a") == {"a", "b", "c"}
        assert cache.evictions == 0
        assert cache.full_invalidations == 0

    def test_mixed_window_keeps_net_changes_only(self):
        graph = Digraph([("a", "b"), ("c", "d")])
        version = graph.version
        graph.add_edge("b", "c")      # survives (odd)
        graph.add_edge("b", "d")      # cancelled below
        graph.remove_edge("b", "d")
        graph.remove_edge("a", "b")   # survives (odd)
        edges = [
            (d.kind, d.source, d.target)
            for d in graph.changes_since(version) if d.is_edge
        ]
        assert edges == [
            ("add-edge", "b", "c"), ("remove-edge", "a", "b")
        ]
