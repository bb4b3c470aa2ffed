"""Unit tests for reachability and the version-checked cache."""

import random

from repro.graph import (
    Digraph,
    ReachabilityCache,
    ancestors,
    descendants,
    descendants_bits,
    descendants_of_mask,
    dirty_region,
    iter_bits,
    pack_bits,
    reaches,
)


def chain(n):
    return Digraph([(i, i + 1) for i in range(n)])


def test_reaches_is_reflexive():
    graph = Digraph()
    assert reaches(graph, "x", "x")  # even for unknown vertices


def test_reaches_direct_and_transitive():
    graph = chain(4)
    assert reaches(graph, 0, 1)
    assert reaches(graph, 0, 4)
    assert not reaches(graph, 4, 0)


def test_reaches_handles_cycles():
    graph = Digraph([("a", "b"), ("b", "c"), ("c", "a")])
    assert reaches(graph, "a", "c")
    assert reaches(graph, "c", "b")


def test_descendants_includes_self():
    graph = chain(3)
    assert descendants(graph, 1) == {1, 2, 3}
    assert descendants(graph, 3) == {3}


def test_ancestors_includes_self():
    graph = chain(3)
    assert ancestors(graph, 2) == {0, 1, 2}
    assert ancestors(graph, 0) == {0}


def test_dirty_region_unions_reachable_sets():
    graph = Digraph([("a", "x"), ("b", "y")])
    since = graph.version
    graph.add_edge("x", "a")
    graph.add_edge("y", "b")
    window = dirty_region(graph, since)
    downstream = {graph.vertex_of(i) for i in iter_bits(window.downstream)}
    assert downstream == {"a", "b", "x", "y"}
    assert dirty_region(graph, graph.version).downstream == 0


def test_diamond():
    graph = Digraph([("top", "l"), ("top", "r"), ("l", "bot"), ("r", "bot")])
    assert descendants(graph, "top") == {"top", "l", "r", "bot"}
    assert ancestors(graph, "bot") == {"top", "l", "r", "bot"}


def test_blocked_sweep_is_reach_in_the_graph_without_the_vertex():
    """A sweep from a vertex's other successors with the vertex
    blocked equals a frozenset BFS on the graph with it deleted; cycles
    back into the vertex and self-loops (its own and others') cannot
    re-open it."""
    rng = random.Random(7)
    for _ in range(60):
        size = rng.randint(2, 9)
        edges = [
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(1, 3 * size))
        ]
        graph = Digraph(edges)
        for vertex in list(graph.vertices()):
            without = Digraph(edges)
            without.remove_vertex(vertex)
            seeds = graph.successors(vertex) - {vertex}
            expected = set()
            for seed in seeds:
                expected |= descendants(without, seed)
            swept = descendants_of_mask(
                graph, pack_bits(graph, seeds), blocked=1 << graph.vid(vertex)
            )
            assert {graph.vertex_of(i) for i in iter_bits(swept)} == expected


def test_cache_answers_match_direct_queries():
    graph = chain(5)
    cache = ReachabilityCache(graph)
    for source in range(6):
        for target in range(6):
            assert cache.reaches(source, target) == reaches(graph, source, target)


def test_cache_invalidates_on_mutation():
    graph = Digraph([("a", "b")])
    cache = ReachabilityCache(graph)
    assert not cache.reaches("b", "c")
    graph.add_edge("b", "c")
    assert cache.reaches("b", "c")
    graph.remove_edge("a", "b")
    assert not cache.reaches("a", "b")


def test_cache_memoizes_between_mutations():
    graph = chain(3)
    cache = ReachabilityCache(graph)
    cache.descendants(0)
    cache.descendants(0)
    assert cache.cached_sources == 1
    cache.descendants(1)
    assert cache.cached_sources == 2
    graph.add_edge(3, 4)
    cache.descendants(0)
    assert cache.cached_sources == 1  # cleared on version change


class TestIncrementalInvalidation:
    """The cache consults the change journal and evicts only entries a
    mutation can have touched."""

    def test_unrelated_entries_survive_mutation(self):
        graph = Digraph([("a", "b"), ("x", "y")])
        cache = ReachabilityCache(graph)
        cache.descendants("a")
        cache.descendants("x")
        graph.add_edge("b", "c")  # only the a-chain is affected
        assert cache.reaches("x", "y")
        assert cache.cached_sources == 1  # "a" evicted, "x" kept
        assert cache.evictions == 1
        assert cache.full_invalidations == 0

    def test_affected_entry_recomputed(self):
        graph = Digraph([("a", "b")])
        cache = ReachabilityCache(graph)
        assert not cache.reaches("a", "c")
        graph.add_edge("b", "c")
        assert cache.reaches("a", "c")
        graph.remove_edge("a", "b")
        assert not cache.reaches("a", "c")

    def test_vertex_removal_evicts_own_entry(self):
        graph = Digraph([("a", "b")])
        cache = ReachabilityCache(graph)
        cache.descendants("b")
        cache.descendants("a")
        graph.remove_vertex("b")
        assert cache.descendants("b") == frozenset({"b"})
        assert not cache.reaches("a", "b")

    def test_large_burst_falls_back_to_full_clear(self):
        graph = Digraph([("a", "b")])
        cache = ReachabilityCache(graph)
        cache.descendants("a")
        for index in range(ReachabilityCache.DELTA_LIMIT + 1):
            graph.add_edge(f"s{index}", f"t{index}")
        cache.descendants("a")
        assert cache.full_invalidations == 1

    def test_mid_batch_path_creation_is_caught(self):
        """x gains a path to s only via an edge added earlier in the
        same delta batch; the batched eviction must still see it."""
        graph = Digraph([("s", "t0")])
        cache = ReachabilityCache(graph)
        assert cache.descendants("x") == frozenset({"x"})
        graph.add_edge("x", "s")   # x now reaches s
        graph.add_edge("s", "t1")  # and this must invalidate x's entry
        assert "t1" in cache.descendants("x")

    def test_cycle_members_all_evicted(self):
        graph = Digraph([("a", "b"), ("b", "a")])
        cache = ReachabilityCache(graph)
        cache.descendants("a")
        cache.descendants("b")
        graph.add_edge("a", "c")
        assert "c" in cache.descendants("b")  # via the cycle

    def _assert_memo_exact(self, graph, cache):
        """Every entry surviving validation equals a fresh walk."""
        cache._validate()
        for key, seen in cache._descendants.items():
            assert seen == descendants(graph, key), key
        for key, (index, mask) in cache._bits.items():
            assert index == graph.vid(key), key
            assert mask == descendants_bits(graph, key), key
            assert cache._bits_by_vid[index] == mask
        assert len(cache._bits_by_vid) == len(cache._bits)

    def test_random_bursts_keep_every_surviving_entry_exact(self):
        """Seeded differential: bursts of edge adds and removes plus
        vertex removal and re-add (the interner recycles the freed ID)
        leave only exact entries behind, in both representations."""
        for seed in range(6):
            rng = random.Random(seed)
            names = [f"v{index}" for index in range(14)]
            graph = Digraph()
            for name in names:
                graph.add_vertex(name)
            for _ in range(22):
                graph.add_edge(rng.choice(names), rng.choice(names))
            cache = ReachabilityCache(graph)
            for _ in range(60):
                for name in rng.sample(names, 6):
                    cache.descendants(name)
                    cache.descendants_bits(name)
                for _ in range(rng.randint(1, 5)):
                    op = rng.random()
                    if op < 0.45:
                        graph.add_edge(rng.choice(names), rng.choice(names))
                    elif op < 0.8:
                        edges = sorted(graph.edges())
                        if edges:
                            graph.remove_edge(*rng.choice(edges))
                    elif op < 0.9:
                        graph.remove_vertex(rng.choice(names))
                    else:
                        # Re-add an absent vertex (taking a freed ID)
                        # with fresh edges in the same burst.
                        absent = [n for n in names if n not in graph]
                        if absent:
                            name = rng.choice(absent)
                            graph.add_edge(name, rng.choice(names))
                            graph.add_edge(rng.choice(names), name)
                self._assert_memo_exact(graph, cache)
            assert cache.evictions > 0
            assert cache.full_invalidations == 0

    def test_user_role_toggle_evicts_only_that_user(self):
        roles = [f"r{index}" for index in range(12)]
        graph = Digraph(
            [(roles[index], roles[index + 1]) for index in range(11)]
        )
        graph.add_edge("alice", roles[3])
        graph.add_edge("bob", roles[5])
        cache = ReachabilityCache(graph)
        for vertex in ("alice", "bob", roles[3], roles[9]):
            cache.descendants_bits(vertex)
        role_entry = cache._bits[roles[9]]
        for toggle in (graph.add_edge, graph.remove_edge):
            before = cache.evictions
            toggle("alice", roles[0])
            assert cache.descendants_bits("bob") == descendants_bits(
                graph, "bob"
            )
            assert cache.evictions - before == 1  # alice's entry only
            assert cache._bits[roles[9]] is role_entry
            assert "alice" not in cache._bits
            cache.descendants_bits("alice")
        assert cache.full_invalidations == 0

    def test_path_through_an_edge_removed_in_the_same_burst(self):
        """k's only pre-burst path to b and c runs through (a, b),
        removed in the burst that also hangs a new edge off b, which
        k no longer reaches: the sweep from the removed edge's source
        a still finds k."""
        graph = Digraph([("k", "a"), ("a", "b"), ("b", "c")])
        cache = ReachabilityCache(graph)
        cache.descendants("k")
        cache.descendants_bits("k")
        cache.descendants("c")
        c_entry = cache._descendants["c"]
        graph.remove_edge("a", "b")
        graph.add_edge("b", "e")
        assert cache.descendants("k") == frozenset({"k", "a"})
        assert cache.descendants_bits("k") == descendants_bits(graph, "k")
        assert cache._descendants["c"] is c_entry  # c's set is unchanged
        assert cache.full_invalidations == 0
