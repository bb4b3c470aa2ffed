"""Unit tests for the digraph substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Digraph, dirty_region


def test_empty_graph():
    graph = Digraph()
    assert len(graph) == 0
    assert graph.edge_count == 0
    assert list(graph.edges()) == []


def test_add_edge_creates_vertices():
    graph = Digraph()
    assert graph.add_edge("a", "b")
    assert "a" in graph
    assert "b" in graph
    assert graph.has_edge("a", "b")
    assert not graph.has_edge("b", "a")


def test_add_edge_idempotent():
    graph = Digraph()
    assert graph.add_edge("a", "b")
    assert not graph.add_edge("a", "b")
    assert graph.edge_count == 1


def test_add_vertex_isolated():
    graph = Digraph()
    assert graph.add_vertex("x")
    assert not graph.add_vertex("x")
    assert "x" in graph
    assert graph.out_degree("x") == 0


def test_remove_edge():
    graph = Digraph([("a", "b"), ("b", "c")])
    assert graph.remove_edge("a", "b")
    assert not graph.remove_edge("a", "b")
    assert not graph.has_edge("a", "b")
    assert graph.has_edge("b", "c")
    # Vertices survive edge removal.
    assert "a" in graph and "b" in graph


def test_remove_vertex_removes_incident_edges():
    graph = Digraph([("a", "b"), ("b", "c"), ("c", "b")])
    assert graph.remove_vertex("b")
    assert "b" not in graph
    assert graph.edge_count == 0
    assert not graph.remove_vertex("b")


def test_successors_predecessors():
    graph = Digraph([("a", "b"), ("a", "c"), ("d", "a")])
    assert graph.successors("a") == {"b", "c"}
    assert graph.predecessors("a") == {"d"}
    assert graph.successors("missing") == frozenset()
    assert graph.predecessors("missing") == frozenset()


def test_degrees():
    graph = Digraph([("a", "b"), ("a", "c"), ("b", "c")])
    assert graph.out_degree("a") == 2
    assert graph.in_degree("c") == 2
    assert graph.in_degree("a") == 0


def test_version_bumps_on_mutation():
    graph = Digraph()
    v0 = graph.version
    graph.add_edge("a", "b")
    v1 = graph.version
    assert v1 > v0
    graph.remove_edge("a", "b")
    assert graph.version > v1


def test_version_not_bumped_on_noop():
    graph = Digraph([("a", "b")])
    version = graph.version
    graph.add_edge("a", "b")  # already present
    assert graph.version == version
    graph.remove_edge("x", "y")  # never present
    assert graph.version == version


def test_copy_is_independent():
    graph = Digraph([("a", "b")])
    clone = graph.copy()
    clone.add_edge("b", "c")
    assert not graph.has_edge("b", "c")
    assert clone.has_edge("a", "b")


def _churned():
    """A graph whose interner has a free-list: ``c`` was removed."""
    graph = Digraph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    graph.remove_vertex("c")
    return graph


def _layout(graph):
    return (
        dict(graph._vid), list(graph._vertex_of), list(graph._free_vids),
        list(graph._succ_bits), list(graph._pred_bits),
    )


def _state(graph):
    return (
        graph.edge_set(), frozenset(graph.vertices()), graph.edge_count,
        graph.version, _layout(graph),
        graph.changes_since(0, compact=False),
    )


def test_copy_keeps_the_vertex_id_layout():
    graph = _churned()
    clone = graph.copy()
    assert graph._free_vids  # the free-list is part of what is copied
    assert _layout(clone) == _layout(graph)
    assert clone == graph
    assert clone.edge_count == graph.edge_count


def test_copy_keeps_the_version_and_starts_an_empty_journal():
    graph = _churned()
    clone = graph.copy()
    assert clone.version == graph.version
    assert clone.changes_since(clone.version) == ()
    assert clone.changes_since(0) is None
    assert clone.changes_since(graph.version - 1) is None
    clone.add_edge("x", "y")
    deltas = clone.changes_since(graph.version)
    assert [delta.kind for delta in deltas] == [
        "add-vertex", "add-vertex", "add-edge",
    ]


@pytest.mark.parametrize("mutate", [
    lambda g: g.add_edge("b", "d"),
    lambda g: g.remove_edge("a", "b"),
    lambda g: g.remove_vertex("b"),
    # Recycles the ID ``c`` freed, on whichever side runs it.
    lambda g: g.add_edge("d", "f"),
], ids=["add-edge", "remove-edge", "remove-vertex", "recycle-id"])
@pytest.mark.parametrize("side", ["source", "clone"])
def test_copy_mutations_stay_on_their_side(mutate, side):
    graph = _churned()
    clone = graph.copy()
    mutated, untouched = (graph, clone) if side == "source" else (clone, graph)
    before = _state(untouched)
    free = list(mutated._free_vids)
    mutate(mutated)
    assert _state(untouched) == before
    assert _state(mutated) != before
    if len(mutated._free_vids) < len(free):
        assert mutated.vid("f") in free  # the recycled ID
    # The same mutation on the other side reproduces this one exactly:
    # the two layouts never diverged.
    mutate(untouched)
    assert _layout(untouched) == _layout(mutated)


def test_copy_does_not_share_journal_cursors():
    graph = _churned()
    cursor = graph.journal_cursor()
    clone = graph.copy()
    assert not list(clone._cursors)
    clone.add_edge("a", "e")
    assert not cursor.pending
    clone_cursor = clone.journal_cursor()
    graph.add_edge("a", "f")
    assert cursor.pending
    assert not clone_cursor.pending
    assert list(graph._cursors) == [cursor]


@pytest.mark.parametrize("side", ["source", "clone"])
def test_copy_shares_adjacency_until_first_write(side):
    graph = Digraph([("a", "b"), ("b", "c"), ("c", "a")])
    clone = graph.copy()
    for vertex in graph.vertices():
        assert clone._succ[vertex] is graph._succ[vertex]
        assert clone._pred[vertex] is graph._pred[vertex]
    mutated, untouched = (graph, clone) if side == "source" else (clone, graph)
    before = _state(untouched)
    mutated.add_edge("a", "c")
    unshared = {
        ("succ", vertex) for vertex in graph.vertices()
        if clone._succ[vertex] is not graph._succ[vertex]
    } | {
        ("pred", vertex) for vertex in graph.vertices()
        if clone._pred[vertex] is not graph._pred[vertex]
    }
    assert unshared == {("succ", "a"), ("pred", "c")}
    assert _state(untouched) == before
    assert untouched.successors("a") == {"b"}
    assert mutated.successors("a") == {"b", "c"}


def test_copy_resets_ownership_on_both_sides():
    graph = Digraph([("a", "b")])
    graph.copy()  # discarded, but it may still have shared the sets
    owned = graph._succ["a"]
    graph.add_edge("a", "c")
    assert graph._succ["a"] is not owned  # copied before the write
    owned = graph._succ["a"]
    graph.add_edge("a", "d")
    assert graph._succ["a"] is owned  # owned now: written in place


class _Untouchable(set):
    """A successor set that fails if anything looks inside it."""

    def __iter__(self):
        raise AssertionError("a shared set was read")

    def __sub__(self, other):
        raise AssertionError("a shared set was diffed")

    __rsub__ = __contains__ = __sub__


def test_edges_absent_from_skips_shared_sets_and_diffs_the_rest():
    graph = Digraph([("a", "b"), ("a", "c"), ("b", "c"), ("d", "a")])
    clone = graph.copy()
    shared = clone._succ["d"] = graph._succ["d"] = _Untouchable({"a"})
    clone.add_edge("a", "x")  # unshares a's set, one new edge
    clone.remove_edge("b", "c")  # unshares b's set, no new edge
    clone.add_edge("b", "c")  # b's set: unshared but equal again
    assert clone._succ["d"] is shared is graph._succ["d"]
    assert clone._succ["b"] is not graph._succ["b"]
    assert list(clone.edges_absent_from(graph)) == [("a", "x")]
    assert list(graph.edges_absent_from(clone)) == []


def test_edges_absent_from_unrelated_graphs():
    edges = [("a", "b"), ("b", "c"), ("c", "a")]
    graph, twin = Digraph(edges), Digraph(reversed(edges))
    assert list(graph.edges_absent_from(twin)) == []
    twin.add_edge("e", "a")
    twin.add_edge("e", "b")  # e is not a vertex of graph
    twin.add_edge("c", "b")
    twin.remove_edge("a", "b")
    assert sorted(twin.edges_absent_from(graph)) == [
        ("c", "b"), ("e", "a"), ("e", "b"),
    ]
    assert list(graph.edges_absent_from(twin)) == [("a", "b")]


_NAMES = "abcdef"
_operation = st.tuples(
    st.sampled_from(
        ["add-edge", "remove-edge", "add-vertex", "remove-vertex", "copy"]
    ),
    st.integers(min_value=0, max_value=7),  # which graph
    st.sampled_from(_NAMES),
    st.sampled_from(_NAMES),
)


def _apply(graph, kind, source, target):
    if kind == "add-edge":
        graph.add_edge(source, target)
    elif kind == "remove-edge":
        graph.remove_edge(source, target)
    elif kind == "add-vertex":
        graph.add_vertex(source)
    else:
        graph.remove_vertex(source)


def _apply_model(model, kind, source, target):
    if kind == "add-edge":
        model.setdefault(source, set()).add(target)
        model.setdefault(target, set())
    elif kind == "remove-edge":
        model.get(source, set()).discard(target)
    elif kind == "add-vertex":
        model.setdefault(source, set())
    elif source in model:
        del model[source]
        for targets in model.values():
            targets.discard(source)


@settings(max_examples=150, deadline=None)
@given(st.lists(_operation, max_size=60))
def test_copy_on_write_generations_match_a_model(operations):
    """A source and every generation of clones (clones of clones,
    clones taken mid-sequence) stay equal to a plain dict-of-sets
    model under interleaved mutations, and each keeps the vertex-ID
    layout a fresh replay of its own history produces (removals free
    IDs that later additions recycle)."""
    graphs = [Digraph()]
    models: list[dict] = [{}]
    histories: list[list] = [[]]
    for kind, which, source, target in operations:
        which %= len(graphs)
        if kind == "copy":
            graphs.append(graphs[which].copy())
            models.append({v: set(out) for v, out in models[which].items()})
            histories.append(list(histories[which]))
            continue
        _apply(graphs[which], kind, source, target)
        _apply_model(models[which], kind, source, target)
        histories[which].append((kind, source, target))
    for graph, model, history in zip(graphs, models, histories):
        assert {v: set(out) for v, out in graph._succ.items()} == model
        predecessors = {vertex: set() for vertex in model}
        for vertex, targets in model.items():
            for target in targets:
                predecessors[target].add(vertex)
        assert {v: set(into) for v, into in graph._pred.items()} == (
            predecessors
        )
        assert graph.edge_count == sum(map(len, model.values()))
        replayed = Digraph()
        for step in history:
            _apply(replayed, *step)
        assert _layout(graph) == _layout(replayed)


def test_equality_by_structure():
    one = Digraph([("a", "b")])
    two = Digraph([("a", "b")])
    assert one == two
    two.add_vertex("c")
    assert one != two


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Digraph())


def test_edge_set_snapshot():
    graph = Digraph([("a", "b")])
    snapshot = graph.edge_set()
    graph.add_edge("b", "c")
    assert snapshot == frozenset({("a", "b")})


def test_vertices_and_edges_iteration():
    graph = Digraph([("a", "b"), ("b", "c")])
    graph.add_vertex("lonely")
    assert set(graph.vertices()) == {"a", "b", "c", "lonely"}
    assert set(graph.edges()) == {("a", "b"), ("b", "c")}


def test_self_loop():
    graph = Digraph([("a", "a")])
    assert graph.has_edge("a", "a")
    assert graph.successors("a") == {"a"}
    assert graph.predecessors("a") == {"a"}


def test_hashable_nonstring_vertices():
    graph = Digraph([((1, 2), (3, 4))])
    assert graph.has_edge((1, 2), (3, 4))


class TestChangeJournal:
    def test_empty_when_current(self):
        graph = Digraph([("a", "b")])
        assert graph.changes_since(graph.version) == ()

    def test_edge_add_journaled(self):
        graph = Digraph()
        before = graph.version
        graph.add_edge("a", "b")
        deltas = graph.changes_since(before)
        assert [d.kind for d in deltas] == [
            "add-vertex", "add-vertex", "add-edge"
        ]
        assert deltas[-1].source == "a" and deltas[-1].target == "b"

    def test_edge_remove_journaled(self):
        graph = Digraph([("a", "b")])
        before = graph.version
        graph.remove_edge("a", "b")
        (delta,) = graph.changes_since(before)
        assert delta.kind == "remove-edge"
        assert delta.is_edge

    def test_vertex_removal_journals_incident_edges_first(self):
        graph = Digraph([("a", "b"), ("b", "c")])
        before = graph.version
        graph.remove_vertex("b")
        kinds = [d.kind for d in graph.changes_since(before)]
        assert kinds == ["remove-edge", "remove-edge", "remove-vertex"]

    def test_noop_mutations_not_journaled(self):
        graph = Digraph([("a", "b")])
        before = graph.version
        graph.add_edge("a", "b")
        graph.remove_edge("a", "x")
        graph.add_vertex("a")
        assert graph.changes_since(before) == ()

    def test_deltas_ordered_and_versioned(self):
        graph = Digraph()
        before = graph.version
        graph.add_vertex("a")
        graph.add_vertex("b")
        graph.add_edge("a", "b")
        deltas = graph.changes_since(before)
        versions = [d.version for d in deltas]
        assert versions == sorted(versions)
        assert versions[-1] == graph.version

    def test_expired_window_returns_none(self):
        graph = Digraph()
        limit = Digraph.JOURNAL_LIMIT
        before = graph.version
        for index in range(limit + 10):
            graph.add_vertex(index)
        assert graph.changes_since(before) is None
        # A recent version is still inside the window.
        assert graph.changes_since(graph.version - 5) is not None

    def test_partial_suffix(self):
        graph = Digraph()
        graph.add_vertex("a")
        middle = graph.version
        graph.add_vertex("b")
        deltas = graph.changes_since(middle)
        assert [d.source for d in deltas] == ["b"]


class TestJournalCursors:
    def test_window_at_cursor_returns_pending(self):
        graph = Digraph()
        cursor = graph.journal_cursor()
        assert not cursor.pending
        assert dirty_region(graph, cursor.version).deltas == ()
        graph.add_edge("a", "b")
        assert cursor.pending
        window = dirty_region(graph, cursor.version)
        assert [d.kind for d in window.deltas] == [
            "add-vertex", "add-vertex", "add-edge"
        ]
        cursor.version = window.version
        assert not cursor.pending
        assert dirty_region(graph, cursor.version).deltas == ()

    def test_journal_retained_for_lagging_cursor(self):
        """Without a cursor this burst expires the window (see
        test_expired_window_returns_none); a registered cursor keeps
        the entries it still needs."""
        graph = Digraph()
        cursor = graph.journal_cursor()
        for index in range(Digraph.JOURNAL_LIMIT + 10):
            graph.add_vertex(index)
        window = dirty_region(graph, cursor.version)
        assert window is not None
        assert len(window.deltas) == Digraph.JOURNAL_LIMIT + 10

    def test_hard_limit_bounds_retention(self):
        graph = Digraph()
        cursor = graph.journal_cursor()
        for index in range(Digraph.JOURNAL_HARD_LIMIT + 10):
            graph.add_vertex(index)
        # The laggard pays the full rebuild.
        assert dirty_region(graph, cursor.version) is None
        assert len(graph._journal) <= Digraph.JOURNAL_HARD_LIMIT

    def test_dead_cursors_do_not_pin_the_journal(self):
        graph = Digraph()
        cursor = graph.journal_cursor()
        base = cursor.version
        del cursor
        for index in range(Digraph.JOURNAL_LIMIT + 10):
            graph.add_vertex(index)
        assert graph.changes_since(base) is None  # window moved on

    def test_caught_up_cursors_allow_trimming(self):
        graph = Digraph()
        cursor = graph.journal_cursor()
        for index in range(Digraph.JOURNAL_LIMIT):
            graph.add_vertex(("a", index))
        cursor.version = graph.version
        for index in range(10):
            graph.add_vertex(("b", index))
        assert len(graph._journal) <= Digraph.JOURNAL_LIMIT
        assert dirty_region(graph, cursor.version) is not None


class TestJournalWindowMemo:
    def test_two_reads_in_one_window_share_the_object(self):
        graph = Digraph([("a", "b")])
        since = graph.version
        graph.add_edge("b", "c")
        window = dirty_region(graph, since)
        assert dirty_region(graph, since) is window
        assert (window.since, window.version) == (since, graph.version)
        assert window.edge_sources == {"b"} and window.weight == 1

    def test_mutation_gives_a_fresh_window(self):
        graph = Digraph([("a", "b")])
        since = graph.version
        graph.add_edge("b", "c")
        window = dirty_region(graph, since)
        graph.add_edge("c", "d")
        fresh = dirty_region(graph, since)
        assert fresh is not window
        assert fresh.edge_sources == {"b", "c"}

    def test_fast_forward_gives_a_fresh_window(self):
        graph = Digraph([("a", "b")])
        since = graph.version
        graph.add_edge("b", "c")
        window = dirty_region(graph, since)
        graph.fast_forward_version(graph.version + 5)
        fresh = dirty_region(graph, since)
        assert fresh is not window
        assert fresh.version == graph.version
        assert fresh.deltas == window.deltas

    def test_copy_never_sees_the_source_memo(self):
        graph = Digraph([("a", "b")])
        since = graph.version
        graph.add_edge("b", "c")
        window = dirty_region(graph, since)
        clone = graph.copy()
        assert clone._window is None
        # The clone's journal starts at the copy.
        assert dirty_region(clone, since) is None
        assert dirty_region(clone, clone.version) is not window
        assert dirty_region(graph, since) is window

    def test_region_read_after_a_mutation_raises(self):
        graph = Digraph([("a", "b")])
        since = graph.version
        graph.add_edge("b", "c")
        window = dirty_region(graph, since)
        assert window.upstream  # swept at the window's version
        graph.add_edge("c", "d")
        assert window.upstream  # the swept half stays readable
        with pytest.raises(RuntimeError):
            window.downstream




class TestRewound:
    def test_undoes_every_delta_kind(self):
        graph = Digraph([("a", "b"), ("b", "c")])
        graph.add_vertex("lonely")
        before = graph.version
        edges, vertices = graph.edge_set(), set(graph.vertices())
        graph.remove_vertex("b")        # journals both incident edges
        graph.add_edge("a", "d")
        graph.remove_vertex("lonely")
        graph.add_edge("e", "a")
        graph.remove_edge("a", "d")
        rewound = graph.rewound(before)
        assert rewound.version == before
        assert rewound.edge_set() == edges
        assert set(rewound.vertices()) == vertices
        # The source is untouched and the copy starts its own journal.
        assert "b" not in graph and graph.has_edge("e", "a")
        assert rewound.changes_since(before) == ()
        assert rewound.changes_since(before - 1) is None
        rewound.add_edge("x", "y")
        assert "x" not in graph

    def test_current_version_is_a_plain_copy(self):
        graph = Digraph([("a", "b")])
        rewound = graph.rewound(graph.version)
        assert rewound == graph and rewound is not graph
        assert rewound.version == graph.version

    def test_fast_forward_gap_holds_no_deltas(self):
        graph = Digraph([("a", "b")])
        graph.fast_forward_version(graph.version + 10)
        jumped = graph.version
        graph.add_edge("b", "c")
        assert graph.rewound(jumped - 5).edge_set() == {("a", "b")}

    def test_beyond_the_journal_is_none(self):
        graph = Digraph()
        before = graph.version
        for index in range(Digraph.JOURNAL_LIMIT + 10):
            graph.add_vertex(index)
        assert graph.rewound(before) is None
        assert graph.rewound(graph.version - 5) is not None

    def test_future_version_is_refused(self):
        graph = Digraph([("a", "b")])
        with pytest.raises(ValueError):
            graph.rewound(graph.version + 1)


def test_uncompacted_window_keeps_an_edge_added_and_removed_again():
    graph = Digraph([("a", "b")])
    graph.add_vertex("c")
    since = graph.version
    graph.add_edge("b", "c")
    graph.remove_edge("b", "c")
    compacted = dirty_region(graph, since)
    assert compacted.weight == 0 and compacted.edge_sources == frozenset()
    full = dirty_region(graph, since, compact=False)
    assert full.edge_sources == {"b"} and full.weight == 2
    assert full.upstream  # "a" and "b" reach the edge's source
    # Only the compacted window is memoized.
    assert dirty_region(graph, since) is compacted
    assert dirty_region(graph, since, compact=False) is not full
