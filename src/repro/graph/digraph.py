"""A small directed-graph data structure used as the policy substrate.

The library does not depend on :mod:`networkx` for its core path; RBAC
policies are tiny graphs mutated frequently by the reference monitor,
and the operations we need (edge add/remove, successor iteration,
reachability with caching) are simpler and faster on a purpose-built
adjacency-set representation.

Vertices may be any hashable value.  The graph stores vertices
explicitly so that isolated vertices (e.g. a role with no assignments
yet) are representable.
"""

from __future__ import annotations

import weakref
from collections import Counter, deque
from itertools import compress
from typing import Hashable, Iterable, Iterator, NamedTuple

Vertex = Hashable


class GraphDelta(NamedTuple):
    """One journaled mutation of a :class:`Digraph`.

    ``kind`` is one of ``"add-edge"``, ``"remove-edge"``,
    ``"add-vertex"``, ``"remove-vertex"``; ``target`` is None for the
    vertex kinds.  ``version`` is the graph version *after* the
    mutation, so replaying all deltas with ``version > v`` transforms
    the graph state at version ``v`` into the current state.
    """

    version: int
    kind: str
    source: Vertex
    target: Vertex | None = None

    @property
    def is_edge(self) -> bool:
        return self.kind in ("add-edge", "remove-edge")


class JournalWindow:
    """What changed in a graph between version ``since`` and
    ``version``: the one record every journal consumer reads
    (:func:`dirty_region`).

    The burst classification is computed on construction.
    ``deltas`` is the delta sequence (:meth:`Digraph.changes_since`,
    compacted unless :func:`dirty_region` was asked not to),
    ``edge_sources`` /
    ``edge_targets`` the mutated edges' endpoints and
    ``removed_vertices`` / ``added_vertices`` the vertex churn (a
    vertex both added and removed appears in both).  ``weight`` counts
    the deltas that can change a reachable set: edge mutations and
    vertex removals.  Additions are free (a fresh vertex has no edges),
    so they count toward no consumer's full-rebuild threshold.

    The dirty region is two masks over the graph's interned vertex
    IDs: ``upstream``, the ancestors of the present edge sources, and
    ``downstream``, the descendants of the present edge targets.  Seeds
    no longer in the graph carry no bit and are listed in
    ``absent_sources`` / ``absent_targets``; each was removed within the
    window, so it is also in ``removed_vertices``.  Each half is swept
    on first read, once per window, so a consumer that compares
    ``weight`` against its threshold first never pays for an oversized
    burst's sweep.  A half must be read while the graph is still at
    ``version``: a later read raises RuntimeError.
    """

    __slots__ = ("since", "version", "deltas", "edge_sources",
                 "edge_targets", "removed_vertices", "added_vertices",
                 "weight", "_graph", "_upstream", "_downstream")

    def __init__(self, graph: "Digraph", since: int,
                 deltas: tuple[GraphDelta, ...]):
        self.since = since
        self.version = graph.version
        self.deltas = deltas
        edge_sources, edge_targets, removed, added = set(), set(), set(), set()
        weight = 0
        for delta in deltas:
            if delta.is_edge:
                edge_sources.add(delta.source)
                edge_targets.add(delta.target)
                weight += 1
            elif delta.kind == "remove-vertex":
                removed.add(delta.source)
                weight += 1
            else:
                added.add(delta.source)
        self.edge_sources = frozenset(edge_sources)
        self.edge_targets = frozenset(edge_targets)
        self.removed_vertices = frozenset(removed)
        self.added_vertices = frozenset(added)
        self.weight = weight
        # A weak reference: the graph memoizes its latest window, and a
        # strong one would tie every graph that took a window into a
        # reference cycle.
        self._graph = weakref.ref(graph)
        self._upstream: tuple[int, frozenset] | None = None
        self._downstream: tuple[int, frozenset] | None = None

    def _sweep(self, seeds: frozenset, upstream: bool) -> tuple[int, frozenset]:
        """The mask of everything reachable from the present ``seeds``
        against (``upstream``) or along the edges, and the absent seeds."""
        graph = self._graph()
        if graph is None or graph.version != self.version:
            raise RuntimeError(
                f"journal window ({self.since}, {self.version}] read after "
                "its graph moved on"
            )
        vid = graph._vid
        mask, frontier, absent = 0, [], []
        for vertex in seeds:
            index = vid.get(vertex)
            if index is None:
                absent.append(vertex)
            else:
                mask |= 1 << index
                frontier.append(index)
        adjacency = graph._pred_bits if upstream else graph._succ_bits
        return _sweep_bits(adjacency, mask, frontier), frozenset(absent)

    @property
    def upstream(self) -> int:
        if self._upstream is None:
            self._upstream = self._sweep(self.edge_sources, True)
        return self._upstream[0]

    @property
    def absent_sources(self) -> frozenset:
        if self._upstream is None:
            self._upstream = self._sweep(self.edge_sources, True)
        return self._upstream[1]

    @property
    def downstream(self) -> int:
        if self._downstream is None:
            self._downstream = self._sweep(self.edge_targets, False)
        return self._downstream[0]

    @property
    def absent_targets(self) -> frozenset:
        if self._downstream is None:
            self._downstream = self._sweep(self.edge_targets, False)
        return self._downstream[1]


#: ``bin()`` digits -> bytes 0/1, for :func:`_dense_bits`.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _is_dense(mask: int) -> bool:
    """Whether ``mask`` decodes faster by one scan of its binary digits
    than by peeling its low bits: each peel is a big-int operation over
    the whole mask, so the peel loop is quadratic in a dense mask and
    the linear scan wins once more than an eighth of a few hundred or
    more bits are set.  A sparse or short mask keeps the peel loop,
    which the scan's fixed cost would slow down."""
    length = mask.bit_length()
    return length >= 256 and mask.bit_count() * 8 > length


def _dense_bits(mask: int) -> Iterator[int]:
    """The set-bit indices of ``mask``, lowest first, by one C-level
    pass over its binary digits (least significant first)."""
    digits = bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)
    return compress(range(len(digits)), digits)


def _sweep_bits(adjacency: list[int], seen: int, frontier: list[int]) -> int:
    """Multi-source BFS over per-vertex adjacency masks: each round ORs
    whole neighbour masks together (word-parallel), then expands only
    the genuinely new bits."""
    while frontier:
        gathered = 0
        for index in frontier:
            gathered |= adjacency[index]
        gathered &= ~seen
        seen |= gathered
        if _is_dense(gathered):
            frontier = list(_dense_bits(gathered))
            continue
        frontier = []
        while gathered:
            low = gathered & -gathered
            frontier.append(low.bit_length() - 1)
            gathered ^= low
    return seen


def _compact_deltas(deltas: list[GraphDelta]) -> tuple[GraphDelta, ...]:
    """Coalesce add/remove pairs of the same edge out of a delta window.

    Edge mutations of one edge alternate (an edge cannot be added
    twice without a removal in between), so an even occurrence count
    nets to zero — all of that edge's deltas are dropped — and an odd
    count keeps exactly the final occurrence, whose kind is by
    construction the net effect.  Vertex deltas pass through in place.

    Edges incident to a vertex that was itself added or removed in
    the window are **exempt** from coalescing: the compiled kernel's
    ID-recycling safety argument ("a surviving mask containing a
    removed vertex also intersects the journaled edge sources of its
    removal") depends on exactly those deltas, and a vertex removed
    and re-assigned within one window (privilege garbage collection
    followed by a re-grant) would otherwise come back under a
    recycled ID with no delta telling any cache to evict.
    """
    churned = {
        delta.source for delta in deltas if not delta.is_edge
    }
    totals = Counter(
        (delta.source, delta.target)
        for delta in deltas
        if delta.is_edge
        and delta.source not in churned
        and delta.target not in churned
    )
    if not totals or all(count == 1 for count in totals.values()):
        return tuple(deltas)
    seen: Counter = Counter()
    compacted = []
    for delta in deltas:
        if delta.is_edge:
            key = (delta.source, delta.target)
            total = totals.get(key)
            if total is not None:  # exempt edges have no entry
                seen[key] += 1
                if total % 2 == 0 or seen[key] != total:
                    continue
        compacted.append(delta)
    return tuple(compacted)


class JournalCursor:
    """A per-consumer staleness cursor into a graph's change journal.

    With several independent consumers (the authorization index and
    its snapshot forks, the serving layer's decision cache, the
    policy's ``PolicyBits`` sort masks, a lint session) the journal
    has no idea who is still behind, and a fixed-size window silently
    expires under the slowest reader.  A cursor makes the consumer
    visible: the graph holds cursors weakly and, when trimming the
    journal, keeps the entries the laggiest registered cursor still
    needs (up to a hard cap — see :attr:`Digraph.JOURNAL_HARD_LIMIT`).

    ``version`` is the graph version this consumer has fully absorbed.
    A consumer reads ``dirty_region(graph, cursor.version)`` and then
    sets ``version`` to the graph's version.
    """

    __slots__ = ("graph", "version", "__weakref__")

    def __init__(self, graph: "Digraph"):
        self.graph = graph
        self.version = graph.version

    @property
    def pending(self) -> bool:
        """True iff mutations happened since this cursor last caught up."""
        return self.version != self.graph.version

    def __repr__(self) -> str:
        return f"JournalCursor(version={self.version}, graph={self.graph!r})"


class Digraph:
    """A mutable directed graph over hashable vertices.

    The graph keeps both successor and predecessor adjacency so that
    ancestor queries (used by the refinement checker) are as cheap as
    descendant queries (used by the reference monitor).

    A monotonically increasing ``version`` counter is bumped on every
    mutation; caches layered on top (see
    :class:`repro.graph.reachability.ReachabilityCache`) use it to
    detect staleness without registering callbacks.

    Mutations are additionally recorded in a bounded *change journal*
    so that those caches can repair themselves incrementally instead of
    discarding everything: :meth:`changes_since` returns the exact
    delta sequence between an old version and the current one, or None
    when the journal no longer reaches back that far (the caller must
    then fall back to a full rebuild).  The journal keeps at most
    ``JOURNAL_LIMIT`` entries; policy-churn bursts larger than that are
    rare and a full rebuild amortizes them.  A :meth:`copy` shares the
    version but not the journal: its history starts at the copy.  It
    shares the adjacency sets copy-on-write, so cloning costs two dict
    copies plus the flat interner, not a copy of every set.

    Consumers that repair lazily and independently (the authorization
    index, its forks, the decision cache, ``PolicyBits``) register a
    :class:`JournalCursor` via :meth:`journal_cursor`; trimming then
    preserves the entries the slowest live cursor still needs, up to
    ``JOURNAL_HARD_LIMIT``.  Every consumer reads the journal through
    :func:`dirty_region`, whose latest window the graph memoizes, so
    the consumers of one write share one classification and one
    region sweep.

    Vertices are additionally *interned*: every vertex gets a stable
    small-integer ID (:meth:`vid` / :meth:`vertex_of`) assigned on
    insertion and recycled through a free-list on removal, and the
    graph maintains per-vertex successor/predecessor *bitmasks* over
    those IDs alongside the adjacency sets.  The bitmasks are what the
    compiled reachability kernel (:func:`repro.graph.descendants_bits`
    and friends) operates on: a BFS step becomes a handful of big-int
    ``|``/``&`` operations instead of per-element set algebra.  An ID
    is only ever reused after its vertex was removed, and every
    journal-driven cache evicts entries that could mention a removed
    vertex before it revalidates, so a recycled ID can never be
    misread by a cache that follows the dirty-region rules (see
    ``docs/ARCHITECTURE.md``, "The compiled bitset kernel").
    """

    JOURNAL_LIMIT = 4096
    #: absolute journal cap: even with registered cursors lagging, the
    #: journal never holds more than this many entries (a consumer that
    #: falls further behind simply pays a full rebuild).
    JOURNAL_HARD_LIMIT = 4 * JOURNAL_LIMIT

    __slots__ = ("_succ", "_pred", "_own_succ", "_own_pred",
                 "_edge_count", "_journal",
                 "_journal_base", "_cursors", "version",
                 "_vid", "_vertex_of", "_free_vids",
                 "_succ_bits", "_pred_bits", "_window", "__weakref__")

    def __init__(self, edges: Iterable[tuple[Vertex, Vertex]] = ()):
        self._succ: dict[Vertex, set[Vertex]] = {}
        self._pred: dict[Vertex, set[Vertex]] = {}
        #: copy-on-write ownership: the vertices whose ``_succ`` /
        #: ``_pred`` set this graph may mutate in place.  Every other
        #: adjacency set may be shared with a :meth:`copy` (or the
        #: graph it was copied from) and is copied before its first
        #: mutation here.  None until the first copy: a graph that was
        #: never copied or copied from owns every set.
        self._own_succ: set[Vertex] | None = None
        self._own_pred: set[Vertex] | None = None
        self._edge_count = 0
        self.version = 0
        self._journal: deque[GraphDelta] = deque()
        self._journal_base = 0  # deltas with version > base are journaled
        self._cursors: weakref.WeakSet[JournalCursor] = weakref.WeakSet()
        #: dense vertex interner (read directly by the bitset kernel in
        #: repro.graph.reachability and repro.core — treat as read-only
        #: outside this class).
        self._vid: dict[Vertex, int] = {}
        self._vertex_of: list[Vertex | None] = []
        self._free_vids: list[int] = []
        self._succ_bits: list[int] = []
        self._pred_bits: list[int] = []
        #: the latest :func:`dirty_region` answer, or None.
        self._window: JournalWindow | None = None
        for source, target in edges:
            self.add_edge(source, target)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _record(self, kind: str, source: Vertex,
                target: Vertex | None = None) -> None:
        if len(self._journal) >= self.JOURNAL_LIMIT:
            floor = min(
                (cursor.version for cursor in self._cursors),
                default=self.version,
            )
            while len(self._journal) >= self.JOURNAL_LIMIT and (
                self._journal[0].version <= floor
                or len(self._journal) >= self.JOURNAL_HARD_LIMIT
            ):
                self._journal_base = self._journal.popleft().version
        self._journal.append(GraphDelta(self.version, kind, source, target))

    def add_vertex(self, vertex: Vertex) -> bool:
        """Add ``vertex``; return True if it was not already present."""
        if vertex in self._succ:
            return False
        self._succ[vertex] = set()
        self._pred[vertex] = set()
        if self._own_succ is not None:
            self._own_succ.add(vertex)
            self._own_pred.add(vertex)
        if self._free_vids:
            index = self._free_vids.pop()
            self._vertex_of[index] = vertex
        else:
            index = len(self._vertex_of)
            self._vertex_of.append(vertex)
            self._succ_bits.append(0)
            self._pred_bits.append(0)
        self._vid[vertex] = index
        self.version += 1
        self._record("add-vertex", vertex)
        return True

    def add_edge(self, source: Vertex, target: Vertex) -> bool:
        """Add the edge ``source -> target``; return True if new.

        Both endpoints are added as vertices if missing.
        """
        self.add_vertex(source)
        self.add_vertex(target)
        if target in self._succ[source]:
            return False
        if self._own_succ is None:
            self._succ[source].add(target)
            self._pred[target].add(source)
        else:
            self._owned_succ(source).add(target)
            self._owned_pred(target).add(source)
        source_id, target_id = self._vid[source], self._vid[target]
        self._succ_bits[source_id] |= 1 << target_id
        self._pred_bits[target_id] |= 1 << source_id
        self._edge_count += 1
        self.version += 1
        self._record("add-edge", source, target)
        return True

    def remove_edge(self, source: Vertex, target: Vertex) -> bool:
        """Remove the edge ``source -> target``; return True if present."""
        if source not in self._succ or target not in self._succ[source]:
            return False
        if self._own_succ is None:
            self._succ[source].discard(target)
            self._pred[target].discard(source)
        else:
            self._owned_succ(source).discard(target)
            self._owned_pred(target).discard(source)
        source_id, target_id = self._vid[source], self._vid[target]
        self._succ_bits[source_id] &= ~(1 << target_id)
        self._pred_bits[target_id] &= ~(1 << source_id)
        self._edge_count -= 1
        self.version += 1
        self._record("remove-edge", source, target)
        return True

    def remove_vertex(self, vertex: Vertex) -> bool:
        """Remove ``vertex`` and all incident edges; return True if present."""
        if vertex not in self._succ:
            return False
        for target in list(self._succ[vertex]):
            self.remove_edge(vertex, target)
        for source in list(self._pred[vertex]):
            self.remove_edge(source, vertex)
        del self._succ[vertex]
        del self._pred[vertex]
        if self._own_succ is not None:
            self._own_succ.discard(vertex)
            self._own_pred.discard(vertex)
        index = self._vid.pop(vertex)
        self._vertex_of[index] = None
        self._succ_bits[index] = 0  # already zero: all incident edges gone
        self._pred_bits[index] = 0
        self._free_vids.append(index)
        self.version += 1
        self._record("remove-vertex", vertex)
        return True

    def _owned_succ(self, vertex: Vertex) -> set[Vertex]:
        """``_succ[vertex]``, first copied if it may be shared."""
        out = self._succ[vertex]
        if vertex not in self._own_succ:
            out = self._succ[vertex] = set(out)
            self._own_succ.add(vertex)
        return out

    def _owned_pred(self, vertex: Vertex) -> set[Vertex]:
        """``_pred[vertex]``, first copied if it may be shared."""
        into = self._pred[vertex]
        if vertex not in self._own_pred:
            into = self._pred[vertex] = set(into)
            self._own_pred.add(vertex)
        return into

    def fast_forward_version(self, version: int) -> None:
        """Jump the version counter forward to ``version`` without
        recording a journal delta.

        The recovery seam: a graph rebuilt by deterministic replay
        (``repro.serve.wal``) reaches a *structurally* identical state
        in fewer mutations than the original took (construction order
        is denser than live history), so its counter lags the version
        the WAL recorded.  Fast-forwarding re-aligns the counter so
        version-pinned consumers (snapshots, decision caches, journal
        cursors) compare equal across the crash.  Sound because no
        structural change happens: ``changes_since(v)`` for any ``v``
        in the skipped range correctly reports no deltas.  Rewinding
        is refused — a backwards jump would alias distinct states.
        """
        if version < self.version:
            raise ValueError(
                f"cannot rewind graph version {self.version} to "
                f"{version}: fast-forward is monotone"
            )
        self.version = version

    # ------------------------------------------------------------------
    # Change journal
    # ------------------------------------------------------------------
    def changes_since(
        self, version: int, compact: bool = True
    ) -> tuple[GraphDelta, ...] | None:
        """The mutations applied after ``version``, oldest first.

        Returns None when ``version`` predates the journal window (the
        caller cannot reconstruct the diff and must rebuild from
        scratch).  Returns an empty tuple when ``version`` is current.

        With ``compact=True`` (the default) add/remove pairs of the
        *same edge* inside the window are coalesced away: bursty
        provisioning frequently grants and revokes the same edge
        within one delta window, and replaying both sides only inflates
        every consumer's burst weight and dirty region.  An edge
        mutated an even number of times nets to no change at all and
        is dropped entirely; an odd number of times keeps only the
        last (net-effect) delta in place.  Vertex deltas are never
        coalesced — consumers replay them order-sensitively (a user
        removed and re-added must end up fresh).  Compaction preserves
        the replay semantics: reachability between the window's
        endpoints is a function of the *net* edge difference only.
        """
        if version >= self.version:
            return ()
        if version < self._journal_base:
            return None
        # Versions are monotone along the journal, so walk back from
        # the newest entry — a typical delta burst is a tiny suffix of
        # a journal dominated by construction history.
        collected = []
        for delta in reversed(self._journal):
            if delta.version <= version:
                break
            collected.append(delta)
        collected.reverse()
        if compact:
            return _compact_deltas(collected)
        return tuple(collected)

    def rewound(self, version: int) -> "Digraph | None":
        """A :meth:`copy` of this graph as it stood at ``version``, or
        None when the journal no longer reaches back that far.

        The uncompacted deltas since ``version`` are undone newest
        first on the copy.  Each delta is invertible on its own:
        :meth:`remove_vertex` journals the removal of every incident
        edge before the vertex itself, so undoing it re-adds the bare
        vertex and then, one delta at a time, its edges, and a vertex
        whose addition is undone has by then lost every edge it gained.
        The copy reports ``version`` and starts an empty journal there.
        Its vertex-ID layout is whatever the undo produced, not the one
        the graph had at ``version``, so nothing keyed by this graph's
        IDs carries over."""
        if version > self.version:
            raise ValueError(
                f"cannot rewind graph version {self.version} forward "
                f"to {version}"
            )
        deltas = self.changes_since(version, compact=False)
        if deltas is None:
            return None
        clone = self.copy()
        for delta in reversed(deltas):
            if delta.kind == "add-edge":
                clone.remove_edge(delta.source, delta.target)
            elif delta.kind == "remove-edge":
                clone.add_edge(delta.source, delta.target)
            elif delta.kind == "add-vertex":
                clone.remove_vertex(delta.source)
            else:
                clone.add_vertex(delta.source)
        clone.version = version
        clone._journal.clear()
        clone._journal_base = version
        clone._window = None
        return clone

    def journal_cursor(self) -> JournalCursor:
        """Register (weakly) and return a new consumer cursor at the
        current version.  While a cursor is alive the journal retains
        the entries it still needs, up to ``JOURNAL_HARD_LIMIT``."""
        cursor = JournalCursor(self)
        self._cursors.add(cursor)
        return cursor

    # ------------------------------------------------------------------
    # Vertex interner
    # ------------------------------------------------------------------
    def vid(self, vertex: Vertex) -> int:
        """The interned ID of ``vertex``; raises KeyError if absent.

        IDs are stable for the lifetime of the vertex and recycled via
        a free-list after removal, so masks stay dense under churn.
        """
        return self._vid[vertex]

    def vertex_of(self, vid: int) -> Vertex:
        """The vertex owning interned ID ``vid``; raises LookupError
        for IDs that are out of range or currently on the free-list."""
        vertex = self._vertex_of[vid] if 0 <= vid < len(self._vertex_of) \
            else None
        if vertex is None:
            raise LookupError(f"no vertex interned at id {vid}")
        return vertex

    @property
    def vid_capacity(self) -> int:
        """Number of interner slots ever allocated (live + free-list):
        every live vertex ID is strictly below this bound."""
        return len(self._vertex_of)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def has_edge(self, source: Vertex, target: Vertex) -> bool:
        return source in self._succ and target in self._succ[source]

    def successors(self, vertex: Vertex) -> frozenset[Vertex]:
        """Direct successors of ``vertex`` (empty if unknown vertex)."""
        return frozenset(self._succ.get(vertex, ()))

    def predecessors(self, vertex: Vertex) -> frozenset[Vertex]:
        """Direct predecessors of ``vertex`` (empty if unknown vertex)."""
        return frozenset(self._pred.get(vertex, ()))

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def edges_absent_from(
        self, other: "Digraph"
    ) -> Iterator[tuple[Vertex, Vertex]]:
        """The edges of this graph that ``other`` lacks.

        A successor set this graph shares copy-on-write with ``other``
        (one is a :meth:`copy` of the other, or both descend from one)
        is the same object on both sides and holds the same edges, so
        it is skipped by an identity test; every other set is diffed
        against ``other``'s set for that source, which makes the
        answer exact for unrelated graphs too.  A source that is not a
        vertex of ``other`` contributes all its edges.  Between a graph
        and a lightly edited copy this costs one pass over the
        adjacency dict plus the edited sets.
        """
        theirs = other._succ
        for source, targets in self._succ.items():
            other_targets = theirs.get(source)
            if other_targets is targets:
                continue
            if other_targets is None:
                for target in targets:
                    yield (source, target)
            else:
                for target in targets - other_targets:
                    yield (source, target)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def out_degree(self, vertex: Vertex) -> int:
        return len(self._succ.get(vertex, ()))

    def in_degree(self, vertex: Vertex) -> int:
        return len(self._pred.get(vertex, ()))

    def copy(self) -> "Digraph":
        """A structural clone that shares the adjacency sets copy-on-write.

        The clone copies the adjacency *dicts* but not the sets in them:
        both graphs forget which sets they own, so whichever side first
        mutates a vertex's successor or predecessor set copies that one
        set (:meth:`_owned_succ` / :meth:`_owned_pred`).  A clone thus
        copies no set up front — two dict copies — and each later
        mutation copies at most two.  Mutations on either side stay
        invisible to the other.

        The interner (``_vid``, ``_vertex_of``, ``_free_vids``) and the
        bitset rows are copied outright: they are flat containers of
        immutable values, copied at C speed.  The clone keeps the
        source's vertex-ID layout and its ``version``, and starts an
        empty journal at that version — ``changes_since`` of any older
        version is None, no journal cursor of the source follows it,
        and no window the source memoized carries over.  Keeping the
        layout is what lets a compiled index's masks over the source be
        handed to a clone unchanged
        (:meth:`repro.core.authz_index.AuthorizationIndex._fork`).
        """
        clone = Digraph.__new__(Digraph)
        clone._succ = dict(self._succ)
        clone._pred = dict(self._pred)
        self._own_succ = set()
        self._own_pred = set()
        clone._own_succ = set()
        clone._own_pred = set()
        clone._edge_count = self._edge_count
        clone.version = self.version
        clone._journal = deque()
        clone._journal_base = self.version
        clone._cursors = weakref.WeakSet()
        clone._vid = dict(self._vid)
        clone._vertex_of = list(self._vertex_of)
        clone._free_vids = list(self._free_vids)
        clone._succ_bits = list(self._succ_bits)
        clone._pred_bits = list(self._pred_bits)
        clone._window = None
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._succ == other._succ

    def __hash__(self):  # Digraphs are mutable; identity hashing is a trap.
        raise TypeError("Digraph is unhashable; use edge_set() snapshots")

    def edge_set(self) -> frozenset[tuple[Vertex, Vertex]]:
        """An immutable snapshot of the edges, usable as a dict key."""
        return frozenset(self.edges())

    def __repr__(self) -> str:
        return (
            f"Digraph(vertices={len(self)}, edges={self._edge_count})"
        )


def dirty_region(
    graph: Digraph, since: int, compact: bool = True
) -> JournalWindow | None:
    """What changed in ``graph`` since version ``since``: the
    :class:`JournalWindow` over the compacted deltas, or None when the
    journal no longer reaches back to ``since`` (the caller rebuilds).

    A mutated edge ``(s, t)``, added or removed, changes the descendant
    sets of exactly the ancestors of ``s`` and the ancestor sets of
    exactly the descendants of ``t``.  Both regions are the same before
    and after the mutation, because a simple path ending at ``s`` (or
    starting at ``t``) cannot use ``(s, t)`` itself, so they are
    computed on the *current* graph, which is all an incrementally
    maintained consumer has.  Reaching into a cycle pulls in its whole
    component, as a sweep over the condensation would, without paying
    for a whole-graph Tarjan pass.

    Compaction (:meth:`Digraph.changes_since`) is sound for the
    window's two end states only: an edge added and removed again
    inside the window changed the reachable sets of the versions in
    between.  With ``compact=False`` every delta is kept, and the
    region then covers what changed between ``since`` and *any* later
    version up to the graph's (a vertex whose reachable set changed at
    some step reaches, on the current graph, either that step's edge
    source or the source of a later-removed edge on its path); a
    consumer catching up to a version the graph has already moved past
    reads that window.

    The graph memoizes only its latest compacted window, keyed by
    ``(since, graph.version)``: every consumer that catches up from the
    same version after one write reads the same object, and so the same
    once-swept region.  A mutation or :meth:`Digraph.fast_forward_version`
    makes the key miss, and :meth:`Digraph.copy` starts with no memo.
    """
    window = graph._window
    if compact and window is not None and window.since == since \
            and window.version == graph.version:
        return window
    deltas = graph.changes_since(since, compact)
    if deltas is None:
        return None
    window = JournalWindow(graph, since, deltas)
    if compact:
        graph._window = window
    return window
