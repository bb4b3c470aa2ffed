"""Reachability queries over :class:`~repro.graph.digraph.Digraph`.

The paper's judgement ``v ->_phi w`` ("there is a path from v to w") is
implemented here as *reflexive*-transitive reachability: ``reaches(v, v)``
is true for every vertex, including vertices not present in the graph.
Example 5 of the paper relies on this (``bob ->_phi bob`` holds with no
self-edge in the policy).

Two entry points are provided:

* module-level functions (:func:`reaches`, :func:`descendants`,
  :func:`ancestors`) that walk the graph directly; and
* :class:`ReachabilityCache`, which memoizes descendant sets per source
  vertex and invalidates itself automatically using the graph's
  ``version`` counter.  The privilege-ordering decision procedure issues
  many reachability queries against a policy that changes rarely, which
  is exactly the access pattern the cache targets.

Both come in two representations.  The *frozenset* functions return
sets of vertex objects and are the semantic oracle.  The *compiled*
functions (:func:`descendants_bits`, :func:`ancestors_bits`,
:meth:`ReachabilityCache.descendants_bits`) return Python big-int
bitmasks over the graph's interned vertex IDs
(:meth:`~repro.graph.digraph.Digraph.vid`): a BFS step unions whole
precomputed successor masks with ``|`` instead of hashing vertices one
by one, and downstream consumers intersect, test and filter masks with
single integer operations.  :func:`descendants_of_mask` and
:func:`ancestors_of_mask` sweep from a whole seed mask at once (the
per-vertex functions are their one-bit case).  A vertex absent from
the graph has no ID, so the compiled functions return ``0`` for it —
callers that need the reflexive ``{source}`` semantics of the
frozenset variants handle the absent seed explicitly (see the
rectangle "extras" in :mod:`repro.core.authz_index`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .digraph import (
    Digraph,
    Vertex,
    _dense_bits,
    _is_dense,
    _sweep_bits,
    dirty_region,
)


def descendants(graph: Digraph, source: Vertex) -> frozenset[Vertex]:
    """All vertices reachable from ``source`` including ``source`` itself."""
    seen: set[Vertex] = {source}
    queue: deque[Vertex] = deque([source])
    while queue:
        vertex = queue.popleft()
        for successor in graph.successors(vertex):
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return frozenset(seen)


def ancestors(graph: Digraph, target: Vertex) -> frozenset[Vertex]:
    """All vertices that reach ``target``, including ``target`` itself."""
    seen: set[Vertex] = {target}
    queue: deque[Vertex] = deque([target])
    while queue:
        vertex = queue.popleft()
        for predecessor in graph.predecessors(vertex):
            if predecessor not in seen:
                seen.add(predecessor)
                queue.append(predecessor)
    return frozenset(seen)


def reaches(
    graph: Digraph,
    source: Vertex,
    target: Vertex,
    cache: "ReachabilityCache | None" = None,
) -> bool:
    """True iff there is a (possibly empty) path from source to target.

    Uses an early-exit BFS rather than materializing the full
    descendant set.  When a ``cache`` is supplied and already holds a
    warm entry for ``source`` (either representation), the answer
    comes from the memo instead of re-walking the graph; a cold cache
    is *not* populated — the early-exit BFS stays cheaper than a full
    materialization for one-shot queries.
    """
    if source == target:
        return True
    if cache is not None:
        warm = cache.peek_reaches(source, target)
        if warm is not None:
            return warm
    seen: set[Vertex] = {source}
    queue: deque[Vertex] = deque([source])
    while queue:
        vertex = queue.popleft()
        for successor in graph.successors(vertex):
            if successor == target:
                return True
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return False


def iter_bits(mask: int):
    """Yield the set-bit indices of ``mask``, lowest first.

    The workhorse for decoding kernel bitmasks back into vertices:
    ``(graph.vertex_of(i) for i in iter_bits(mask))``.  A dense mask
    (a population such as ``users_mask``) is decoded by one scan of its
    binary digits, a sparse one by peeling low bits.
    """
    if _is_dense(mask):
        yield from _dense_bits(mask)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pack_bits(graph: Digraph, vertices: Iterable[Vertex]) -> int:
    """Pack ``vertices`` into a bitmask over the graph's interned IDs.

    The inverse of :func:`iter_bits` decoding: members that are graph
    vertices contribute their ID bit; off-graph members are skipped
    (they have no ID — callers needing them must track extras
    explicitly, as the rectangle representation does).  This is the
    batch-authorization primitive: a query population packed once, then
    matched against per-privilege rectangle masks with single ``&``
    operations.
    """
    vid = graph._vid
    mask = 0
    for vertex in vertices:
        index = vid.get(vertex)
        if index is not None:
            mask |= 1 << index
    return mask


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of ``mask``, or ``-1`` when empty.

    Rectangle rows are built in ascending privilege-ID order, so the
    lowest set bit of an ``eligible & held`` intersection is exactly
    the first-match verdict the scalar scan would return.
    """
    return (mask & -mask).bit_length() - 1


def descendants_of_mask(graph: Digraph, mask: int, blocked: int = 0) -> int:
    """Bitmask of every vertex reachable from *some* vertex of ``mask``
    (a mask over the graph's live vertex IDs), including the seeds
    themselves; ``0`` for an empty mask.

    One multi-source sweep answers a population question — "which
    vertices does any user reach?" — that the per-vertex form answers
    only as a union of one walk per member.

    ``blocked`` vertices are never entered: the answer is what the
    seeds reach in the graph with those vertices deleted (they are
    absent from it).  The seeds must avoid ``blocked``."""
    seen = _sweep_bits(graph._succ_bits, mask | blocked, list(iter_bits(mask)))
    return seen & ~blocked


def ancestors_of_mask(graph: Digraph, mask: int) -> int:
    """Bitmask of every vertex that reaches *some* vertex of ``mask``,
    including the seeds themselves; ``0`` for an empty mask."""
    return _sweep_bits(graph._pred_bits, mask, list(iter_bits(mask)))


def descendants_bits(graph: Digraph, source: Vertex) -> int:
    """Bitmask over interned vertex IDs of every vertex reachable from
    ``source``, including ``source`` itself; ``0`` if ``source`` is not
    a graph vertex (no ID exists for it — see the module docstring)."""
    source_id = graph._vid.get(source)
    if source_id is None:
        return 0
    return descendants_of_mask(graph, 1 << source_id)


def ancestors_bits(graph: Digraph, target: Vertex) -> int:
    """Bitmask of every vertex that reaches ``target``, including
    ``target`` itself; ``0`` if ``target`` is not a graph vertex."""
    target_id = graph._vid.get(target)
    if target_id is None:
        return 0
    return ancestors_of_mask(graph, 1 << target_id)


class ReachabilityCache:
    """Memoized descendant sets over a mutable :class:`Digraph`.

    The cache is *pull-based*: every query compares the graph's current
    ``version`` against the version at which the cache was filled.
    When they differ it consults the graph's change journal and evicts
    only the entries a mutation can actually have touched, instead of
    dropping everything:

    * adding or removing the edge ``(s, t)`` changes the descendant set
      of exactly the vertices that reach ``s``, so the journal window's
      ``upstream`` mask (one reverse sweep from the burst's
      still-present edge sources over the *current* graph, shared with
      every other consumer of the window) holds every stale key, and
      only the entries keyed inside it are evicted.  The current graph suffices:
      a key whose set grew reaches the source of the first added edge
      on its new path through edges that exist now; a key whose set
      shrank had a pre-burst path whose first missing edge was a
      journaled removal, and the prefix up to that edge's source still
      exists (if the source itself was removed, the prefix's last edge
      went with it — unless the prefix is empty and the key is the
      removed vertex, evicted below).  The cost is the upstream
      region, not the memo size;
    * adding a vertex changes nothing (it has no edges yet);
    * removing a vertex only evicts the entry keyed by it — its
      incident edges were removed (and journaled) first.

    When the journal no longer reaches back to the cache's version, or
    the delta burst is larger than ``DELTA_LIMIT``, the cache falls
    back to the old clear-everything behaviour.

    The cache holds two memo tables over the same facts: frozensets
    (:meth:`descendants`) and interned-ID bitmasks
    (:meth:`descendants_bits`, the compiled kernel's representation).
    Both follow identical eviction rules; an entry surviving eviction
    provably contains no removed vertex (its set did not change, and
    a removed vertex left every set that held it), which is what makes
    interner ID reuse safe for retained masks.
    """

    DELTA_LIMIT = 64

    __slots__ = ("_graph", "_version", "_descendants", "_bits",
                 "_bits_by_vid", "evictions", "full_invalidations")

    def __init__(self, graph: Digraph):
        self._graph = graph
        self._version = graph.version
        self._descendants: dict[Vertex, frozenset[Vertex]] = {}
        #: vertex -> (vid at fill time, mask); the vid makes the mirror
        #: below evictable even after the vertex has left the graph.
        self._bits: dict[Vertex, tuple[int, int]] = {}
        #: vid -> mask mirror of ``_bits`` — absorption lookups during
        #: the BFS are per frontier *bit*, and int keys skip the
        #: Python-level entity ``__hash__`` calls entirely.
        self._bits_by_vid: dict[int, int] = {}
        #: diagnostic counters (read by benchmarks and tests)
        self.evictions = 0
        self.full_invalidations = 0

    def _validate(self) -> None:
        if self._version == self._graph.version:
            return
        window = (
            dirty_region(self._graph, self._version)
            if (self._descendants or self._bits) else None
        )
        if window is None or window.weight > self.DELTA_LIMIT:
            if self._descendants or self._bits:
                self._descendants.clear()
                self._bits.clear()
                self._bits_by_vid.clear()
                self.full_invalidations += 1
        else:
            # Removed vertices evict their own entry (their incident
            # edges were journaled first); every other stale key lies
            # upstream of a present edge source (see the class doc).
            for vertex in window.removed_vertices:
                self._evict(vertex)
            vertex_of = self._graph._vertex_of
            for index in iter_bits(window.upstream):
                self._evict(vertex_of[index])
        self._version = self._graph.version

    def _evict(self, vertex: Vertex) -> None:
        """Drop ``vertex``'s entries from both memo tables."""
        if self._descendants.pop(vertex, None) is not None:
            self.evictions += 1
        dropped = self._bits.pop(vertex, None)
        if dropped is not None:
            del self._bits_by_vid[dropped[0]]
            self.evictions += 1

    def descendants(self, source: Vertex) -> frozenset[Vertex]:
        self._validate()
        cached = self._descendants.get(source)
        if cached is None:
            cached = descendants(self._graph, source)
            self._descendants[source] = cached
        return cached

    def descendants_bits(self, source: Vertex) -> int:
        """Memoized bitmask of the descendants of ``source`` (``0`` for
        a vertex absent from the graph).

        The BFS *absorbs* warm sibling entries: when the frontier
        reaches a vertex whose mask is already memoized, that whole
        mask is OR-ed into the result and the vertex is not expanded.
        Fanning out over a user population whose members share role
        subtrees (the authorization-index build) therefore pays the
        deep traversal once per role, not once per user.
        """
        self._validate()
        cached = self._bits.get(source)
        if cached is not None:
            return cached[1]
        graph = self._graph
        source_id = graph._vid.get(source)
        if source_id is None:
            return 0
        memo_vid = self._bits_by_vid
        succ_bits = graph._succ_bits
        seen = 1 << source_id
        frontier = [source_id]
        while frontier:
            gathered = 0
            for index in frontier:
                gathered |= succ_bits[index]
            gathered &= ~seen
            frontier = []
            while gathered:
                low = gathered & -gathered
                gathered ^= low
                index = low.bit_length() - 1
                warm = memo_vid.get(index)
                if warm is None:
                    seen |= low
                    frontier.append(index)
                else:
                    seen |= warm
                    gathered &= ~warm
        self._bits[source] = (source_id, seen)
        memo_vid[source_id] = seen
        return seen

    def peek_descendants(self, source: Vertex) -> frozenset[Vertex] | None:
        """The memoized frozenset descendant set, or None when cold —
        never triggers a build (evicts stale entries first)."""
        self._validate()
        return self._descendants.get(source)

    def peek_reaches(self, source: Vertex, target: Vertex) -> bool | None:
        """Answer ``reaches`` purely from warm memo entries (either
        representation); None when the source is cold."""
        if source == target:
            return True
        self._validate()
        cached = self._descendants.get(source)
        if cached is not None:
            return target in cached
        warm = self._bits.get(source)
        if warm is not None:
            index = self._graph._vid.get(target)
            return index is not None and bool(warm[1] >> index & 1)
        return None

    def reaches(self, source: Vertex, target: Vertex) -> bool:
        if source == target:
            return True
        self._validate()
        # A warm mask entry (the compiled kernel's representation)
        # already answers the membership question — don't materialize
        # a duplicate frozenset of the same facts.
        warm = self._bits.get(source)
        if warm is not None and source not in self._descendants:
            index = self._graph._vid.get(target)
            return index is not None and bool(warm[1] >> index & 1)
        return target in self.descendants(source)

    @property
    def cached_sources(self) -> int:
        """Number of memoized descendant sets, both representations
        (diagnostic)."""
        self._validate()
        return len(self._descendants) + len(self._bits)
