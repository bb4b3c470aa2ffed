"""Version-keyed decision cache with journal-driven invalidation.

The PDP answers reads from the latest published
:class:`~repro.core.authz_index.ReviewSnapshot`; this cache sits in
front of it, keyed by subject and requested edge, and is advanced —
not cleared — on every publication by reading the journal window
since its own :meth:`~repro.core.policy.Policy.journal_cursor`
(:func:`~repro.graph.dirty_region`): the same window, classification
and once-swept region the incremental indexes repair themselves with.

Soundness of the selective eviction, in the terms of the window's
dirty region: a cached verdict for ``(subject, a, v, v')`` can only
change when

* the subject's reachable set changed — ``subject`` is in the
  *upstream* region (ancestors of mutated-edge sources);
* some held rectangle's source side ``ancestors(p.source) ∋ v``
  changed — then ``descendants(v)`` changed, so ``v`` is upstream;
* some rectangle's target side ``descendants(p.target) ∋ v'``
  changed — then ``ancestors(v')`` changed, so ``v'`` is in the
  *downstream* region (descendants of mutated-edge targets); or
* a vertex was removed or (re-)added in the window — removals can
  garbage-collect privilege terms and additions can migrate an
  off-graph extra into a rectangle mask, so both sets evict anything
  they touch (the same special-casing the authorization index applies).

The regions are masks over the current graph's vertex IDs, so a
vertex is tested by its current ID.  A vertex without one left the
graph within the window (every absent region seed did) or was never
in it; the first kind is in the removed set, the second in no region.
A recycled ID belongs, by then, to a vertex added within the window,
which the added set evicts.

Exact revocations are a degenerate case of the first bullet (they
depend only on the subject's held set).  Commands whose target is
itself a privilege term take the ordering-oracle path in the kernel;
they are **not cached** (``cacheable`` returns False) rather than
reasoned about here.  A wholesale clear happens only when the journal
no longer reaches back to the cache's version — never as a shortcut.
"""

from __future__ import annotations

from ..core.commands import Command
from ..core.privileges import is_privilege
from ..graph import dirty_region

_ABSENT = object()


def cacheable(command: Command) -> bool:
    """True when a verdict for ``command`` may be cached: well-sorted
    edge, entity target (nested privilege-term targets ride the
    ordering oracle and are excluded from the soundness argument)."""
    return (
        command.requested_privilege() is not None
        and not is_privilege(command.target)
    )


class DecisionCache:
    """Subject-bucketed verdict cache pinned to one policy version.

    ``get``/``put`` are only meaningful at the cache's current
    ``version``; ``advance()`` moves it to the policy's version by
    selective eviction.  ``max_entries`` bounds memory: once full, new
    verdicts are simply not inserted (the snapshot answers them
    anyway) until eviction makes room.
    """

    def __init__(self, policy, max_entries: int = 65536):
        self._cursor = policy.journal_cursor()
        self._graph = policy.graph
        self._buckets: dict[object, dict[tuple, object]] = {}
        self.version = policy.version
        self.max_entries = max_entries
        self.entries = 0
        self.hits = 0
        self.misses = 0
        self.evicted_subjects = 0
        self.evicted_entries = 0
        self.full_clears = 0
        self.advances = 0

    @staticmethod
    def _key(command: Command) -> tuple:
        return (command.action, command.source, command.target)

    def get(self, subject, command: Command):
        """The cached verdict, or ``None`` on a miss.  Verdicts are
        ``(privilege-or-None,)`` 1-tuples so a cached denial is
        distinguishable from a miss."""
        bucket = self._buckets.get(subject)
        if bucket is not None:
            verdict = bucket.get(self._key(command), _ABSENT)
            if verdict is not _ABSENT:
                self.hits += 1
                return (verdict,)
        self.misses += 1
        return None

    def put(self, subject, command: Command, verdict, version: int) -> None:
        """Insert a verdict decided at ``version`` — ignored unless it
        matches the cache's version (a publication may land between a
        read's decision and its insertion) or the command is not
        cacheable or the cache is full."""
        if version != self.version or not cacheable(command):
            return
        if self.entries >= self.max_entries:
            return
        bucket = self._buckets.get(subject)
        if bucket is None:
            bucket = self._buckets[subject] = {}
        key = self._key(command)
        if key not in bucket:
            self.entries += 1
        bucket[key] = verdict

    def advance(self, version: int) -> None:
        """Move the cache to ``version`` by consuming the journal and
        evicting exactly the entries the delta burst can have changed
        (see the module docstring for the soundness argument)."""
        if version == self.version:
            return
        self.advances += 1
        window = dirty_region(self._graph, self._cursor.version)
        self._cursor.version = self._graph.version
        if window is None:
            # Journal expired under us: the one case we cannot evict
            # selectively.
            self._clear()
            self.version = version
            return
        churned = window.removed_vertices | window.added_vertices
        if window.weight == 0 and not churned:
            self.version = version
            return
        upstream, downstream = window.upstream, window.downstream
        vid = self._graph._vid.get

        def dirty(vertex, region: int) -> bool:
            index = vid(vertex)
            if index is not None and region >> index & 1:
                return True
            return bool(churned) and vertex in churned

        buckets = self._buckets
        for subject in list(buckets):
            if dirty(subject, upstream):
                self.entries -= len(buckets[subject])
                self.evicted_entries += len(buckets[subject])
                del buckets[subject]
                self.evicted_subjects += 1
                continue
            bucket = buckets[subject]
            stale = [
                key for key in bucket
                if dirty(key[1], upstream) or dirty(key[2], downstream)
            ]
            for key in stale:
                del bucket[key]
            self.entries -= len(stale)
            self.evicted_entries += len(stale)
            if not bucket:
                del buckets[subject]
        self.version = version

    def _clear(self) -> None:
        self.evicted_entries += self.entries
        self._buckets.clear()
        self.entries = 0
        self.full_clears += 1

    def statistics(self) -> dict[str, int]:
        return {
            "version": self.version,
            "entries": self.entries,
            "subjects": len(self._buckets),
            "hits": self.hits,
            "misses": self.misses,
            "evicted_subjects": self.evicted_subjects,
            "evicted_entries": self.evicted_entries,
            "full_clears": self.full_clears,
            "advances": self.advances,
        }
