"""Sharded authorization index with cross-subject rectangle sharing.

The single :class:`~repro.core.authz_index.AuthorizationIndex` keeps
one per-subject map: every repair and every query serializes on the
same structure, and each subject privately materializes the
``sources × targets`` frozensets of its grant rectangles even though
rectangle contents are a function of the *privilege*, not of the
subject holding it.  Both costs grow with the user population — the
wrong direction for the million-user target.

This module splits the work two ways:

**Sharding.**  Subjects are partitioned across ``N`` shards by a
stable hash of the user name (:func:`shard_of` — ``crc32``, so the
layout is reproducible across processes and runs).  Each shard is a
plain :class:`AuthorizationIndex` restricted to the users it owns,
with its *own* :class:`~repro.graph.JournalCursor` into the policy
graph's change journal.  Consequences:

* a query repairs only the shard owning the queried subject — policy
  churn whose dirty region misses a shard's users costs that shard a
  delta scan, never a rebuild;
* shards lag independently: an idle shard stays stale for free, and
  the journal (which retains entries for the slowest registered
  cursor) lets it catch up incrementally later;
* :meth:`ShardedAuthorizationIndex.refresh` can repair shards on a
  thread pool (``parallel=True``) — shards share no mutable state
  except the pool (locked) and the policy's read caches (pre-validated
  before the fan-out).

**Rectangle sharing.**  All shards draw rectangle contents from one
:class:`RectanglePool`, keyed by the held privilege.  The pool caches
each privilege's interned rectangle from the last graph version at
which its *region* changed: on validation it consults the change
journal and evicts exactly the rectangles whose source lies downstream
or whose target lies upstream of a mutated edge — every other entry is
provably identical at the new version, so subjects across all shards
keep sharing the same frozensets.  With ``U`` users averaging ``k``
held grants of ``P`` distinct privileges, per-subject materialization
stores ``O(U·k)`` frozensets; the pool stores ``O(P)``.

``ShardedAuthorizationIndex(policy, shards=1)`` degenerates to a
single shard owning everybody, and the whole class answers
``authorizes`` / ``grantable_pairs`` / ``revocable_pairs`` /
``effective_authority`` identically to an unsharded index — pinned by
the differential fuzz invariant in :mod:`repro.workloads.fuzz`
(``fuzz_sharded_index``) and by ``tests/core/test_authz_shard.py``.
"""

from __future__ import annotations

import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

from ..graph import ancestors as graph_ancestors
from ..graph import dirty_region, dirty_region_bits, summarize_deltas
from .authz_index import (
    AuthorizationIndex,
    BitGrantRectangle,
    GrantRectangle,
    ReviewSnapshot,
    compile_sources,
    compile_targets,
    retained_snapshot,
)
from .commands import Command
from .entities import Role, User
from .policy import Policy
from .privileges import Grant, Privilege

_Entity = (User, Role)


def shard_of(user: User, shards: int) -> int:
    """The shard owning ``user`` — a stable hash of the name, so the
    layout is deterministic across processes (``hash()`` is salted)."""
    return zlib.crc32(user.name.encode("utf-8")) % shards


class RectanglePool:
    """Interned :class:`GrantRectangle` contents, shared across every
    subject (and shard) holding the same grant privilege.

    A rectangle's ``sources`` are the entity ancestors of the held
    grant's source and its ``targets`` the role descendants of its
    target — functions of the privilege and the policy graph only.
    The pool builds each rectangle once and revalidates by journal:
    a mutated edge ``(s, t)`` invalidates exactly the rectangles whose
    held source lies in ``descendants(t)`` (their ancestor set may
    have changed) or whose held target lies in ``ancestors(s)`` (their
    descendant set may have changed) — the same dirty-region argument
    the index itself uses.  Deltas larger than ``DELTA_LIMIT`` or an
    expired journal clear the pool wholesale.

    All entry points take the pool lock, so shards may build and look
    up rectangles from worker threads.

    ``compiled=True`` (the default) interns
    :class:`~repro.core.authz_index.BitGrantRectangle` bitmasks instead
    of frozensets — the eviction sweep becomes a bit-test per held
    endpoint — and must match the ``compiled`` flag of the indexes
    drawing from the pool.
    """

    DELTA_LIMIT = 256

    __slots__ = ("policy", "compiled", "hits", "builds", "evictions",
                 "full_clears", "_cursor", "_rectangles", "_ancestors",
                 "_lock")

    def __init__(self, policy: Policy, compiled: bool = True):
        self.policy = policy
        self.compiled = compiled
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self.full_clears = 0
        self._cursor = policy.journal_cursor()
        self._rectangles: dict[Grant, object] = {}
        #: entity-ancestor regions shared between rectangles whose held
        #: privileges have the same source: frozensets, or
        #: ``(mask, extras)`` pairs when compiled.
        self._ancestors: dict[object, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Evict (only) the entries the journaled deltas can have
        touched; callers must validate before building rectangles for
        the current policy version."""
        with self._lock:
            if not self._cursor.pending:
                return
            deltas = self._cursor.take()
            summary = None if deltas is None else summarize_deltas(deltas)
            if summary is None or summary.weight > self.DELTA_LIMIT:
                self._drop_all()
                return
            if summary.weight == 0 and not (
                self.compiled and summary.added_vertices
            ):
                # Pure vertex additions touch no reachable set — but
                # the compiled pool still migrates extras-held
                # endpoints of re-provisioned vertices (see below).
                return
            removed = summary.removed_vertices
            if self.compiled:
                self._evict_stale_bits(summary, removed)
                return
            upstream, downstream = dirty_region(
                self.policy.graph, summary.edge_sources, summary.edge_targets
            )
            sources_dirty = downstream | removed
            targets_dirty = upstream | removed
            stale = [
                privilege
                for privilege in self._rectangles
                if privilege.source in sources_dirty
                or privilege.target in targets_dirty
                or privilege in removed
            ]
            for privilege in stale:
                del self._rectangles[privilege]
            self.evictions += len(stale)
            for vertex in [v for v in self._ancestors if v in sources_dirty]:
                del self._ancestors[vertex]

    def _evict_stale_bits(self, summary, removed) -> None:
        """Compiled eviction (caller holds the lock): the dirty-region
        membership tests are single bit-tests against the two region
        masks; vertices without an ID fall back to the removed set
        (every absent region member was removed inside this window).

        Added vertices additionally evict the rectangles (and cached
        ancestor regions) whose *own endpoint* they are: a rectangle
        built while its endpoint was off-graph carries it in the
        extras, and the hot path only tests the mask once the vertex
        has an ID again — re-provisioning must migrate the
        representation even though the region is set-identical (the
        frozenset pool correctly keeps such entries)."""
        graph = self.policy.graph
        upstream, downstream, absent_sources, absent_targets = (
            dirty_region_bits(
                graph, summary.edge_sources, summary.edge_targets
            )
        )
        added = summary.added_vertices
        sources_extra = absent_targets | removed
        targets_extra = absent_sources | removed
        vid = graph._vid

        def source_dirty(vertex) -> bool:
            index = vid.get(vertex)
            if index is not None and downstream >> index & 1:
                return True
            return bool(sources_extra) and vertex in sources_extra

        def target_dirty(vertex) -> bool:
            index = vid.get(vertex)
            if index is not None and upstream >> index & 1:
                return True
            return bool(targets_extra) and vertex in targets_extra

        def needs_migration(privilege, rectangle) -> bool:
            return bool(added) and (
                (
                    privilege.source in added
                    and privilege.source in rectangle.extra_sources
                )
                or (
                    privilege.target in added
                    and privilege.target in rectangle.extra_targets
                )
            )

        stale = [
            privilege
            for privilege, rectangle in self._rectangles.items()
            if source_dirty(privilege.source)
            or target_dirty(privilege.target)
            or privilege in removed
            or needs_migration(privilege, rectangle)
        ]
        for privilege in stale:
            del self._rectangles[privilege]
        self.evictions += len(stale)
        for vertex in [
            v for v, region in self._ancestors.items()
            if source_dirty(v) or (v in added and v in region[1])
        ]:
            del self._ancestors[vertex]

    def _drop_all(self) -> None:
        if self._rectangles or self._ancestors:
            self._rectangles.clear()
            self._ancestors.clear()
            self.full_clears += 1

    # ------------------------------------------------------------------
    def rectangle(self, privilege: Grant):
        """The interned rectangle for an entity-target grant (built on
        first demand, shared by every holder afterwards).

        The graph traversals run *outside* the lock — they are pure
        reads, and builds are idempotent at a fixed policy version, so
        two threads missing the same privilege at worst duplicate the
        work and the first insertion wins.
        """
        with self._lock:
            rectangle = self._rectangles.get(privilege)
            if rectangle is not None:
                self.hits += 1
                return rectangle
            sources = self._ancestors.get(privilege.source)
        if self.compiled:
            if sources is None:
                sources = compile_sources(self.policy, privilege.source)
            source_bits, extra_sources = sources
            target_bits, extra_targets = compile_targets(
                self.policy, privilege.target
            )
            built = BitGrantRectangle(
                privilege, source_bits, target_bits,
                extra_sources, extra_targets,
            )
        else:
            if sources is None:
                sources = frozenset(
                    v for v in graph_ancestors(
                        self.policy.graph, privilege.source
                    )
                    if isinstance(v, _Entity)
                )
            targets = frozenset(
                v for v in self.policy.descendants(privilege.target)
                if isinstance(v, Role)
            )
            built = GrantRectangle(privilege, sources, targets)
        with self._lock:
            rectangle = self._rectangles.get(privilege)
            if rectangle is not None:
                self.hits += 1
                return rectangle
            self._ancestors.setdefault(privilege.source, sources)
            self._rectangles[privilege] = built
            self.builds += 1
            return built

    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, int]:
        return {
            "pool_rectangles": len(self._rectangles),
            "pool_hits": self.hits,
            "pool_builds": self.builds,
            "pool_evictions": self.evictions,
            "pool_full_clears": self.full_clears,
        }


class ShardedAuthorizationIndex:
    """N per-subject authorization indexes behind one façade.

    The public query surface mirrors :class:`AuthorizationIndex`
    (``authorizes``, ``authorizes_batch``, ``held_privileges``,
    ``held_privileges_bulk``, ``grantable_pairs``, ``revocable_pairs``,
    ``effective_authority``, ``refresh``, ``statistics``); every call
    dispatches to — and lazily repairs — only the shard(s) owning the
    queried subjects.
    """

    def __init__(
        self,
        policy: Policy,
        shards: int = 4,
        incremental: bool = True,
        compiled: bool = True,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.policy = policy
        #: one representation across the façade: the pool, every shard
        #: and the shared region cache must agree on the kernel.
        self.compiled = compiled
        self.pool = RectanglePool(policy, compiled=compiled)
        self._region_cache: dict = {}
        self._snapshot: ReviewSnapshot | None = None
        self._shards = tuple(
            AuthorizationIndex(
                policy,
                incremental=incremental,
                compiled=compiled,
                pool=self.pool,
                owns=(lambda u, i=i, n=shards: shard_of(u, n) == i),
                region_cache=self._region_cache,
            )
            for i in range(shards)
        )

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[AuthorizationIndex, ...]:
        """The underlying shards (read their counters; mutate via the
        policy only)."""
        return self._shards

    def shard_for(self, user: User) -> AuthorizationIndex:
        return self._shards[shard_of(user, len(self._shards))]

    # ------------------------------------------------------------------
    # Queries — dispatch to the owning shard.
    # ------------------------------------------------------------------
    def authorizes(self, user: User, command: Command) -> Privilege | None:
        return self.shard_for(user).authorizes(user, command)

    def authorizes_batch(self, pairs) -> list[Privilege | None]:
        """Batched ``authorizes`` across the façade: the batch is
        partitioned by :func:`shard_of`, each owning shard decides its
        slice in one packed sweep, and verdicts merge back in input
        order — element-for-element identical to dispatching each pair
        through :meth:`authorizes` (fuzz invariant 12).  Subjects are
        routed through an ``id()``-keyed memo, so the partition pass
        hashes each distinct subject object once, not once per query."""
        pairs = list(pairs)
        if not pairs:
            return []
        shards = self._shards
        if len(shards) == 1:
            return shards[0].authorizes_batch(pairs)
        count = len(shards)
        slices: list[list] = [[] for _ in shards]
        positions: list[list[int]] = [[] for _ in shards]
        owner_memo: dict[int, int] = {}
        memo_get = owner_memo.get
        for position, pair in enumerate(pairs):
            user = pair[0]
            marker = id(user)
            owner = memo_get(marker)
            if owner is None:
                owner = owner_memo[marker] = shard_of(user, count)
            slices[owner].append(pair)
            positions[owner].append(position)
        results: list[Privilege | None] = [None] * len(pairs)
        for owner, shard in enumerate(shards):
            batch = slices[owner]
            if not batch:
                continue
            for position, verdict in zip(
                positions[owner], shard.authorizes_batch(batch)
            ):
                results[position] = verdict
        return results

    def held_privileges(self, user: User) -> frozenset[Privilege]:
        return self.shard_for(user).held_privileges(user)

    def held_privileges_bulk(
        self, users
    ) -> dict[User, frozenset[Privilege]]:
        """Bulk :meth:`held_privileges`: the population partitions by
        :func:`shard_of` and each owning shard decodes its slice in one
        validation (sharing the per-mask decode memo within a shard)."""
        users = list(users)
        if not users:
            return {}
        shards = self._shards
        if len(shards) == 1:
            return shards[0].held_privileges_bulk(users)
        count = len(shards)
        slices: list[list] = [[] for _ in shards]
        for user in users:
            slices[shard_of(user, count)].append(user)
        merged: dict[User, frozenset[Privilege]] = {}
        for owner, shard in enumerate(shards):
            if slices[owner]:
                merged.update(shard.held_privileges_bulk(slices[owner]))
        return merged

    def grantable_pairs(
        self, user: User, at_version: int | None = None
    ) -> frozenset:
        if at_version is not None:
            return self._snapshot_at(at_version).grantable_pairs(user)
        return self.shard_for(user).grantable_pairs(user)

    def grantable_pairs_bulk(
        self, users, at_version: int | None = None
    ) -> dict[User, frozenset]:
        """Bulk :meth:`grantable_pairs`: the population partitions by
        :func:`shard_of` and each owning shard expands its slice in one
        validation, sharing the per-authority-profile memo within a
        shard; results merge back keyed by subject.  ``at_version``
        answers the whole population from the retained snapshot."""
        users = list(users)
        if not users:
            return {}
        if at_version is not None:
            return self._snapshot_at(at_version).grantable_pairs_bulk(
                users
            )
        shards = self._shards
        if len(shards) == 1:
            return shards[0].grantable_pairs_bulk(users)
        count = len(shards)
        slices: list[list] = [[] for _ in shards]
        for user in users:
            slices[shard_of(user, count)].append(user)
        merged: dict[User, frozenset] = {}
        for owner, shard in enumerate(shards):
            if slices[owner]:
                merged.update(shard.grantable_pairs_bulk(slices[owner]))
        return merged

    def revocable_pairs(
        self, user: User, at_version: int | None = None
    ) -> frozenset:
        if at_version is not None:
            return self._snapshot_at(at_version).revocable_pairs(user)
        return self.shard_for(user).revocable_pairs(user)

    def effective_authority(
        self, user: User, at_version: int | None = None
    ) -> dict[str, frozenset]:
        if at_version is not None:
            return self._snapshot_at(at_version).effective_authority(user)
        return self.shard_for(user).effective_authority(user)

    # ------------------------------------------------------------------
    # Snapshot-consistent review reads
    # ------------------------------------------------------------------
    def snapshot(self) -> ReviewSnapshot:
        """Capture and retain a review snapshot at the current policy
        version — one snapshot for the whole façade, answered by an
        (unsharded) index built lazily over the frozen copy; shard
        layout is invisible to review reads either way.  While the
        policy version has not moved, the retained snapshot is
        returned unchanged."""
        snapshot = self._snapshot
        if snapshot is None or snapshot.version != self.policy.version:
            snapshot = self._snapshot = ReviewSnapshot(
                self.policy, compiled=self.compiled
            )
        return snapshot

    def _snapshot_at(self, version: int) -> ReviewSnapshot:
        return retained_snapshot(self._snapshot, version)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, parallel: bool = False) -> None:
        """Repair every shard now.

        With ``parallel=True`` stale shards repair on a thread pool.
        Shards own disjoint user maps; the structures they share are
        the rectangle pool (lock-protected, traversals outside the
        lock) and the policy's reachability cache, whose single
        mutating validation step runs up front on the calling thread.

        Repair is pure-Python graph traversal, so under the GIL the
        thread pool buys little wall-clock today — this path is the
        concurrency seam (shards are provably isolated; the fan-out is
        exercised by tests and benchmarks) for free-threaded builds
        and, eventually, per-process shard ownership.  Leave the
        default for plain CPython.
        """
        stale = [
            shard for shard in self._shards
            if shard._cursor.version != self.policy.version
        ]
        if not parallel or len(stale) <= 1:
            for shard in stale:
                shard.refresh()
            return
        self.policy.validate_caches()
        self.pool.validate()
        workers = min(len(stale), os.cpu_count() or 2)
        with ThreadPoolExecutor(max_workers=workers) as executor:
            for _ in executor.map(AuthorizationIndex.refresh, stale):
                pass

    # ------------------------------------------------------------------
    # Aggregated counters
    # ------------------------------------------------------------------
    @property
    def full_rebuilds(self) -> int:
        return sum(shard.full_rebuilds for shard in self._shards)

    @property
    def partial_refreshes(self) -> int:
        return sum(shard.partial_refreshes for shard in self._shards)

    @property
    def users_refreshed(self) -> int:
        return sum(shard.users_refreshed for shard in self._shards)

    def statistics(self) -> dict[str, int]:
        """Aggregate of the per-shard counters plus pool statistics
        (validates every shard; read ``.shards[i].users_refreshed``
        etc. directly to observe lazy staleness without repairing)."""
        totals = {
            "users": 0,
            "rectangles": 0,
            "rectangle_pairs": 0,
            "full_rebuilds": 0,
            "partial_refreshes": 0,
            "users_refreshed": 0,
            "rectangles_built": 0,
        }
        for shard in self._shards:
            for key, value in shard.statistics().items():
                totals[key] += value
        totals["shards"] = len(self._shards)
        totals.update(self.pool.statistics())
        return totals

    def per_shard_statistics(self) -> list[dict[str, int]]:
        """One statistics dict per shard, in shard order (validates)."""
        return [shard.statistics() for shard in self._shards]

    def __repr__(self) -> str:
        return (
            f"ShardedAuthorizationIndex(shards={len(self._shards)}, "
            f"policy={self.policy!r})"
        )
