"""A precomputed authorization index for the refined monitor.

The plain refined monitor answers "may user u execute cmd(u, ¤, v, v')"
by iterating every privilege reachable from ``u`` and running the
Lemma-1 decision procedure against ``¤(v, v')``.  That is fine for a
handful of privileges, but a production reference monitor fields the
same question thousands of times between policy changes.  This module
precomputes, per subject, the *grant rectangles* implied by the
ordering:

For an entity-target grant privilege ``¤(s, t)`` reachable by the
subject, rule (2) authorizes exactly the commands ``¤(v, v')`` whose
new source reaches the original source and whose new target is reached
by the original target, i.e. the authorized pairs are::

    { (v, v') : v ∈ ancestors(s) ∩ (U ∪ R),  v' ∈ descendants(t) }

(with the usual grammar sorts), a *rectangle* ancestors(s) ×
descendants(t).  The index runs on the *bitset kernel*: held sets are
big-int bitmasks over the policy graph's interned vertex IDs and
rectangles are :class:`BitGrantRectangle` masks, so an authorization
query is a couple of bit-tests per held privilege instead of a
recursive procedure.  Nested-target grants (rule 3) and the
generalized rule-(2) hop are delegated to the ordering oracle — they
are the rare case, and correctness is what matters there.

The index is versioned against the policy graph like every other
cache.  Under policy churn it repairs itself *incrementally*: the
graph's change journal yields the edge-level deltas since the last
validation, the dirty region (:func:`repro.graph.dirty_region_bits`)
turns those into the set of dirty subjects plus one *stale-privilege
mask*, and only the rectangles of stale privileges are recompiled and
patched into the rows of the users holding them.  Rectangle contents
are per-privilege, not per-user: the index memoizes one rectangle per
held grant (``_rect_memo``) and every holder shares it.  A full
rebuild happens only when the journal has expired or the delta burst
exceeds :attr:`AuthorizationIndex.DELTA_LIMIT`.

Answers are pinned against :class:`repro.oracle.ReferenceIndex`, which
computes the same semantics straight from the definitions, by the
test suite (`tests/core/test_authz_index.py`) and by the differential
harnesses in :mod:`repro.workloads.fuzz` (invariants 7, 9, 12, 14).

An index-backed refined monitor also unlocks *batched* command queues:
:meth:`repro.core.monitor.ReferenceMonitor.submit_queue` with
``batched=True`` authorizes a whole queue against its entry state with
a single index validation — see that method's docstring for the exact
transactional semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_

from ..graph import (
    ancestors_bits,
    dirty_region_bits,
    iter_bits,
    summarize_deltas,
)
from .commands import Command, CommandAction
from .entities import Role, User
from .ordering import OrderingOracle
from .policy import Policy
from .privileges import Grant, Privilege, Revoke, is_privilege

_Entity = (User, Role)

_EMPTY = frozenset()


@dataclass(frozen=True)
class GrantRectangle:
    """The set of entity-pair grants authorized by one held privilege:
    ``sources × targets`` (already sort-filtered) — the decoded form
    of a :class:`BitGrantRectangle`, and the representation
    :class:`repro.oracle.ReferenceIndex` computes directly."""

    held: Grant
    sources: frozenset
    targets: frozenset

    def covers(self, source: object, target: object) -> bool:
        return source in self.sources and target in self.targets

    def pair_count(self) -> int:
        return len(self.sources) * len(self.targets)

    def thaw(self, graph=None) -> "GrantRectangle":
        """Representation-normalized view (identity here; a
        :class:`BitGrantRectangle` decodes itself into this class
        through ``graph``)."""
        return self


class BitGrantRectangle:
    """The compiled representation of a grant rectangle: ``sources`` /
    ``targets`` as bitmasks over the policy graph's interned vertex
    IDs, so :meth:`covers` is two bit-tests and a dirty-region
    intersection is a single ``&``.

    A rectangle holds no graph: the decoding methods (:meth:`covers`,
    :meth:`sources`, :meth:`targets`, :meth:`thaw`) take the graph
    whose IDs the masks are over — the owning index's.  So one
    rectangle object serves every graph with the same vertex-ID
    layout, and a snapshot's index shares the live index's rectangles
    as they are.

    A rectangle may cover entities that are not graph vertices: the
    held grant's own endpoints appear in their region reflexively even
    when unregistered or deprovisioned (``ancestors(s) ∋ s`` holds
    off-graph).  Those carry no ID and live in ``extra_sources`` /
    ``extra_targets`` — by construction at most the held privilege's
    two endpoints — which the slow-path :meth:`covers` consults; the
    index's hot path skips them because a query naming an in-graph
    vertex can never equal an off-graph extra.
    """

    __slots__ = ("held", "source_bits", "target_bits",
                 "extra_sources", "extra_targets")

    def __init__(self, held, source_bits, target_bits,
                 extra_sources=_EMPTY, extra_targets=_EMPTY):
        self.held = held
        self.source_bits = source_bits
        self.target_bits = target_bits
        self.extra_sources = extra_sources
        self.extra_targets = extra_targets

    def covers(self, graph, source: object, target: object) -> bool:
        vid = graph._vid
        source_id = vid.get(source)
        if source_id is None:
            if source not in self.extra_sources:
                return False
        elif not self.source_bits >> source_id & 1:
            return False
        target_id = vid.get(target)
        if target_id is None:
            return target in self.extra_targets
        return bool(self.target_bits >> target_id & 1)

    def pair_count(self) -> int:
        return (
            (self.source_bits.bit_count() + len(self.extra_sources))
            * (self.target_bits.bit_count() + len(self.extra_targets))
        )

    def sources(self, graph) -> frozenset:
        """Decoded source set (mask bits plus off-graph extras)."""
        vertex_of = graph._vertex_of
        return frozenset(
            vertex_of[index] for index in iter_bits(self.source_bits)
        ) | self.extra_sources

    def targets(self, graph) -> frozenset:
        """Decoded target set (mask bits plus off-graph extras)."""
        vertex_of = graph._vertex_of
        return frozenset(
            vertex_of[index] for index in iter_bits(self.target_bits)
        ) | self.extra_targets

    def thaw(self, graph) -> GrantRectangle:
        """Decode into the frozenset representation (for the review
        surfaces and differential comparison against
        :class:`repro.oracle.ReferenceIndex`)."""
        return GrantRectangle(
            self.held, self.sources(graph), self.targets(graph)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitGrantRectangle):
            return NotImplemented
        return (
            self.held == other.held
            and self.source_bits == other.source_bits
            and self.target_bits == other.target_bits
            and self.extra_sources == other.extra_sources
            and self.extra_targets == other.extra_targets
        )

    def __hash__(self) -> int:
        return hash((self.held, self.source_bits, self.target_bits))

    def __repr__(self) -> str:
        return (
            f"BitGrantRectangle({self.held!r}, "
            f"sources={self.source_bits.bit_count()}, "
            f"targets={self.target_bits.bit_count()})"
        )


def compile_sources(policy: Policy, source) -> tuple[int, frozenset]:
    """The rectangle source region of a held grant, compiled: entity
    ancestors of ``source`` as ``(mask, off-graph extras)``."""
    graph = policy.graph
    if source in graph:
        return (
            ancestors_bits(graph, source) & policy.bits.entities_mask,
            _EMPTY,
        )
    return 0, frozenset((source,))


def compile_targets(policy: Policy, target) -> tuple[int, frozenset]:
    """The rectangle target region of a held grant, compiled: role
    descendants of ``target`` as ``(mask, off-graph extras)``."""
    graph = policy.graph
    if target in graph:
        return (
            policy.descendants_bits(target) & policy.bits.roles_mask,
            _EMPTY,
        )
    if isinstance(target, Role):
        return 0, frozenset((target,))
    return 0, _EMPTY


def compile_rectangle(
    policy: Policy, privilege: Grant, ancestor_memo: dict | None = None
) -> BitGrantRectangle:
    """Build one compiled rectangle; ``ancestor_memo`` shares source
    regions across rectangles held over the same grantor."""
    cached = (
        ancestor_memo.get(privilege.source)
        if ancestor_memo is not None else None
    )
    if cached is None:
        cached = compile_sources(policy, privilege.source)
        if ancestor_memo is not None:
            ancestor_memo[privilege.source] = cached
    source_bits, extra_sources = cached
    target_bits, extra_targets = compile_targets(policy, privilege.target)
    return BitGrantRectangle(
        privilege, source_bits, target_bits, extra_sources, extra_targets
    )


_row_pid = itemgetter(3)


def _endpoints_in(region: int, endpoints: dict, vertex_of) -> int:
    """The union of the ``endpoints`` masks (endpoint -> privilege
    mask) keyed by a vertex of ``region``."""
    get = endpoints.get
    stale = 0
    for index in iter_bits(region):
        stale |= get(vertex_of[index], 0)
    return stale


class AuthorizationIndex:
    """Per-subject precomputed authorization for the refined monitor.

    ``authorizes(user, command)`` returns the held privilege that
    covers the command, or None.  Exact matches and revocations are
    answered by one bit-test on the held mask; entity-target grants
    from the rectangles; nested grants fall back to the ordering
    oracle.

    Maintenance under churn is incremental (see the module docstring):
    a mutated edge ``(s, t)`` dirties exactly

    * the users upstream of ``s`` (their reachable privilege set may
      have changed), and
    * the rectangles whose held privilege's source lies downstream of
      ``t`` (its ancestor set — the rectangle's sources — may have
      changed) or whose target lies upstream of ``s`` (its descendant
      set — the rectangle's targets — may have changed).

    Everything else is provably untouched.  The dirty rectangles become
    one *stale-privilege mask*: each stale rectangle is recompiled
    once, and just those rows of the users holding it are patched —
    only users whose held set can change are rebuilt whole.
    ``full_rebuilds`` / ``partial_refreshes`` / ``users_refreshed`` /
    ``rectangles_built`` expose the maintenance behaviour to tests and
    benchmarks.
    """

    #: delta bursts larger than max(DELTA_LIMIT, #users) trigger a full
    #: rebuild instead of an incremental repair.
    DELTA_LIMIT = 64

    __slots__ = ("policy", "full_rebuilds", "partial_refreshes",
                 "users_refreshed", "rectangles_built", "_cursor", "_held",
                 "_rectangles", "_rect_rows", "_rect_users", "_rect_memo",
                 "_oracle", "_snapshot")

    def __init__(self, policy: Policy):
        self.policy = policy
        self.full_rebuilds = 0
        self.partial_refreshes = 0
        self.users_refreshed = 0
        #: rectangles compiled into the memo (one per grant).
        self.rectangles_built = 0
        self._cursor = policy.journal_cursor()
        #: per-subject held privileges as an int bitmask over privilege
        #: vertex IDs (use :meth:`held_privileges` for the decoded set).
        self._held: dict[User, int] = {}
        self._rectangles: dict[User, tuple] = {}
        #: fast path per subject: (held_mask, union_source_bits,
        #: union_target_bits, ((source_bits, target_bits, held, pid), ...))
        #: — the union masks reject most misses with two bit-tests, and
        #: rows carry the held privilege's vertex ID in ascending order
        #: for the batch kernel's mask-select verdicts.
        self._rect_rows: dict[User, tuple] = {}
        #: subjects holding at least one rectangle — the only ones a
        #: stale rectangle can touch.
        self._rect_users: set[User] = set()
        #: rectangles by held privilege, valid at the cursor's version
        #: (repair evicts the stale ones).
        self._rect_memo: dict[Grant, BitGrantRectangle] = {}
        self._oracle = OrderingOracle(policy)
        self._snapshot: ReviewSnapshot | None = None
        self._rebuild()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _rectangle(self, privilege: Grant, ancestor_memo: dict):
        """The current compiled rectangle of ``privilege``: the memoized
        one, compiled on first demand."""
        rectangle = self._rect_memo.get(privilege)
        if rectangle is None:
            rectangle = self._rect_memo[privilege] = compile_rectangle(
                self.policy, privilege, ancestor_memo
            )
            self.rectangles_built += 1
        return rectangle

    def _build_user(
        self, user: User, ancestor_memo: dict, profiles: dict
    ) -> None:
        """(Re)compute one user's entry in place: the held set is one
        BFS mask intersected with the privilege sort mask, and rectangles come
        from the memo (their contents are per-privilege, never
        per-user).  ``profiles`` maps a held mask to the entries
        already built for it in this pass, so users with the same
        authority share one rectangle tuple and one row."""
        policy = self.policy
        bits = policy.bits
        held = policy.descendants_bits(user) & bits.privileges_mask
        profile = profiles.get(held)
        if profile is None:
            vertex_of = policy.graph._vertex_of
            rectangles = []
            union_sources = union_targets = 0
            rows = []
            # iter_bits yields ascending IDs, so rows are in ascending
            # privilege-ID order — the batch kernel's lowest-set-bit
            # verdict selection relies on this to reproduce the scalar
            # first-match.
            for index in iter_bits(held & bits.grant_entity_mask):
                rectangle = self._rectangle(vertex_of[index], ancestor_memo)
                rectangles.append(rectangle)
                union_sources |= rectangle.source_bits
                union_targets |= rectangle.target_bits
                rows.append((
                    rectangle.source_bits, rectangle.target_bits,
                    rectangle.held, index,
                ))
            profile = profiles[held] = (
                tuple(rectangles),
                (held, union_sources, union_targets, tuple(rows)),
            )
        self._set_profile(user, profile)
        self.users_refreshed += 1

    def _patch_user(
        self, user: User, stale: int, ancestor_memo: dict, profiles: dict
    ) -> None:
        """Swap the rows of ``user``'s stale rectangles for current
        ones; the held set is unchanged, so every other row stands and
        the rows keep their ascending privilege-ID order."""
        held, _, _, rows = self._rect_rows[user]
        profile = profiles.get(held)
        if profile is None:
            rows = list(rows)
            rectangles = list(self._rectangles[user])
            for pid in iter_bits(held & stale):
                position = bisect_left(rows, pid, key=_row_pid)
                rectangle = rectangles[position] = self._rectangle(
                    rows[position][2], ancestor_memo
                )
                rows[position] = (
                    rectangle.source_bits, rectangle.target_bits,
                    rectangle.held, pid,
                )
            profile = profiles[held] = (
                tuple(rectangles),
                (
                    held,
                    reduce(or_, map(itemgetter(0), rows), 0),
                    reduce(or_, map(itemgetter(1), rows), 0),
                    tuple(rows),
                ),
            )
        self._set_profile(user, profile)

    def _set_profile(self, user: User, profile: tuple) -> None:
        rectangles, row = profile
        self._held[user] = row[0]
        self._rectangles[user] = rectangles
        self._rect_rows[user] = row
        if rectangles:
            self._rect_users.add(user)
        else:
            self._rect_users.discard(user)

    def _rebuild(self) -> None:
        self._held.clear()
        self._rectangles.clear()
        self._rect_rows.clear()
        self._rect_users.clear()
        self._rect_memo.clear()
        ancestor_memo: dict = {}
        profiles: dict = {}
        for user in self.policy.users():
            self._build_user(user, ancestor_memo, profiles)
        self._cursor.version = self.policy.version
        self.full_rebuilds += 1

    def _validate(self) -> None:
        if self._cursor.version == self.policy.version:
            return
        deltas = self.policy.changes_since(self._cursor.version)
        if deltas is None:
            self._rebuild()
            return
        # Vertex additions only ever create per-user entries, never
        # dirty existing ones, so only edge mutations and vertex
        # removals (the summary weight) count toward the full-rebuild
        # fallback.
        summary = summarize_deltas(deltas)
        if summary.weight > max(self.DELTA_LIMIT, len(self._held)):
            self._rebuild()
            return
        self._apply_deltas(deltas, summary)
        self._cursor.version = self.policy.version
        self.partial_refreshes += 1

    def _apply_deltas(self, deltas, summary) -> None:
        """Incrementally repair the index from journaled graph deltas.

        The edge endpoints come pre-classified in ``summary``; the
        per-delta walk below only does the order-sensitive per-user
        bookkeeping (a user removed then re-added within the burst
        must end up fresh, not stale).
        """
        fresh_users: set[User] = set()
        for delta in deltas:
            if delta.is_edge:
                continue
            if delta.kind == "remove-vertex":
                if isinstance(delta.source, User):
                    self._held.pop(delta.source, None)
                    self._rectangles.pop(delta.source, None)
                    self._rect_rows.pop(delta.source, None)
                    self._rect_users.discard(delta.source)
                fresh_users.discard(delta.source)
            elif isinstance(delta.source, User):
                if delta.source not in self._held:
                    fresh_users.add(delta.source)

        dirty: set[User] = set(fresh_users)
        stale = self._collect_dirty(summary, dirty)
        vertex_of = self.policy.graph._vertex_of
        memo = self._rect_memo
        for index in iter_bits(stale):
            memo.pop(vertex_of[index], None)
        for vertex in summary.removed_vertices:
            memo.pop(vertex, None)
        ancestor_memo: dict = {}
        profiles: dict = {}
        for user in dirty:
            self._build_user(user, ancestor_memo, profiles)
        if stale:
            rect_rows = self._rect_rows
            patched = [
                user for user in self._rect_users
                if user not in dirty and rect_rows[user][0] & stale
            ]
            for user in patched:
                self._patch_user(user, stale, ancestor_memo, profiles)

    def _collect_dirty(self, summary, dirty: set) -> int:
        """The dirty sweep of one repair window: adds the users whose held set can
        change to ``dirty`` (one ``upstream & users_mask``
        intersection) and returns the stale-privilege mask — the
        rectangle-bearing grants whose source lies downstream or whose
        target lies upstream, looked up through the policy's
        endpoint-inverted masks.  Off-graph region members (seeds
        removed within the window) are looked up from the region's
        absent sets.

        A rectangle's *own endpoint* can also leave or rejoin the
        graph with its region staying set-identical (``ancestors(s) ∋
        s`` holds off-graph too): the decoded rectangle is unchanged,
        but its masks must migrate the endpoint between a bit (freed
        or assigned ID) and its extras.  So every grant with a removed or added endpoint is
        stale as well; any *other* region member's removal journals
        edge deltas that reach it through the region."""
        policy = self.policy
        bits = policy.bits
        grant_sources = bits.grant_sources
        grant_targets = bits.grant_targets
        stale = 0
        for vertex in summary.removed_vertices | summary.added_vertices:
            stale |= grant_sources.get(vertex, 0) | grant_targets.get(
                vertex, 0
            )
        if not summary.edge_sources:
            return stale
        upstream, downstream, absent_sources, absent_targets = (
            dirty_region_bits(
                policy.graph, summary.edge_sources, summary.edge_targets
            )
        )
        held_map = self._held
        vertex_of = policy.graph._vertex_of
        if downstream & bits.privileges_mask or any(
            is_privilege(vertex) for vertex in absent_targets
        ):
            for index in iter_bits(upstream & bits.users_mask):
                user = vertex_of[index]
                if user in held_map:
                    dirty.add(user)
        entities = bits.entities_mask
        stale |= _endpoints_in(
            downstream & entities, grant_sources, vertex_of
        )
        stale |= _endpoints_in(upstream & entities, grant_targets, vertex_of)
        for vertex in absent_targets:
            stale |= grant_sources.get(vertex, 0)
        for vertex in absent_sources:
            stale |= grant_targets.get(vertex, 0)
        return stale

    def refresh(self) -> None:
        """Bring the index up to date with the policy now (the same
        repair that would otherwise happen lazily on the next query)."""
        self._validate()

    # ------------------------------------------------------------------
    def authorizes(self, user: User, command: Command) -> Privilege | None:
        """The held privilege covering ``command`` under refined-mode
        semantics, or None."""
        self._validate()
        wanted = command.requested_privilege()
        if wanted is None:
            return None
        return self._decide(user, command, wanted)

    def _decide(
        self, user: User, command: Command, wanted: Privilege
    ) -> Privilege | None:
        """The decision path: exact match is one bit-test, the
        rectangle scan is rejected by two union-mask bit-tests on a
        miss, and only confirmed hits walk the per-rectangle rows."""
        row = self._rect_rows.get(user)
        if row is None:
            return None  # not an indexed subject: holds nothing
        graph = self.policy.graph
        vid = graph._vid
        held, union_sources, union_targets, rows = row
        if held:
            wanted_id = vid.get(wanted)
            if wanted_id is not None and held >> wanted_id & 1:
                return wanted
        if command.action is CommandAction.REVOKE:
            return None  # revocations: exact match only
        source, target = command.source, command.target
        if isinstance(target, _Entity):
            source_id = vid.get(source)
            target_id = vid.get(target)
            if source_id is not None and target_id is not None:
                if (
                    union_sources >> source_id & 1
                    and union_targets >> target_id & 1
                ):
                    for source_bits, target_bits, held_by, _pid in rows:
                        if (
                            source_bits >> source_id & 1
                            and target_bits >> target_id & 1
                        ):
                            return held_by
                return None
            # Off-graph source or target: the rare slow path through
            # the rectangles' extras.
            for rectangle in self._rectangles.get(user, ()):
                if rectangle.covers(graph, source, target):
                    return rectangle.held
            return None
        if not held:
            return None
        # Nested-privilege grant targets: fall back to the oracle.
        vertex_of = graph._vertex_of
        for index in iter_bits(held):
            privilege = vertex_of[index]
            if self._oracle.is_weaker(privilege, wanted):
                return privilege
        return None

    # ------------------------------------------------------------------
    # Batch authorization
    # ------------------------------------------------------------------
    def authorizes_batch(self, pairs) -> list[Privilege | None]:
        """Decide many ``(user, command)`` queries in one sweep.

        Verdicts are positionally aligned with ``pairs`` and
        element-for-element identical to ``[self.authorizes(u, c) for
        (u, c) in pairs]`` — same covering privilege, including the
        scalar path's first-match rectangle order — pinned by fuzz
        invariant 12 (:func:`repro.workloads.fuzz.fuzz_batch_authz`)
        and the batch property suite.  One index validation covers the
        whole batch; an empty batch returns ``[]`` without touching
        the index or rectangle state.

        The packed-matrix kernel amortizes one rectangle sweep per
        distinct command edge over the whole query population.

        Queries are routed by *object identity* (``id()`` of the
        subject and the edge endpoints), so the per-query pass never
        calls the Python-level entity ``__hash__``; equal-but-distinct
        objects just form sibling groups with identical verdicts, and
        the ``pairs`` list keeps every object alive so ids stay
        stable.  The batch subjects' rectangle rows are packed into
        one matrix keyed by privilege vertex ID (rectangle contents
        are per-privilege, so rows dedup across subjects).  For each
        distinct edge, a single pass over that matrix compiles an
        *eligible-privileges mask* — every grant privilege whose
        rectangle covers the edge.  A subject's verdict is then the
        lowest set bit of ``held & eligible``: rows are built in
        ascending privilege-ID order, so the lowest bit is exactly the
        scalar scan's first covering rectangle.  Edges the mask
        algebra cannot decide — nested-privilege targets, off-graph
        endpoints living in rectangle extras — fall back to the
        scalar path per subject.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        self._validate()
        graph = self.policy.graph
        vid = graph._vid
        vertex_of = graph._vertex_of
        rect_rows = self._rect_rows
        grant = CommandAction.GRANT
        results: list[Privilege | None] = [None] * len(pairs)

        # Pass 1: route queries into (subject, edge) groups by object
        # identity — no entity hashing on the per-query path.  The dict
        # maps key -> positions list; ``groups`` keeps first-seen order
        # with the (user, command) objects alongside.
        by_key: dict = {}
        key_get = by_key.get
        groups: list = []
        for position, (user, command) in enumerate(pairs):
            key = (
                id(user), command.action is grant,
                id(command.source), id(command.target),
            )
            positions = key_get(key)
            if positions is None:
                positions = [position]
                by_key[key] = positions
                groups.append((user, command, positions))
            else:
                positions.append(position)

        # The batch's packed rectangle matrix: one row per distinct
        # grant privilege held by any batch subject.
        batch_rows: dict[int, tuple[int, int]] = {}
        union_sources = union_targets = 0
        packed_subjects: set[int] = set()
        for user, _command, _positions in groups:
            marker = id(user)
            if marker in packed_subjects:
                continue
            packed_subjects.add(marker)
            row = rect_rows.get(user)
            if row is None:
                continue
            for source_bits, target_bits, _held_by, pid in row[3]:
                if pid not in batch_rows:
                    batch_rows[pid] = (source_bits, target_bits)
                    union_sources |= source_bits
                    union_targets |= target_bits
        row_items = [
            (pid, source_bits, target_bits)
            for pid, (source_bits, target_bits) in batch_rows.items()
        ]

        # Pass 2: one decision per group; per-edge work (requested-term
        # construction, the eligible-privilege rectangle sweep) is
        # shared across subjects through the edge memo.
        fallback = self._decide
        edges: dict = {}
        edge_get = edges.get
        # Eligible masks factor into per-endpoint cover masks — the
        # pids whose rectangles contain a given source (resp. target)
        # vertex.  Each distinct endpoint is swept once and shared by
        # every edge that names it; eligible = src_cover & tgt_cover.
        source_cover: dict[int, int] = {}
        target_cover: dict[int, int] = {}
        for user, command, positions in groups:
            row = rect_rows.get(user)
            if row is None:
                continue  # not an indexed subject: holds nothing
            edge_key = (
                command.action is grant,
                id(command.source), id(command.target),
            )
            edge = edge_get(edge_key)
            if edge is None:
                wanted = command.requested_privilege()
                if wanted is None:
                    edge = (None, None, 0)
                else:
                    wanted_id = vid.get(wanted)
                    eligible: object = 0
                    if command.action is not grant:
                        pass  # revocations: exact match only
                    elif not isinstance(command.target, _Entity):
                        eligible = None  # nested target: oracle path
                    else:
                        source_id = vid.get(command.source)
                        target_id = vid.get(command.target)
                        if source_id is None or target_id is None:
                            eligible = None  # off-graph: extras path
                        elif (
                            union_sources >> source_id & 1
                            and union_targets >> target_id & 1
                        ):
                            src_mask = source_cover.get(source_id)
                            if src_mask is None:
                                src_mask = 0
                                for pid, source_bits, _ in row_items:
                                    if source_bits >> source_id & 1:
                                        src_mask |= 1 << pid
                                source_cover[source_id] = src_mask
                            tgt_mask = target_cover.get(target_id)
                            if tgt_mask is None:
                                tgt_mask = 0
                                for pid, _, target_bits in row_items:
                                    if target_bits >> target_id & 1:
                                        tgt_mask |= 1 << pid
                                target_cover[target_id] = tgt_mask
                            eligible = src_mask & tgt_mask
                    edge = (wanted, wanted_id, eligible)
                edges[edge_key] = edge
            wanted, wanted_id, eligible = edge
            if wanted is None:
                continue
            held = row[0]
            if wanted_id is not None and held >> wanted_id & 1:
                verdict = wanted
            elif eligible is None:
                verdict = fallback(user, command, wanted)
                if verdict is None:
                    continue
            else:
                covered = held & eligible
                if not covered:
                    continue
                verdict = vertex_of[(covered & -covered).bit_length() - 1]
            for position in positions:
                results[position] = verdict
        return results

    # ------------------------------------------------------------------
    def held_privileges(self, user: User) -> frozenset[Privilege]:
        """The user's held privilege set, decoded from the bitmask —
        the view the differential harnesses compare against
        :class:`repro.oracle.ReferenceIndex`."""
        self._validate()
        held = self._held.get(user)
        if held is None:
            return frozenset()
        vertex_of = self.policy.graph._vertex_of
        return frozenset(vertex_of[index] for index in iter_bits(held))

    def held_privileges_bulk(
        self, users
    ) -> dict[User, frozenset[Privilege]]:
        """Held privilege sets for a whole population in one
        validation: equal to ``{user: self.held_privileges(user)}``
        per user (duplicates collapse; unknown subjects map to the
        empty set).  The bitmask decode is memoized per distinct held mask — users sharing a role subtree
        share one decoded frozenset, so a million-user audit decodes
        each distinct authority profile once.  An empty population
        returns ``{}`` without touching the index."""
        users = list(users)
        if not users:
            return {}
        self._validate()
        held_map = self._held
        vertex_of = self.policy.graph._vertex_of
        decoded: dict[int, frozenset] = {0: _EMPTY}
        decoded_get = decoded.get
        out: dict[User, frozenset] = {}
        for user in users:
            held = held_map.get(user, 0)
            cached = decoded_get(held)
            if cached is None:
                cached = decoded[held] = frozenset(
                    vertex_of[index] for index in iter_bits(held)
                )
            out[user] = cached
        return out

    def _entity_grant_edges(self, user: User, connective) -> set:
        """Edges of held entity-target ¤/♦ privileges."""
        held = self._held.get(user)
        if held is None:
            return set()
        bits = self.policy.bits
        mask = (
            bits.grant_entity_mask if connective is Grant
            else bits.revoke_entity_mask
        )
        vertex_of = self.policy.graph._vertex_of
        return {vertex_of[index].edge for index in iter_bits(held & mask)}

    def grantable_pairs(
        self, user: User, at_version: int | None = None
    ) -> frozenset[tuple[object, object]]:
        """All entity-pair edges ``(v, v')`` the user may currently
        grant: the union of the rectangles plus exact entity grants.
        Rectangle sources are entity-filtered at build time, so every
        rectangle pair is a legal grant as-is.

        ``at_version`` answers from the retained
        :class:`ReviewSnapshot` captured at that policy version (see
        :meth:`snapshot`) instead of the live policy, so an audit
        burst interleaved with mutations sees one consistent version;
        a version with no retained snapshot raises ValueError."""
        if at_version is not None:
            return self._snapshot_at(at_version).grantable_pairs(user)
        self._validate()
        graph = self.policy.graph
        pairs: set[tuple[object, object]] = set()
        for rectangle in self._rectangles.get(user, ()):
            thawed = rectangle.thaw(graph)
            for source in thawed.sources:
                for target in thawed.targets:
                    pairs.add((source, target))
        pairs |= self._entity_grant_edges(user, Grant)
        return frozenset(pairs)

    def grantable_pairs_bulk(
        self, users, at_version: int | None = None
    ) -> dict[User, frozenset[tuple[object, object]]]:
        """Grantable entity-pair edges for a whole population in one
        validation: equal to ``{user: self.grantable_pairs(user)}``
        per user (duplicates collapse; unknown subjects map to the
        empty set) — pinned by the differential suite in
        ``tests/core/test_review_bulk.py``.

        The expansion is memoized per distinct *authority profile*:
        the held entity-target grants determine both the rectangles
        and the exact edges, so users sharing a delegation profile
        (the common case — profiles come from role subtrees) expand
        it once, and each distinct rectangle is decoded once across
        the whole sweep rather than once per holder.  ``at_version``
        answers from the retained snapshot, as in
        :meth:`grantable_pairs`.  An empty population returns ``{}``
        without touching the index.
        """
        users = list(users)
        if not users:
            return {}
        if at_version is not None:
            return self._snapshot_at(at_version).grantable_pairs_bulk(
                users
            )
        self._validate()
        #: profile key -> expanded frozenset of grantable pairs.  The
        #: key is the held grant-entity mask — exactly the input
        #: :meth:`grantable_pairs` derives its answer from.
        profiles: dict[int, frozenset] = {}
        #: rectangle -> decoded (sources, targets) pair, shared by
        #: every profile containing it (rectangles are per-privilege,
        #: so holders dedup by identity).
        decoded: dict[int, tuple] = {}
        out: dict[User, frozenset] = {}
        graph = self.policy.graph
        grant_mask = self.policy.bits.grant_entity_mask
        vertex_of = graph._vertex_of
        for user in users:
            row = self._rect_rows.get(user)
            key = 0 if row is None else row[0] & grant_mask
            cached = profiles.get(key)
            if cached is None:
                pairs: set[tuple[object, object]] = set()
                for rectangle in self._rectangles.get(user, ()):
                    regions = decoded.get(id(rectangle))
                    if regions is None:
                        thawed = rectangle.thaw(graph)
                        regions = decoded[id(rectangle)] = (
                            thawed.sources, thawed.targets
                        )
                    sources, targets = regions
                    for source in sources:
                        for target in targets:
                            pairs.add((source, target))
                pairs.update(
                    vertex_of[index].edge for index in iter_bits(key)
                )
                cached = profiles[key] = frozenset(pairs)
            out[user] = cached
        return out

    def revocable_pairs(
        self, user: User, at_version: int | None = None
    ) -> frozenset[tuple[object, object]]:
        """All entity-pair edges the user may currently revoke.

        Revocations are authorized by exact match only (the ordering
        relates ♦-privileges just reflexively), so this is simply the
        edges of the held entity-target ♦-privileges — kept consistent
        with :meth:`authorizes` by construction.  ``at_version``
        answers from the retained snapshot, as in
        :meth:`grantable_pairs`."""
        if at_version is not None:
            return self._snapshot_at(at_version).revocable_pairs(user)
        self._validate()
        return frozenset(self._entity_grant_edges(user, Revoke))

    def effective_authority(
        self, user: User, at_version: int | None = None
    ) -> dict[str, frozenset[tuple[object, object]]]:
        """The review-function view of implicit authorization — what an
        administrator sees as "my effective authority": every entity
        pair the user may grant and every pair they may revoke, exactly
        the pairs :meth:`authorizes` would permit."""
        return {
            "grant": self.grantable_pairs(user, at_version=at_version),
            "revoke": self.revocable_pairs(user, at_version=at_version),
        }

    # ------------------------------------------------------------------
    def snapshot(self) -> "ReviewSnapshot":
        """Capture and retain a review snapshot at the current policy
        version.  Subsequent ``grantable_pairs(..., at_version=v)``
        calls answer from it while mutations continue on the live
        policy; only the most recent snapshot is retained.

        While the policy version has not moved, the retained snapshot
        is returned unchanged.  Otherwise the capture is a structural
        policy clone plus a fork of this index (see
        :class:`ReviewSnapshot`): the index repairs itself
        incrementally and hands its tables to the snapshot, so no
        index is ever rebuilt for a snapshot."""
        snapshot = self._snapshot
        if snapshot is None or snapshot.version != self.policy.version:
            snapshot = self._snapshot = ReviewSnapshot(
                self.policy, index=self
            )
        return snapshot

    def _fork(self, policy: Policy) -> "AuthorizationIndex":
        """This index, validated, over ``policy`` — a structural clone
        of this index's policy at the current version, so every vertex
        ID means the same vertex in both.

        The fork allocates nothing per subject or rectangle: held
        masks, rectangle tuples and rows are immutable
        and shared as they are (rectangles decode through the owning
        index's graph, never their own), and only the four per-subject
        containers are copied, because live repair rebinds their
        entries in place.  The fork indexes the same subjects, gets its
        own journal cursor and ordering oracle on the clone, and counts
        no rebuilds; it never repairs (nothing mutates the clone), so
        it needs no rectangle memo."""
        self._validate()
        fork = AuthorizationIndex.__new__(AuthorizationIndex)
        fork.policy = policy
        fork.full_rebuilds = fork.partial_refreshes = 0
        fork.users_refreshed = fork.rectangles_built = 0
        fork._cursor = policy.journal_cursor()
        fork._held = dict(self._held)
        fork._rectangles = dict(self._rectangles)
        fork._rect_rows = dict(self._rect_rows)
        fork._rect_users = set(self._rect_users)
        fork._rect_memo = {}
        fork._oracle = OrderingOracle(policy)
        fork._snapshot = None
        return fork

    def _snapshot_at(self, version: int) -> "ReviewSnapshot":
        """The retained snapshot if it matches ``version``, else a
        ValueError telling the auditor what is actually retained."""
        snapshot = self._snapshot
        if snapshot is None or snapshot.version != version:
            retained = "none" if snapshot is None else snapshot.version
            raise ValueError(
                f"no review snapshot retained at version {version} "
                f"(retained: {retained}); call snapshot() at the version "
                "the audit should see"
            )
        return snapshot

    def statistics(self) -> dict[str, int]:
        self._validate()
        return {
            "users": len(self._held),
            "rectangles": sum(len(r) for r in self._rectangles.values()),
            "rectangle_pairs": sum(
                rect.pair_count()
                for rects in self._rectangles.values()
                for rect in rects
            ),
            "full_rebuilds": self.full_rebuilds,
            "partial_refreshes": self.partial_refreshes,
            "users_refreshed": self.users_refreshed,
            "rectangles_built": self.rectangles_built,
        }


class ReviewSnapshot:
    """A frozen review-function view of the policy at one version.

    Holds a structural clone of the policy (:meth:`Policy.copy`, which
    shares the adjacency sets copy-on-write and keeps the vertex-ID
    layout) and a fork of the live ``index`` over that clone: the live
    index repairs its dirty region and hands its tables over, sharing
    every rectangle and row (:meth:`AuthorizationIndex.snapshot`
    captures this way, once per version).  Answers are immutable:
    every query sees exactly the captured version, however far the
    live policy has moved on.
    """

    __slots__ = ("version", "_policy", "_index")

    def __init__(self, policy: Policy, index: AuthorizationIndex):
        self.version = policy.version
        self._policy = policy.copy()
        self._index = index._fork(self._policy)

    def grantable_pairs(self, user: User) -> frozenset:
        return self._index.grantable_pairs(user)

    def grantable_pairs_bulk(self, users) -> dict[User, frozenset]:
        return self._index.grantable_pairs_bulk(users)

    def revocable_pairs(self, user: User) -> frozenset:
        return self._index.revocable_pairs(user)

    def held_privileges_bulk(self, users) -> dict[User, frozenset]:
        return self._index.held_privileges_bulk(users)

    def authorizes(self, user: User, command: Command) -> Privilege | None:
        """Decide ``command`` for ``user`` at the pinned version — the
        same refined-mode verdict :meth:`AuthorizationIndex.authorizes`
        gives, frozen at capture time.  This is the serving layer's
        read path: a reader holding this snapshot never observes a
        mutation applied after it was captured."""
        return self._index.authorizes(user, command)

    def authorizes_batch(self, pairs) -> list[Privilege | None]:
        """Batch :meth:`authorizes` over ``(user, command)`` pairs via
        the packed-matrix kernel, all at the pinned version."""
        return self._index.authorizes_batch(pairs)

    def policy_copy(self) -> Policy:
        """A mutable copy of the captured policy, for differential
        oracles that rebuild their own view of this version; the
        snapshot's own copy stays untouched."""
        return self._policy.copy()

    def effective_authority(self, user: User) -> dict[str, frozenset]:
        return self._index.effective_authority(user)

    def __repr__(self) -> str:
        return f"ReviewSnapshot(version={self.version})"
