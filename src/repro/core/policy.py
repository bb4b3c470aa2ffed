"""Administrative RBAC policies (Definitions 1 and 3).

A policy ``φ = (UA, RH, PA†)`` is, following the paper, treated as a
single directed graph whose edge set is ``UA ∪ RH ∪ PA†``:

* ``UA ⊆ U × R`` — user-to-role membership edges,
* ``RH ⊆ R × R`` — role-hierarchy edges (deliberately *not* required to
  be a partial order; cycles are legal, per the paper's footnote 3), and
* ``PA† ⊆ R × P†`` — privilege-assignment edges, where the privilege may
  be an ordinary user privilege or an administrative ``¤``/``♦`` term.

Privilege terms are graph *vertices*; their internal structure (the
users/roles they mention) induces no edges.  The paper's judgement
``v →φ v'`` is reflexive-transitive reachability in this graph.

The non-administrative policies of Definition 1 are exactly the
policies whose ``PA`` assigns only user privileges;
:meth:`Policy.is_non_administrative` tests for that subclass.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import PolicyError
from ..graph import Digraph, ReachabilityCache, dirty_region, longest_chain_length
from .entities import Role, User
from .privileges import (
    AdminPrivilege,
    Grant,
    Privilege,
    Revoke,
    UserPrivilege,
    is_privilege,
)

if TYPE_CHECKING:
    from .authz_index import AuthorizationIndex

PolicyEdge = tuple[object, object]


def check_edge_sorts(source: object, target: object) -> str:
    """Classify a policy edge; raise PolicyError if ill-sorted.

    Returns ``"ua"``, ``"rh"``, or ``"pa"``.
    """
    if isinstance(source, User) and isinstance(target, Role):
        return "ua"
    if isinstance(source, Role) and isinstance(target, Role):
        return "rh"
    if isinstance(source, Role) and is_privilege(target):
        return "pa"
    raise PolicyError(
        f"ill-sorted policy edge ({source!r}, {target!r}); legal edges are "
        "user->role, role->role, role->privilege"
    )


class PolicyBits:
    """Sort-classification bitmasks over the policy graph's interned
    vertex IDs — the compiled kernel's answer to ``isinstance`` sweeps.

    Filtering a reachability mask down to "the privileges among these
    vertices" or "the entity ancestors" is a single ``&`` against one
    of these masks, where the frozenset representation pays an
    ``isinstance`` per element.  Masks maintained:

    * ``users_mask`` / ``roles_mask`` / ``entities_mask`` — vertices by
      entity sort;
    * ``privileges_mask`` — every P† vertex;
    * ``grant_entity_mask`` / ``revoke_entity_mask`` — ¤/♦ vertices
      whose target is a user or role (the rectangle-bearing and
      exact-revocation privileges of the authorization index).

    Two dicts invert the rectangle-bearing grants by endpoint:
    ``grant_sources[v]`` / ``grant_targets[v]`` is the mask of the
    ``grant_entity_mask`` privileges whose source / target is ``v``
    (the endpoint need not be a vertex).  They turn "which rectangles
    does this dirty region touch" into lookups over the region.

    Maintenance follows the change journal (a cursor's
    :func:`~repro.graph.dirty_region` window): edge
    mutations never change a vertex's sort, vertex additions set bits
    incrementally, and any vertex *removal* triggers a full O(V)
    rescan — removal is the rare operation (user deprovisioning,
    privilege garbage collection), and the rescan also retires the
    bits of IDs the interner's free-list may hand out again.
    """

    __slots__ = ("_graph", "_cursor", "rebuilds", "users_mask",
                 "roles_mask", "entities_mask", "privileges_mask",
                 "grant_entity_mask", "revoke_entity_mask",
                 "grant_sources", "grant_targets")

    def __init__(self, graph: Digraph):
        self._graph = graph
        self._cursor = graph.journal_cursor()
        self.rebuilds = 0
        self._rebuild()

    def clone(self, graph: Digraph) -> "PolicyBits":
        """These masks over ``graph``, a :meth:`Digraph.copy` of this
        one's graph taken at the version these masks are valid at: the
        vertex-ID layout is identical by construction, so the masks
        carry over as they are.  The clone follows ``graph`` through
        its own cursor."""
        clone = PolicyBits.__new__(PolicyBits)
        clone._graph = graph
        clone._cursor = graph.journal_cursor()
        clone.rebuilds = 0
        clone.users_mask = self.users_mask
        clone.roles_mask = self.roles_mask
        clone.entities_mask = self.entities_mask
        clone.privileges_mask = self.privileges_mask
        clone.grant_entity_mask = self.grant_entity_mask
        clone.revoke_entity_mask = self.revoke_entity_mask
        clone.grant_sources = dict(self.grant_sources)
        clone.grant_targets = dict(self.grant_targets)
        return clone

    def _classify(self, vertex, index: int) -> None:
        bit = 1 << index
        if isinstance(vertex, User):
            self.users_mask |= bit
            self.entities_mask |= bit
        elif isinstance(vertex, Role):
            self.roles_mask |= bit
            self.entities_mask |= bit
        elif is_privilege(vertex):
            self.privileges_mask |= bit
            if isinstance(vertex, AdminPrivilege) and isinstance(
                vertex.target, (User, Role)
            ):
                if isinstance(vertex, Grant):
                    self.grant_entity_mask |= bit
                    sources, targets = self.grant_sources, self.grant_targets
                    sources[vertex.source] = sources.get(vertex.source, 0) | bit
                    targets[vertex.target] = targets.get(vertex.target, 0) | bit
                elif isinstance(vertex, Revoke):
                    self.revoke_entity_mask |= bit

    def _rebuild(self) -> None:
        self.users_mask = 0
        self.roles_mask = 0
        self.entities_mask = 0
        self.privileges_mask = 0
        self.grant_entity_mask = 0
        self.revoke_entity_mask = 0
        self.grant_sources: dict[object, int] = {}
        self.grant_targets: dict[object, int] = {}
        for vertex, index in self._graph._vid.items():
            self._classify(vertex, index)
        self._cursor.version = self._graph.version
        self.rebuilds += 1

    def validate(self) -> None:
        """Bring the masks up to date with the graph now."""
        if not self._cursor.pending:
            return
        window = dirty_region(self._graph, self._cursor.version)
        if window is None or window.removed_vertices:
            self._rebuild()
            return
        self._cursor.version = self._graph.version
        vid = self._graph._vid
        for vertex in window.added_vertices:
            # No removal in the window, so the vertex is still present
            # and its ID was not recycled mid-window.
            self._classify(vertex, vid[vertex])


class Policy:
    """A mutable administrative RBAC policy.

    The reference monitor mutates policies in place when executing
    administrative commands; analyses that must not disturb a policy
    take a :meth:`copy` first.  Reachability queries are served by a
    version-checked cache, so bursts of queries between mutations cost
    one BFS per distinct source.

    The policy owns three derived structures, each filled or built
    lazily and repaired from the change journal
    (:func:`repro.graph.dirty_region`): the reachability cache, the
    sort masks (:attr:`bits`) and the authorization index
    (:attr:`index`, which a :meth:`copy` forks).
    """

    __slots__ = ("_graph", "_cache", "_bits", "_index", "_index_source",
                 "__weakref__")

    def __init__(
        self,
        ua: Iterable[tuple[User, Role]] = (),
        rh: Iterable[tuple[Role, Role]] = (),
        pa: Iterable[tuple[Role, Privilege]] = (),
    ):
        self._graph = Digraph()
        self._cache = ReachabilityCache(self._graph)
        self._bits: PolicyBits | None = None
        self._index: AuthorizationIndex | None = None
        #: (weakref to the copied policy, copy version): see :attr:`index`.
        self._index_source: tuple | None = None
        for source, target in ua:
            self.assign_user(source, target)
        for source, target in rh:
            self.add_inheritance(source, target)
        for source, target in pa:
            self.assign_privilege(source, target)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_user(self, user: User) -> None:
        """Register a user with no memberships yet."""
        if not isinstance(user, User):
            raise PolicyError(f"not a user: {user!r}")
        self._graph.add_vertex(user)

    def add_role(self, role: Role) -> None:
        """Register a role with no edges yet."""
        if not isinstance(role, Role):
            raise PolicyError(f"not a role: {role!r}")
        self._graph.add_vertex(role)

    def assign_user(self, user: User, role: Role) -> bool:
        """Add a UA edge; returns True if the edge was new."""
        if not (isinstance(user, User) and isinstance(role, Role)):
            raise PolicyError(f"UA edge must be user->role: ({user!r}, {role!r})")
        return self._graph.add_edge(user, role)

    def add_inheritance(self, senior: Role, junior: Role) -> bool:
        """Add an RH edge ``senior -> junior`` (senior inherits junior)."""
        if not (isinstance(senior, Role) and isinstance(junior, Role)):
            raise PolicyError(f"RH edge must be role->role: ({senior!r}, {junior!r})")
        return self._graph.add_edge(senior, junior)

    def assign_privilege(self, role: Role, privilege: Privilege) -> bool:
        """Add a PA† edge ``role -> privilege``."""
        if not (isinstance(role, Role) and is_privilege(privilege)):
            raise PolicyError(
                f"PA edge must be role->privilege: ({role!r}, {privilege!r})"
            )
        return self._graph.add_edge(role, privilege)

    def add_edge(self, source: object, target: object) -> bool:
        """Add an edge of any legal sort (used by command execution)."""
        check_edge_sorts(source, target)
        return self._graph.add_edge(source, target)

    def remove_edge(self, source: object, target: object) -> bool:
        """Remove an edge; returns True if it was present.

        Users and roles stay registered when they lose their last
        edge (they are declared entities), but a privilege vertex
        with no remaining incoming edge is garbage-collected: an
        unassigned privilege term is not part of the policy (and
        would otherwise break serialization round-trips).
        """
        removed = self._graph.remove_edge(source, target)
        if (
            removed
            and is_privilege(target)
            and self._graph.in_degree(target) == 0
        ):
            self._graph.remove_vertex(target)
        return removed

    def remove_user(self, user: User) -> bool:
        """Deprovision a user: remove the vertex and every UA edge it
        carries; returns True if the user was registered.

        A user vertex only ever has outgoing user→role edges, so no
        privilege garbage collection can be triggered here (that is
        :meth:`remove_edge`'s concern).
        """
        if not isinstance(user, User):
            raise PolicyError(f"not a user: {user!r}")
        return self._graph.remove_vertex(user)

    def remove_role(self, role: Role) -> bool:
        """Deprovision a role: remove its PA† assignments (through
        :meth:`remove_edge`, so privileges the role solely assigned
        are garbage-collected with it), then the vertex with its
        remaining UA/RH edges; returns True if the role was
        registered.  The repair engine's ``dead-role`` planner is the
        main client."""
        if not isinstance(role, Role):
            raise PolicyError(f"not a role: {role!r}")
        if role not in self._graph:
            return False
        for target in sorted(self._graph.successors(role), key=str):
            if is_privilege(target):
                self.remove_edge(role, target)
        return self._graph.remove_vertex(role)

    def has_edge(self, source: object, target: object) -> bool:
        return self._graph.has_edge(source, target)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        """The underlying graph.  Mutate only through Policy methods."""
        return self._graph

    @property
    def version(self) -> int:
        """The graph's mutation counter — the staleness cursor every
        policy-level cache keys on."""
        return self._graph.version

    def journal_cursor(self):
        """A registered per-consumer cursor into the change journal
        (see :meth:`repro.graph.Digraph.journal_cursor`): while the
        cursor is alive the journal retains what it still needs."""
        return self._graph.journal_cursor()

    def users(self) -> Iterator[User]:
        for vertex in self._graph.vertices():
            if isinstance(vertex, User):
                yield vertex

    def roles(self) -> Iterator[Role]:
        for vertex in self._graph.vertices():
            if isinstance(vertex, Role):
                yield vertex

    def privileges(self) -> Iterator[Privilege]:
        """All privilege vertices (user and administrative)."""
        for vertex in self._graph.vertices():
            if is_privilege(vertex):
                yield vertex

    def user_privileges(self) -> Iterator[UserPrivilege]:
        for vertex in self._graph.vertices():
            if isinstance(vertex, UserPrivilege):
                yield vertex

    def admin_privileges(self) -> Iterator[AdminPrivilege]:
        for vertex in self._graph.vertices():
            if isinstance(vertex, AdminPrivilege):
                yield vertex

    def ua_edges(self) -> Iterator[tuple[User, Role]]:
        for source, target in self._graph.edges():
            if isinstance(source, User):
                yield (source, target)

    def rh_edges(self) -> Iterator[tuple[Role, Role]]:
        for source, target in self._graph.edges():
            if isinstance(source, Role) and isinstance(target, Role):
                yield (source, target)

    def pa_edges(self) -> Iterator[tuple[Role, Privilege]]:
        for source, target in self._graph.edges():
            if isinstance(source, Role) and is_privilege(target):
                yield (source, target)

    def is_non_administrative(self) -> bool:
        """True iff the policy is in the Definition-1 subclass
        (assigns no administrative privileges)."""
        return not any(True for _ in self.admin_privileges_assigned())

    def admin_privileges_assigned(self) -> Iterator[tuple[Role, AdminPrivilege]]:
        for role, privilege in self.pa_edges():
            if isinstance(privilege, AdminPrivilege):
                yield (role, privilege)

    # ------------------------------------------------------------------
    # Reachability (the paper's  v ->_phi v'  judgement)
    # ------------------------------------------------------------------
    def reaches(self, source: object, target: object) -> bool:
        """Reflexive-transitive reachability in the policy graph."""
        return self._cache.reaches(source, target)

    def descendants(self, source: object) -> frozenset:
        """All vertices reachable from ``source`` (including itself)."""
        return self._cache.descendants(source)

    def descendants_bits(self, source: object) -> int:
        """The compiled-kernel view of :meth:`descendants`: a memoized
        bitmask over interned vertex IDs (``0`` for a non-vertex —
        see :func:`repro.graph.descendants_bits`)."""
        return self._cache.descendants_bits(source)

    @property
    def bits(self) -> PolicyBits:
        """The policy's sort-classification masks (compiled kernel),
        built lazily and revalidated from the change journal."""
        bits = self._bits
        if bits is None:
            bits = self._bits = PolicyBits(self._graph)
        else:
            bits.validate()
        return bits

    @property
    def index(self) -> "AuthorizationIndex":
        """The policy's authorization index
        (:class:`~repro.core.authz_index.AuthorizationIndex`): built on
        first read, repaired from its own journal cursor on each later
        read.  Every production reader — the index-backed monitor,
        :func:`~repro.analysis.audit.audit_matrix` and
        :class:`~repro.core.authz_index.ReviewSnapshot` — shares this
        one index (lint and repair read none), so repeated readers of
        one policy pay for one build plus the repairs of what changed
        in between.  A :meth:`copy`
        forks its source's index instead of building (every table shared
        copy-on-write) if the source is still alive and neither policy
        has moved since the copy, so the vertex-ID layouts still agree.
        The index refers back through a weak proxy, so the pair is no
        reference cycle: keep the policy alive while using its index."""
        index = self._index
        if index is not None:
            index.refresh()
            return index
        owner = weakref.proxy(self)
        if self._index_source is not None:
            source_ref, version = self._index_source
            self._index_source = None
            source = source_ref()
            if source is not None and source.version == version == self.version:
                index = source._index._fork(owner)
        if index is None:
            from .authz_index import AuthorizationIndex

            index = AuthorizationIndex(owner)
        self._index = index
        return index

    def authorized_roles(self, user: User) -> frozenset[Role]:
        """Roles the user may activate: ``{r : u ->φ r}`` (§2)."""
        return frozenset(
            vertex for vertex in self.descendants(user) if isinstance(vertex, Role)
        )

    def authorized_privileges(self, subject: object) -> frozenset[UserPrivilege]:
        """User privileges reachable from ``subject``."""
        return frozenset(
            vertex
            for vertex in self.descendants(subject)
            if isinstance(vertex, UserPrivilege)
        )

    def reachable_admin_privileges(self, subject: object) -> frozenset[AdminPrivilege]:
        """Administrative privileges reachable from ``subject``."""
        return frozenset(
            vertex
            for vertex in self.descendants(subject)
            if isinstance(vertex, AdminPrivilege)
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def rh_subgraph(self) -> Digraph:
        """The role-hierarchy edges as a standalone graph."""
        sub = Digraph()
        for role in self.roles():
            sub.add_vertex(role)
        for senior, junior in self.rh_edges():
            sub.add_edge(senior, junior)
        return sub

    def longest_role_chain(self) -> int:
        """Length of the longest chain in RH — the Remark-2 bound ``n``."""
        return longest_chain_length(self.rh_subgraph())

    def subterm_closure(self) -> frozenset[Privilege]:
        """Every privilege occurring in the policy, including strict
        subterms of assigned administrative privileges.

        Key finiteness fact (used by the effective-command universe,
        see :mod:`repro.core.commands`): executing grant commands can
        only introduce privilege vertices drawn from this set, because
        a grant of ``(r, p)`` requires a reachable term ``¤(r, p)``
        whose target ``p`` is already a subterm of the policy.
        """
        closed: set[Privilege] = set()
        for privilege in self.privileges():
            if isinstance(privilege, AdminPrivilege):
                closed.update(privilege.subterms())
            else:
                closed.add(privilege)
        return frozenset(closed)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def copy(self) -> "Policy":
        """An independent copy over a structural clone of the graph
        (:meth:`Digraph.copy`, copy-on-write adjacency): same version
        and vertex-ID layout, a fresh journal, and a cold reachability
        cache.  Sort masks already built are brought up to date and
        cloned (:meth:`PolicyBits.clone`) rather than rescanned.  A built
        authorization index is handed over lazily: the clone records
        this policy weakly, with the version (see :attr:`index`)."""
        clone = Policy._over(self._graph.copy())
        if self._index is not None:
            clone._index_source = (weakref.ref(self), self._graph.version)
        bits = self._bits
        if bits is not None:
            bits.validate()
            clone._bits = bits.clone(clone._graph)
        return clone

    def rewound(self, version: int) -> "Policy | None":
        """An independent copy of this policy as it stood at
        ``version`` (:meth:`Digraph.rewound`: the journal's deltas since
        then, undone on a clone), or None when the journal no longer
        reaches back that far.  The copy equals a :meth:`copy` taken at
        ``version`` in edges, vertices and version, but not in vertex-ID
        layout, so its sort masks and index are built on first read."""
        graph = self._graph.rewound(version)
        return None if graph is None else Policy._over(graph)

    @staticmethod
    def _over(graph: Digraph) -> "Policy":
        """A policy over ``graph`` with every derived structure cold."""
        policy = Policy.__new__(Policy)
        policy._graph = graph
        policy._cache = ReachabilityCache(graph)
        policy._bits = None
        policy._index = None
        policy._index_source = None
        return policy

    def edge_set(self) -> frozenset[PolicyEdge]:
        return self._graph.edge_set()

    def vertex_set(self) -> frozenset:
        return frozenset(self._graph.vertices())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return (
            self.edge_set() == other.edge_set()
            and self.vertex_set() == other.vertex_set()
        )

    def __hash__(self):
        raise TypeError("Policy is mutable and unhashable; use edge_set()")

    def __repr__(self) -> str:
        users = sum(1 for _ in self.users())
        roles = sum(1 for _ in self.roles())
        privileges = sum(1 for _ in self.privileges())
        return (
            f"Policy(users={users}, roles={roles}, privileges={privileges}, "
            f"edges={self._graph.edge_count})"
        )


def union_with_edge(policy: Policy, edge: PolicyEdge) -> Policy:
    """``φ ∪ (v, v')`` as a new policy (Definition 5, grant case)."""
    clone = policy.copy()
    clone.add_edge(*edge)
    return clone


def minus_edge(policy: Policy, edge: PolicyEdge) -> Policy:
    """``φ \\ (v, v')`` as a new policy (Definition 5, revoke case)."""
    clone = policy.copy()
    clone.remove_edge(*edge)
    return clone
