"""The compiled state-space exploration engine.

Every bounded analysis over Definition 5 runs — safety queries
(:mod:`repro.analysis.safety`), administrative reachability
(:mod:`repro.analysis.reachability`), and through them the Remark-2
conjecture tester and the cross-model comparisons — explores the same
transition system: policy states connected by effective administrative
commands.  The pre-compilation explorers paid three per-candidate
costs, each O(policy):

* ``policy.copy()`` per candidate command (allocation + hashing of
  every vertex and edge, and a cold reachability cache on the copy);
* a from-scratch ``descendants`` BFS inside ``_authorize`` per
  candidate (the copy's cache is always cold);
* an ``edge_set()`` frozenset build + hash per executed candidate for
  ``seen``-set deduplication.

:class:`ExplorationEngine` replaces all three with delta-cost
operations on a **single mutable exploration policy**:

* **apply/undo log** — :meth:`push` executes a command by mutating the
  exploration policy in place and recording the exact inverse
  (including privilege-vertex garbage collection and vertex
  introduction); :meth:`pop` replays the inverse at the graph level.
  Expanding a state costs O(delta), not O(policy).  :meth:`goto`
  navigates the BFS frontier by undoing to the common prefix of the
  current and target witness paths and replaying the suffix.
* **canonical fingerprint** — state identity is a
  :class:`~repro.graph.fingerprint.StateFingerprint` bitmask over the
  vertex *and* edge atoms in which the current state differs from the
  initial one (the initial state is 0, so building an engine costs no
  pass over the policy), maintained with one XOR per mutation and
  stable across interner ID recycling (the slot table is keyed by
  vertex values, not IDs).  Values are comparable only between states
  of one engine.
* **bitmask candidate pruning** — :meth:`effective_commands` decides
  authorization per candidate with bit tests: one
  ``descendants_bits`` mask per distinct issuer per state (served by
  the exploration policy's warm, incrementally-evicted
  :class:`~repro.graph.reachability.ReachabilityCache`), intersected
  with a privileges mask seeded from
  :class:`~repro.core.policy.PolicyBits` and maintained by the undo
  log.  In refined mode a single churn-aware
  :class:`~repro.core.ordering.OrderingOracle` is shared across the
  whole exploration instead of being rebuilt per candidate.

Undo-exactness invariants
-------------------------

``pop`` restores the exploration policy *exactly* — vertex set, edge
set, and interned vertex IDs.  The ID part follows from the free-list's
LIFO discipline under the engine's strictly stack-shaped usage: every
``push`` acquires IDs by popping the free-list and every ``pop``
releases them in exact inverse order, so the free-list (and hence every
subsequently recycled ID) is restored at each stack depth.  The
fingerprint does **not** rely on this invariant (it is value-keyed);
the engine's privileges mask and the reachability cache's vid-keyed
mirrors do, and the differential fuzz invariant 10
(:func:`repro.workloads.fuzz.fuzz_compiled_analysis`) pins the whole
stack against the copy-per-probe explorers of
:mod:`repro.oracle.explore`, including ID-recycling traces.

The engine is the analysis layer's only explorer: safety,
reachability, administrative refinement and the lint rules'
depth-k exploration all run on it, and their frozenset twins live in
:mod:`repro.oracle` as the semantic reference (the same convention as
the authorization kernel and :class:`~repro.oracle.ReferenceIndex`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from ..graph import StateFingerprint, iter_bits
from .commands import Command, CommandAction, Mode, candidate_commands
from .entities import User
from .ordering import OrderingOracle
from .policy import Policy
from .privileges import is_privilege


def reaches_bits(policy: Policy, source: object, target: object) -> bool:
    """``policy.reaches`` through the compiled kernel: the memoized
    descendants bitmask of ``source`` (warm across repeated queries)
    and one bit test.  Matches the frozenset semantics exactly,
    including reflexivity for vertices absent from the graph."""
    if source == target:
        return True
    index = policy.graph._vid.get(target)
    if index is None:
        return False
    return bool(policy.descendants_bits(source) >> index & 1)


class ExplorationEngine:
    """One mutable exploration state over a policy's transition system.

    ``policy`` is copied once at construction; the original is never
    touched.  ``acting_users`` restricts the candidate command universe
    to the given issuers (the safety checker's "only the untrusted
    users act" refinement); ``universe`` overrides the candidate
    command list entirely (it must be state-independent, i.e. computed
    from the initial policy as :func:`candidate_commands` does).
    """

    __slots__ = ("mode", "policy", "universe", "_graph", "_oracle",
                 "_fingerprint", "_priv_mask", "_undo", "_path")

    def __init__(
        self,
        policy: Policy,
        mode: Mode = Mode.STRICT,
        acting_users: Iterable[User] | None = None,
        universe: Sequence[Command] | None = None,
    ):
        self.mode = mode
        self.policy = policy.copy()
        self._graph = self.policy.graph
        if universe is not None:
            self.universe: tuple[Command, ...] = tuple(universe)
        elif acting_users is None:
            self.universe = tuple(candidate_commands(policy, mode))
        else:
            self.universe = self._filter_issuers(
                candidate_commands(policy, mode), acting_users
            )
        #: shared, churn-aware ordering oracle (refined mode only);
        #: its memo survives push/pop churn via dirty-region eviction.
        self._oracle = (
            OrderingOracle(self.policy) if mode is Mode.REFINED else None
        )
        #: relative to the initial state, which therefore has value 0
        self._fingerprint = StateFingerprint()
        #: bitmask of privilege vertices over current interned IDs,
        #: seeded from the PolicyBits sort masks and maintained by the
        #: undo log (PolicyBits itself rescans on vertex removal, which
        #: exploration GC churn would trigger constantly).
        self._priv_mask = self.policy.bits.privileges_mask
        #: inverse records: (kind, source, target, detail, fingerprint
        #: value and privileges mask on entry).
        self._undo: list[tuple] = []
        self._path: list[Command] = []

    def _filter_issuers(
        self, commands: list[Command], acting_users: Iterable[User]
    ) -> tuple[Command, ...]:
        """Restrict the candidate universe to the acting issuers, as a
        bitmask over interned user IDs (off-graph acting users — legal:
        a user may be mentioned in a privilege term without being a
        vertex — fall back to a small set).

        Compared to rebuilding :func:`candidate_commands` with the
        user list, filtering drops only commands whose issuer is not
        acting — commands that can never execute — and preserves the
        relative candidate order, so verdicts, witnesses and explored
        state counts match the frozenset path exactly.
        """
        vid = self._graph._vid
        acting_mask = 0
        off_graph: set[User] = set()
        for user in acting_users:
            index = vid.get(user)
            if index is None:
                off_graph.add(user)
            else:
                acting_mask |= 1 << index
        kept = []
        for command in commands:
            index = vid.get(command.user)
            if index is not None:
                if acting_mask >> index & 1:
                    kept.append(command)
            elif command.user in off_graph:
                kept.append(command)
        return tuple(kept)

    # ------------------------------------------------------------------
    # State identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> int:
        """Canonical bitmask identity of the current state: the vertex
        and edge atoms in which it differs from the initial state (0 at
        the initial state).  Two states of this engine have equal
        fingerprints iff they are equal as policies; values of
        different engines are not comparable."""
        return self._fingerprint.value

    @property
    def depth(self) -> int:
        """Length of the command path from the initial state."""
        return len(self._path)

    @property
    def path(self) -> tuple[Command, ...]:
        """The command path from the initial state to the current one."""
        return tuple(self._path)

    @property
    def privileges_mask(self) -> int:
        """Bitmask of privilege vertices in the current state, over
        the exploration policy's interned IDs — the undo-log-maintained
        mirror of ``PolicyBits.privileges_mask`` (which would rescan on
        every GC).  Clients combine it with ``descendants_bits`` masks
        of the *engine's* policy; masks from the original policy use a
        different interner and must not be mixed in."""
        return self._priv_mask

    def snapshot(self) -> Policy:
        """An independent copy of the current exploration state."""
        return self.policy.copy()

    def reaches(self, source: object, target: object) -> bool:
        """Reflexive-transitive reachability on the current state,
        answered from the warm compiled cache (a bit test once the
        source's descendants mask is memoized)."""
        return reaches_bits(self.policy, source, target)

    # ------------------------------------------------------------------
    # Candidate pruning
    # ------------------------------------------------------------------
    def effective_commands(self) -> list[Command]:
        """Commands that would execute *and change* the current state,
        in universe order.

        Definition 5 consumes unauthorized commands as silent no-ops
        and executes redundant grants/revokes without effect; neither
        kind can reach a new state, so both are pruned here.  The
        authorization decision is the bit-test compilation of
        ``_authorize``: exact match is one test of the requested
        privilege's ID against the issuer's reachable-privileges mask;
        refined-mode implicit authorization decodes that mask and asks
        the shared ordering oracle.
        """
        policy = self.policy
        graph = self._graph
        vid = graph._vid
        has_edge = graph.has_edge
        refined_grants = self.mode is Mode.REFINED
        oracle = self._oracle
        priv_mask = self._priv_mask
        masks: dict[User, int] = {}
        effective: list[Command] = []
        for command in self.universe:
            present = has_edge(command.source, command.target)
            if command.action is CommandAction.GRANT:
                if present:
                    continue  # redundant grant: at best a no-op
            elif not present:
                continue  # redundant revoke: at best a no-op
            user = command.user
            reachable = masks.get(user)
            if reachable is None:
                reachable = masks[user] = (
                    policy.descendants_bits(user) & priv_mask
                )
            if not reachable:
                continue  # no privilege in reach: every command denied
            wanted = command.requested_privilege()
            if wanted is None:
                continue  # ill-sorted edge: never authorized
            windex = vid.get(wanted)
            if windex is not None and reachable >> windex & 1:
                effective.append(command)
                continue
            if refined_grants and command.action is CommandAction.GRANT:
                vertex_of = graph.vertex_of
                for index in iter_bits(reachable):
                    if oracle.is_weaker(vertex_of(index), wanted):
                        effective.append(command)
                        break
        return effective

    # ------------------------------------------------------------------
    # Apply / undo log
    # ------------------------------------------------------------------
    def push(self, command: Command) -> None:
        """Execute ``command``'s mutation on the current state.

        The caller guarantees the command is effective here (it came
        from :meth:`effective_commands` of *this* state, or is being
        replayed along a previously discovered path — replay is
        deterministic, so no authorization re-check is needed).
        """
        source, target = command.source, command.target
        graph = self._graph
        fingerprint = self._fingerprint
        entry = (fingerprint.value, self._priv_mask)
        if command.action is CommandAction.GRANT:
            source_new = source not in graph
            # A role self-edge (r, r) with r off-graph introduces one
            # vertex, not two: credit it to the source side only.
            target_new = target not in graph and target != source
            self.policy.add_edge(source, target)
            if source_new:
                fingerprint.toggle(source)
            if target_new:
                fingerprint.toggle(target)
                if is_privilege(target):
                    self._priv_mask |= 1 << graph._vid[target]
            fingerprint.toggle((source, target))
            self._undo.append(("grant", source, target,
                               (source_new, target_new), entry))
        else:
            # Removing the edge garbage-collects a privilege target
            # whose last assignment this was (Policy.remove_edge).
            collected = is_privilege(target) and graph.in_degree(target) == 1
            if collected:
                self._priv_mask &= ~(1 << graph._vid[target])
                fingerprint.toggle(target)
            self.policy.remove_edge(source, target)
            fingerprint.toggle((source, target))
            self._undo.append(("revoke", source, target, collected, entry))
        self._path.append(command)

    def pop(self) -> None:
        """Exactly invert the most recent :meth:`push` (graph-level
        inverse replay, in reverse mutation order)."""
        kind, source, target, detail, entry = self._undo.pop()
        graph = self._graph
        if kind == "grant":
            source_new, target_new = detail
            graph.remove_edge(source, target)
            if target_new:
                graph.remove_vertex(target)
            if source_new:
                graph.remove_vertex(source)
        else:
            # add_edge re-introduces a garbage-collected privilege
            # vertex; the free-list's LIFO discipline hands it back
            # its old ID (see the module docstring).
            graph.add_edge(source, target)
        self._fingerprint.value, self._priv_mask = entry
        self._path.pop()

    def goto(self, path: Sequence[Command]) -> None:
        """Navigate the exploration state to the state reached by
        ``path`` from the initial policy: pop back to the longest
        common prefix with the current path, then replay the rest.
        Under BFS expansion consecutive frontier nodes share deep
        prefixes, so the average cost is far below ``len(path)``."""
        current = self._path
        common = 0
        limit = min(len(current), len(path))
        while common < limit and current[common] == path[common]:
            common += 1
        while len(self._path) > common:
            self.pop()
        for command in path[common:]:
            self.push(command)

    def bfs(self, depth: int) -> Iterator[tuple[Command, ...]]:
        """Breadth-first over the distinct states within ``depth``
        commands of the initial policy (fingerprint dedup), yielding
        each new state's witness path with the engine positioned at it;
        the consumer must not move the engine before resuming."""
        self.goto(())
        seen = {self.fingerprint}
        frontier: deque[tuple[Command, ...]] = deque([()])
        while frontier:
            path = frontier.popleft()
            if len(path) == depth:
                continue
            self.goto(path)
            for command in self.effective_commands():
                self.push(command)
                if self.fingerprint not in seen:
                    seen.add(self.fingerprint)
                    witness = path + (command,)
                    yield witness
                    frontier.append(witness)
                self.pop()

    def __repr__(self) -> str:
        return (
            f"ExplorationEngine(depth={len(self._path)}, "
            f"universe={len(self.universe)}, mode={self.mode.value})"
        )
