"""The privilege ordering ``Ã`` of Definition 8 and its decision
procedure (Lemma 1).

``p Ãφ q`` reads "q is weaker than (or equal to) p under policy φ":
giving a role the weaker privilege ``q`` instead of ``p`` yields an
administrative refinement of the policy (Theorem 1).

Semantics implemented
---------------------

Definition 8 lists three rules (reflexivity; rule (2) for grants over
user/role pairs; rule (3) for grants of nested privileges) and asserts
that the resulting relation is reflexive *and transitive*.  Two details
of the paper require care:

1. **Example 6** derives ``¤(r1, ¤(r1,r2))`` from ``¤(r1, r2)`` "by
   rule (2)" — this needs rule (2)'s premise ``v3 →φ v4`` to be read as
   plain graph reachability, where ``v4`` may be a *privilege vertex*
   (here the PA edge ``r2 → ¤(r1,r2)`` provides the path).  Under the
   narrow reading (``v4 ∈ U ∪ R`` only) the example's first step does
   not hold.
2. The continuation of Example 6 (``¤(r1, ¤(r1, ¤(r1,r2)))`` is again
   weaker than the original) additionally requires the relation to be
   **transitively closed**: the smallest relation satisfying the three
   rules alone is not transitive once rule (2) is generalized.

The default semantics here is therefore the *transitive closure of the
generalized rules*, which we show (in the docstring of
:meth:`OrderingOracle._holds`) admits an equivalent structural
characterization that is decidable by induction on the weaker term —
exactly the shape of the Lemma 1 proof.  The literal narrow rules are
available as ``strict_rules=True`` for ablation; under them Example 5
still goes through but Example 6 does not (tests pin down both).

Both semantics agree whenever the weaker privilege's target is a
user/role (the common case) and on all of Example 5.
"""

from __future__ import annotations

from typing import Iterator

from ..graph import dirty_region_bits, summarize_deltas
from .entities import Role, User
from .policy import Policy
from .privileges import (
    AdminPrivilege,
    Grant,
    Privilege,
    UserPrivilege,
    is_privilege,
)
from .trace import Derivation, OrderingStatistics, ReachPremise

_Entity = (User, Role)


class OrderingOracle:
    """Decides ``p Ãφ q`` for a fixed policy, with memoization.

    The memo table tracks the policy graph's version counter, so an
    oracle may safely be kept alongside a policy that the reference
    monitor is mutating.  Invalidation is *churn-aware*: instead of
    clearing wholesale on every version bump, the oracle consults the
    graph's change journal and evicts only the entries whose vertices
    fall in the mutation's dirty region (see :meth:`_validate_memo`
    for the exact soundness argument), falling back to a full clear
    when the journal has expired or the delta burst exceeds
    ``MEMO_DELTA_LIMIT``.
    """

    #: delta bursts larger than this clear the memo wholesale — the
    #: per-entry footprint test costs O(memo × term size) and stops
    #: paying for itself on big bursts.
    MEMO_DELTA_LIMIT = 32

    __slots__ = ("policy", "strict_rules", "stats", "_memo", "_version")

    def __init__(self, policy: Policy, strict_rules: bool = False):
        self.policy = policy
        self.strict_rules = strict_rules
        self.stats = OrderingStatistics()
        self._memo: dict[tuple[Privilege, Privilege], bool] = {}
        self._version = policy.graph.version

    # ------------------------------------------------------------------
    def is_weaker(self, stronger: Privilege, weaker: Privilege) -> bool:
        """True iff ``stronger Ãφ weaker`` (weaker is safe to substitute)."""
        self._validate_memo()
        self.stats.queries += 1
        return self._holds(stronger, weaker)

    def explain(self, stronger: Privilege, weaker: Privilege) -> Derivation | None:
        """A derivation tree if the judgement holds, else None."""
        self._validate_memo()
        return self._derive(stronger, weaker)

    # ------------------------------------------------------------------
    def _validate_memo(self) -> None:
        """Churn-aware memo maintenance.

        A memoized ``p Ã q`` decision is a function of (a) reach
        checks whose source side is always a subterm of ``q`` or whose
        target side is always a subterm of ``p``/``q``, and (b) — in
        the generalized rule-(2) hop — the *privilege vertices*
        reachable from an entity target.  A journaled edge mutation
        ``(s, t)`` can change a reach check only if its source side
        reaches ``s`` (is in the upstream region) or its target side
        is reached by ``t`` (downstream region), and can change a
        hop's candidate set membership only by moving a privilege
        vertex into or out of a descendant set — which puts that
        privilege vertex in the downstream region.  So an entry is
        provably unaffected when

        * neither term's footprint (term, subterms, mentioned
          entities) intersects the dirty region, and
        * the burst cannot have changed any hop candidate set, or the
          weaker term's target is an entity (the hop only fires while
          recursing into privilege-sorted targets).  A hop set is
          ``descendants(tp) ∩ privileges`` for an entity target
          ``tp`` — by the grammar's sorts always a *role* — so it can
          change only when the upstream region contains a role and
          the downstream region contains a privilege vertex.  UA
          churn (whose upstream region is just the assigned user)
          is therefore always hop-safe.

        Everything else is evicted; journal expiry or an oversized
        burst clears wholesale.
        """
        version = self.policy.graph.version
        if self._version == version:
            return
        if not self._memo:
            self._version = version
            return
        deltas = self.policy.changes_since(self._version)
        self._version = version
        summary = None if deltas is None else summarize_deltas(deltas)
        if summary is not None and summary.weight == 0:
            return  # pure vertex additions touch no reachable set
        if summary is None or summary.weight > self.MEMO_DELTA_LIMIT:
            self._memo.clear()
            self.stats.memo_full_clears += 1
            return
        self._evict_stale_bits(summary)

    def _evict_stale_bits(self, summary) -> None:
        """Footprint eviction: an entry's footprint is the term itself,
        its privilege subterms and every entity they mention.  The
        dirty region is two masks over interned vertex IDs, so testing
        a footprint is one shift per footprint vertex.  Vertices
        without an ID (removed within the burst, hence in the summary,
        or mentioned by a term but never registered) fall back to
        membership in the small ``dirty_extra`` set."""
        graph = self.policy.graph
        removed = summary.removed_vertices
        upstream, downstream, absent_sources, absent_targets = (
            dirty_region_bits(
                graph, summary.edge_sources, summary.edge_targets
            )
        )
        bits = self.policy.bits
        dirty_mask = upstream | downstream
        dirty_extra = absent_sources | absent_targets | removed
        hop_unsafe = (
            not self.strict_rules
            and bool(
                upstream & bits.roles_mask
                or any(isinstance(v, Role) for v in absent_sources)
            )
            and bool(
                downstream & bits.privileges_mask
                or any(
                    is_privilege(v)
                    for v in (absent_targets | removed)
                )
            )
        )
        vid = graph._vid

        def vertex_dirty(vertex) -> bool:
            index = vid.get(vertex)
            if index is not None and dirty_mask >> index & 1:
                return True
            return bool(dirty_extra) and vertex in dirty_extra

        def footprint_dirty(privilege) -> bool:
            if vertex_dirty(privilege):
                return True
            if isinstance(privilege, AdminPrivilege):
                for term in privilege.subterms():
                    if vertex_dirty(term):
                        return True
                for entity in privilege.mentioned_entities():
                    if vertex_dirty(entity):
                        return True
            return False

        stale = []
        for key in self._memo:
            stronger, weaker = key
            if not isinstance(stronger, Grant) or not isinstance(weaker, Grant):
                continue  # structurally False under every policy
            if hop_unsafe and not isinstance(weaker.target, _Entity):
                stale.append(key)
                continue
            if footprint_dirty(stronger) or footprint_dirty(weaker):
                stale.append(key)
        for key in stale:
            del self._memo[key]
        self.stats.memo_evictions += len(stale)

    def _reaches(self, source: object, target: object) -> bool:
        self.stats.reach_checks += 1
        return self.policy.reaches(source, target)

    def _reachable_privilege_vertices(self, source: object) -> Iterator[Privilege]:
        """Privilege vertices reachable from ``source`` in the graph."""
        from .privileges import is_privilege

        for vertex in self.policy.descendants(source):
            if is_privilege(vertex):
                yield vertex

    def _holds(self, p: Privilege, q: Privilege) -> bool:
        """Decision procedure, by structural induction on ``q``.

        Equivalent characterization of the transitively-closed
        generalized relation (proved in tests by comparison against a
        bounded rule-application oracle): for grants
        ``p = ¤(sp, tp)``, ``q = ¤(sq, tq)``, ``p Ã q`` iff
        ``sq →φ sp`` and ``weaker_target(tp, tq)``, where

        * ``weaker_target(t, t')`` with ``t' ∈ U∪R`` requires
          ``t ∈ U∪R`` and ``t →φ t'``  (rule 2);
        * ``weaker_target(t, t')`` with ``t'`` a privilege holds if
          either ``t`` is a privilege and ``t Ã t'``  (rule 3), or
          ``t ∈ U∪R`` and some privilege *vertex* ``w`` with
          ``t →φ w`` satisfies ``w Ã t'``  (generalized rule 2
          composed, via transitivity, with further weakening).

        Every recursive call descends into ``t'``, which is a strict
        subterm of ``q``, so the procedure terminates — this is the
        Lemma 1 argument, adapted to the closed relation.
        """
        if p == q:
            return True
        key = (p, q)
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        result = self._holds_uncached(p, q)
        self._memo[key] = result
        return result

    def _holds_uncached(self, p: Privilege, q: Privilege) -> bool:
        # Base cases of Lemma 1: user privileges and revocations are
        # ordered only by reflexivity (handled in _holds).
        if not isinstance(q, Grant) or not isinstance(p, Grant):
            return False
        if not self._reaches(q.source, p.source):
            return False
        tp, tq = p.target, q.target
        if isinstance(tq, _Entity):
            # Rule (2), narrow form: both targets are users/roles.
            return isinstance(tp, _Entity) and self._reaches(tp, tq)
        # tq is a privilege term.
        if isinstance(tp, (AdminPrivilege, UserPrivilege)):
            # Rule (3).
            return self._holds(tp, tq)
        if self.strict_rules:
            # Literal Definition 8: rule (2) requires v4 in U+R, and no
            # transitive completion is applied.
            return False
        # Generalized rule (2) + transitivity: hop through a privilege
        # vertex reachable from the entity target.
        for w in self._reachable_privilege_vertices(tp):
            if self._holds(w, tq):
                return True
        return False

    # ------------------------------------------------------------------
    def _derive(self, p: Privilege, q: Privilege) -> Derivation | None:
        if p == q:
            self.stats.record_rule("reflexivity")
            return Derivation("reflexivity", p, q)
        if not isinstance(q, Grant) or not isinstance(p, Grant):
            return None
        if not self._reaches(q.source, p.source):
            return None
        source_premise = ReachPremise(q.source, p.source)
        tp, tq = p.target, q.target
        if isinstance(tq, _Entity):
            if isinstance(tp, _Entity) and self._reaches(tp, tq):
                self.stats.record_rule("rule2")
                return Derivation(
                    "rule2", p, q,
                    premises=(source_premise, ReachPremise(tp, tq)),
                )
            return None
        if isinstance(tp, (AdminPrivilege, UserPrivilege)):
            sub = self._derive(tp, tq)
            if sub is None:
                return None
            self.stats.record_rule("rule3")
            return Derivation("rule3", p, q, premises=(source_premise,), sub=sub)
        if self.strict_rules:
            return None
        for w in sorted(
            self._reachable_privilege_vertices(tp), key=str
        ):
            sub = self._derive(w, tq)
            if sub is not None:
                self.stats.record_rule("rule2+transitivity")
                return Derivation(
                    "rule2+transitivity", p, q,
                    premises=(source_premise, ReachPremise(tp, w)),
                    sub=sub,
                    via=w,
                )
        return None


def is_weaker(
    policy: Policy,
    stronger: Privilege,
    weaker: Privilege,
    strict_rules: bool = False,
) -> bool:
    """Convenience wrapper: one-shot ``stronger Ãφ weaker`` decision."""
    return OrderingOracle(policy, strict_rules=strict_rules).is_weaker(
        stronger, weaker
    )


def explain_weaker(
    policy: Policy,
    stronger: Privilege,
    weaker: Privilege,
    strict_rules: bool = False,
) -> Derivation | None:
    """Convenience wrapper returning a derivation tree (or None)."""
    return OrderingOracle(policy, strict_rules=strict_rules).explain(
        stronger, weaker
    )


def implicitly_authorized(
    policy: Policy,
    subject: User | Role,
    wanted: Privilege,
    strict_rules: bool = False,
) -> Privilege | None:
    """The paper's practical use of the ordering (§4.1): a subject is
    *implicitly authorized* for ``wanted`` if it reaches some assigned
    privilege ``p`` with ``p Ãφ wanted``.

    Returns an authorizing privilege, preferring an exact match, or
    None if the subject is not authorized.  This is the check the
    refined reference monitor performs before executing an
    administrative command.
    """
    oracle = OrderingOracle(policy, strict_rules=strict_rules)
    best: Privilege | None = None
    for vertex in policy.descendants(subject):
        from .privileges import is_privilege

        if not is_privilege(vertex):
            continue
        if vertex == wanted:
            return vertex
        if best is None and oracle.is_weaker(vertex, wanted):
            best = vertex
    return best
