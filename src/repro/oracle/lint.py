"""Reference lint and repair: the frozenset twin of every lint rule.

:data:`REFERENCE_RULES` holds, under each production rule's name, a
body that answers from ``descendants`` / ``ancestors`` frozensets
instead of :class:`~repro.core.policy.PolicyBits` masks; the twins
share each rule's severity, ``carries`` predicate, finding builders and
``ctx.count`` statistics.  :class:`ReferenceLintContext` overrides the
context's kernel surface (aggregates, rectangles and the planner
queries) and adds a private :class:`~repro.oracle.index.ReferenceIndex`
verifier, and :class:`ReferenceLintSession` lints with the twins over
it — so :func:`reference_repair_policy` is the production repair loop
run over a reference session.  Fuzz invariants 11 and 13 pin the
production rules and driver to these twins.

Unlike the production rules, which never write, the
``redundant-delegation`` twin decides each candidate by the literal
probe — remove the edge, re-test reachability, re-read every upstream
user's held privileges in the reference index, re-add the edge — so
it also verifies the rule's premise that reachability preserved means
every authorization preserved (``refuted`` counts the findings that
premise would lose; there must be none).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import cached_property
from typing import Iterable

from ..analysis.constraints import SsdConstraint
from ..analysis.lint import (
    RULES,
    Finding,
    LintContext,
    LintReport,
    LintRule,
    LintSession,
    Severity,
    _assigned_grants,
    _conflict_finding,
    _dead_role_findings,
    _depth_k_finding,
    _escalation_findings,
    _grant_commands,
    _grant_edges,
    _irrevocable_findings,
    _priv_target_grants,
    _redundancy_finding,
    _unassign_findings,
)
from ..analysis.repair import RepairPlan, RepairReport, _plan, _repair_loop
from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant, Revoke, is_privilege
from ..graph import ancestors
from .index import ReferenceIndex

_Entity = (User, Role)


def _sorted(items, kind) -> list:
    """The ``kind`` instances among ``items``, sorted by ``str``."""
    return sorted((item for item in items if isinstance(item, kind)), key=str)


def _privileges(items) -> frozenset:
    return frozenset(item for item in items if is_privilege(item))


def _entity_target(item, connective) -> bool:
    return isinstance(item, connective) and isinstance(item.target, _Entity)


class ReferenceLintContext(LintContext):
    """A :class:`~repro.analysis.lint.LintContext` answering from
    frozensets, verifying redundancy probes against a private
    :class:`ReferenceIndex` (:attr:`index`)."""

    @property
    def reach_union(self) -> frozenset:
        if self._reach_union is None:
            reached: set = set()
            for user in self.users:
                reached |= self.policy.descendants(user)
            self._reach_union = frozenset(reached)
        return self._reach_union

    @cached_property
    def index(self) -> ReferenceIndex:
        """The redundancy probes' verifier, built on first use and
        journal-repaired across the probes."""
        return ReferenceIndex(self.policy)

    def _rectangle(self, privilege: Grant) -> tuple:
        source, target = privilege.source, privilege.target
        graph = self.policy.graph
        if source in graph:
            sources = _sorted(ancestors(graph, source), _Entity)
        else:
            sources = [source]
        if target in graph:
            targets = _sorted(self.policy.descendants(target), Role)
        else:
            targets = [target] if isinstance(target, Role) else []
        return sources, targets

    def reachable_privileges_from(self, vertex) -> frozenset:
        cached = self._priv_reach_memo.get(vertex)
        if cached is None:
            cached = self._priv_reach_memo[vertex] = _privileges(
                self.policy.descendants(vertex)
            )
        return cached

    def reaches(self, source, target) -> bool:
        return self.policy.reaches(source, target)

    def constraint_hits(self, subject, constraint: SsdConstraint) -> int:
        reached = _sorted(self.policy.descendants(subject), Role)
        return len(constraint.roles.intersection(reached))

    def user_escalations(self, user: User):
        return _user_escalations(self, user)

    def min_grant_escalation(self, user: User):
        return _min_grant_escalation(self.policy, user, self.escalation_depth)


#: the twin of every :data:`repro.analysis.lint.RULES` entry, in order.
REFERENCE_RULES: dict[str, LintRule] = {}


def _twin(name: str):
    def register(check):
        REFERENCE_RULES[name] = replace(RULES[name], check=check)
        return check
    return register


@_twin("dead-role")
def _dead_role(ctx: ReferenceLintContext):
    return _dead_role_findings(ctx, sorted(
        (role for role in ctx.policy.roles() if role not in ctx.reach_union),
        key=str,
    ))


@_twin("dormant-privilege")
def _dormant_privilege(ctx: ReferenceLintContext):
    policy, reached = ctx.policy, ctx.reach_union
    graph = policy.graph
    unreachable = {p for p in policy.privileges() if p not in reached}
    if not unreachable:
        return ()
    potential: set = set()
    for privilege in _sorted(reached, Grant):
        if isinstance(privilege.target, _Entity):
            sources, targets = ctx.rectangle(privilege)
            if any(
                source in reached
                or source not in graph and isinstance(source, User)
                for source in sources
            ):
                for target in targets:
                    if target in graph:
                        potential |= policy.descendants(target)
        elif privilege.source in reached and privilege.target in graph:
            potential.add(privilege.target)
    return _unassign_findings(
        ctx, "dormant-privilege", sorted(unreachable - potential, key=str)
    )


@_twin("constraint-conflict")
def _constraint_conflict(ctx: ReferenceLintContext):
    policy = ctx.policy
    for constraint in sorted(ctx.constraints, key=lambda c: c.name):
        for user, roles in constraint.violations(policy):
            yield _conflict_finding(
                ctx, constraint, user, sorted(roles, key=str),
                Severity.ERROR, "is authorized for",
            )
        for role in sorted(policy.roles(), key=str):
            hit = constraint.roles.intersection(
                _sorted(policy.descendants(role), Role)
            )
            if len(hit) >= constraint.cardinality:
                yield _conflict_finding(
                    ctx, constraint, role, sorted(hit, key=str),
                    Severity.WARNING, "reaches",
                )


@_twin("irrevocable-authority")
def _irrevocable_authority(ctx: ReferenceLintContext):
    reached = ctx.reach_union
    return _irrevocable_findings(
        ctx,
        sorted((p for p in reached if _entity_target(p, Grant)), key=str),
        frozenset(p.edge for p in reached if _entity_target(p, Revoke)),
    )


@_twin("self-escalation")
def _self_escalation(ctx: ReferenceLintContext):
    return _escalation_findings(ctx, _user_escalations)


def _user_escalations(ctx, user, priv_target_grants=None):
    """:func:`repro.analysis.lint._user_escalations` over ``user``'s
    frozenset reach."""
    graph = ctx.policy.graph
    if priv_target_grants is None:
        priv_target_grants = _priv_target_grants(ctx.policy)
    reach = ctx.policy.descendants(user)
    for privilege in sorted(
        (p for p in reach if _entity_target(p, Grant)), key=str
    ):
        sources, targets = ctx.rectangle(privilege)
        routable = [source for source in sources if source in reach]
        if not routable:
            continue
        for target in targets:
            if target in graph and target not in reach:
                gained = ctx.reachable_privileges_from(target) - reach
                if gained:
                    yield privilege, (
                        routable[0], target, min(gained, key=str)
                    )
                    break
    for privilege in priv_target_grants:
        if (
            privilege in reach
            and privilege.source in reach
            and privilege.target not in reach
        ):
            yield privilege, (
                privilege.source, privilege.target, privilege.target
            )


@_twin("unreachable-under-ssd")
def _unreachable_under_ssd(ctx: ReferenceLintContext):
    if not ctx.constraints:
        return ()
    constraints = sorted(ctx.constraints, key=lambda c: c.name)
    granted = _privileges(ctx.reach_union)
    if not granted:
        return ()
    activatable: set = set()
    for role in _sorted(ctx.reach_union, Role):
        descendants = ctx.policy.descendants(role)
        roles = _sorted(descendants, Role)
        if any(
            len(constraint.roles.intersection(roles)) >= constraint.cardinality
            for constraint in constraints
        ):
            ctx.count("unreachable-under-ssd", "conflicted_roles")
            continue
        activatable |= _privileges(descendants)
    return _unassign_findings(
        ctx, "unreachable-under-ssd", sorted(granted - activatable, key=str)
    )


@_twin("depth-k-escalation")
def _depth_k_escalation(ctx: ReferenceLintContext):
    universe = _depth_k_universe(ctx)
    if universe is None:
        return
    universe_edges, assigned_grants = universe
    scope = ctx.escalation_scope
    vid = ctx.policy.graph._vid
    for user in ctx.users:
        if scope is not None and not scope >> vid[user] & 1:
            continue
        reach = ctx.policy.descendants(user)
        if not any(privilege in reach for privilege in assigned_grants):
            continue
        ctx.count("depth-k-escalation", "users_probed")
        finding = _depth_k_finding(ctx, user, _min_grant_escalation(
            ctx.policy, user, ctx.escalation_depth, universe_edges
        ))
        if finding is not None:
            yield finding


def _depth_k_universe(ctx: ReferenceLintContext) -> tuple[list, list] | None:
    """``(grant-closure edges, assigned grants sorted by str)`` for the
    ``depth-k-escalation`` twin, or None when it has nothing to
    explore."""
    policy = ctx.policy
    if ctx.escalation_depth < 2:
        return None
    universe_edges = _grant_closure_edges(policy)
    if not universe_edges:
        return None
    assigned_grants = _assigned_grants(policy)
    if not assigned_grants:
        return None
    return universe_edges, assigned_grants


def _grant_closure_edges(policy: Policy) -> list[tuple]:
    """Edges of every Grant subterm in the policy's closure — the
    state-independent grant-command universe (grant commands can only
    introduce privileges from this set, see
    :meth:`~repro.core.policy.Policy.subterm_closure`), a superset of
    the held grants the production search explores."""
    return _grant_edges(
        privilege for privilege in policy.subterm_closure()
        if isinstance(privilege, Grant)
    )


def _min_grant_escalation(policy, user, depth, universe_edges=None):
    """:func:`repro.analysis.lint._min_grant_escalation` with a policy
    copy per explored state and ``(edge_set, vertex_set)`` dedup."""
    if universe_edges is None:
        universe_edges = _grant_closure_edges(policy)
    commands = _grant_commands(user, universe_edges)
    initial = _privileges(policy.descendants(user))
    seen = {(policy.edge_set(), policy.vertex_set())}
    frontier = deque([(policy.copy(), ())])
    while frontier:
        state, path = frontier.popleft()
        for command in commands:
            wanted = command.requested_privilege()
            if (
                state.graph.has_edge(command.source, command.target)
                or wanted is None
                or wanted not in state.descendants(user)
            ):
                continue
            child = state.copy()
            child.add_edge(command.source, command.target)
            signature = (child.edge_set(), child.vertex_set())
            if signature in seen:
                continue
            seen.add(signature)
            gained = _privileges(child.descendants(user)) - initial
            if gained:
                return path + (command,), min(gained, key=str)
            if len(path) + 1 < depth:
                frontier.append((child, path + (command,)))
    return None


@_twin("redundant-delegation")
def _redundant_delegation(ctx: ReferenceLintContext):
    policy = ctx.policy
    graph = policy.graph
    # A snapshot: each probe below removes and re-adds its edge.  The
    # order is immaterial — every probe restores the policy exactly,
    # and the session sorts the findings.
    for source, target in ctx.delegation_edges():
        if is_privilege(target) and graph.in_degree(target) == 1:
            continue
        if not any(
            target in policy.descendants(successor)
            for successor in graph.successors(source)
            if successor != target
        ):
            continue
        finding = _probe_redundancy(
            ctx, source, target, _sorted(ancestors(graph, source), User)
        )
        if finding is not None:
            yield finding


def _probe_redundancy(
    ctx: ReferenceLintContext, source, target, upstream: list
) -> Finding | None:
    """Probe one candidate edge exactly: remove it, require that
    ``source`` still reaches ``target`` and, in ``ctx.index``, unchanged
    held privileges for every ``upstream`` user and unchanged effective
    authority for a sample of them, then re-add it.  Returns the
    finding, or None."""
    ctx.count("redundant-delegation", "candidates")
    policy, index = ctx.policy, ctx.index
    before_held = {user: index.held_privileges(user) for user in upstream}
    before_authority = {
        user: index.effective_authority(user) for user in upstream[:8]
    }
    policy.remove_edge(source, target)
    try:
        if target not in policy.descendants(source):
            return None
        verified = all(
            index.held_privileges(user) == before_held[user]
            for user in upstream
        ) and all(
            index.effective_authority(user) == before_authority[user]
            for user in before_authority
        )
        if not verified:
            ctx.count("redundant-delegation", "refuted")
            return None
        # The reroute read in the probed state, where the edge is gone.
        return _redundancy_finding(ctx, source, target)
    finally:
        policy.add_edge(source, target)


class ReferenceLintSession(LintSession):
    """A :class:`~repro.analysis.lint.LintSession` linting with
    :data:`REFERENCE_RULES` over :class:`ReferenceLintContext`.

    The redundancy twin's probes mutate the policy while the rules run
    and restore it exactly, so a re-lint's window has both halves swept
    before the rules start, at the window's version, and the journal
    entries the probes leave are not a change to re-lint (the session
    moves its cursor past them after each lint)."""

    registry = REFERENCE_RULES
    context_class = ReferenceLintContext

    def _dirty(self):
        window = super()._dirty()
        if window is not None:
            window.upstream, window.downstream
        return window


def reference_lint_policy(
    policy: Policy,
    rules: Iterable[str] | None = None,
    constraints: Iterable[SsdConstraint] = (),
    escalation_depth: int = 2,
) -> LintReport:
    """:func:`repro.analysis.lint.lint_policy` with the twins."""
    return ReferenceLintSession(
        policy, rules, constraints, escalation_depth
    ).lint()


def reference_plan_repair(
    policy: Policy,
    finding: Finding,
    constraints: Iterable[SsdConstraint] = (),
    escalation_depth: int = 2,
) -> RepairPlan | None:
    """:func:`repro.analysis.repair.plan_repair` on a reference context."""
    return _plan(
        ReferenceLintContext(policy, tuple(constraints), escalation_depth),
        finding,
    )


def reference_repair_policy(
    policy: Policy,
    rules: Iterable[str] | None = None,
    constraints: Iterable[SsdConstraint] = (),
    severity: Severity = Severity.INFO,
    in_place: bool = False,
    escalation_depth: int = 2,
    max_iterations: int = 12,
    max_cascade: int = 3,
) -> RepairReport:
    """:func:`repro.analysis.repair.repair_policy`'s loop over a
    :class:`ReferenceLintSession`."""
    work = policy if in_place else policy.copy()
    session = ReferenceLintSession(work, rules, constraints, escalation_depth)
    return _repair_loop(
        session, session.lint(), severity, max_iterations, max_cascade
    )
