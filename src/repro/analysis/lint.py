"""Static policy lint: graph-shape hazards without state exploration.

Dekker–Etalle's point is catching dangerous administrative authority
*before* it is exercised.  The exploration engine answers that with
bounded command-sequence search; this module answers it statically —
every rule here is decidable from the policy graph itself, in one
kernel sweep over :class:`~repro.core.policy.PolicyBits` masks and
memoized ``descendants_bits`` masks (``compiled=True``), with the
frozenset representation kept as the differential oracle for every
rule (``compiled=False``).

Rules (see the registry below):

* ``dead-role`` — a role no user reaches;
* ``dormant-privilege`` — an assigned privilege no user reaches and
  no single currently-authorized grant can bring into reach;
* ``redundant-delegation`` — an edge implied by the transitive
  closure: removing it provably preserves every authorization
  (verified against the live :class:`AuthorizationIndex` — or, under
  ``compiled=False``, :class:`~repro.oracle.ReferenceIndex` — not just
  claimed from reachability);
* ``irrevocable-authority`` — a reachable grant privilege covering
  pairs for which no reachable revocation privilege exists;
* ``self-escalation`` — a subject that can grant *itself* a privilege
  it does not hold (the depth-0/1 safety witness; the differential
  suite cross-checks these against :func:`safety.can_obtain`);
* ``constraint-conflict`` — violations and latent role conflicts of
  declared SSD separation sets (:mod:`repro.analysis.constraints`);
* ``unreachable-under-ssd`` — a granted privilege that no
  SSD-compliant session can ever activate (every role reaching it
  collides with a separation set on its own);
* ``depth-k-escalation`` — multi-step self-escalation witnessed by
  bounded grant-only exploration on the shared
  :class:`~repro.core.explore.ExplorationEngine`, beyond the one-step
  ``self-escalation`` witness.

Findings are structured (rule id, severity, subject, witness tuple,
suggested repair command) and deterministically ordered; fuzz
invariants 11 and 13 pin the compiled and frozenset findings identical
under churn and vertex-ID recycling.  Each finding's repair is not
just a string: :mod:`repro.analysis.repair` registers an executable
repair planner per rule and applies the resulting plans under a
refinement gate with a monotone-shrink proof.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..core.authz_index import AuthorizationIndex
from ..core.commands import Command, CommandAction, Mode
from ..core.entities import Role, User
from ..core.explore import ExplorationEngine
from ..core.policy import Policy
from ..core.privileges import Grant, Revoke, is_privilege
from ..errors import AnalysisError
from ..graph import ancestors as graph_ancestors
from ..graph import ancestors_bits, iter_bits
from ..oracle import ReferenceIndex
from .constraints import SsdConstraint


class Severity(enum.IntEnum):
    """Finding severity; comparisons follow the integer order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise AnalysisError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(s.label for s in cls)}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    ``subject`` is the policy element the finding is about (a user,
    role, privilege, or edge source); ``witness`` is a tuple of policy
    elements substantiating it (edges, escalation routes, conflicting
    roles); ``repair`` — when one exists — is the administrative
    privilege whose exercise repairs the finding, in the paper's term
    notation (``grant(v, v')`` / ``revoke(v, v')``).
    """

    rule: str
    severity: Severity
    subject: object
    witness: tuple
    message: str
    repair: str | None = None

    @property
    def sort_key(self) -> tuple:
        return (
            self.rule,
            str(self.subject),
            tuple(str(item) for item in self.witness),
        )

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "subject": str(self.subject),
            "witness": [str(item) for item in self.witness],
            "message": self.message,
            "repair": self.repair,
        }

    def render(self) -> str:
        text = f"{self.severity.label:7} {self.rule}: {self.message}"
        if self.repair:
            text += f"  [repair: {self.repair}]"
        return text


@dataclass(frozen=True)
class LintRule:
    """A registered rule: a pure function from context to findings.

    ``differential`` names the repo-relative test module that pins the
    rule's compiled kernel against its frozenset twin; ``no_repair``
    — mutually exclusive with a registered planner in
    :mod:`repro.analysis.repair` — documents why the rule ships
    without one.  ``tools/check_invariants.py`` enforces that every
    registry entry is fully wired: the differential module must exist
    on disk and exactly one of planner / ``no_repair`` must be set.
    """

    name: str
    severity: Severity
    summary: str
    check: Callable[["LintContext"], Iterator[Finding]]
    differential: str = ""
    no_repair: str | None = None


#: registry in execution order — the mutation-probing rule runs last
#: so the cheap mask sweeps work over an untouched cache.
RULES: dict[str, LintRule] = {}


def _rule(
    name: str,
    severity: Severity,
    summary: str,
    differential: str = "tests/workloads/test_compiled_lint.py",
    no_repair: str | None = None,
):
    def register(check):
        RULES[name] = LintRule(
            name, severity, summary, check, differential, no_repair
        )
        return check
    return register


class LintContext:
    """Shared per-run state: the linted policy, the kernel choice, and
    lazily built reachability aggregates.

    Lint works on the caller's policy directly, so the compiled sweeps
    run over the caller's real interner layout (holes, recycled IDs
    and all — the layouts fuzz invariant 11 must exercise).  The
    redundancy rule's probes restore the policy exactly (edges whose
    removal would garbage-collect a vertex are never probed); the only
    observable side effect of a lint run is version advancement from
    those probes.
    """

    def __init__(
        self,
        policy: Policy,
        compiled: bool,
        constraints: tuple[SsdConstraint, ...],
        escalation_depth: int = 2,
    ):
        self.policy = policy
        self.compiled = compiled
        self.constraints = constraints
        #: exploration bound for the ``depth-k-escalation`` rule.
        self.escalation_depth = escalation_depth
        self.users = sorted(self.policy.users(), key=str)
        self.stats: dict[str, dict[str, int]] = {}
        self._reach_union = None
        self._index: AuthorizationIndex | ReferenceIndex | None = None
        self._rect_memo: dict = {}
        self._priv_reach_memo: dict = {}

    # -- shared aggregates ---------------------------------------------
    @property
    def reach_union(self):
        """Everything reachable from *some* user: a bitmask when
        compiled, a frozenset otherwise."""
        if self._reach_union is None:
            if self.compiled:
                mask = 0
                for user in self.users:
                    mask |= self.policy.descendants_bits(user)
                self._reach_union = mask
            else:
                reached: set = set()
                for user in self.users:
                    reached |= self.policy.descendants(user)
                self._reach_union = frozenset(reached)
        return self._reach_union

    @property
    def index(self) -> AuthorizationIndex | ReferenceIndex:
        """The redundancy rule's verification oracle over the work
        policy: the authorization index when compiled, else
        :class:`~repro.oracle.ReferenceIndex`, so the frozenset run
        keeps a verifier independent of the index."""
        if self._index is None:
            if self.compiled:
                self._index = AuthorizationIndex(self.policy)
            else:
                self._index = ReferenceIndex(self.policy)
        return self._index

    def decode(self, mask: int) -> list:
        """Mask -> vertices, deterministically ordered by ``str``."""
        vertex_of = self.policy.graph._vertex_of
        return sorted(
            (vertex_of[index] for index in iter_bits(mask)), key=str
        )

    def rectangle(self, privilege: Grant) -> tuple:
        """The grant's weaker-pair region, as ``(sources, targets)``
        lists sorted by ``str`` — entity ancestors of the source and
        role descendants of the target, plus the off-graph reflexive
        endpoints (mirroring the index's rectangle compilation)."""
        cached = self._rect_memo.get(privilege)
        if cached is not None:
            return cached
        policy, graph = self.policy, self.policy.graph
        if self.compiled:
            bits = policy.bits
            if privilege.source in graph:
                sources = self.decode(
                    ancestors_bits(graph, privilege.source)
                    & bits.entities_mask
                )
            else:
                sources = [privilege.source]
            if privilege.target in graph:
                targets = self.decode(
                    policy.descendants_bits(privilege.target)
                    & bits.roles_mask
                )
            else:
                targets = (
                    [privilege.target]
                    if isinstance(privilege.target, Role) else []
                )
        else:
            if privilege.source in graph:
                sources = sorted(
                    (
                        vertex
                        for vertex in _frozen_ancestors(graph, privilege.source)
                        if isinstance(vertex, (User, Role))
                    ),
                    key=str,
                )
            else:
                sources = [privilege.source]
            if privilege.target in graph:
                targets = sorted(
                    (
                        vertex
                        for vertex in policy.descendants(privilege.target)
                        if isinstance(vertex, Role)
                    ),
                    key=str,
                )
            else:
                targets = (
                    [privilege.target]
                    if isinstance(privilege.target, Role) else []
                )
        cached = (sources, targets)
        self._rect_memo[privilege] = cached
        return cached

    def reachable_privileges_from(self, vertex):
        """Privileges reachable from ``vertex`` — mask or frozenset."""
        cached = self._priv_reach_memo.get(vertex)
        if cached is None:
            if self.compiled:
                cached = (
                    self.policy.descendants_bits(vertex)
                    & self.policy.bits.privileges_mask
                )
            else:
                cached = frozenset(
                    item
                    for item in self.policy.descendants(vertex)
                    if is_privilege(item)
                )
            self._priv_reach_memo[vertex] = cached
        return cached

    def count(self, rule: str, key: str, value: int = 1) -> None:
        self.stats.setdefault(rule, {})[key] = (
            self.stats.get(rule, {}).get(key, 0) + value
        )


def _frozen_ancestors(graph, vertex):
    return graph_ancestors(graph, vertex)


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run: deterministically ordered findings
    plus per-rule counters (candidates probed, findings verified or
    refuted by the index oracle)."""

    findings: tuple[Finding, ...]
    stats: dict = field(default_factory=dict)
    compiled: bool = True

    def by_rule(self) -> dict[str, tuple[Finding, ...]]:
        grouped: dict[str, list[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule, []).append(finding)
        return {name: tuple(items) for name, items in grouped.items()}

    def max_severity(self) -> Severity | None:
        return max(
            (finding.severity for finding in self.findings), default=None
        )

    def at_or_above(self, severity: Severity) -> tuple[Finding, ...]:
        return tuple(
            finding for finding in self.findings
            if finding.severity >= severity
        )

    def as_dict(self) -> dict:
        return {
            "compiled": self.compiled,
            "findings": [finding.as_dict() for finding in self.findings],
            "stats": self.stats,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def lint_policy(
    policy: Policy,
    rules: Iterable[str] | None = None,
    compiled: bool = True,
    constraints: Iterable[SsdConstraint] = (),
    escalation_depth: int = 2,
) -> LintReport:
    """Run the registered lint rules over ``policy``.

    ``rules`` selects a subset by name (default: all, in registry
    order); ``compiled`` picks the bitset kernel or the frozenset
    oracle — the findings are identical by construction (fuzz
    invariants 11 and 13); ``constraints`` supplies the SSD separation
    sets the ``constraint-conflict`` and ``unreachable-under-ssd``
    rules check; ``escalation_depth`` bounds the
    ``depth-k-escalation`` rule's exploration.
    """
    if rules is None:
        selected = list(RULES.values())
    else:
        names = list(rules)
        unknown = [name for name in names if name not in RULES]
        if unknown:
            raise AnalysisError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
                f"known rules: {', '.join(RULES)}"
            )
        selected = [RULES[name] for name in RULES if name in names]
    context = LintContext(
        policy, compiled, tuple(constraints), escalation_depth
    )
    findings: list[Finding] = []
    for rule in selected:
        findings.extend(rule.check(context))
    findings.sort(key=lambda finding: finding.sort_key)
    return LintReport(
        findings=tuple(findings), stats=context.stats, compiled=compiled
    )


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@_rule(
    "dead-role", Severity.INFO,
    "role reachable from no user",
)
def _dead_role(ctx: LintContext) -> Iterator[Finding]:
    policy = ctx.policy
    if ctx.compiled:
        dead = ctx.decode(policy.bits.roles_mask & ~ctx.reach_union)
    else:
        dead = sorted(
            (role for role in policy.roles() if role not in ctx.reach_union),
            key=str,
        )
    for role in dead:
        successors = sorted(policy.graph.successors(role), key=str)
        repair = (
            f"revoke({role}, {successors[0]})" if successors else None
        )
        yield Finding(
            "dead-role", Severity.INFO, role, (),
            f"role {role} is not reachable from any user",
            repair,
        )


@_rule(
    "dormant-privilege", Severity.INFO,
    "assigned privilege with no user reach and no one-step grant path",
)
def _dormant_privilege(ctx: LintContext) -> Iterator[Finding]:
    """A privilege vertex no user reaches *and* no single
    currently-authorized grant can bring into any user's reach.

    The one-step frontier considers every reachable grant privilege:
    entity-target grants contribute the role descendants of any
    rectangle target whose matching source is itself user-reachable
    (or an off-graph user, which the grant would introduce);
    privilege-target grants contribute their target when the granting
    role is user-reachable.  Deeper chains are exploration's job
    (:func:`repro.analysis.safety.can_obtain`), not lint's.
    """
    policy = ctx.policy
    graph = policy.graph
    if ctx.compiled:
        bits = policy.bits
        unreachable = bits.privileges_mask & ~ctx.reach_union
        if not unreachable:
            return
        potential = 0
        held_grants = ctx.decode(ctx.reach_union & bits.privileges_mask)
        vid = graph._vid
        for privilege in held_grants:
            if not isinstance(privilege, Grant):
                continue
            if isinstance(privilege.target, (User, Role)):
                sources, targets = ctx.rectangle(privilege)
                activatable = any(
                    source in graph
                    and ctx.reach_union >> vid[source] & 1
                    or source not in graph and isinstance(source, User)
                    for source in sources
                )
                if not activatable:
                    continue
                for target in targets:
                    if target in graph:
                        potential |= policy.descendants_bits(target)
            else:
                source_id = vid.get(privilege.source)
                target_id = vid.get(privilege.target)
                if (
                    source_id is not None
                    and ctx.reach_union >> source_id & 1
                    and target_id is not None
                ):
                    potential |= 1 << target_id
        dormant = ctx.decode(unreachable & ~potential)
    else:
        unreachable_set = {
            privilege
            for privilege in policy.privileges()
            if privilege not in ctx.reach_union
        }
        if not unreachable_set:
            return
        potential_set: set = set()
        for privilege in sorted(
            (item for item in ctx.reach_union if isinstance(item, Grant)),
            key=str,
        ):
            if isinstance(privilege.target, (User, Role)):
                sources, targets = ctx.rectangle(privilege)
                activatable = any(
                    source in ctx.reach_union
                    or source not in graph and isinstance(source, User)
                    for source in sources
                )
                if not activatable:
                    continue
                for target in targets:
                    if target in graph:
                        potential_set |= policy.descendants(target)
            else:
                if (
                    privilege.source in ctx.reach_union
                    and privilege.target in graph
                ):
                    potential_set.add(privilege.target)
        dormant = sorted(unreachable_set - potential_set, key=str)
    for privilege in dormant:
        assigners = sorted(graph.predecessors(privilege), key=str)
        repair = (
            f"revoke({assigners[0]}, {privilege})" if assigners else None
        )
        yield Finding(
            "dormant-privilege", Severity.INFO, privilege, tuple(assigners),
            f"privilege {privilege} is assigned but no user reaches it "
            "and no single authorized grant creates a path",
            repair,
        )


@_rule(
    "constraint-conflict", Severity.ERROR,
    "SSD separation-set violation or latent role conflict",
)
def _constraint_conflict(ctx: LintContext) -> Iterator[Finding]:
    policy = ctx.policy
    graph = policy.graph
    for constraint in sorted(ctx.constraints, key=lambda c: c.name):
        if ctx.compiled:
            vid = graph._vid
            set_mask = 0
            for role in constraint.roles:
                index = vid.get(role)
                if index is not None:
                    set_mask |= 1 << index
            for user in ctx.users:
                hit = policy.descendants_bits(user) & set_mask
                if hit.bit_count() >= constraint.cardinality:
                    yield _conflict_finding(
                        ctx, constraint, user, ctx.decode(hit),
                        Severity.ERROR, "is authorized for",
                    )
            for role in sorted(policy.roles(), key=str):
                hit = policy.descendants_bits(role) & set_mask
                if hit.bit_count() >= constraint.cardinality:
                    yield _conflict_finding(
                        ctx, constraint, role, ctx.decode(hit),
                        Severity.WARNING, "reaches",
                    )
        else:
            for user, roles in constraint.violations(policy):
                yield _conflict_finding(
                    ctx, constraint, user, sorted(roles, key=str),
                    Severity.ERROR, "is authorized for",
                )
            for role in sorted(policy.roles(), key=str):
                hit = {
                    item
                    for item in policy.descendants(role)
                    if isinstance(item, Role)
                } & constraint.roles
                if len(hit) >= constraint.cardinality:
                    yield _conflict_finding(
                        ctx, constraint, role, sorted(hit, key=str),
                        Severity.WARNING, "reaches",
                    )


def _conflict_finding(ctx, constraint, subject, roles, severity, verb):
    repair = None
    for successor in sorted(ctx.policy.graph.successors(subject), key=str):
        reached = ctx.policy.descendants(successor)
        if any(role in reached for role in roles):
            repair = f"revoke({subject}, {successor})"
            break
    names = ", ".join(str(role) for role in roles)
    return Finding(
        "constraint-conflict", severity, subject, tuple(roles),
        f"{type(subject).__name__.lower()} {subject} {verb} "
        f"{len(roles)} roles of separation set {constraint.name}: {names}",
        repair,
    )


@_rule(
    "irrevocable-authority", Severity.WARNING,
    "grantable pairs with no reachable revocation privilege",
)
def _irrevocable_authority(ctx: LintContext) -> Iterator[Finding]:
    policy = ctx.policy
    graph = policy.graph
    if ctx.compiled:
        bits = policy.bits
        grants = ctx.decode(ctx.reach_union & bits.grant_entity_mask)
        revocable = frozenset(
            privilege.edge
            for privilege in ctx.decode(
                ctx.reach_union & bits.revoke_entity_mask
            )
        )
    else:
        grants = sorted(
            (
                item for item in ctx.reach_union
                if isinstance(item, Grant)
                and isinstance(item.target, (User, Role))
            ),
            key=str,
        )
        revocable = frozenset(
            item.edge
            for item in ctx.reach_union
            if isinstance(item, Revoke)
            and isinstance(item.target, (User, Role))
        )
    for privilege in grants:
        sources, targets = ctx.rectangle(privilege)
        total = len(sources) * len(targets)
        if total == 0:
            continue
        source_set, target_set = set(sources), set(targets)
        covered = sum(
            1 for source, target in revocable
            if source in source_set and target in target_set
        )
        exposed = total - covered
        ctx.count("irrevocable-authority", "pairs_checked", total)
        if exposed <= 0:
            continue
        witness = None
        for source in sources:
            for target in targets:
                if (source, target) not in revocable:
                    witness = (source, target)
                    break
            if witness:
                break
        holders = sorted(graph.predecessors(privilege), key=str)
        repair = (
            f"grant({holders[0]}, revoke({witness[0]}, {witness[1]}))"
            if holders and witness else None
        )
        yield Finding(
            "irrevocable-authority", Severity.WARNING, privilege,
            witness or (),
            f"{privilege} makes {exposed} of {total} pair(s) grantable "
            "with no reachable revocation privilege",
            repair,
        )


@_rule(
    "self-escalation", Severity.ERROR,
    "subject can grant itself an unheld privilege in one step",
)
def _self_escalation(ctx: LintContext) -> Iterator[Finding]:
    """For each user ``u`` and each grant privilege ``u`` holds: a
    single authorized grant of an edge ``(v, v')`` with ``u ->φ v``
    (the new authority flows back to ``u``) and some privilege below
    ``v'`` that ``u`` does not already reach is a one-step
    self-escalation — the depth-1 safety witness ``can_obtain`` would
    find, read directly off the rectangle masks."""
    priv_target_grants = _priv_target_grants(ctx.policy)
    for user in ctx.users:
        for privilege, witness in _user_escalations(
            ctx, user, priv_target_grants
        ):
            yield _escalation_finding(ctx, user, privilege, witness)


def _priv_target_grants(policy: Policy) -> list[Grant]:
    """Assigned grants whose target is itself a privilege term."""
    return sorted(
        (
            privilege
            for privilege in policy.admin_privileges()
            if isinstance(privilege, Grant)
            and is_privilege(privilege.target)
        ),
        key=str,
    )


def _user_escalations(
    ctx: LintContext,
    user: User,
    priv_target_grants: list[Grant] | None = None,
) -> Iterator[tuple[Grant, tuple]]:
    """One-step self-escalations for ``user``: ``(privilege,
    witness)`` pairs in the order the ``self-escalation`` rule reports
    them.  Shared with the repair planner, which must re-derive
    exactly the escalation a finding reported to sever its route."""
    policy = ctx.policy
    graph = policy.graph
    vid = graph._vid
    if priv_target_grants is None:
        priv_target_grants = _priv_target_grants(policy)

    if ctx.compiled:
        bits = policy.bits
        reach = policy.descendants_bits(user)
        held_grants = ctx.decode(reach & bits.grant_entity_mask)
    else:
        reach = policy.descendants(user)
        held_grants = sorted(
            (
                item for item in reach
                if isinstance(item, Grant)
                and isinstance(item.target, (User, Role))
            ),
            key=str,
        )
    for privilege in held_grants:
        sources, targets = ctx.rectangle(privilege)
        if ctx.compiled:
            routable = [
                source for source in sources
                if source in graph and reach >> vid[source] & 1
            ]
        else:
            routable = [
                source for source in sources if source in reach
            ]
        if not routable:
            continue
        route = routable[0]
        witness = None
        for target in targets:
            if target not in graph:
                continue
            if ctx.compiled:
                if reach >> vid[target] & 1:
                    continue
                gained = (
                    ctx.reachable_privileges_from(target) & ~reach
                )
                if gained:
                    witness = (route, target, ctx.decode(gained)[0])
                    break
            else:
                if target in reach:
                    continue
                gained = ctx.reachable_privileges_from(target) - reach
                if gained:
                    witness = (
                        route, target, min(gained, key=str)
                    )
                    break
        if witness:
            yield privilege, witness
    for privilege in priv_target_grants:
        if ctx.compiled:
            priv_id = vid.get(privilege)
            if priv_id is None or not reach >> priv_id & 1:
                continue
            source_id = vid.get(privilege.source)
            if source_id is None or not reach >> source_id & 1:
                continue
            target_id = vid.get(privilege.target)
            if target_id is not None and reach >> target_id & 1:
                continue
        else:
            if privilege not in reach:
                continue
            if privilege.source not in reach:
                continue
            if privilege.target in reach:
                continue
        yield privilege, (
            privilege.source, privilege.target, privilege.target
        )


def _escalation_finding(ctx, user, privilege, witness) -> Finding:
    route, target, gained = witness
    holders = sorted(ctx.policy.graph.predecessors(privilege), key=str)
    return Finding(
        "self-escalation", Severity.ERROR, user, witness,
        f"user {user} holds {privilege} and can grant "
        f"({route} -> {target}) to obtain {gained} it does not hold",
        f"revoke({holders[0]}, {privilege})" if holders else None,
    )


@_rule(
    "unreachable-under-ssd", Severity.WARNING,
    "granted privilege no SSD-compliant session can activate",
)
def _unreachable_under_ssd(ctx: LintContext) -> Iterator[Finding]:
    """A privilege some user reaches on paper, but which no compliant
    session can ever activate: every role that reaches it collides
    with a declared SSD separation set when activated on its own.

    Single-role sessions suffice as the compliance probe: privilege
    reach is monotone in the activated role set, so a privilege is
    activatable by *some* compliant session iff it is activatable by a
    compliant session of one role — and adding roles to a session only
    ever adds separation-set hits, never removes them.
    """
    if not ctx.constraints:
        return
    policy = ctx.policy
    graph = policy.graph
    constraints = sorted(ctx.constraints, key=lambda c: c.name)
    if ctx.compiled:
        bits = policy.bits
        vid = graph._vid
        set_masks = []
        for constraint in constraints:
            mask = 0
            for role in constraint.roles:
                index = vid.get(role)
                if index is not None:
                    mask |= 1 << index
            set_masks.append((mask, constraint.cardinality))
        granted = ctx.reach_union & bits.privileges_mask
        if not granted:
            return
        activatable = 0
        for role in ctx.decode(ctx.reach_union & bits.roles_mask):
            descendants = policy.descendants_bits(role)
            if any(
                (descendants & mask).bit_count() >= cardinality
                for mask, cardinality in set_masks
            ):
                ctx.count("unreachable-under-ssd", "conflicted_roles")
                continue
            activatable |= descendants & bits.privileges_mask
        flagged = ctx.decode(granted & ~activatable)
    else:
        granted_set = {
            item for item in ctx.reach_union if is_privilege(item)
        }
        if not granted_set:
            return
        activatable_set: set = set()
        reachable_roles = sorted(
            (item for item in ctx.reach_union if isinstance(item, Role)),
            key=str,
        )
        for role in reachable_roles:
            descendants = policy.descendants(role)
            role_descendants = {
                item for item in descendants if isinstance(item, Role)
            }
            if any(
                len(role_descendants & constraint.roles)
                >= constraint.cardinality
                for constraint in constraints
            ):
                ctx.count("unreachable-under-ssd", "conflicted_roles")
                continue
            activatable_set |= {
                item for item in descendants if is_privilege(item)
            }
        flagged = sorted(granted_set - activatable_set, key=str)
    for privilege in flagged:
        assigners = sorted(graph.predecessors(privilege), key=str)
        repair = (
            f"revoke({assigners[0]}, {privilege})" if assigners else None
        )
        yield Finding(
            "unreachable-under-ssd", Severity.WARNING, privilege,
            tuple(assigners),
            f"privilege {privilege} is granted but every role reaching "
            "it violates a separation set when activated alone",
            repair,
        )


@_rule(
    "depth-k-escalation", Severity.ERROR,
    "multi-step self-escalation within the exploration depth bound",
)
def _depth_k_escalation(ctx: LintContext) -> Iterator[Finding]:
    """A user who can obtain an unheld privilege by chaining *several*
    grants — the witness ``self-escalation`` cannot see, found by
    bounded exploration of the grant-only transition system on the
    shared :class:`~repro.core.explore.ExplorationEngine` (push/pop,
    not per-state copies).  Users whose shallowest escalation is one
    step are reported by ``self-escalation`` and skipped here; the
    depth bound is ``LintContext.escalation_depth`` (default 2).
    """
    policy = ctx.policy
    graph = policy.graph
    depth = ctx.escalation_depth
    if depth < 2:
        return
    universe_edges = _grant_closure_edges(policy)
    if not universe_edges:
        return
    assigned_grants = sorted(
        (
            privilege
            for privilege in policy.admin_privileges()
            if isinstance(privilege, Grant)
        ),
        key=str,
    )
    if not assigned_grants:
        return
    if ctx.compiled:
        vid = graph._vid
        grant_mask = 0
        for privilege in assigned_grants:
            index = vid.get(privilege)
            if index is not None:
                grant_mask |= 1 << index
    for user in ctx.users:
        # A first step needs an initially reachable grant privilege —
        # prune users who hold none before paying for an engine.
        if ctx.compiled:
            if not policy.descendants_bits(user) & grant_mask:
                continue
        else:
            reach = policy.descendants(user)
            if not any(
                privilege in reach for privilege in assigned_grants
            ):
                continue
        ctx.count("depth-k-escalation", "users_probed")
        found = _min_grant_escalation(
            policy, user, depth, ctx.compiled, universe_edges
        )
        if found is None:
            continue
        commands, gained = found
        if len(commands) < 2:
            # One-step escalations are the self-escalation rule's
            # domain; reporting them twice would double-count.
            continue
        steps = tuple(
            command.requested_privilege() for command in commands
        )
        first = steps[0]
        holders = (
            sorted(graph.predecessors(first), key=str)
            if first in graph else []
        )
        chain = ", ".join(str(term) for term in steps)
        yield Finding(
            "depth-k-escalation", Severity.ERROR, user,
            steps + (gained,),
            f"user {user} obtains {gained} it does not hold via "
            f"{len(steps)} chained grants ({chain})",
            f"revoke({holders[0]}, {first})" if holders else None,
        )


def _grant_closure_edges(policy: Policy) -> list[tuple]:
    """Edges of every Grant subterm in the policy's closure — the
    state-independent grant-command universe for depth-k exploration
    (grant commands can only introduce privileges from this set, see
    :meth:`~repro.core.policy.Policy.subterm_closure`)."""
    return sorted(
        {
            privilege.edge
            for privilege in policy.subterm_closure()
            if isinstance(privilege, Grant)
        },
        key=lambda edge: (str(edge[0]), str(edge[1])),
    )


def _min_grant_escalation(
    policy: Policy,
    user: User,
    depth: int,
    compiled: bool,
    universe_edges: list[tuple] | None = None,
) -> tuple[tuple, object] | None:
    """Breadth-first search of the grant-only transition system for
    the shallowest state where ``user`` reaches a privilege it cannot
    reach initially; returns ``(commands, gained)`` — the witnessing
    command path and the least gained privilege by ``str`` — or None
    when no state within ``depth`` steps escalates.

    Grant-only exploration is sound for minimality: privilege reach is
    monotone in the edge set, so a revoke can never *create* an
    escalation that a grant-only prefix would miss.  The compiled path
    explores one mutable engine via push/pop; the frozenset path
    re-derives the same frontier with per-state copies.  Candidate
    order, authorization semantics, and value-keyed state dedup are
    identical, so both return the same witness (fuzz invariant 13).
    """
    if universe_edges is None:
        universe_edges = _grant_closure_edges(policy)
    commands = [
        Command(user, CommandAction.GRANT, source, target)
        for source, target in universe_edges
    ]
    if compiled:
        engine = ExplorationEngine(policy, Mode.STRICT, universe=commands)
        state = engine.policy
        initial = state.descendants_bits(user) & engine.privileges_mask
        seen = {engine.fingerprint}
        queue: deque = deque([()])
        while queue:
            path = queue.popleft()
            engine.goto(path)
            for command in engine.effective_commands():
                engine.push(command)
                fingerprint = engine.fingerprint
                if fingerprint in seen:
                    engine.pop()
                    continue
                seen.add(fingerprint)
                gained = (
                    state.descendants_bits(user)
                    & engine.privileges_mask & ~initial
                )
                if gained:
                    vertex_of = state.graph._vertex_of
                    least = sorted(
                        (vertex_of[index] for index in iter_bits(gained)),
                        key=str,
                    )[0]
                    return engine.path, least
                if len(path) + 1 < depth:
                    queue.append(path + (command,))
                engine.pop()
        return None
    initial_set = frozenset(
        item for item in policy.descendants(user) if is_privilege(item)
    )
    start = policy.copy()
    seen_states = {(start.edge_set(), start.vertex_set())}
    frontier: deque = deque([(start, ())])
    while frontier:
        state, path = frontier.popleft()
        for command in commands:
            if state.graph.has_edge(command.source, command.target):
                continue
            wanted = command.requested_privilege()
            if wanted is None:
                continue
            if wanted not in state.descendants(user):
                continue
            child = state.copy()
            child.add_edge(command.source, command.target)
            signature = (child.edge_set(), child.vertex_set())
            if signature in seen_states:
                continue
            seen_states.add(signature)
            gained_set = frozenset(
                item for item in child.descendants(user)
                if is_privilege(item)
            ) - initial_set
            if gained_set:
                return path + (command,), min(gained_set, key=str)
            if len(path) + 1 < depth:
                frontier.append((child, path + (command,)))
    return None


@_rule(
    "redundant-delegation", Severity.INFO,
    "edge implied by the transitive closure; removal preserves authorizes",
)
def _redundant_delegation(ctx: LintContext) -> Iterator[Finding]:
    """An edge ``(a, b)`` with ``b`` still reachable from ``a`` after
    the edge's removal is implied by the rest of the policy: every
    path through it reroutes, so the *entire* reachability relation —
    and with it every authorization — is preserved.  Each candidate is
    probed exactly (remove, test, re-add — the policy is restored
    verbatim) and then verified against the authorization index:
    the held-privilege sets of every user upstream of ``a``, and the
    effective authority of a bounded sample of them, must be
    unchanged by the removal.  Findings that fail verification are
    dropped and counted as refuted (none should ever be)."""
    policy = ctx.policy
    graph = policy.graph
    index = ctx.index
    # A snapshot: each probe below removes and re-adds its edge.  The
    # order is immaterial — every probe restores the policy exactly,
    # and lint_policy sorts the findings.
    for source, target in list(graph.edges()):
        if is_privilege(target) and graph.in_degree(target) == 1:
            # Sole assignment: removal would garbage-collect the
            # privilege vertex; never redundant.
            continue
        # Cheap necessary condition: some other out-edge of ``source``
        # already reaches ``target`` (possibly via a cycle through the
        # candidate edge, hence the exact probe below).
        if ctx.compiled:
            target_id = graph._vid[target]
            likely = any(
                policy.descendants_bits(successor) >> target_id & 1
                for successor in graph.successors(source)
                if successor != target
            )
        else:
            likely = any(
                target in policy.descendants(successor)
                for successor in graph.successors(source)
                if successor != target
            )
        if not likely:
            continue
        ctx.count("redundant-delegation", "candidates")
        if ctx.compiled:
            upstream = ctx.decode(
                ancestors_bits(graph, source) & policy.bits.users_mask
            )
        else:
            upstream = sorted(
                (
                    vertex
                    for vertex in _frozen_ancestors(graph, source)
                    if isinstance(vertex, User)
                ),
                key=str,
            )
        before_held = {
            user: index.held_privileges(user) for user in upstream
        }
        before_authority = {
            user: index.effective_authority(user)
            for user in upstream[:8]
        }
        policy.remove_edge(source, target)
        try:
            if ctx.compiled:
                still = bool(
                    policy.descendants_bits(source)
                    >> graph._vid[target] & 1
                )
            else:
                still = target in policy.descendants(source)
            if not still:
                continue
            verified = all(
                index.held_privileges(user) == before_held[user]
                for user in upstream
            ) and all(
                index.effective_authority(user) == before_authority[user]
                for user in before_authority
            )
            if not verified:
                ctx.count("redundant-delegation", "refuted")
                continue
            ctx.count("redundant-delegation", "verified")
            reroute = next(
                successor
                for successor in sorted(graph.successors(source), key=str)
                if policy.reaches(successor, target)
            )
        finally:
            policy.add_edge(source, target)
        yield Finding(
            "redundant-delegation", Severity.INFO, source,
            (source, target, reroute),
            f"edge ({source} -> {target}) is implied by the rest of the "
            f"policy (reroutes via {reroute}); removing it preserves "
            "every authorization",
            f"revoke({source}, {target})",
        )


__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "Severity",
    "lint_policy",
]
