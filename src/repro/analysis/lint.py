"""Static policy lint: graph-shape hazards without state exploration.

Dekker–Etalle's point is catching dangerous administrative authority
*before* it is exercised.  The exploration engine answers that with
bounded command-sequence search; this module answers it statically —
every rule here is decidable from the policy graph itself, in one
kernel sweep over :class:`~repro.core.policy.PolicyBits` masks and
memoized ``descendants_bits`` masks.  Every rule has a frozenset twin
of the same name in :data:`repro.oracle.REFERENCE_RULES`, run by
:func:`repro.oracle.reference_lint_policy` as the differential
oracle.

Rules (see the registry below):

* ``dead-role`` — a role no user reaches;
* ``dormant-privilege`` — an assigned privilege no user reaches and
  no single currently-authorized grant can bring into reach;
* ``redundant-delegation`` — an edge implied by the transitive
  closure: removing it provably preserves every authorization
  (verified against the policy's own :class:`AuthorizationIndex`, not
  just claimed from reachability);
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
invariants 11 and 13 pin them identical to the reference rules'
findings under churn and vertex-ID recycling.
:mod:`repro.analysis.repair` registers an executable repair planner
per rule and applies the plans under a refinement gate with a
monotone-shrink proof.

Repeated lints of one policy go through a :class:`LintSession`
(:func:`lint_policy` is a fresh session's first lint).  The session
keeps a journal cursor and its last findings; the redundancy rule
verifies against the policy's own index (:attr:`Policy.index
<repro.core.policy.Policy.index>`), which outlives the session, so a
one-shot lint and a later session — or an audit — share one build.
Each re-lint reads the policy's change journal, computes the burst's
dirty region once, and evaluates ``redundant-delegation`` and
``self-escalation`` only over that region, carrying their other
findings over, while the other six rules re-run in full.  It falls
back to a full run when the journal has expired or the burst is
heavier than :attr:`LintSession.DELTA_LIMIT`.  A re-lint's findings
equal a fresh full lint's (invariant 11 pins this against the
reference oracle); its ``stats`` count only the work its pass did.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..core.authz_index import AuthorizationIndex, stale_grants
from ..core.commands import Command, CommandAction, Mode
from ..core.entities import Role, User
from ..core.explore import ExplorationEngine
from ..core.policy import Policy
from ..core.privileges import Grant, is_privilege
from ..errors import AnalysisError
from ..graph import (
    DeltaSummary,
    ancestors_bits,
    dirty_region_bits,
    iter_bits,
    summarize_deltas,
)
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
    rule against its frozenset twin in
    :data:`repro.oracle.REFERENCE_RULES`; ``no_repair``
    — mutually exclusive with a registered planner in
    :mod:`repro.analysis.repair` — documents why the rule ships
    without one.  ``tools/check_invariants.py`` enforces that every
    registry entry is fully wired: the differential module must exist
    on disk, exactly one of planner / ``no_repair`` must be set, and the
    rule must have a reference twin (and every twin a rule).

    ``carries`` marks a rule scoped to a :class:`LintSession`'s dirty
    region: on a re-lint the check evaluates only the subjects in the
    region, and ``carries(ctx, finding)`` says whether a previous
    finding lies outside it and therefore still stands.  A rule
    without one re-runs in full on every re-lint.
    """

    name: str
    severity: Severity
    summary: str
    check: Callable[["LintContext"], Iterator[Finding]]
    differential: str = ""
    no_repair: str | None = None
    carries: Callable[["LintContext", Finding], bool] | None = None


#: registry in execution order — the mutation-probing rule runs last
#: so the cheap mask sweeps work over an untouched cache.
RULES: dict[str, LintRule] = {}


def _rule(
    name: str,
    severity: Severity,
    summary: str,
    differential: str = "tests/workloads/test_compiled_lint.py",
    no_repair: str | None = None,
    carries: Callable[["LintContext", Finding], bool] | None = None,
):
    def register(check):
        RULES[name] = LintRule(
            name, severity, summary, check, differential, no_repair,
            carries,
        )
        return check
    return register


class LintContext:
    """Shared per-run state: the linted policy, lazily built
    reachability aggregates, and — on a :class:`LintSession` re-lint —
    the dirty region the scoped rules evaluate.

    Lint works on the caller's policy directly, so the mask sweeps
    run over the caller's real interner layout (holes, recycled IDs
    and all — the layouts fuzz invariant 11 must exercise).  The
    redundancy rule's probes restore the policy exactly (edges whose
    removal would garbage-collect a vertex are never probed); the
    observable side effects of a lint run are version advancement from
    those probes and, once a redundancy candidate is probed, a built
    :attr:`Policy.index <repro.core.policy.Policy.index>`, which the
    probes' journal entries repair on its next read.

    ``summary`` / ``region`` are the re-lint's delta summary and its
    :func:`~repro.graph.dirty_region_bits` tuple, both None on a full
    run; rules read their domain through :meth:`delegation_edges` and
    :attr:`escalation_scope`, never from the region directly.

    The aggregates and the planner queries (:meth:`reaches` and the
    three after it) are the kernel surface a reference context
    (:class:`repro.oracle.ReferenceLintContext`) overrides with its
    frozenset answers; the rules themselves read the masks inline.
    """

    def __init__(
        self,
        policy: Policy,
        constraints: tuple[SsdConstraint, ...],
        escalation_depth: int = 2,
        *,
        summary: DeltaSummary | None = None,
        region: tuple | None = None,
    ):
        self.policy = policy
        self.constraints = constraints
        #: exploration bound for the ``depth-k-escalation`` rule.
        self.escalation_depth = escalation_depth
        self.users = sorted(self.policy.users(), key=str)
        self.stats: dict[str, dict[str, int]] = {}
        self.summary = summary
        self.region = region
        self._reach_union = None
        self._index = None
        self._escalation_scope: int | None = None
        self._rect_memo: dict = {}
        self._priv_reach_memo: dict = {}

    # -- re-lint domains -----------------------------------------------
    def delegation_edges(self) -> list[tuple]:
        """The edges the ``redundant-delegation`` rule evaluates: every
        edge on a full run; on a re-lint only the edges ``(a, b)`` with
        ``a`` upstream and ``b`` downstream of the mutated edges.

        A reroute ``a ⇝ b`` gained or lost by the burst must cross a
        mutated edge ``(s, t)``.  Cut it at its first mutated edge: the
        prefix ``a ⇝ s`` uses no mutated edge, so it exists in the
        current graph too and ``a`` is upstream; cut it at its last
        and ``b`` is downstream, by the same argument.  The
        sole-assignment skip and the ``reroute`` witness (the least
        successor of ``a`` reaching ``b``) change only along such
        reroutes, or with a mutated edge at ``a`` or into ``b``.
        """
        graph = self.policy.graph
        if self.region is None:
            return list(graph.edges())
        upstream, downstream = self.region[0], self.region[1]
        vid, vertex_of = graph._vid, graph._vertex_of
        edges = []
        for index in iter_bits(upstream):
            source = vertex_of[index]
            for target in graph.successors(source):
                if downstream >> vid[target] & 1:
                    edges.append((source, target))
        return edges

    def delegation_dirty(self, source, target) -> bool:
        """Whether the in-graph edge ``(source, target)`` lies in the
        re-lint's redundancy domain (see :meth:`delegation_edges`)."""
        vid = self.policy.graph._vid
        return bool(
            self.region[0] >> vid[source] & 1
            and self.region[1] >> vid[target] & 1
        )

    @property
    def escalation_scope(self) -> int | None:
        """The users the ``self-escalation`` rule re-checks on a
        re-lint, as a mask over user vertex IDs (None on a full run).

        A user's one-step escalations are a function of its reach, the
        rectangles of the grants it holds, and the assigners of those
        grants (the finding's ``repair`` names the first).  So the
        scope is the union of the users upstream of the mutated edges
        (reach), the holders of every stale grant
        (:func:`~repro.core.authz_index.stale_grants`: rectangle), and
        the holders of every privilege that is a mutated edge's
        target (assigners).  Any other user holds the same grants, with
        the same rectangles and assigners, as at the last lint.
        """
        if self.region is None:
            return None
        if self._escalation_scope is None:
            policy = self.policy
            graph = policy.graph
            bits = policy.bits
            seeds = stale_grants(policy, self.summary, self.region)
            vid = graph._vid
            for vertex in self.summary.edge_targets:
                index = vid.get(vertex)
                if index is not None:
                    seeds |= 1 << index & bits.privileges_mask
            # Ancestor sets are ancestor-closed, so a seed already
            # covered needs no sweep of its own.
            holders = self.region[0]
            vertex_of = graph._vertex_of
            for index in iter_bits(seeds):
                if not holders >> index & 1:
                    holders |= ancestors_bits(graph, vertex_of[index])
            self._escalation_scope = holders & bits.users_mask
        return self._escalation_scope

    # -- shared aggregates ---------------------------------------------
    @property
    def reach_union(self):
        """Everything reachable from *some* user, as a mask."""
        if self._reach_union is None:
            mask = 0
            for user in self.users:
                mask |= self.policy.descendants_bits(user)
            self._reach_union = mask
        return self._reach_union

    @property
    def index(self) -> AuthorizationIndex:
        """The redundancy rule's verification oracle over the work
        policy: the policy's own authorization index
        (:attr:`Policy.index <repro.core.policy.Policy.index>`)."""
        if self._index is None:
            self._index = self.policy.index
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
        if cached is None:
            cached = self._rect_memo[privilege] = self._rectangle(privilege)
        return cached

    def _rectangle(self, privilege: Grant) -> tuple:
        policy, graph = self.policy, self.policy.graph
        bits = policy.bits
        if privilege.source in graph:
            sources = self.decode(
                ancestors_bits(graph, privilege.source) & bits.entities_mask
            )
        else:
            sources = [privilege.source]
        if privilege.target in graph:
            targets = self.decode(
                policy.descendants_bits(privilege.target) & bits.roles_mask
            )
        else:
            targets = (
                [privilege.target] if isinstance(privilege.target, Role)
                else []
            )
        return sources, targets

    def reachable_privileges_from(self, vertex):
        """Privileges reachable from ``vertex``, as a mask."""
        cached = self._priv_reach_memo.get(vertex)
        if cached is None:
            cached = self._priv_reach_memo[vertex] = (
                self.policy.descendants_bits(vertex)
                & self.policy.bits.privileges_mask
            )
        return cached

    # -- planner queries -----------------------------------------------
    def reaches(self, source, target) -> bool:
        """``source`` reaches ``target`` in the policy graph."""
        index = self.policy.graph._vid.get(target)
        if index is None:
            return source == target
        return bool(self.policy.descendants_bits(source) >> index & 1)

    def constraint_hits(self, subject, constraint: SsdConstraint) -> int:
        """How many roles of ``constraint`` ``subject`` reaches."""
        vid = self.policy.graph._vid
        mask = 0
        for role in constraint.roles:
            index = vid.get(role)
            if index is not None:
                mask |= 1 << index
        return (self.policy.descendants_bits(subject) & mask).bit_count()

    def user_escalations(self, user: User) -> Iterator[tuple[Grant, tuple]]:
        """``user``'s one-step self-escalations, in rule order."""
        return _user_escalations(self, user)

    def min_grant_escalation(self, user: User) -> tuple[tuple, object] | None:
        """``user``'s shallowest grant-only escalation within the
        context's depth bound (see :func:`_min_grant_escalation`)."""
        return _min_grant_escalation(
            self.policy, user, self.escalation_depth
        )

    def count(self, rule: str, key: str, value: int = 1) -> None:
        self.stats.setdefault(rule, {})[key] = (
            self.stats.get(rule, {}).get(key, 0) + value
        )


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run: deterministically ordered findings
    plus per-rule counters (candidates probed, findings verified or
    refuted by the index oracle)."""

    findings: tuple[Finding, ...]
    stats: dict = field(default_factory=dict)

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
            "findings": [finding.as_dict() for finding in self.findings],
            "stats": self.stats,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def lint_policy(
    policy: Policy,
    rules: Iterable[str] | None = None,
    constraints: Iterable[SsdConstraint] = (),
    escalation_depth: int = 2,
) -> LintReport:
    """Run the registered lint rules over ``policy``: a fresh
    :class:`LintSession`'s first, full, lint.

    ``rules`` selects a subset by name (default: all, in registry
    order); ``constraints`` supplies the SSD separation
    sets the ``constraint-conflict`` and ``unreachable-under-ssd``
    rules check; ``escalation_depth`` bounds the
    ``depth-k-escalation`` rule's exploration.
    """
    return LintSession(policy, rules, constraints, escalation_depth).lint()


def _select_rules(
    registry: dict[str, LintRule], rules: Iterable[str] | None
) -> list[LintRule]:
    if rules is None:
        return list(registry.values())
    names = list(rules)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise AnalysisError(
            f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
            f"known rules: {', '.join(registry)}"
        )
    return [registry[name] for name in registry if name in names]


class LintSession:
    """Repeated lints of one policy that pay for what changed.

    The session keeps, across lints, a journal cursor and its last
    findings per rule — nothing else.  The redundancy rule verifies
    against the policy's own index (:attr:`Policy.index
    <repro.core.policy.Policy.index>`), which lives as long as the
    policy and repairs itself from its own cursor, so every session
    and one-shot lint of a policy shares one build.

    The first :meth:`lint` is a full run.  Each later one takes the
    journal since the cursor, computes the burst's dirty region once
    (:func:`~repro.graph.dirty_region_bits`), and evaluates the rules
    with a ``carries`` predicate (``redundant-delegation``,
    ``self-escalation``) only over that region — see :meth:`LintContext.delegation_edges` and
    :attr:`LintContext.escalation_scope` — carrying their other
    findings over; every other rule re-runs in full.  A re-lint runs
    the same rule code as a full lint, and its findings equal a fresh
    full lint of the same state (fuzz invariant 11 pins this against
    the reference oracle).

    A re-lint falls back to a full run when the journal no longer
    reaches back to the cursor, or when the burst's weight
    (:func:`~repro.graph.summarize_deltas`) exceeds
    :attr:`DELTA_LIMIT`.  A report's ``stats`` count the work its own
    pass did, so a re-lint's are smaller than a full lint's.

    ``baseline`` adopts a full lint of ``policy`` at its current
    state, made with the same rules, constraints and depth, as the
    session's first lint: the repair driver lints through
    :func:`lint_policy` first and then continues in a session, both
    over one build of its work policy's index.

    The session is also the repair driver's seam: planners run on
    :meth:`context`, so :class:`repro.oracle.ReferenceLintSession`,
    which swaps in the reference rules and context, drives the same
    repair loop on the frozenset twins.
    """

    #: delta bursts heavier than this re-lint in full.
    DELTA_LIMIT = 64
    #: the rules a session selects from, and the context they run on.
    registry = RULES
    context_class = LintContext

    def __init__(
        self,
        policy: Policy,
        rules: Iterable[str] | None = None,
        constraints: Iterable[SsdConstraint] = (),
        escalation_depth: int = 2,
        baseline: LintReport | None = None,
    ):
        self.policy = policy
        self.rules = _select_rules(self.registry, rules)
        self.constraints = tuple(constraints)
        self.escalation_depth = escalation_depth
        self._cursor = policy.journal_cursor()
        self._findings: dict[str, list[Finding]] | None = None
        if baseline is not None:
            self._findings = {
                name: list(found)
                for name, found in baseline.by_rule().items()
            }

    def _dirty(self) -> tuple[DeltaSummary, tuple] | None:
        """The burst since the last lint and its dirty region, or None
        when this lint must be a full run."""
        if self._findings is None:
            return None
        deltas = self._cursor.take()
        if deltas is None:
            return None
        summary = summarize_deltas(deltas)
        if summary.weight > self.DELTA_LIMIT:
            return None
        return summary, dirty_region_bits(
            self.policy.graph, summary.edge_sources, summary.edge_targets
        )

    def context(
        self, summary: DeltaSummary | None = None, region: tuple | None = None
    ) -> LintContext:
        """A context over the policy in its current state (a full run's
        unless ``summary`` / ``region`` scope it)."""
        return self.context_class(
            self.policy, self.constraints, self.escalation_depth,
            summary=summary, region=region,
        )

    def lint(self) -> LintReport:
        """Lint the policy in its current state."""
        summary, region = self._dirty() or (None, None)
        context = self.context(summary, region)
        previous = self._findings
        by_rule: dict[str, list[Finding]] = {}
        for rule in self.rules:
            found = list(rule.check(context))
            if region is not None and rule.carries is not None:
                found.extend(
                    finding for finding in previous.get(rule.name, ())
                    if rule.carries(context, finding)
                )
            by_rule[rule.name] = found
        self._findings = by_rule
        # The redundancy probes restored the policy exactly, so the
        # journal entries they left are not a change to re-lint.
        self._cursor.version = self.policy.version
        findings = [finding for found in by_rule.values() for finding in found]
        findings.sort(key=lambda finding: finding.sort_key)
        return LintReport(findings=tuple(findings), stats=context.stats)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
# Each rule computes its subjects over masks and emits findings through
# a helper that the reference twin of the same name
# (:mod:`repro.oracle.lint`) shares.
@_rule(
    "dead-role", Severity.INFO,
    "role reachable from no user",
)
def _dead_role(ctx: LintContext) -> Iterator[Finding]:
    return _dead_role_findings(
        ctx, ctx.decode(ctx.policy.bits.roles_mask & ~ctx.reach_union)
    )


def _dead_role_findings(ctx: LintContext, dead: list) -> Iterator[Finding]:
    for role in dead:
        successors = sorted(ctx.policy.graph.successors(role), key=str)
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
    bits = policy.bits
    unreachable = bits.privileges_mask & ~ctx.reach_union
    if not unreachable:
        return ()
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
    return _unassign_findings(
        ctx, "dormant-privilege", ctx.decode(unreachable & ~potential)
    )


#: why a privilege is flagged, for the rules whose repair unassigns it.
_UNASSIGN_REASONS = {
    "dormant-privilege": "is assigned but no user reaches it and no "
                         "single authorized grant creates a path",
    "unreachable-under-ssd": "is granted but every role reaching it "
                             "violates a separation set when activated "
                             "alone",
}


def _unassign_findings(
    ctx: LintContext, rule: str, privileges: list
) -> Iterator[Finding]:
    """One ``rule`` finding per privilege, witnessed by its assigners
    and repaired by revoking the first assignment."""
    graph = ctx.policy.graph
    for privilege in privileges:
        assigners = sorted(graph.predecessors(privilege), key=str)
        repair = (
            f"revoke({assigners[0]}, {privilege})" if assigners else None
        )
        yield Finding(
            rule, RULES[rule].severity, privilege, tuple(assigners),
            f"privilege {privilege} {_UNASSIGN_REASONS[rule]}",
            repair,
        )


@_rule(
    "constraint-conflict", Severity.ERROR,
    "SSD separation-set violation or latent role conflict",
)
def _constraint_conflict(ctx: LintContext) -> Iterator[Finding]:
    policy = ctx.policy
    vid = policy.graph._vid
    for constraint in sorted(ctx.constraints, key=lambda c: c.name):
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
    bits = ctx.policy.bits
    return _irrevocable_findings(
        ctx,
        ctx.decode(ctx.reach_union & bits.grant_entity_mask),
        frozenset(
            privilege.edge
            for privilege in ctx.decode(
                ctx.reach_union & bits.revoke_entity_mask
            )
        ),
    )


def _irrevocable_findings(
    ctx: LintContext, grants: list, revocable: frozenset
) -> Iterator[Finding]:
    """Findings for the reachable entity-target ``grants`` whose
    rectangles hold pairs outside the ``revocable`` edges."""
    graph = ctx.policy.graph
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


def _carries_escalation(ctx: LintContext, finding: Finding) -> bool:
    index = ctx.policy.graph._vid.get(finding.subject)
    return index is not None and not ctx.escalation_scope >> index & 1


@_rule(
    "self-escalation", Severity.ERROR,
    "subject can grant itself an unheld privilege in one step",
    carries=_carries_escalation,
)
def _self_escalation(ctx: LintContext) -> Iterator[Finding]:
    """For each user ``u`` and each grant privilege ``u`` holds: a
    single authorized grant of an edge ``(v, v')`` with ``u ->φ v``
    (the new authority flows back to ``u``) and some privilege below
    ``v'`` that ``u`` does not already reach is a one-step
    self-escalation — the depth-1 safety witness ``can_obtain`` would
    find, read directly off the rectangle masks.  A re-lint checks
    only the users of :attr:`LintContext.escalation_scope`."""
    return _escalation_findings(ctx, _user_escalations)


def _escalation_findings(ctx: LintContext, user_escalations):
    """The ``self-escalation`` findings of the users in scope, each
    user's escalations listed by ``user_escalations(ctx, user,
    priv_target_grants)``."""
    priv_target_grants = _priv_target_grants(ctx.policy)
    scope = ctx.escalation_scope
    vid = ctx.policy.graph._vid
    for user in ctx.users:
        if scope is not None and not scope >> vid[user] & 1:
            continue
        for privilege, witness in user_escalations(
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
    them.  Shared with the repair planner (through
    :meth:`LintContext.user_escalations`), which must re-derive
    exactly the escalation a finding reported to sever its route."""
    policy = ctx.policy
    graph = policy.graph
    vid = graph._vid
    if priv_target_grants is None:
        priv_target_grants = _priv_target_grants(policy)
    bits = policy.bits
    reach = policy.descendants_bits(user)
    for privilege in ctx.decode(reach & bits.grant_entity_mask):
        sources, targets = ctx.rectangle(privilege)
        routable = [
            source for source in sources
            if source in graph and reach >> vid[source] & 1
        ]
        if not routable:
            continue
        route = routable[0]
        witness = None
        for target in targets:
            if target not in graph or reach >> vid[target] & 1:
                continue
            gained = ctx.reachable_privileges_from(target) & ~reach
            if gained:
                witness = (route, target, ctx.decode(gained)[0])
                break
        if witness:
            yield privilege, witness
    for privilege in priv_target_grants:
        priv_id = vid.get(privilege)
        if priv_id is None or not reach >> priv_id & 1:
            continue
        source_id = vid.get(privilege.source)
        if source_id is None or not reach >> source_id & 1:
            continue
        target_id = vid.get(privilege.target)
        if target_id is not None and reach >> target_id & 1:
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
        return ()
    policy = ctx.policy
    bits = policy.bits
    vid = policy.graph._vid
    set_masks = []
    for constraint in sorted(ctx.constraints, key=lambda c: c.name):
        mask = 0
        for role in constraint.roles:
            index = vid.get(role)
            if index is not None:
                mask |= 1 << index
        set_masks.append((mask, constraint.cardinality))
    granted = ctx.reach_union & bits.privileges_mask
    if not granted:
        return ()
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
    return _unassign_findings(
        ctx, "unreachable-under-ssd", ctx.decode(granted & ~activatable)
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
    universe = _depth_k_universe(ctx)
    if universe is None:
        return
    universe_edges, assigned_grants = universe
    vid = policy.graph._vid
    grant_mask = 0
    for privilege in assigned_grants:
        index = vid.get(privilege)
        if index is not None:
            grant_mask |= 1 << index
    for user in ctx.users:
        # A first step needs an initially reachable grant privilege —
        # prune users who hold none before paying for an engine.
        if not policy.descendants_bits(user) & grant_mask:
            continue
        ctx.count("depth-k-escalation", "users_probed")
        finding = _depth_k_finding(
            ctx, user, _min_grant_escalation(
                policy, user, ctx.escalation_depth, universe_edges
            ),
        )
        if finding is not None:
            yield finding


def _depth_k_universe(ctx: LintContext) -> tuple[list, list] | None:
    """``(grant-closure edges, assigned grants sorted by str)`` for the
    ``depth-k-escalation`` rule, or None when it has nothing to
    explore."""
    policy = ctx.policy
    if ctx.escalation_depth < 2:
        return None
    universe_edges = _grant_closure_edges(policy)
    if not universe_edges:
        return None
    assigned_grants = sorted(
        (
            privilege
            for privilege in policy.admin_privileges()
            if isinstance(privilege, Grant)
        ),
        key=str,
    )
    if not assigned_grants:
        return None
    return universe_edges, assigned_grants


def _depth_k_finding(ctx: LintContext, user: User, found) -> Finding | None:
    """The finding for ``user``'s shallowest escalation ``found``, or
    None when there is none or it takes one step (the
    ``self-escalation`` rule's domain; reporting it twice would
    double-count)."""
    if found is None:
        return None
    commands, gained = found
    if len(commands) < 2:
        return None
    steps = tuple(command.requested_privilege() for command in commands)
    first = steps[0]
    graph = ctx.policy.graph
    holders = (
        sorted(graph.predecessors(first), key=str) if first in graph else []
    )
    chain = ", ".join(str(term) for term in steps)
    return Finding(
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


def _grant_commands(user: User, universe_edges: list[tuple]) -> list[Command]:
    """``user``'s grant command per universe edge, in universe order."""
    return [
        Command(user, CommandAction.GRANT, source, target)
        for source, target in universe_edges
    ]


def _min_grant_escalation(
    policy: Policy,
    user: User,
    depth: int,
    universe_edges: list[tuple] | None = None,
) -> tuple[tuple, object] | None:
    """Breadth-first search of the grant-only transition system for
    the shallowest state where ``user`` reaches a privilege it cannot
    reach initially; returns ``(commands, gained)`` — the witnessing
    command path and the least gained privilege by ``str`` — or None
    when no state within ``depth`` steps escalates.

    Grant-only exploration is sound for minimality: privilege reach is
    monotone in the edge set, so a revoke can never *create* an
    escalation that a grant-only prefix would miss.  The search
    explores one mutable engine via push/pop; the reference twin
    (:mod:`repro.oracle.lint`) re-derives the same frontier with
    per-state copies, in the same candidate order and with the same
    value-keyed state dedup, so both return the same witness (fuzz
    invariant 13).
    """
    if universe_edges is None:
        universe_edges = _grant_closure_edges(policy)
    engine = ExplorationEngine(
        policy, Mode.STRICT, universe=_grant_commands(user, universe_edges)
    )
    state = engine.policy
    initial = state.descendants_bits(user) & engine.privileges_mask
    for path in engine.bfs(depth):
        gained = (
            state.descendants_bits(user) & engine.privileges_mask & ~initial
        )
        if gained:
            vertex_of = state.graph._vertex_of
            least = sorted(
                (vertex_of[index] for index in iter_bits(gained)), key=str
            )[0]
            return path, least
    return None


def _carries_delegation(ctx: LintContext, finding: Finding) -> bool:
    source, target, _reroute = finding.witness
    return ctx.policy.has_edge(source, target) and not ctx.delegation_dirty(
        source, target
    )


@_rule(
    "redundant-delegation", Severity.INFO,
    "edge implied by the transitive closure; removal preserves authorizes",
    carries=_carries_delegation,
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
    dropped and counted as refuted (none should ever be).  A re-lint
    probes only the edges of :meth:`LintContext.delegation_edges`."""
    policy = ctx.policy
    graph = policy.graph
    # A snapshot: each probe below removes and re-adds its edge.  The
    # order is immaterial — every probe restores the policy exactly,
    # and the session sorts the findings.
    for source, target in ctx.delegation_edges():
        if is_privilege(target) and graph.in_degree(target) == 1:
            # Sole assignment: removal would garbage-collect the
            # privilege vertex; never redundant.
            continue
        # Cheap necessary condition: some other out-edge of ``source``
        # already reaches ``target`` (possibly via a cycle through the
        # candidate edge, hence the exact probe below).
        target_id = graph._vid[target]
        if not any(
            policy.descendants_bits(successor) >> target_id & 1
            for successor in graph.successors(source)
            if successor != target
        ):
            continue
        finding = _probe_redundancy(
            ctx, source, target,
            ctx.decode(ancestors_bits(graph, source) & policy.bits.users_mask),
            lambda: policy.descendants_bits(source) >> target_id & 1,
        )
        if finding is not None:
            yield finding


def _probe_redundancy(
    ctx: LintContext, source, target, upstream: list, still_reaches
) -> Finding | None:
    """Probe one candidate edge exactly: remove it, require
    ``still_reaches()`` and, in ``ctx.index``, unchanged held privileges
    for every ``upstream`` user and unchanged effective authority for a
    sample of them, then re-add it.  Returns the finding, or None."""
    ctx.count("redundant-delegation", "candidates")
    policy, index = ctx.policy, ctx.index
    before_held = {user: index.held_privileges(user) for user in upstream}
    before_authority = {
        user: index.effective_authority(user) for user in upstream[:8]
    }
    policy.remove_edge(source, target)
    try:
        if not still_reaches():
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
        ctx.count("redundant-delegation", "verified")
        reroute = next(
            successor
            for successor in sorted(policy.graph.successors(source), key=str)
            if policy.reaches(successor, target)
        )
    finally:
        policy.add_edge(source, target)
    return Finding(
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
    "LintSession",
    "RULES",
    "Severity",
    "lint_policy",
]
