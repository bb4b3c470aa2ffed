"""Lint-to-repair: executable, refinement-gated repair plans.

Every registered lint rule has a **repair planner** that turns a
finding into a typed :class:`RepairPlan` (a concrete mutation
sequence over the policy graph), and :func:`repair_policy`
applies plans one at a time under two verification gates, through an
exact apply/undo log in the style of the exploration engine:

* **refinement gate** — the repaired policy must *refine* the
  pre-plan policy (Definition 6: no subject reaches a privilege it
  could not reach before).  :func:`repro.core.refinement.
  refinement_counterexample` is the oracle; a violating plan is rolled
  back and rejected with the counterexample attached.  It checks the
  *edge difference*: a new subject-to-privilege path must use an edge
  the pre-plan policy lacks, and its subject reaches that edge's
  source, so only the entity ancestors of the added edges' sources are
  compared, and a plan that adds no edge passes after one pass over
  the adjacency dict (the pre-plan copy shares every untouched
  adjacency set copy-on-write).  Shipped planners only ever remove
  edges and vertices, which refines by construction (the paper's
  Example 3), so the gate is a safety net — but it runs on the real
  checker every time, so a future planner that *adds* authority
  cannot slip through.
* **monotone-shrink gate** — after applying a plan the policy is
  re-linted; the finding set must strictly shrink and must not
  contain any finding absent before the plan.  The re-lints go
  through one :class:`~repro.analysis.lint.LintSession` that
  :func:`repair_policy` keeps over its work policy for the whole run
  (the first lint is a full :func:`~repro.analysis.lint.lint_policy`),
  so a plan pays only for re-linting the region it touched, and a
  rolled-back plan reaches the session as more journal deltas.  A
  plan that resolves its finding but surfaces a new one gets a
  bounded chance to extend itself (planning the fresh findings too —
  e.g. deprovisioning a dead role may expose a now-dormant
  privilege); if fresh findings survive the extension budget,
  everything is rolled back and the plan is rejected.

Iterating apply-and-re-lint to a fixed point yields
``repro lint --fix``: on every shipped fixture the loop converges
with zero findings remaining, every applied plan refining the
original policy.  Fuzz invariant 13 (:func:`repro.workloads.fuzz.
fuzz_repair`) pins this driver's runs and
:func:`repro.oracle.reference_repair_policy` — the same driver over a
:class:`~repro.oracle.ReferenceLintSession`, whose planners run on the
frozenset reference context — identical in plan sequences, outcomes,
and the final repaired policy under churn and vertex-ID recycling, and
each applied plan's session re-lint equal to a fresh full lint of the
same state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import is_privilege
from ..core.refinement import refinement_counterexample
from ..errors import AnalysisError
from .constraints import SsdConstraint
from .lint import (
    Finding,
    LintContext,
    LintReport,
    LintSession,
    Severity,
    _escalation_finding,
    lint_policy,
)

__all__ = [
    "PLANNERS",
    "RepairAction",
    "RepairOutcome",
    "RepairPlan",
    "RepairReport",
    "apply_plan",
    "plan_repair",
    "repair_policy",
]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RepairAction:
    """One graph mutation of a repair plan.

    ``kind`` is ``remove-edge`` (revoke an assignment / membership /
    inheritance edge), ``remove-role`` (deprovision a role with all
    its edges), or ``add-edge`` (grant an edge — representable so the
    refinement gate has something real to reject; no shipped planner
    emits one).
    """

    kind: str
    source: object
    target: object | None = None

    def render(self) -> str:
        if self.kind == "remove-edge":
            return f"revoke({self.source}, {self.target})"
        if self.kind == "add-edge":
            return f"grant({self.source}, {self.target})"
        return f"deprovision({self.source})"


@dataclass(frozen=True)
class RepairPlan:
    """An executable repair for one finding: the rule that planned it,
    the finding it resolves, and the mutation sequence to apply."""

    rule: str
    finding: Finding
    actions: tuple[RepairAction, ...]
    note: str = ""

    def render(self) -> str:
        steps = "; ".join(action.render() for action in self.actions)
        return f"{self.rule}: {steps}"

    def signature(self) -> tuple:
        """Value identity across runs (fuzz invariant 13)."""
        return (
            self.rule,
            self.finding.sort_key,
            tuple(
                (action.kind, str(action.source), str(action.target))
                for action in self.actions
            ),
        )


# ----------------------------------------------------------------------
# Planner registry — one per lint rule (check_invariants.py enforces
# every RULES entry has a planner here or an explicit no_repair marker)
# ----------------------------------------------------------------------
Planner = Callable[[LintContext, Finding], RepairPlan | None]

PLANNERS: dict[str, Planner] = {}


def _planner(rule_name: str):
    def register(plan: Planner) -> Planner:
        PLANNERS[rule_name] = plan
        return plan
    return register


def plan_repair(
    policy: Policy,
    finding: Finding,
    constraints: Iterable[SsdConstraint] = (),
    escalation_depth: int = 2,
) -> RepairPlan | None:
    """Plan a repair for ``finding`` against the *current* ``policy``.

    Returns None when the rule has no planner, or when the finding is
    stale (an earlier plan already removed its subject) or not
    repairable by edge removal (e.g. a conflict the subject's own
    memberships cannot break).  Planners never mutate the policy
    except via exactly-restored probes.
    """
    return _plan(
        LintContext(policy, tuple(constraints), escalation_depth), finding
    )


def _plan(context: LintContext, finding: Finding) -> RepairPlan | None:
    """The registered planner's plan for ``finding`` over ``context``
    (a repair driver's :meth:`LintSession.context`), or None."""
    planner = PLANNERS.get(finding.rule)
    if planner is None:
        return None
    return planner(context, finding)


def _remove_edge(source, target) -> RepairAction:
    return RepairAction("remove-edge", source, target)


@_planner("dead-role")
def _plan_dead_role(ctx: LintContext, finding: Finding):
    """Deprovision the unreachable role outright — its assignments are
    authority nobody can exercise, and privileges it solely assigned
    are garbage-collected with it."""
    role = finding.subject
    if not isinstance(role, Role) or role not in ctx.policy.graph:
        return None
    return RepairPlan(
        "dead-role", finding, (RepairAction("remove-role", role),),
        note=f"deprovision dead role {role}",
    )


@_planner("dormant-privilege")
def _plan_dormant_privilege(ctx: LintContext, finding: Finding):
    """Drop every assignment of the dormant privilege; the last
    removal garbage-collects the vertex."""
    privilege = finding.subject
    graph = ctx.policy.graph
    if privilege not in graph:
        return None
    assigners = sorted(graph.predecessors(privilege), key=str)
    if not assigners:
        return None
    return RepairPlan(
        "dormant-privilege", finding,
        tuple(_remove_edge(assigner, privilege) for assigner in assigners),
        note=f"unassign dormant privilege {privilege}",
    )


@_planner("constraint-conflict")
def _plan_constraint_conflict(ctx: LintContext, finding: Finding):
    """Break the separation-set conflict at the cheapest edges: probe
    each of the subject's out-edges (remove, recount, re-add — the
    policy is restored exactly) and greedily drop the one whose
    removal sheds the most conflicting roles, until the subject's hit
    count is below the constraint's cardinality."""
    policy = ctx.policy
    graph = policy.graph
    subject = finding.subject
    if subject not in graph:
        return None
    witness_roles = set(finding.witness)
    constraint = next(
        (
            candidate
            for candidate in sorted(ctx.constraints, key=lambda c: c.name)
            if witness_roles <= candidate.roles
            and len(witness_roles) >= candidate.cardinality
        ),
        None,
    )
    if constraint is None:
        return None

    def hits() -> int:
        return ctx.constraint_hits(subject, constraint)

    removed: list = []
    try:
        while hits() >= constraint.cardinality:
            before = hits()
            best = None
            for successor in sorted(graph.successors(subject), key=str):
                if is_privilege(successor):
                    continue
                policy.remove_edge(subject, successor)
                reduction = before - hits()
                policy.add_edge(subject, successor)
                if reduction > 0 and (
                    best is None or (-reduction, str(successor)) < best[:2]
                ):
                    best = (-reduction, str(successor), successor)
            if best is None:
                # The subject's own memberships cannot break the
                # conflict (e.g. the subject is itself most of the
                # set); leave the finding for a human.
                return None
            policy.remove_edge(subject, best[2])
            removed.append(best[2])
    finally:
        for successor in reversed(removed):
            policy.add_edge(subject, successor)
    if not removed:
        return None
    return RepairPlan(
        "constraint-conflict", finding,
        tuple(_remove_edge(subject, successor) for successor in removed),
        note=f"break separation set {constraint.name} at the cheapest "
             f"edge(s) of {subject}",
    )


@_planner("irrevocable-authority")
def _plan_irrevocable_authority(ctx: LintContext, finding: Finding):
    """Revoke the shadow grant: drop every assignment of the grant
    privilege whose rectangle has no reachable revocation cover."""
    privilege = finding.subject
    graph = ctx.policy.graph
    if privilege not in graph:
        return None
    holders = sorted(graph.predecessors(privilege), key=str)
    if not holders:
        return None
    return RepairPlan(
        "irrevocable-authority", finding,
        tuple(_remove_edge(holder, privilege) for holder in holders),
        note=f"revoke the shadow grant {privilege}",
    )


@_planner("self-escalation")
def _plan_self_escalation(ctx: LintContext, finding: Finding):
    """Sever the one-step escalation route: re-derive the escalation
    the rule reported (same order, same witnesses) and drop the
    assignments of its grant privilege that flow to the subject."""
    user = finding.subject
    if not isinstance(user, User) or user not in ctx.policy.graph:
        return None
    graph = ctx.policy.graph
    for privilege, witness in ctx.user_escalations(user):
        if _escalation_finding(ctx, user, privilege, witness) != finding:
            continue
        holders = [
            holder
            for holder in sorted(graph.predecessors(privilege), key=str)
            if ctx.reaches(user, holder)
        ]
        if not holders:
            return None
        return RepairPlan(
            "self-escalation", finding,
            tuple(
                _remove_edge(holder, privilege) for holder in holders
            ),
            note=f"sever {user}'s route to {privilege}",
        )
    return None


@_planner("redundant-delegation")
def _plan_redundant_delegation(ctx: LintContext, finding: Finding):
    """Drop the implied edge — the rule already verified against the
    authorization index that removal preserves every authorization."""
    source, target, _reroute = finding.witness
    if not ctx.policy.has_edge(source, target):
        return None
    return RepairPlan(
        "redundant-delegation", finding,
        (_remove_edge(source, target),),
        note=f"drop implied edge ({source} -> {target})",
    )


@_planner("unreachable-under-ssd")
def _plan_unreachable_under_ssd(ctx: LintContext, finding: Finding):
    """The privilege is dead weight under the declared separation
    sets: drop every assignment (garbage-collecting the vertex)."""
    privilege = finding.subject
    graph = ctx.policy.graph
    if privilege not in graph:
        return None
    assigners = sorted(graph.predecessors(privilege), key=str)
    if not assigners:
        return None
    return RepairPlan(
        "unreachable-under-ssd", finding,
        tuple(_remove_edge(assigner, privilege) for assigner in assigners),
        note=f"unassign {privilege}: no compliant session activates it",
    )


@_planner("depth-k-escalation")
def _plan_depth_k_escalation(ctx: LintContext, finding: Finding):
    """Sever the multi-step escalation at its first link, then re-run
    the bounded exploration and keep severing until no escalation
    within the depth bound remains — a route-by-route simulation on
    the live policy (rolled back exactly before returning), so the
    emitted plan is complete and the driver's re-lint cannot bounce it
    for merely diverting the escalation onto a sibling route."""
    policy = ctx.policy
    graph = policy.graph
    user = finding.subject
    if not isinstance(user, User) or user not in graph:
        return None
    actions: list[RepairAction] = []
    log = _UndoLog(policy)
    try:
        for _ in range(16):
            found = ctx.min_grant_escalation(user)
            if found is None:
                break
            commands, _gained = found
            first = commands[0].requested_privilege()
            holders = [
                holder
                for holder in sorted(graph.predecessors(first), key=str)
                if ctx.reaches(user, holder)
            ]
            if not holders:
                return None
            for holder in holders:
                action = _remove_edge(holder, first)
                log.apply(action)
                actions.append(action)
        else:
            return None
    finally:
        log.rollback()
    if not actions:
        return None
    return RepairPlan(
        "depth-k-escalation", finding, tuple(actions),
        note=f"sever every depth-{ctx.escalation_depth} escalation "
             f"route of {user}",
    )


# ----------------------------------------------------------------------
# Apply / undo
# ----------------------------------------------------------------------
class _UndoLog:
    """Exact inverse replay for repair actions, the same discipline as
    the exploration engine's apply/undo log: every mutation records
    what it destroyed (including privilege vertices garbage-collected
    by ``Policy.remove_edge`` and the full edge fan of a deprovisioned
    role), and :meth:`rollback` replays the inverses in reverse order,
    restoring the policy to value equality."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self._log: list[tuple] = []

    def apply(self, action: RepairAction) -> None:
        policy = self.policy
        graph = policy.graph
        if action.kind == "remove-edge":
            if not graph.has_edge(action.source, action.target):
                return  # already gone (stale cascade step): no-op
            policy.remove_edge(action.source, action.target)
            self._log.append(("readd-edge", action.source, action.target))
        elif action.kind == "add-edge":
            if graph.has_edge(action.source, action.target):
                return
            source_new = action.source not in graph
            target_new = (
                action.target not in graph
                and action.target != action.source
            )
            policy.add_edge(action.source, action.target)
            self._log.append(
                ("unadd-edge", action.source, action.target,
                 source_new, target_new)
            )
        elif action.kind == "remove-role":
            role = action.source
            if role not in graph:
                return
            incoming = sorted(
                ((pred, role) for pred in graph.predecessors(role)),
                key=lambda e: (str(e[0]), str(e[1])),
            )
            outgoing = sorted(
                ((role, succ) for succ in graph.successors(role)),
                key=lambda e: (str(e[0]), str(e[1])),
            )
            policy.remove_role(role)
            self._log.append(("readd-role", role, incoming, outgoing))
        else:
            raise AnalysisError(f"unknown repair action kind {action.kind!r}")

    def rollback(self) -> None:
        policy = self.policy
        graph = policy.graph
        while self._log:
            record = self._log.pop()
            if record[0] == "readd-edge":
                # add_edge re-introduces a garbage-collected privilege
                # target along with the edge.
                policy.add_edge(record[1], record[2])
            elif record[0] == "unadd-edge":
                _kind, source, target, source_new, target_new = record
                policy.remove_edge(source, target)
                if target_new and target in graph:
                    graph.remove_vertex(target)
                if source_new and source in graph:
                    graph.remove_vertex(source)
            else:
                _kind, role, incoming, outgoing = record
                policy.add_role(role)
                for source, target in incoming:
                    policy.add_edge(source, target)
                for source, target in outgoing:
                    policy.add_edge(source, target)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
#: outcome statuses, in the order the gates run
APPLIED = "applied"
REJECTED_NOT_REFINEMENT = "rejected-not-refinement"
REJECTED_NEW_FINDINGS = "rejected-new-findings"
REJECTED_NO_PROGRESS = "rejected-no-progress"


@dataclass(frozen=True)
class RepairOutcome:
    """What happened to one plan: applied, or rejected by a gate (with
    the refinement counterexample / fresh findings attached)."""

    plan: RepairPlan
    status: str
    counterexample: str | None = None
    new_findings: tuple[Finding, ...] = ()
    cascades: tuple[RepairPlan, ...] = ()
    #: the post-plan re-lint's findings, which the driver continues
    #: from (applied plans only; fuzz invariant 13 pins them to a
    #: fresh full lint of the same state).
    findings: tuple[Finding, ...] = ()

    def signature(self) -> tuple:
        return (
            self.plan.signature(),
            self.status,
            self.counterexample,
            tuple(finding.sort_key for finding in self.new_findings),
            tuple(plan.signature() for plan in self.cascades),
        )

    def render(self) -> str:
        text = f"{self.status:24} {self.plan.render()}"
        for cascade in self.cascades:
            text += f"\n{'':24} + cascade {cascade.render()}"
        if self.counterexample:
            text += f"\n{'':24} ! {self.counterexample}"
        return text

    def as_dict(self) -> dict:
        return {
            "rule": self.plan.rule,
            "finding": self.plan.finding.as_dict(),
            "status": self.status,
            "actions": [action.render() for action in self.plan.actions],
            "cascades": [plan.render() for plan in self.cascades],
            "counterexample": self.counterexample,
            "new_findings": [
                finding.as_dict() for finding in self.new_findings
            ],
        }


@dataclass(frozen=True)
class RepairReport:
    """One :func:`repair_policy` run: the repaired policy, the lint
    reports bracketing it, and every plan's outcome in order."""

    policy: Policy
    initial: LintReport
    final: LintReport
    outcomes: tuple[RepairOutcome, ...]
    iterations: int
    fixpoint: bool
    severity: Severity = Severity.INFO

    @property
    def applied(self) -> tuple[RepairOutcome, ...]:
        return tuple(
            outcome for outcome in self.outcomes
            if outcome.status == APPLIED
        )

    @property
    def rejected(self) -> tuple[RepairOutcome, ...]:
        return tuple(
            outcome for outcome in self.outcomes
            if outcome.status != APPLIED
        )

    @property
    def remaining(self) -> tuple[Finding, ...]:
        return self.final.at_or_above(self.severity)

    @property
    def clean(self) -> bool:
        return not self.remaining

    def as_dict(self) -> dict:
        return {
            "severity": self.severity.label,
            "iterations": self.iterations,
            "fixpoint": self.fixpoint,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "initial_findings": [
                finding.as_dict() for finding in self.initial.findings
            ],
            "remaining_findings": [
                finding.as_dict() for finding in self.final.findings
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def apply_plan(
    policy: Policy,
    plan: RepairPlan,
    current: LintReport,
    rules: Iterable[str] | None = None,
    constraints: Iterable[SsdConstraint] = (),
    escalation_depth: int = 2,
    max_cascade: int = 3,
    session: LintSession | None = None,
) -> tuple[RepairOutcome, LintReport | None]:
    """Apply one plan to ``policy`` under both gates.

    Mutates ``policy`` only if the plan survives; on any rejection the
    undo log restores it to value equality.  Returns the outcome and,
    when applied, the post-plan lint report (None otherwise).

    Every re-lint, cascade re-lints included, goes through ``session``
    (a :class:`~repro.analysis.lint.LintSession` over ``policy``), so
    it pays only for the region the plan touched; without one, a
    session is opened that adopts ``current`` as its first lint.  A
    rolled-back plan reaches the session as just more journal deltas.
    Cascade plans are planned on the session's context.
    """
    if session is None:
        session = LintSession(
            policy, rules, constraints, escalation_depth, baseline=current,
        )
    reference = policy.copy()
    before = set(current.findings)
    log = _UndoLog(policy)
    for action in plan.actions:
        log.apply(action)
    cascades: list[RepairPlan] = []
    relint = session.lint()
    # Bounded self-extension: a plan whose application surfaces fresh
    # findings may plan those too (deprovisioning a dead role can
    # expose a newly dormant privilege, etc.).
    for _ in range(max_cascade):
        fresh = [
            finding for finding in relint.findings
            if finding not in before
        ]
        if not fresh:
            break
        extended = False
        for finding in sorted(
            fresh, key=lambda f: (-f.severity, f.sort_key)
        ):
            sub_plan = _plan(session.context(), finding)
            if sub_plan is None:
                continue
            for action in sub_plan.actions:
                log.apply(action)
            cascades.append(sub_plan)
            extended = True
        if not extended:
            break
        relint = session.lint()

    witness = refinement_counterexample(reference, policy)
    if witness is not None:
        log.rollback()
        return (
            RepairOutcome(
                plan, REJECTED_NOT_REFINEMENT, counterexample=str(witness)
            ),
            None,
        )
    fresh = tuple(
        finding for finding in relint.findings if finding not in before
    )
    if fresh:
        log.rollback()
        return (
            RepairOutcome(plan, REJECTED_NEW_FINDINGS, new_findings=fresh),
            None,
        )
    if (
        plan.finding in set(relint.findings)
        or len(relint.findings) >= len(before)
    ):
        log.rollback()
        return RepairOutcome(plan, REJECTED_NO_PROGRESS), None
    return (
        RepairOutcome(
            plan, APPLIED, cascades=tuple(cascades),
            findings=relint.findings,
        ),
        relint,
    )


def repair_policy(
    policy: Policy,
    rules: Iterable[str] | None = None,
    constraints: Iterable[SsdConstraint] = (),
    severity: Severity = Severity.INFO,
    in_place: bool = False,
    escalation_depth: int = 2,
    max_iterations: int = 12,
    max_cascade: int = 3,
) -> RepairReport:
    """Repair ``policy`` to a re-lint fixed point.

    Each iteration lints, orders the findings at or above ``severity``
    (most severe first, then the deterministic sort key), and tries
    one plan per finding through :func:`apply_plan`'s gates.  The loop
    ends when an iteration applies no plan (either nothing is left at
    the threshold or every remaining finding is unplannable /
    rejected) — by construction a fixed point of the repair operator,
    reported as ``fixpoint=True``; hitting ``max_iterations`` first
    reports ``fixpoint=False``.  The monotone-shrink gate makes the
    loop terminate: every applied plan strictly shrinks the finding
    set, so at most ``len(initial findings)`` applications happen
    across all iterations.

    By default the caller's policy is left untouched (``work`` is a
    copy); ``in_place=True`` repairs the caller's policy directly —
    the fuzz harness uses this to carry the repaired policy into its
    next round of churn.
    """
    rules = list(rules) if rules is not None else None
    work = policy if in_place else policy.copy()
    current = lint_policy(work, rules, constraints, escalation_depth)
    session = LintSession(
        work, rules, constraints, escalation_depth, baseline=current,
    )
    return _repair_loop(session, current, severity, max_iterations,
                        max_cascade)


def _repair_loop(
    session: LintSession,
    current: LintReport,
    severity: Severity,
    max_iterations: int,
    max_cascade: int,
) -> RepairReport:
    """:func:`repair_policy`'s fixed-point loop over ``session.policy``,
    starting from its full lint ``current``; plans are planned on the
    session's context and re-linted through the session."""
    work = session.policy
    initial = current
    outcomes: list[RepairOutcome] = []
    iterations = 0
    fixpoint = False
    for _ in range(max_iterations):
        iterations += 1
        targets = sorted(
            (
                finding for finding in current.findings
                if finding.severity >= severity
            ),
            key=lambda f: (-f.severity, f.sort_key),
        )
        if not targets:
            fixpoint = True
            break
        progress = False
        live = set(current.findings)
        rejected_before: set[tuple] = {
            outcome.plan.signature() for outcome in outcomes
            if outcome.status != APPLIED
        }
        for finding in targets:
            if finding not in live:
                continue  # an earlier plan this pass resolved it
            plan = _plan(session.context(), finding)
            if plan is None:
                continue
            if plan.signature() in rejected_before:
                continue  # same plan was already rejected: don't loop
            outcome, relint = apply_plan(
                work, plan, current, max_cascade=max_cascade,
                session=session,
            )
            outcomes.append(outcome)
            if outcome.status == APPLIED:
                current = relint
                live = set(current.findings)
                progress = True
            else:
                rejected_before.add(plan.signature())
        if not progress:
            fixpoint = True
            break
    return RepairReport(
        policy=work,
        initial=initial,
        final=current,
        outcomes=tuple(outcomes),
        iterations=iterations,
        fixpoint=fixpoint,
        severity=severity,
    )
