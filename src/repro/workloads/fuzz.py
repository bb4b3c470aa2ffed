"""Differential fuzzing of the reference monitor.

Generates random command queues against random policies and checks the
monitor's global invariants after every step:

1. **Authorization soundness** — a command that executed was genuinely
   authorized: re-checking the *pre-state* with a fresh ordering
   oracle confirms the issuer reached a privilege covering it.
2. **No silent mutation** — a denied command changed nothing.
3. **Sort preservation** — every edge of every intermediate policy is
   well-sorted (the grammar invariant survives arbitrary runs).
4. **Mode monotonicity** — any command the strict monitor executes,
   the refined monitor executes too (implicit authorization only adds).
5. **Audit completeness** — the monitor records exactly one audit
   entry per submitted command.
6. **Index agreement** — the precomputed authorization index and the
   definitional :class:`~repro.oracle.ReferenceIndex` both agree with
   the Lemma-1 oracle path on every grant/deny decision.
7. **Incremental-maintenance agreement** — under randomized policy
   churn, the incrementally maintained authorization index stays
   structurally and behaviourally identical to a from-scratch rebuild
   after every burst of one to three mutations
   (:func:`fuzz_index_churn`, backed by
   :func:`repro.workloads.churn.differential_churn`).
8. *Retired.*  It pinned the sharded authorization index to the
   unsharded one; the sharding layer was removed, and the numbering
   of the later invariants is kept because the docs and CI cite it.
9. **Reference agreement** — the bitset kernel (bitmask held sets,
   rectangles and dirty regions over interned vertex IDs) is
   observationally identical to :class:`~repro.oracle.ReferenceIndex`,
   which answers straight from the definitions, under churn — held
   sets, decoded rectangles, review surfaces and grant/deny verdicts
   — including users removed and re-added inside one delta burst,
   which recycles interner IDs (:func:`fuzz_compiled_kernel`, backed
   by :func:`repro.workloads.churn.differential_churn`).
10. **Compiled-analysis agreement** — the undo-log/fingerprint
    explorers behind the analysis layer (``can_obtain``,
    ``reachable_policies``, HRU ``check_safety``) are observationally
    identical to their copy-per-probe twins in :mod:`repro.oracle`
    (``reference_can_obtain``, ``reference_reachable_policies``,
    ``reference_check_safety``): same verdicts, same
    ``states_explored``, same witness lengths (and, stronger, the
    same witness queues and reachable-state signatures), in both
    authorization modes, over seeded policies churned with
    deprovision/re-provision traces that recycle interner vertex IDs
    (:func:`fuzz_compiled_analysis`).
11. **Lint agreement** — the bitset-compiled lint rules
    (:func:`repro.analysis.lint.lint_policy`) produce findings, rule
    statistics and severities identical to their frozenset twins
    (:func:`repro.oracle.reference_lint_policy`), on the initial
    policy and re-checked after every chunk of deprovision/re-provision
    churn that recycles interner vertex IDs, with and without declared
    SSD separation sets; and a :class:`~repro.analysis.lint.LintSession`
    and a :class:`~repro.oracle.ReferenceLintSession`, held across
    those chunks and further bursts of role-hierarchy and assignment
    edge additions and removals, re-lint each burst (scoped to its
    dirty region) to exactly the findings of a fresh full reference
    lint of the same state, after which the policy's own index equals
    a fresh build (:func:`fuzz_lint`).
12. **Batch-authorization agreement** — ``authorizes_batch`` verdicts
    are element-for-element identical to per-pair scalar
    ``authorizes`` calls, ``held_privileges_bulk`` equals per-user
    ``held_privileges``, and every scalar verdict agrees at grant/deny
    level with :class:`~repro.oracle.ReferenceIndex` — over churned
    policies with
    recycled interner IDs, permanently deprovisioned subjects living
    in rectangle *extras*, equal-but-distinct entity objects,
    off-graph edge endpoints, and duplicate-heavy batches
    (:func:`fuzz_batch_authz`).
13. **Repair agreement** — the lint-to-repair engine
    (:func:`repro.analysis.repair.repair_policy`) agrees with its
    reference run and is self-consistent: it and
    :func:`repro.oracle.reference_repair_policy` emit identical plan
    sequences and outcomes (including rejections and cascade
    extensions) and arrive at value-equal repaired policies; every accepted run *refines* its input policy
    (Definition 6 — no subject gains authority, checked by the
    refinement checker and by ``granted_pairs`` inclusion); and the
    run is a re-lint fixpoint (repairing again applies nothing, and a
    fresh lint of the repaired policy equals the run's final report), and
    the repaired policy's own index equals a fresh build, as it does
    after every rejected plan is applied and rolled back — on
    the initial policy and re-checked after every chunk of
    ID-recycling churn, with sampled SSD separation sets
    (:func:`fuzz_repair`).
14. **PDP agreement** — the asyncio policy-decision-point
    (:class:`repro.serve.PolicyDecisionPoint`) is an implementation
    detail: with concurrent readers interleaved against a
    micro-batching writer, every decision it hands out — snapshot
    reads, decision-cache hits, and decisions re-issued after a
    rate-limit rejection — agrees on allowed/denied with a
    synchronous :class:`~repro.oracle.ReferenceIndex` over the policy
    *at the decision's pinned snapshot version*, and its claimed
    authorizing privilege is verified against that oracle as actually
    held and actually covering the command (*which* of several
    covering privileges gets reported is scan order and deliberately
    unpinned).  The applied mutation batches
    replay through a fresh synchronous ``submit_queue(batched=True)``
    monitor to outcome-identical :class:`ExecutionRecord` sequences
    (executed/noop element for element, authorizations re-verified
    the same way) and a value-equal final policy — across
    :func:`_recycling_churn` rounds (which also drive the
    journal-based cache invalidation over recycled interner IDs), each
    preceded by deprovisioning a subject with a cached allow whose
    interned ID a newcomer takes before the next publication
    (:func:`fuzz_pdp`).
15. **Crash-recovery agreement** — a WAL-attached PDP killed at
    *every* named fault-injection point mid-trace
    (:data:`repro.workloads.faults.INJECTION_POINTS`: before/after
    the kernel apply, before/during/after the hash-chained append,
    before publish, before future resolution — including a torn
    write that leaves a partial record on disk) recovers from the
    log alone (:meth:`~repro.serve.PolicyDecisionPoint.recover`) to
    a policy **byte-identical** (canonical JSON) to an uninterrupted
    oracle run at the crash point's durable batch prefix, at the
    same version; every crash surfaces as a typed
    error, never a hang; and every single-record mutation, omission
    and truncation of a healthy log is rejected by
    :func:`~repro.serve.wal.verify_chain`
    (:func:`fuzz_crash_recovery`, backed by
    :func:`repro.workloads.faults.differential_crash_recovery` and
    :func:`repro.workloads.faults.wal_tamper_campaign`).

The fuzzer is seeded and deterministic; the test suite runs it over a
spread of seeds, and `examples/safety_audit.py`-style scripts can run
longer campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.authz_index import AuthorizationIndex, ReviewSnapshot
from ..core.commands import Command, CommandAction, Mode
from ..core.entities import Role, User
from ..core.monitor import ReferenceMonitor
from ..core.ordering import is_weaker
from ..core.policy import Policy, check_edge_sorts
from ..core.privileges import Grant, Revoke, is_privilege, perm
from ..errors import PolicyError
from ..oracle import ReferenceIndex
from .generators import PolicyShape, random_policy


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    steps: int = 0
    executed: int = 0
    denied: int = 0
    implicit: int = 0
    violations: list[str] = field(default_factory=list)
    #: coverage counters a campaign reports, by name (e.g. the
    #: ``depth-k-escalation`` findings its lint re-lints compared).
    counts: dict[str, int] = field(default_factory=dict)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_command(rng: random.Random, policy: Policy) -> Command:
    """A random command, biased so campaigns exercise every decision
    path: half the time the edge comes from an assigned ¤/♦ term (so
    exact and implicit authorizations actually fire), otherwise it is
    drawn uniformly (mostly denials and ill-sorted no-ops)."""
    entities = sorted(
        (v for v in policy.vertex_set() if isinstance(v, (User, Role))),
        key=str,
    )
    privileges = sorted(
        (v for v in policy.vertex_set() if is_privilege(v)), key=str
    )
    users = [e for e in entities if isinstance(e, User)]
    issuer = rng.choice(users)
    action = rng.choice([CommandAction.GRANT, CommandAction.REVOKE])

    held_terms = sorted(
        (term for term in policy.subterm_closure()
         if isinstance(term, (Grant, Revoke))),
        key=str,
    )
    if held_terms and rng.random() < 0.5:
        term = rng.choice(held_terms)
        source, target = term.edge
        if rng.random() < 0.3 and isinstance(target, Role):
            # Perturb the target downward/around for implicit cases.
            candidates = [
                v for v in policy.descendants(target) if isinstance(v, Role)
            ]
            if candidates:
                target = rng.choice(sorted(candidates, key=str))
        if isinstance(term, Grant) and rng.random() < 0.8:
            action = CommandAction.GRANT
        return Command(issuer, action, source, target)

    source = rng.choice(entities)
    target = rng.choice(entities + privileges)
    return Command(issuer, action, source, target)


def _authorized_in_prestate(
    policy: Policy, command: Command, mode: Mode
) -> bool:
    """Independent re-check of Definition 5's side condition."""
    wanted = command.requested_privilege()
    if wanted is None:
        return False
    reachable = policy.descendants(command.user)
    if wanted in reachable:
        return True
    if mode is Mode.STRICT or command.action is CommandAction.REVOKE:
        return False
    return any(
        is_privilege(vertex) and is_weaker(policy, vertex, wanted)
        for vertex in reachable
    )


def _well_sorted(policy: Policy) -> bool:
    try:
        for edge in policy.edge_set():
            check_edge_sorts(*edge)
    except PolicyError:
        return False
    return True


def fuzz_monitor(
    seed: int,
    steps: int = 60,
    shape: PolicyShape = PolicyShape(),
    mode: Mode = Mode.REFINED,
) -> FuzzReport:
    """Run one seeded campaign; returns the report (check ``.ok``)."""
    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    monitor = ReferenceMonitor(policy, mode=mode)
    index = AuthorizationIndex(policy)
    reference = ReferenceIndex(policy)
    report = FuzzReport(seed=seed)

    for _ in range(steps):
        command = _random_command(rng, policy)
        pre_state = policy.copy()
        audit_before = len(monitor.audit_trail)
        strict_would_execute = _authorized_in_prestate(
            pre_state, command, Mode.STRICT
        )
        expected = _authorized_in_prestate(pre_state, command, mode)
        index_says = index.authorizes(command.user, command) is not None
        reference_says = (
            reference.authorizes(command.user, command) is not None
        )

        record = monitor.submit(command)
        report.steps += 1

        # (1) + (2): execution matches independent authorization check.
        if record.executed != expected:
            report.violations.append(
                f"authorization mismatch on {command}: monitor="
                f"{record.executed} oracle={expected}"
            )
        if not record.executed and policy.edge_set() != pre_state.edge_set():
            report.violations.append(f"denied command mutated policy: {command}")
        # (3) sorts.
        if not _well_sorted(policy):
            report.violations.append(f"ill-sorted edge after {command}")
        # (4) strict subset of refined.
        if mode is Mode.REFINED and strict_would_execute and not record.executed:
            report.violations.append(
                f"refined denied a strictly-authorized command: {command}"
            )
        # (5) audit completeness.
        if len(monitor.audit_trail) != audit_before + 1:
            report.violations.append(f"audit gap on {command}")
        # (6) index agreement (decision is on the pre-state, so the
        # index was validated against it before submit).
        if mode is Mode.REFINED and index_says != expected:
            report.violations.append(
                f"index disagrees with oracle on {command}: "
                f"index={index_says} oracle={expected}"
            )
        if mode is Mode.REFINED and reference_says != expected:
            report.violations.append(
                f"reference index disagrees with oracle on {command}: "
                f"reference={reference_says} oracle={expected}"
            )

        if record.executed:
            report.executed += 1
            if record.implicit:
                report.implicit += 1
        else:
            report.denied += 1
    return report


def fuzz_index_churn(
    seed: int,
    steps: int = 40,
    shape: PolicyShape = PolicyShape(),
) -> FuzzReport:
    """Invariant (7): differential churn campaign for the incremental
    authorization index.  Every step applies one random policy mutation
    and compares the incrementally repaired index against a fresh
    ``AuthorizationIndex(policy)`` — held sets, rectangles, effective
    authority, and sampled authorization probes must all agree."""
    from .churn import differential_churn

    report = FuzzReport(seed=seed, steps=steps)
    report.violations.extend(differential_churn(seed, steps, shape))
    return report


def fuzz_compiled_kernel(
    seed: int,
    steps: int = 40,
    shape: PolicyShape = PolicyShape(),
) -> FuzzReport:
    """Invariant (9): the bitset kernel is an implementation detail —
    it must be observationally identical to
    :class:`~repro.oracle.ReferenceIndex` under randomized churn.
    Runs the differential with user removal/re-provisioning enabled
    (interner ID reuse after ``remove_user`` + re-add inside one
    burst)."""
    from .churn import differential_churn

    report = FuzzReport(seed=seed, steps=steps)
    report.violations.extend(
        differential_churn(seed, steps, shape, remove_users=True)
    )
    return report


def _recycling_churn(
    rng: random.Random, policy: Policy, steps: int, spare=frozenset()
) -> None:
    """Random pre-analysis churn that exercises interner ID recycling.

    Mixes UA grant/revoke mutations with full deprovision/re-provision
    cycles: a user's vertex is removed, other vertices are introduced
    (consuming the freed IDs), and the user is re-added — so the
    analyzed policy's interner has recycled IDs and the compiled
    explorers' vid-keyed state cannot silently alias the frozenset
    semantics.  Users and roles in ``spare`` are left untouched."""
    roles = sorted((r for r in policy.roles() if r not in spare), key=str)
    if not roles:
        return
    for index in range(steps):
        users = sorted(
            (u for u in policy.users() if u not in spare), key=str
        )
        if not users:
            break
        draw = rng.random()
        if draw < 0.30 and users:
            # Deprovision, burn the freed ID, re-provision.
            victim = rng.choice(users)
            memberships = [
                role for role in roles if policy.has_edge(victim, role)
            ]
            policy.remove_user(victim)
            policy.add_role(Role(f"recycle_{index}"))
            policy.assign_user(victim, rng.choice(memberships or roles))
        elif draw < 0.65:
            policy.assign_user(rng.choice(users), rng.choice(roles))
        else:
            user = rng.choice(users)
            memberships = [
                role for role in roles if policy.has_edge(user, role)
            ]
            if memberships:
                policy.remove_edge(user, rng.choice(memberships))


def fuzz_compiled_analysis(
    seed: int,
    steps: int = 20,
    shape: PolicyShape = PolicyShape(
        n_users=3, n_roles=4, n_admin_privileges=3, max_nesting=2
    ),
    depth: int = 2,
    probes: int = 4,
    max_states: int = 250,
) -> FuzzReport:
    """Invariant (10): the compiled analysis explorers are an
    implementation detail — undo-log exploration with canonical
    fingerprints must be observationally identical to the reference
    explorers of :mod:`repro.oracle` (policy copies +
    ``(edge_set, vertex_set)`` signatures).

    Compares, after an ID-recycling churn prefix, in both modes:

    * :func:`repro.analysis.safety.can_obtain` against
      :func:`~repro.oracle.reference_can_obtain` over sampled
      (user, user-privilege) cells — verdict, ``states_explored`` and
      the witness queue itself must match;
    * :func:`repro.analysis.reachability.reachable_policies` against
      :func:`~repro.oracle.reference_reachable_policies` — state
      count, per-state witness lengths, and the set of
      (edge set, vertex set) state signatures must match;
    * the HRU encoding's bounded :func:`repro.analysis.hru.check_safety`
      against :func:`~repro.oracle.reference_check_safety` —
      ``leaks``/``steps``/``states_explored`` must match.

    The default shape is deliberately small: exploration is exponential
    in depth, and the invariant is about identity, not scale.
    ``max_states`` bounds the reachability comparison — the two kernels
    expand candidates in identical order, so they must truncate on
    exactly the same state (which the comparison then also pins).
    """
    from ..analysis.hru import check_safety, encode_rbac_grants
    from ..analysis.reachability import reachable_policies
    from ..analysis.safety import can_obtain
    from ..oracle import (
        reference_can_obtain,
        reference_check_safety,
        reference_reachable_policies,
    )

    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    _recycling_churn(rng, policy, steps)
    report = FuzzReport(seed=seed, steps=steps)

    def state_signature(state):
        return (state.policy.edge_set(), state.policy.vertex_set())

    users = sorted(policy.users(), key=str)
    privileges = sorted(policy.user_privileges(), key=str)
    cells = [
        (rng.choice(users), rng.choice(privileges))
        for _ in range(probes)
        if users and privileges
    ]
    for mode in (Mode.STRICT, Mode.REFINED):
        fast = reachable_policies(policy, depth, mode, max_states=max_states)
        oracle = reference_reachable_policies(
            policy, depth, mode, max_states=max_states
        )
        if len(fast) != len(oracle):
            report.violations.append(
                f"reachable_policies count mismatch ({mode.value}): "
                f"compiled={len(fast)} frozenset={len(oracle)}"
            )
        elif [len(s.witness) for s in fast] != [
            len(s.witness) for s in oracle
        ]:
            report.violations.append(
                f"reachable_policies witness lengths diverge ({mode.value})"
            )
        elif {state_signature(s) for s in fast} != {
            state_signature(s) for s in oracle
        }:
            report.violations.append(
                f"reachable_policies state signatures diverge ({mode.value})"
            )
        for probe_index, (user, privilege) in enumerate(cells):
            # Every other probe restricts the acting set (exercising
            # the compiled engine's issuer bitmask filter), including
            # an off-graph colluder the filter must tolerate.
            acting = None
            if probe_index % 2 and users:
                acting = users[: max(1, len(users) // 2)] + [
                    User("fuzz_outside_colluder")
                ]
            fast_verdict = can_obtain(
                policy, user, privilege, depth, mode, acting_users=acting
            )
            oracle_verdict = reference_can_obtain(
                policy, user, privilege, depth, mode, acting_users=acting
            )
            if (
                fast_verdict.reachable != oracle_verdict.reachable
                or fast_verdict.states_explored
                != oracle_verdict.states_explored
                or fast_verdict.witness != oracle_verdict.witness
            ):
                report.violations.append(
                    f"can_obtain mismatch ({mode.value}) on "
                    f"({user}, {privilege}, acting={acting}): "
                    f"compiled={fast_verdict} frozenset={oracle_verdict}"
                )

    matrix, commands = encode_rbac_grants(policy)
    names = sorted(matrix.names)
    for _ in range(min(probes, 2)):
        cell_subject, cell_object = rng.choice(names), rng.choice(names)
        fast_result = check_safety(
            matrix, commands, "m", cell_subject, cell_object, max_steps=2
        )
        oracle_result = reference_check_safety(
            matrix, commands, "m", cell_subject, cell_object, max_steps=2
        )
        if (
            fast_result.leaks != oracle_result.leaks
            or fast_result.steps != oracle_result.steps
            or fast_result.states_explored != oracle_result.states_explored
        ):
            report.violations.append(
                f"hru check_safety mismatch on ({cell_subject}, "
                f"{cell_object}): compiled={fast_result} "
                f"frozenset={oracle_result}"
            )
    return report


def _policy_index_problems(policy: Policy) -> list[str]:
    """The policy's own index (:attr:`Policy.index`) against a fresh
    build: equal held sets for every user, and a cover table that is
    the inversion of its memo with every memoized rectangle current
    (:func:`~repro.workloads.churn.cover_table_problems`).  The
    reference lint's redundancy probes and repair's undo log mutate the
    policy and restore it; the shared index must follow both."""
    from .churn import cover_table_problems

    index = policy.index
    fresh = AuthorizationIndex(policy)
    problems = cover_table_problems(index, fresh)
    users = list(policy.users())
    if index.held_privileges_bulk(users) != fresh.held_privileges_bulk(users):
        problems.append("held privileges diverge from a fresh build")
    return problems


def _edge_churn(rng: random.Random, policy: Policy, steps: int) -> None:
    """Random role-hierarchy and privilege-assignment churn: RH edges
    added and removed, privileges of the policy's subterm closure
    assigned, and PA edges removed — the last garbage-collects a
    privilege vertex whose only assignment goes, so a later
    assignment brings it back under a recycled interner ID."""
    for _ in range(steps):
        roles = sorted(policy.roles(), key=str)
        if len(roles) < 2:
            return
        draw = rng.random()
        if draw < 0.3:
            senior, junior = rng.sample(roles, 2)
            policy.add_inheritance(senior, junior)
        elif draw < 0.5:
            edges = sorted(policy.rh_edges(), key=str)
            if edges:
                policy.remove_edge(*rng.choice(edges))
        elif draw < 0.8:
            closure = sorted(policy.subterm_closure(), key=str)
            if closure:
                policy.assign_privilege(
                    rng.choice(roles), rng.choice(closure)
                )
        else:
            edges = sorted(policy.pa_edges(), key=str)
            if edges:
                policy.remove_edge(*rng.choice(edges))


def _plant_grant_chain(policy: Policy) -> None:
    """A two-step grant escalation the campaign's churn can carry,
    break and restore: ``chain_eve`` holds, through ``chain_admin``,
    ``¤(chain_eve, chain_stage)`` and ``¤(chain_stage, chain_vault)``,
    and ``chain_vault`` holds a user privilege — so granting both edges
    in turn brings it into ``chain_eve``'s reach, a
    ``depth-k-escalation`` finding no one-step grant shows.  The chain's
    roles join the churned population, so a burst can change what the
    grants' targets reach without touching ``chain_eve``'s own reach."""
    eve, admin = User("chain_eve"), Role("chain_admin")
    stage, vault = Role("chain_stage"), Role("chain_vault")
    policy.assign_user(eve, admin)
    policy.add_role(stage)
    policy.assign_privilege(admin, Grant(eve, stage))
    policy.assign_privilege(admin, Grant(stage, vault))
    policy.assign_privilege(vault, perm("open", "chain_vault"))


def _plant_delegation_cycle(policy: Policy) -> None:
    """Two delegation edges whose redundancy turns on a cycle through
    their source ``cycle_a`` (``cycle_a -> cycle_c -> cycle_a``):
    ``(cycle_a, cycle_b)`` passes the closure prefilter only through
    the cycle (``cycle_c`` reaches ``cycle_b`` back through
    ``cycle_a``), so it is *not* redundant; ``(cycle_a, cycle_d)`` is
    redundant, but its one witness ``cycle_c`` also reaches the
    source.  A redundancy test that lets the reroute pass through the
    source, or one that trusts only witnesses avoiding it, gets one of
    the two wrong."""
    a, b, c, d = (Role(f"cycle_{name}") for name in "abcd")
    policy.assign_user(User("cycle_user"), a)
    for senior, junior in ((a, b), (a, c), (c, a), (c, d), (a, d)):
        policy.add_inheritance(senior, junior)
    policy.assign_privilege(b, perm("read", "cycle_b"))
    policy.assign_privilege(d, perm("read", "cycle_d"))


def _sampled_ssd(name: str, picked: list):
    """An SSD separation set over ``picked`` roles; three or more
    picked roles make it a cardinality-3 set, so the rules' at-least
    counting is exercised above the default cardinality of 2."""
    from ..analysis.constraints import SsdConstraint

    return SsdConstraint(
        name, frozenset(picked), cardinality=3 if len(picked) >= 3 else 2
    )


def fuzz_lint(
    seed: int,
    steps: int = 24,
    shape: PolicyShape = PolicyShape(
        n_users=4, n_roles=5, n_admin_privileges=4, max_nesting=2
    ),
    rounds: int = 3,
) -> FuzzReport:
    """Invariant (11): the bitset-compiled lint pass is an
    implementation detail — :func:`repro.analysis.lint.lint_policy`
    must produce findings (rules, severities, subjects, witnesses,
    messages, repairs) and per-rule statistics identical to the
    frozenset twins of :func:`repro.oracle.reference_lint_policy`.

    The comparison runs on the freshly generated policy and again
    after each of ``rounds`` chunks of :func:`_recycling_churn` — so
    the compiled sweeps are exercised over interners with freed and
    recycled vertex IDs.  Each comparison also declares an SSD
    separation set sampled from the live roles, pinning the
    ``constraint-conflict`` rule and its twin (cardinality 3 when three
    roles are picked, see :func:`_sampled_ssd`).

    Alongside, a :class:`~repro.analysis.lint.LintSession` and a
    :class:`~repro.oracle.ReferenceLintSession` live across the whole
    campaign: after each churn chunk, and after each of four further
    bursts of :func:`_edge_churn`, both sessions re-lint and must find
    exactly what a fresh full reference lint of a copy finds.  Session churn draws from its own
    seeded stream, so the kernel comparisons see the policies they
    always did until the first burst.  After every re-lint the
    policy's own index, built by the first check and then repaired
    across the reference session's redundancy probes (which mutate and
    restore the policy), must equal a fresh build
    (:func:`_policy_index_problems`).

    The generated policy gets a two-step grant chain
    (:func:`_plant_grant_chain`) and two delegation edges whose
    redundancy turns on a cycle through their source
    (:func:`_plant_delegation_cycle`), planted again after each churn
    chunk, so the re-lints see ``depth-k-escalation`` findings and the
    redundancy rule meets both sides of its cycle case; ``counts``
    records how many depth-k findings each re-lint compared
    (``depth_k_compared``) and each session carried over
    (``depth_k_carried_<kernel>``).
    """
    from ..analysis.lint import LintSession, lint_policy
    from ..oracle import ReferenceLintSession, reference_lint_policy

    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    _plant_grant_chain(policy)
    _plant_delegation_cycle(policy)
    report = FuzzReport(seed=seed, steps=steps)
    session_rng = random.Random(f"lint-session-{seed}")
    roles = sorted(policy.roles(), key=str)
    session_constraints = (
        (
            _sampled_ssd(
                "fuzz_session", session_rng.sample(roles, min(3, len(roles)))
            ),
        )
        if len(roles) >= 2 else ()
    )
    sessions = {
        kernel: session_class(policy, constraints=session_constraints)
        for kernel, session_class in (
            ("compiled", LintSession), ("frozenset", ReferenceLintSession)
        )
    }
    for session in sessions.values():
        session.lint()

    def relint(label: str) -> None:
        fresh = reference_lint_policy(
            policy.copy(), constraints=session_constraints
        )
        report.count("depth_k_compared", sum(
            finding.rule == "depth-k-escalation" for finding in fresh.findings
        ))
        for kernel, session in sessions.items():
            found = session.lint()
            report.count(
                f"depth_k_carried_{kernel}",
                session.carried.get("depth-k-escalation", 0),
            )
            if found.findings != fresh.findings:
                stale = set(found.findings) - set(fresh.findings)
                missed = set(fresh.findings) - set(found.findings)
                report.violations.append(
                    f"{kernel} session re-lint diverges ({label}): "
                    f"stale={sorted(f.sort_key for f in stale)} "
                    f"missed={sorted(f.sort_key for f in missed)}"
                )
        report.violations.extend(
            f"policy index after re-lint ({label}): {problem}"
            for problem in _policy_index_problems(policy)
        )

    def compare(label: str) -> None:
        roles = sorted(policy.roles(), key=str)
        constraints = ()
        if len(roles) >= 2:
            picked = rng.sample(roles, min(3, len(roles)))
            constraints = (_sampled_ssd(f"fuzz_sep_{label}", picked),)
        fast = lint_policy(policy, constraints=constraints)
        oracle = reference_lint_policy(policy, constraints=constraints)
        if fast.findings != oracle.findings:
            fast_only = set(fast.findings) - set(oracle.findings)
            oracle_only = set(oracle.findings) - set(fast.findings)
            report.violations.append(
                f"lint findings diverge ({label}): "
                f"compiled-only={sorted(f.sort_key for f in fast_only)} "
                f"frozenset-only={sorted(f.sort_key for f in oracle_only)}"
            )
        elif fast.stats != oracle.stats:
            report.violations.append(
                f"lint stats diverge ({label}): "
                f"compiled={fast.stats} frozenset={oracle.stats}"
            )

    compare("initial")
    for round_index in range(rounds):
        _recycling_churn(rng, policy, steps)
        _plant_grant_chain(policy)
        _plant_delegation_cycle(policy)
        relint(f"round_{round_index}")
        compare(f"round_{round_index}")
        for burst in range(4):
            _edge_churn(session_rng, policy, 1 + burst % 3)
            relint(f"round_{round_index}_burst_{burst}")
    return report


def fuzz_repair(
    seed: int,
    steps: int = 18,
    shape: PolicyShape = PolicyShape(
        n_users=4, n_roles=5, n_admin_privileges=4, max_nesting=2
    ),
    rounds: int = 2,
) -> FuzzReport:
    """Invariant (13): the lint-to-repair engine agrees with its
    reference run and is self-consistent.

    Per round: :func:`~repro.analysis.repair.repair_policy` repairs the
    churned policy **in place** (over the recycled interner layout the
    churn produced) while :func:`repro.oracle.reference_repair_policy`
    repairs a copy.  The two runs must emit
    identical plan/outcome sequences and value-equal repaired policies;
    the repaired policy must refine the pre-repair one (Definition 6),
    checked both by :func:`~repro.core.refinement.is_refinement` and as
    ``granted_pairs`` inclusion; and the result must be a fixpoint — repairing again applies no
    plan, and a fresh lint equals the run's final report.  Replaying
    the applied plans on a copy of the input, the findings each run's
    lint session re-linted to after every applied plan must equal a
    fresh full reference lint of the replayed state; and each rejected
    plan, applied to the replayed state through the undo log and
    rolled back, must leave it value-equal with an index that equals a
    fresh build.  The repaired policies' own indexes (the in-place
    run's, repaired across every plan the undo log applied and rolled
    back since the previous round's check, and the re-repair's work
    copy's) must equal fresh builds (:func:`_policy_index_problems`).  Churn
    then continues from the repaired policy into the next round.  Every
    round starts with a two-step grant chain
    (:func:`_plant_grant_chain`) and the cycle-through-source
    delegations (:func:`_plant_delegation_cycle`) planted, so the runs
    plan, apply and re-lint ``depth-k-escalation`` and
    ``redundant-delegation`` repairs on those shapes.
    """
    from ..analysis.lint import lint_policy
    from ..analysis.repair import APPLIED, _UndoLog, repair_policy
    from ..core.refinement import granted_pairs, is_refinement
    from ..oracle import reference_lint_policy, reference_repair_policy

    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    _plant_grant_chain(policy)
    _plant_delegation_cycle(policy)
    report = FuzzReport(seed=seed, steps=steps)

    def run_round(label: str) -> None:
        roles = sorted(policy.roles(), key=str)
        constraints = ()
        if len(roles) >= 2:
            picked = rng.sample(roles, min(3, len(roles)))
            constraints = (_sampled_ssd(f"fuzz_repair_{label}", picked),)
        baseline = policy.copy()
        oracle_policy = policy.copy()
        fast = repair_policy(policy, constraints=constraints, in_place=True)
        oracle = reference_repair_policy(
            oracle_policy, constraints=constraints, in_place=True
        )
        fast_signatures = [o.signature() for o in fast.outcomes]
        oracle_signatures = [o.signature() for o in oracle.outcomes]
        if fast_signatures != oracle_signatures:
            report.violations.append(
                f"repair plans diverge ({label}): "
                f"compiled={fast_signatures} frozenset={oracle_signatures}"
            )
            return
        if policy != oracle_policy:
            report.violations.append(
                f"repaired policies diverge ({label}): compiled and "
                "frozenset runs applied identical plans but produced "
                "unequal policies"
            )
            return
        if fast.final.findings != oracle.final.findings:
            report.violations.append(
                f"post-repair findings diverge ({label})"
            )
        if not is_refinement(baseline, policy):
            report.violations.append(
                f"repaired policy does not refine its input ({label})"
            )
        # The same property by its definition, independent of the
        # edge-difference checker above.
        if not granted_pairs(policy) <= granted_pairs(baseline):
            report.violations.append(
                f"repaired policy grants a pair its input did not ({label})"
            )
        recheck = repair_policy(policy, constraints=constraints)
        if recheck.applied:
            report.violations.append(
                f"not a fixpoint ({label}): re-repair applied "
                f"{len(recheck.applied)} plan(s)"
            )
        for run, repaired in (("repair", policy), ("re-repair", recheck.policy)):
            report.violations.extend(
                f"policy index after {run} ({label}): {problem}"
                for problem in _policy_index_problems(repaired)
            )
        fresh = lint_policy(policy, constraints=constraints)
        if fresh.findings != fast.final.findings:
            report.violations.append(
                f"final report stale ({label}): fresh lint disagrees "
                "with the run's final findings"
            )
        replayed = baseline.copy()
        log = _UndoLog(replayed)
        for step, (mine, theirs) in enumerate(
            zip(fast.outcomes, oracle.outcomes)
        ):
            if mine.status != APPLIED:
                # The driver applied this plan, re-linted (its index
                # absorbing the plan) and rolled it back; the state and
                # its index must come back whole.
                replayed.index
                before = replayed.copy()
                undo = _UndoLog(replayed)
                for action in mine.plan.actions:
                    undo.apply(action)
                replayed.index
                undo.rollback()
                if replayed != before:
                    report.violations.append(
                        f"rolled-back plan changed the policy ({label}, "
                        f"plan {step}): {mine.plan.render()}"
                    )
                report.violations.extend(
                    f"policy index after rolled-back plan ({label}, "
                    f"plan {step}): {problem}"
                    for problem in _policy_index_problems(replayed)
                )
                continue
            for plan in (mine.plan, *mine.cascades):
                for action in plan.actions:
                    log.apply(action)
            expected = reference_lint_policy(
                replayed.copy(), constraints=constraints
            ).findings
            for kernel, outcome in (("compiled", mine), ("frozenset", theirs)):
                if outcome.findings != expected:
                    report.violations.append(
                        f"{kernel} post-plan re-lint diverges ({label}, "
                        f"plan {step}): {outcome.plan.render()}"
                    )

    run_round("initial")
    for round_index in range(rounds):
        _recycling_churn(rng, policy, steps)
        _plant_grant_chain(policy)
        _plant_delegation_cycle(policy)
        run_round(f"round_{round_index}")
    return report


def fuzz_batch_authz(
    seed: int,
    steps: int = 16,
    shape: PolicyShape = PolicyShape(),
    queries: int = 250,
    rounds: int = 3,
) -> FuzzReport:
    """Invariant (12): batch authorization is an implementation detail
    — ``authorizes_batch(pairs)`` must be element-for-element identical
    to ``[authorizes(u, c) for (u, c) in pairs]`` and
    ``held_privileges_bulk(users)`` to per-user ``held_privileges``;
    every scalar verdict must agree at grant/deny level with
    :class:`~repro.oracle.ReferenceIndex`, and the bulk held sets with
    the reference's.

    The query batches are deliberately hostile to the batch path's
    shortcuts (the cover-table AND per distinct edge):

    * one subject is permanently deprovisioned up front — its held
      ``Grant``/``Revoke`` terms keep it as an *off-graph rectangle
      endpoint* (extras), and it doubles as an unindexed ghost subject;
    * subjects and commands appear as equal-but-distinct objects
      (the kernel routes by ``id()``, so value-equal twins must land in
      sibling groups with identical verdicts);
    * edges name off-graph sources/targets (the extras slow path) and
      batches are duplicate-heavy;
    * the comparison repeats after each of ``rounds`` chunks of
      :func:`_recycling_churn`, so batch sweeps also run right after
      incremental repairs over recycled interner IDs;
    * before each chunk a snapshot is captured and its batch verdicts
      recorded: once the live index has repaired the chunk, the
      snapshot's verdicts must be unchanged and still equal its own
      scalar ones (the fork shares the cover table copy-on-write, so a
      live repair must never reach it).
    """
    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    report = FuzzReport(seed=seed, steps=steps)

    ghost = None
    initial_users = sorted(policy.users(), key=str)
    if len(initial_users) > 2:
        ghost = rng.choice(initial_users)
        policy.remove_user(ghost)

    # The policy's own index, so each round's ReviewSnapshot forks it.
    index = policy.index
    reference = ReferenceIndex(policy)

    offgraph_role = Role("fuzz_offgraph_role")

    def build_pairs() -> list:
        pairs: list = []
        live = sorted(policy.users(), key=str)
        roles = sorted(policy.roles(), key=str)
        if not live or not roles:
            return pairs
        while len(pairs) < queries:
            command = _random_command(rng, policy)
            subject = command.user
            draw = rng.random()
            if ghost is not None and draw < 0.08:
                subject = ghost  # unindexed ghost: must decide None
            elif draw < 0.16:
                # Equal-but-distinct subject object: the id()-routed
                # kernel must still find the indexed entry.
                subject = User(subject.name)
            elif ghost is not None and draw < 0.24:
                # Off-graph source — the extras slow path (the ghost's
                # delegation rectangles carry it in extra_sources).
                command = Command(
                    subject, CommandAction.GRANT, ghost, rng.choice(roles)
                )
            elif draw < 0.30:
                # Off-graph target: never covered, never crashes.
                command = Command(
                    subject, CommandAction.GRANT,
                    rng.choice(live), offgraph_role,
                )
            pairs.append((subject, command))
            if rng.random() < 0.25:
                pairs.append((subject, command))  # identical duplicate
            if rng.random() < 0.10:
                # Value-equal twin command (fresh objects all the way).
                pairs.append((subject, Command(
                    command.user, command.action,
                    command.source, command.target,
                )))
        return pairs

    def compare(label: str) -> None:
        pairs = build_pairs()
        population = sorted(policy.users(), key=str)
        if population:
            population.append(rng.choice(population))  # duplicate user
        if ghost is not None:
            population.append(ghost)
        batch = index.authorizes_batch(pairs)
        scalar = [
            index.authorizes(user, command) for user, command in pairs
        ]
        if batch != scalar:
            position = next(
                i for i, (b, s) in enumerate(zip(batch, scalar))
                if b != s
            )
            report.violations.append(
                f"batch/scalar divergence ({label}) at pair "
                f"{position}: batch={batch[position]} "
                f"scalar={scalar[position]} query={pairs[position]}"
            )
        for verdict, (user, command) in zip(scalar, pairs):
            expected = reference.authorizes(user, command)
            if (verdict is None) != (expected is None):
                report.violations.append(
                    f"index and reference disagree ({label}) on "
                    f"{command} for {user}: index={verdict} "
                    f"reference={expected}"
                )
        if index.authorizes_batch([]) != []:
            report.violations.append(
                f"non-empty verdicts for empty batch ({label})"
            )
        bulk = index.held_privileges_bulk(population)
        per_user = {
            user: index.held_privileges(user) for user in population
        }
        if bulk != per_user:
            report.violations.append(
                f"held_privileges_bulk divergence ({label}): "
                f"{sorted(str(u) for u in bulk if bulk[u] != per_user[u])}"
            )
        if bulk != reference.held_privileges_bulk(population):
            report.violations.append(
                f"held_privileges_bulk diverges from the reference "
                f"({label})"
            )

    compare("initial")
    for round_index in range(rounds):
        snapshot = ReviewSnapshot(policy)
        pinned_pairs = build_pairs()
        pinned = snapshot.authorizes_batch(pinned_pairs)
        _recycling_churn(rng, policy, steps)
        index.refresh()
        after = snapshot.authorizes_batch(pinned_pairs)
        if after != pinned:
            report.violations.append(
                f"snapshot batch verdicts changed under live repair "
                f"(round_{round_index})"
            )
        if after != [
            snapshot.authorizes(user, command)
            for user, command in pinned_pairs
        ]:
            report.violations.append(
                f"snapshot batch/scalar divergence after live repair "
                f"(round_{round_index})"
            )
        compare(f"round_{round_index}")
    return report


def _valid_verdict(
    reference: ReferenceIndex, subject, command, claimed
) -> bool:
    """True when ``claimed`` genuinely authorizes ``command`` for
    ``subject`` on ``reference``'s current state: held by the subject,
    and equal to the requested privilege or stronger under the
    ordering oracle (revocations authorize by exact match only).  The
    PDP and the reference may legitimately *report* different covering
    privileges — scan order differs — so campaigns pin validity, not
    identity."""
    wanted = command.requested_privilege()
    if wanted is None or claimed is None:
        return False
    if claimed not in reference.held_privileges(subject):
        return False
    if claimed == wanted:
        return True
    if command.action is CommandAction.REVOKE:
        return False
    return reference.ordering.is_weaker(claimed, wanted)


def fuzz_pdp(
    seed: int,
    steps: int = 12,
    shape: PolicyShape = PolicyShape(),
    rounds: int = 2,
    readers: int = 4,
    reads_per_reader: int = 10,
    mutations_per_round: int = 9,
) -> FuzzReport:
    """Invariant (14): the asyncio PDP is an implementation detail.

    Each round runs ``readers`` reader coroutines (each issuing
    ``reads_per_reader`` random checks, ~30% immediately repeated to
    hit the decision cache) concurrently with a writer coroutine
    pushing ``mutations_per_round`` random administrative commands
    through the PDP's micro-batching queue, under a deliberately tiny
    token-bucket rate limit on a manual clock — so decisions routinely
    bounce off :class:`~repro.serve.RateLimited` and are re-issued
    after advancing the clock.  Every decision (fresh, cached, or
    post-rate-limit retry) is recorded with its pinned snapshot
    version and afterwards checked against a
    :class:`~repro.oracle.ReferenceIndex` over that version's state
    as the PDP's WAL replays it (:func:`~repro.serve.wal.state_at`) —
    the synchronous oracle: allowed/denied must agree exactly, and an
    allowed decision's claimed privilege must be held by the subject
    and cover the command under the ordering oracle.  (Which of
    several covering privileges gets reported follows each side's
    scan order — ascending interned IDs vs frozenset hash order — so
    the *choice* is deliberately not pinned; its *validity* is.)
    Every snapshot a reader materialized — a fork of the live index
    onto a policy clone, or a build over the rewound policy — must
    hold the logged state and report that oracle's held privileges
    for every user.  Each round's ``batch`` records must
    log the submitted commands in order and are replayed through a
    fresh synchronous ``submit_queue(batched=True)`` monitor starting
    from the round-entry policy: the :class:`ExecutionRecord`
    sequences must match on executed/noop element for element, the
    claimed authorizations must validate against the replay's
    batch-entry state the same way, and the replayed policy must
    equal the served one.  Between rounds :func:`_recycling_churn` mutates the
    policy out of band and ``refresh()`` republishes — exercising the
    cache's journal-driven eviction over removed and recycled
    interner IDs.  The churn comes in two halves with an unread
    refresh between them, and the round's commands are read once more
    while the second half awaits its refresh, and again after it: the
    first reads must answer at the half-way version from the live
    policy rewound through its journal, and the second must not be
    served the verdicts they cached.  An edge planted across the halves
    (added in the first, removed in the second) allows, at the
    half-way version, a grant whose denial was cached before the churn,
    so a cache that reads that window compacted serves the stale
    denial.  No decision may name a version
    later than the published one, and every snapshot a reader
    materializes must be the published version's.  Each round also
    ends with a deterministic probe pair (same command checked twice
    with no writer in flight): the second decision must be a cache hit
    and must equal the first, and a campaign that never exercised the
    rate-limited-retry path is itself a violation.  Before that churn, a subject holding a cached
    allow is deprovisioned and a newcomer takes its interned ID ahead
    of the next publication, and the subject's command is checked
    again, so a cache that misses vertex churn hands out a stale
    verdict the oracle pass rejects.
    """
    import asyncio
    import os
    import tempfile

    from ..core.serialization import command_from_dict
    from ..serve import PolicyDecisionPoint, PolicyWal, RateLimited
    from ..serve import RateLimiter, WalError, iter_wal, read_wal, state_at
    from ..serve.cache import cacheable

    #: version -> every snapshot a reader of the PDP materialized.
    published = {}

    class RecordingPdp(PolicyDecisionPoint):
        def _materialize(self):
            snapshot = super()._materialize()
            if snapshot.version != self.version:
                report.violations.append(
                    f"reader snapshot at version {snapshot.version} while "
                    f"version {self.version} is published"
                )
            published[snapshot.version] = snapshot
            return snapshot

    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    report = FuzzReport(seed=seed, steps=steps)

    clock_cell = [0.0]

    def clock() -> float:
        return clock_cell[0]

    #: (subject, command, Decision) for every decision handed out.
    observed: list[tuple] = []
    #: (command, ExecutionRecord) in submission order.
    submitted: list[tuple] = []
    retries = 0

    async def checked(command):
        """One decision, retrying through rate-limit rejections."""
        nonlocal retries
        while True:
            try:
                decision = await pdp.check(command.user, command)
            except RateLimited as exc:
                retries += 1
                clock_cell[0] += exc.retry_after + 1e-9
                continue
            observed.append((command.user, command, decision))
            if decision.version > pdp.version:
                report.violations.append(
                    f"decision at unpublished version {decision.version} "
                    f"(published {pdp.version}) on {command}"
                )
            return decision

    async def reader_task():
        for _ in range(reads_per_reader):
            command = _random_command(rng, policy)
            for _ in range(2 if rng.random() < 0.3 else 1):
                await checked(command)
            await asyncio.sleep(0)

    async def writer_task(commands):
        nonlocal retries
        for start in range(0, len(commands), 3):
            chunk = commands[start:start + 3]
            while True:
                try:
                    records = await pdp.submit_many(chunk)
                except RateLimited as exc:
                    retries += 1
                    # Refill enough for the whole chunk, not just the
                    # rejected principal's deficit — principals earlier
                    # in the chunk spent their share on the failed
                    # attempt and need topping up too.
                    clock_cell[0] += (
                        exc.retry_after + len(chunk) / 50.0 + 1e-9
                    )
                    continue
                submitted.extend(zip(chunk, records))
                break
            await asyncio.sleep(0)

    def verify_batches(label, mirror, start_seq, round_submitted):
        """Replay the round's logged batches (the ``batch`` records
        from ``start_seq`` on) through a synchronous monitor from the
        round-entry state.  The log must hold exactly the round's
        submitted commands in order; outcomes and final policy must
        match, and each executed record's claimed authorization must
        validate against the replay's batch-entry state."""
        batches = [
            [command_from_dict(doc) for doc in record.payload["commands"]]
            for record in iter_wal(wal_path)
            if record.seq >= start_seq and record.kind == "batch"
        ]
        logged = [command for batch in batches for command in batch]
        if logged != [command for command, _ in round_submitted]:
            report.violations.append(
                f"WAL batches ({label}) do not log the submitted "
                "commands in order"
            )
            return
        outcomes = iter(record for _, record in round_submitted)
        oracle_monitor = ReferenceMonitor(
            mirror, mode=Mode.REFINED, use_index=True
        )
        reference = ReferenceIndex(mirror)
        for batch in batches:
            mine_batch = [next(outcomes) for _ in batch]
            # Validate claimed authorizations at batch entry, before
            # the replay advances the mirror.
            for command, mine in zip(batch, mine_batch):
                if not mine.executed:
                    continue
                if not _valid_verdict(
                    reference, command.user, command, mine.authorized_by
                ):
                    report.violations.append(
                        f"invalid batch authorization ({label}) on "
                        f"{command}: claimed {mine.authorized_by}"
                    )
                if mine.implicit != (
                    mine.authorized_by != command.requested_privilege()
                ):
                    report.violations.append(
                        f"inconsistent implicit flag ({label}) on "
                        f"{command}: {mine}"
                    )
            records = oracle_monitor.submit_queue(batch, batched=True)
            for command, mine, record in zip(batch, mine_batch, records):
                if (mine.executed, mine.noop) != (
                    record.executed, record.noop
                ):
                    report.violations.append(
                        f"batch replay diverges ({label}) on {command}: "
                        f"pdp={mine} oracle={record}"
                    )
        if mirror != policy:
            report.violations.append(
                f"served policy diverges from synchronous replay ({label})"
            )

    async def probe_cache(label):
        """Deterministic cache-hit check: the same cacheable command
        twice with no writer in flight — the second answer must come
        from the cache and equal the first."""
        users = sorted(policy.users(), key=str)
        roles = sorted(policy.roles(), key=str)
        if not users or not roles:
            return
        probe = Command(
            rng.choice(users), CommandAction.GRANT,
            rng.choice(users), rng.choice(roles),
        )
        first = await checked(probe)
        second = await checked(probe)
        if not second.cached:
            report.violations.append(
                f"expected a cache hit on immediate re-check ({label})"
            )
        if (first.allowed, first.authorized_by, first.version) != (
            second.allowed, second.authorized_by, second.version
        ):
            report.violations.append(
                f"cache hit diverges from the miss it cached ({label}): "
                f"{first} vs {second}"
            )

    async def deprovision_cached(label):
        """A subject holding a cached allow is deprovisioned and a
        newcomer takes its interned ID before the next publication;
        the subject's command, re-checked after it, must then be
        denied (the oracle pass below pins every decision), which a
        cache blind to the window's vertex churn would answer from
        its stale entry."""
        tried = set()
        for subject, command, decision in reversed(observed):
            if (
                not decision.allowed or subject in tried
                or subject not in policy.graph or not cacheable(command)
            ):
                continue
            tried.add(subject)
            # Twice: the second answer comes from the cache.
            if (await checked(command)).allowed and (
                await checked(command)
            ).cached:
                break
        else:
            return
        roles = sorted(policy.graph.successors(subject), key=str)
        freed = policy.graph.vid(subject)
        policy.remove_user(subject)
        newcomer = User(f"newcomer_{label}")
        policy.add_user(newcomer)
        for role in roles:
            policy.assign_user(newcomer, role)
        if policy.graph.vid(newcomer) != freed:
            report.violations.append(
                f"newcomer did not take the deprovisioned {subject}'s "
                f"interned ID ({label})"
            )
        await pdp.refresh()
        await checked(command)

    async def churn_read(label):
        """Out-of-band churn in two halves with a publication nobody
        reads in between, then the round's cacheable commands read
        while the second half awaits ``refresh()`` — the reader's
        snapshot is the live policy rewound to the half-way version,
        and the cache keeps those verdicts — and again after it, when
        every verdict the second half changed must be evicted.

        A planted edge rides the two halves: ``holder`` joins the role
        holding ``¤(holder, target)`` in the first half and leaves it
        in the second, and a denial of ``holder``'s grant, cached before
        the churn, is read again at the half-way version, which allows
        it.  The window up to the head must keep both deltas: compacted,
        they cancel and the cache serves its stale denial.  The random
        churn spares the planted vertices, so no other delta evicts the
        denial by chance."""
        holder = User(f"planted_{label}")
        grantor = Role(f"planted_grantor_{label}")
        target = Role(f"planted_target_{label}")
        policy.add_user(holder)
        policy.add_role(target)
        policy.assign_privilege(grantor, Grant(holder, target))
        planted = Command(holder, CommandAction.GRANT, holder, target)
        await pdp.refresh()
        for _ in range(2):
            await checked(planted)
        spare = {holder, grantor, target}
        _recycling_churn(rng, policy, steps // 2, spare)
        policy.assign_user(holder, grantor)
        await pdp.refresh()
        policy.remove_edge(holder, grantor)
        _recycling_churn(rng, policy, steps - steps // 2, spare)
        commands = list(dict.fromkeys(
            [planted] + [
                command for _, command, _ in observed[-4 * readers:]
                if cacheable(command)
            ]
        ))[:9]
        for command in commands:
            await checked(command)
        await pdp.refresh()
        for command in commands:
            await checked(command)

    async def campaign():
        async with pdp:
            for round_index in range(rounds):
                label = f"round_{round_index}"
                mirror = policy.copy()
                start_seq = pdp.wal.next_seq
                submitted_start = len(submitted)
                mutations = [
                    _random_command(rng, policy)
                    for _ in range(mutations_per_round)
                ]
                await asyncio.gather(
                    writer_task(mutations),
                    *(reader_task() for _ in range(readers)),
                )
                verify_batches(
                    label, mirror, start_seq, submitted[submitted_start:]
                )
                await probe_cache(label)
                await deprovision_cached(label)
                await churn_read(label)

    with tempfile.TemporaryDirectory(prefix="repro-pdp-") as workdir:
        wal_path = os.path.join(workdir, "pdp.wal")
        pdp = RecordingPdp(
            ReferenceMonitor(policy, mode=Mode.REFINED, use_index=True),
            rate_limiter=RateLimiter(capacity=4.0, rate=50.0, clock=clock),
            clock=clock,
            max_batch=6,
            wal=PolicyWal(wal_path, fsync=False),
        )
        published[pdp.version] = pdp.last_snapshot
        asyncio.run(campaign())
        records, _ = read_wal(wal_path)

    #: version -> ReferenceIndex over the logged state (None: none).
    oracle_indexes: dict[int, ReferenceIndex | None] = {}

    def logged_oracle(version, what):
        if version not in oracle_indexes:
            try:
                oracle_indexes[version] = ReferenceIndex(
                    state_at(records, version)
                )
            except WalError as error:
                oracle_indexes[version] = None
                report.violations.append(
                    f"{what} at version {version} has no logged "
                    f"state: {error}"
                )
        return oracle_indexes[version]

    for version, snapshot in published.items():
        oracle = logged_oracle(version, "published snapshot")
        if oracle is None:
            continue
        if snapshot.policy_copy() != oracle.policy:
            report.violations.append(
                f"published snapshot at version {version} diverges "
                "from the policy its WAL replays to"
            )
            continue
        users = list(oracle.policy.users())
        if snapshot.held_privileges_bulk(users) != (
            oracle.held_privileges_bulk(users)
        ):
            report.violations.append(
                f"published snapshot at version {version}: held "
                "privileges diverge from the reference index"
            )

    for subject, command, decision in observed:
        oracle = logged_oracle(decision.version, f"decision on {command}")
        if oracle is None:
            continue
        verdict = oracle.authorizes(subject, command)
        if decision.allowed != (verdict is not None):
            report.violations.append(
                f"decision diverges from oracle at version "
                f"{decision.version} (cached={decision.cached}): "
                f"{command} pdp={decision.authorized_by} oracle={verdict}"
            )
        elif decision.allowed and not _valid_verdict(
            oracle, subject, command, decision.authorized_by
        ):
            report.violations.append(
                f"invalid authorization claim at version "
                f"{decision.version} (cached={decision.cached}): "
                f"{command} claimed {decision.authorized_by}"
            )
        elif not decision.allowed and decision.authorized_by is not None:
            report.violations.append(
                f"denied decision carries a privilege at version "
                f"{decision.version}: {command} {decision.authorized_by}"
            )

    if retries == 0:
        report.violations.append(
            "campaign never exercised the rate-limited retry path"
        )
    if pdp.metrics.cache_hits == 0:
        report.violations.append("campaign never hit the decision cache")

    for _, record in submitted:
        if record.executed:
            report.executed += 1
            if record.implicit:
                report.implicit += 1
        else:
            report.denied += 1
    return report


def fuzz_crash_recovery(
    seed: int,
    batches: int = 5,
    batch_size: int = 6,
    shape: PolicyShape = PolicyShape(),
    crash_batch: int | None = None,
) -> FuzzReport:
    """Invariant (15): crash recovery is deterministic replay.

    Runs the differential crash-recovery campaign
    (:func:`repro.workloads.faults.differential_crash_recovery`) —
    one uninterrupted oracle trace, then a kill at every injection
    point with recovery pinned byte-identical to the oracle's durable
    prefix — then the recoverable-failure sweep
    (:func:`repro.workloads.faults.differential_append_failure`):
    an ``InjectedFailure`` (``wal.before_fsync:fail`` and friends)
    mid-trace must fail only its batch, leave a chain that still
    verifies, and recover byte-identical to the surviving service —
    followed by the tamper matrix
    (:func:`repro.workloads.faults.wal_tamper_campaign`): every
    single-record mutation, omission and truncation of a healthy log
    must be rejected."""
    from .faults import (
        differential_append_failure,
        differential_crash_recovery,
        wal_tamper_campaign,
    )

    violations = differential_crash_recovery(
        seed=seed,
        batches=batches,
        batch_size=batch_size,
        shape=shape,
        crash_batch=crash_batch,
    )
    violations += differential_append_failure(
        seed=seed,
        batches=batches,
        batch_size=batch_size,
        shape=shape,
        fail_batch=crash_batch,
    )
    violations += wal_tamper_campaign(
        seed=seed + 1,
        batches=max(2, batches - 2),
        batch_size=batch_size,
        shape=shape,
    )
    return FuzzReport(
        seed=seed,
        steps=batches * batch_size,
        executed=batches * batch_size,
        violations=violations,
    )


def fuzz_many(
    seeds: range,
    steps: int = 40,
    shape: PolicyShape = PolicyShape(),
    mode: Mode = Mode.REFINED,
    batch: bool = False,
) -> list[FuzzReport]:
    """Run a campaign per seed; returns all reports.

    ``batch=True`` additionally runs the invariant-12
    batch-differential campaign (:func:`fuzz_batch_authz`) per seed.
    """
    reports = [
        fuzz_monitor(seed, steps, shape, mode)
        for seed in seeds
    ]
    if batch:
        reports.extend(
            fuzz_batch_authz(seed, shape=shape) for seed in seeds
        )
    return reports
