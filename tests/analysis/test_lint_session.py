"""The lint session: re-lints scoped to the journal's dirty region.

A :class:`~repro.analysis.lint.LintSession` must re-lint to exactly
the findings of a fresh full lint, and it must actually use the scope:
over a whole ``repair_policy`` on an enterprise policy the session
builds its verification index once, and a single-edge plan's re-lint
probes far fewer ``redundant-delegation`` candidates than a full lint,
and asks no per-user reachability question of a 1,000-user policy.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import lint as lint_module
from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import LintSession, lint_policy
from repro.analysis.repair import APPLIED, repair_policy
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.graph import dirty_region
from repro.oracle import ReferenceLintSession, reference_lint_policy
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy

SHAPE = EnterpriseShape(
    departments=3, levels_per_department=4, roles_per_level=3,
    employees_per_department=30,
)

#: each case runs on the production session and on the reference one.
BOTH_KERNELS = pytest.mark.parametrize(
    "kernel",
    [
        SimpleNamespace(lint=lint_policy, session=LintSession),
        SimpleNamespace(
            lint=reference_lint_policy, session=ReferenceLintSession
        ),
    ],
    ids=["compiled", "frozenset"],
)


def audited_enterprise():
    """An enterprise policy with closure-implied shortcut edges (work
    for the redundancy rule) and a cross-department separation set."""
    policy = enterprise_policy(SHAPE, 0)
    for dept in range(SHAPE.departments):
        for index in range(SHAPE.roles_per_level):
            upper = Role(f"dept{dept}_L0_r{index}")
            lower = Role(f"dept{dept}_L2_r{index}")
            if policy.reaches(upper, lower) and not policy.has_edge(
                upper, lower
            ):
                policy.add_inheritance(upper, lower)
    constraints = (
        SsdConstraint(
            "cross_department",
            frozenset(
                Role(f"dept{dept}_L0_r0")
                for dept in range(SHAPE.departments)
            ),
        ),
    )
    return policy, constraints


def candidates(report) -> int:
    return report.stats.get("redundant-delegation", {}).get("candidates", 0)


@BOTH_KERNELS
def test_relint_matches_a_fresh_lint_under_churn(kernel):
    policy, constraints = audited_enterprise()
    session = kernel.session(policy, constraints=constraints)
    assert session.lint() == kernel.lint(
        policy, constraints=constraints
    )
    redundant = [
        finding for finding in session.lint().findings
        if finding.rule == "redundant-delegation"
    ]
    assert redundant
    source, target, _reroute = redundant[0].witness
    newcomer = User("newcomer")
    for mutate in (
        lambda: policy.remove_edge(source, target),
        lambda: policy.assign_user(newcomer, source),
        lambda: policy.add_edge(source, target),
        lambda: policy.remove_user(newcomer),
        lambda: policy.remove_role(Role("dept1_L3_r0")),
    ):
        mutate()
        fresh = reference_lint_policy(
            policy.copy(), constraints=constraints
        )
        assert session.lint().findings == fresh.findings


def test_heavy_burst_falls_back_to_a_full_lint():
    policy, constraints = audited_enterprise()
    session = LintSession(policy, constraints=constraints)
    full = session.lint()
    # New hires touch no candidate edge: a scoped re-lint would probe
    # none, the fallback probes every one a full lint does.
    for index in range(LintSession.DELTA_LIMIT + 1):
        policy.assign_user(User(f"hire{index}"), Role("dept0_L3_r0"))
    relint = session.lint()
    assert candidates(relint) == candidates(full) > 0
    assert relint == lint_policy(policy.copy(), constraints=constraints)


def test_repair_relints_only_the_dirty_region(monkeypatch):
    policy, constraints = audited_enterprise()
    lints = []
    original = LintSession.lint

    def recording(session):
        report = original(session)
        lints.append((session, report))
        return report

    monkeypatch.setattr(lint_module.LintSession, "lint", recording)
    report = repair_policy(policy, constraints=constraints)
    full = candidates(report.initial)
    assert full > 0
    single_edge = [
        outcome for outcome in report.applied
        if len(outcome.plan.actions) == 1
        and outcome.plan.actions[0].kind == "remove-edge"
        and not outcome.cascades
    ]
    assert single_edge
    # The initial lint is lint_policy's own one-shot session; every
    # later lint is a re-lint in the driver's single session.
    initial_session = lints[0][0]
    relints = lints[1:]
    [session] = {id(session): session for session, _ in relints}.values()
    assert session is not initial_session
    # Neither session read an index: lint never builds one.
    assert report.policy._index is None
    by_findings = {
        relint.findings: candidates(relint) for _, relint in relints
    }
    for outcome in single_edge:
        assert outcome.status == APPLIED
        assert by_findings[outcome.findings] * 4 < full


def test_relint_asks_no_per_user_reachability(monkeypatch):
    """The population rules sweep masks: a re-lint after one edge
    removal makes far fewer per-vertex reachability reads than there
    are users (a per-user walk would make one per user per rule)."""
    shape = EnterpriseShape(
        departments=2, levels_per_department=4, roles_per_level=3,
        employees_per_department=500,
    )
    policy = enterprise_policy(shape, 0)
    users = sum(1 for _ in policy.users())
    assert users >= 1000
    constraints = (
        SsdConstraint(
            "cross_department",
            frozenset({Role("dept0_L0_r0"), Role("dept1_L0_r0")}),
        ),
    )
    session = LintSession(policy, constraints=constraints)
    session.lint()
    calls = []
    original = Policy.descendants_bits

    def counting(self, source):
        calls.append(source)
        return original(self, source)

    monkeypatch.setattr(Policy, "descendants_bits", counting)
    employee = User("dept0_emp0")
    [role] = policy.graph.successors(employee)
    policy.remove_edge(employee, role)
    relint = session.lint()
    assert len(calls) * 4 < users
    monkeypatch.undo()
    assert relint.findings == lint_policy(
        policy.copy(), constraints=constraints
    ).findings


@BOTH_KERNELS
def test_depth_k_relint_follows_a_held_grant_target(kernel):
    """``eve`` holds, through ``admin``, ``grant(eve, stage)`` and
    ``grant(stage, vault)``: granting both in turn routes her into
    ``vault``.  Bursts that give ``vault`` a privilege, or take it
    away, make a depth-2 escalation appear or disappear while ``eve``
    stays upstream of no mutated edge — the re-lint must re-probe her
    because a held grant's target changed what it reaches.  A burst
    that touches neither her reach nor her grants carries her finding
    over unprobed."""
    eve, admin = User("eve"), Role("admin")
    stage, vault = Role("stage"), Role("vault")
    policy = Policy(
        ua=[(eve, admin)],
        pa=[(admin, Grant(eve, stage)), (admin, Grant(stage, vault))],
    )
    session = kernel.session(policy)
    assert not session.lint().by_rule().get("depth-k-escalation")
    wards, keys = Role("wards"), perm("open", "vault")
    # (burst, depth-k findings after it, of which carried over)
    steps = [
        (lambda: policy.assign_privilege(vault, keys), 1, 0),
        (lambda: policy.assign_user(User("bob"), wards), 1, 1),
        (lambda: policy.remove_edge(vault, keys), 0, 0),
        (lambda: policy.assign_privilege(wards, keys), 0, 0),
        (lambda: policy.add_inheritance(vault, wards), 1, 0),
        (lambda: policy.remove_edge(vault, wards), 0, 0),
    ]
    for mutate, expected, carried in steps:
        mutate()
        assert not policy.reaches(eve, vault)
        relint = session.lint()
        assert relint.findings == reference_lint_policy(
            policy.copy()
        ).findings
        assert len(relint.by_rule().get("depth-k-escalation", ())) == expected
        assert session.carried["depth-k-escalation"] == carried


def test_depth_k_relint_probes_only_the_escalation_scope(monkeypatch):
    """A one-edge re-lint explores the depth-k search only for users
    in :attr:`LintContext.escalation_scope`, not for every holder of
    a grant privilege."""
    policy, constraints = audited_enterprise()
    session = LintSession(policy, constraints=constraints)
    full = session.lint()
    employee = User("dept0_emp0")
    [role] = policy.graph.successors(employee)
    since = policy.version
    policy.remove_edge(employee, role)
    scope = lint_module.LintContext(
        policy, constraints, window=dirty_region(policy.graph, since)
    ).escalation_scope
    vid = policy.graph._vid
    probed = []
    original = lint_module._min_grant_escalation

    def recording(state, user, *args):
        probed.append(user)
        return original(state, user, *args)

    monkeypatch.setattr(lint_module, "_min_grant_escalation", recording)
    relint = session.lint()
    assert full.stats["depth-k-escalation"]["users_probed"] > len(probed)
    assert all(scope >> vid[user] & 1 for user in probed)
    assert relint.stats.get("depth-k-escalation", {}).get(
        "users_probed", 0
    ) == len(probed)
    monkeypatch.undo()
    assert relint.findings == lint_policy(
        policy.copy(), constraints=constraints
    ).findings
