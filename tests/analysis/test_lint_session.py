"""The lint session: re-lints scoped to the journal's dirty region.

A :class:`~repro.analysis.lint.LintSession` must re-lint to exactly
the findings of a fresh full lint, and it must actually use the scope:
over a whole ``repair_policy`` on an enterprise policy the session
builds its verification index once, and a single-edge plan's re-lint
probes far fewer ``redundant-delegation`` candidates than a full lint.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import lint as lint_module
from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import LintSession, lint_policy
from repro.analysis.repair import APPLIED, repair_policy
from repro.core.entities import Role, User
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
    # Both sessions verified against the work copy's one index.
    assert report.policy.index.full_rebuilds == 1
    by_findings = {
        relint.findings: candidates(relint) for _, relint in relints
    }
    for outcome in single_edge:
        assert outcome.status == APPLIED
        assert by_findings[outcome.findings] * 4 < full
