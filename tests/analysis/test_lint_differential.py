"""Differential confirmation of lint findings against the oracles.

Lint's semantic rules carry a verification *contract*:

* every ``redundant-delegation`` finding claims removing the edge
  preserves the entire authorization relation — confirmed here by
  deleting the edge on a copy and comparing every user's held
  privileges and effective authority under the frozenset index;
* every ``irrevocable-authority`` finding claims the witness pair is
  grantable by some user but revocable by none — confirmed against
  ``grantable_pairs`` / ``revocable_pairs`` of the frozenset index;
* every ``self-escalation`` finding claims a depth-1 run by the
  subject alone obtains the witnessed privilege — confirmed against
  :func:`repro.analysis.safety.can_obtain` in refined mode with the
  acting set restricted to the subject.

The campaign runs over seeded random policies put through the
ID-recycling churn prefix, so confirmations cover scrambled interners
too.
"""

import random

import pytest

from repro.analysis.lint import lint_policy
from repro.analysis.safety import can_obtain
from repro.core.commands import Mode
from repro.core.entities import User
from repro.oracle import ReferenceIndex, reference_can_obtain
from repro.papercases import figures
from repro.workloads.fuzz import _recycling_churn
from repro.workloads.generators import PolicyShape, random_policy

SHAPE = PolicyShape(
    n_users=4, n_roles=5, n_admin_privileges=4, max_nesting=2
)
SEEDS = range(8)


def churned_policy(seed):
    policy = random_policy(seed, SHAPE)
    _recycling_churn(random.Random(seed), policy, steps=24)
    return policy


def confirm_redundant(policy, finding):
    """Removing the witnessed edge must leave every user's held set
    and effective authority untouched (full check — stronger than the
    bounded sample the rule itself verifies)."""
    source, target, reroute = finding.witness
    oracle = ReferenceIndex(policy)
    before_held = {
        user: oracle.held_privileges(user) for user in policy.users()
    }
    before_authority = {
        user: oracle.effective_authority(user) for user in policy.users()
    }
    probe = policy.copy()
    probe.remove_edge(source, target)
    assert probe.reaches(source, target), finding
    assert probe.reaches(source, reroute), finding
    after = ReferenceIndex(probe)
    for user in probe.users():
        assert after.held_privileges(user) == before_held[user], finding
        assert (
            after.effective_authority(user) == before_authority[user]
        ), finding


def confirm_irrevocable(policy, finding):
    """The witness pair must be grantable by at least one user and
    revocable by none, per the frozenset reference."""
    witness = tuple(finding.witness)
    oracle = ReferenceIndex(policy)
    users = sorted(policy.users(), key=str)
    assert any(
        witness in oracle.grantable_pairs(user) for user in users
    ), finding
    assert all(
        witness not in oracle.revocable_pairs(user) for user in users
    ), finding


def confirm_escalation(policy, finding):
    """The subject alone must reach the witnessed privilege within one
    administrative step (refined mode — the rule reads implicit
    authorization off the rectangle masks)."""
    user = finding.subject
    gained = finding.witness[2]
    assert not policy.reaches(user, gained), finding
    for explore in (can_obtain, reference_can_obtain):
        verdict = explore(
            policy, user, gained, depth=1, mode=Mode.REFINED,
            acting_users=[user],
        )
        assert verdict.reachable, (finding, explore)
        assert len(verdict.witness) == 1, (finding, explore)
        assert verdict.witness[0].user == user, (finding, explore)


def confirm_dead_role(policy, finding):
    role = finding.subject
    assert all(
        role not in policy.authorized_roles(user)
        for user in policy.users()
    ), finding


CONFIRMERS = {
    "redundant-delegation": confirm_redundant,
    "irrevocable-authority": confirm_irrevocable,
    "self-escalation": confirm_escalation,
    "dead-role": confirm_dead_role,
}


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_findings_confirmed_by_oracles(seed):
    policy = churned_policy(seed)
    report = lint_policy(policy)
    # The probing rule's own verification must never have refuted a
    # candidate that passed the reachability test.
    assert "refuted" not in report.stats.get("redundant-delegation", {})
    for finding in report.findings:
        confirmer = CONFIRMERS.get(finding.rule)
        if confirmer is not None:
            confirmer(policy, finding)


def test_campaign_is_not_vacuous():
    """Across the seed spread the campaign must actually exercise every
    confirmable rule at least once — otherwise the differential suite
    silently decays into a no-op."""
    seen = set()
    for seed in SEEDS:
        for finding in lint_policy(churned_policy(seed)).findings:
            seen.add(finding.rule)
    missing = {"redundant-delegation", "irrevocable-authority"} - seen
    assert not missing, f"campaign never produced: {missing}"


def test_paper_case_findings_confirmed():
    for build in (figures.figure1, figures.figure2, figures.figure3):
        policy = build()
        for finding in lint_policy(policy).findings:
            confirmer = CONFIRMERS.get(finding.rule)
            if confirmer is not None:
                confirmer(policy, finding)


def test_crafted_escalation_confirmed_end_to_end():
    """The canonical self-escalation shape, cross-checked against the
    explorer: lint's witness names exactly the grant command the
    safety BFS finds."""
    from repro.core.entities import Role
    from repro.core.privileges import Grant, perm

    u = User("u")
    r1, r2 = Role("r1"), Role("r2")
    policy = figures.figure1().copy()
    policy.add_user(u)
    policy.add_role(r1)
    policy.add_role(r2)
    policy.assign_user(u, r1)
    policy.add_role(Role("admin_role"))
    policy.assign_user(u, Role("admin_role"))
    policy.assign_privilege(Role("admin_role"), Grant(r1, r2))
    policy.assign_privilege(r2, perm("read", "vault"))

    report = lint_policy(policy)
    findings = [
        f for f in report.findings
        if f.rule == "self-escalation" and f.subject == u
    ]
    assert findings
    confirm_escalation(policy, findings[0])
