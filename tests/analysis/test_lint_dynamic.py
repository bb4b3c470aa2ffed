"""Unit tests for the dynamic-layer lint rules.

``unreachable-under-ssd`` and ``depth-k-escalation`` reason about the
*transition system* (sessions, chained grants) rather than the static
graph, so each test runs the production rules and their reference
twins (:mod:`repro.oracle`) and pins them identical — the same
discipline the fuzz campaigns enforce at scale.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import lint_policy
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.oracle import reference_lint_policy
from repro.papercases import figures

#: each case runs on the production rules and on their frozenset twins.
BOTH_KERNELS = pytest.mark.parametrize(
    "kernel",
    [
        SimpleNamespace(lint=lint_policy),
        SimpleNamespace(lint=reference_lint_policy),
    ],
    ids=["compiled", "frozenset"],
)


def findings_of(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ----------------------------------------------------------------------
# unreachable-under-ssd
# ----------------------------------------------------------------------
def ssd_trap_policy():
    """``top`` is senior to both separated roles, and the only road to
    the privilege — activating it alone already violates the SSD set."""
    top, a, b = Role("top"), Role("a"), Role("b")
    return Policy(
        ua=[(User("u"), top)],
        rh=[(top, a), (top, b)],
        pa=[(top, perm("read", "doc"))],
    )


class TestUnreachableUnderSsd:
    @BOTH_KERNELS
    def test_flags_trapped_privilege(self, kernel):
        constraint = SsdConstraint("sep", frozenset({Role("a"), Role("b")}))
        report = kernel.lint(
            ssd_trap_policy(), constraints=[constraint]
        )
        found = findings_of(report, "unreachable-under-ssd")
        assert len(found) == 1
        finding = found[0]
        assert finding.subject == perm("read", "doc")
        assert finding.witness == (Role("top"),)
        assert finding.repair == "revoke(top, (read, doc))"

    @BOTH_KERNELS
    def test_silent_without_constraints(self, kernel):
        report = kernel.lint(ssd_trap_policy())
        assert findings_of(report, "unreachable-under-ssd") == []

    @BOTH_KERNELS
    def test_silent_when_compliant_role_reaches(self, kernel):
        # Attach the privilege to ``a`` as well: a single-role session
        # of ``a`` activates it without touching the separation set.
        policy = ssd_trap_policy()
        policy.add_edge(Role("a"), perm("read", "doc"))
        constraint = SsdConstraint("sep", frozenset({Role("a"), Role("b")}))
        report = kernel.lint(
            policy, constraints=[constraint]
        )
        assert findings_of(report, "unreachable-under-ssd") == []

    def test_kernels_agree(self):
        constraint = SsdConstraint("sep", frozenset({Role("a"), Role("b")}))
        fast = lint_policy(
            ssd_trap_policy(), constraints=[constraint]
        )
        slow = reference_lint_policy(
            ssd_trap_policy(), constraints=[constraint]
        )
        assert fast.findings == slow.findings
        assert fast.stats == slow.stats

    @BOTH_KERNELS
    def test_fixtures_stay_silent(self, kernel):
        # No fixture declares constraints, so the rule never fires on
        # them — the CI lint pins rely on this.
        for factory in (figures.figure1, figures.figure2, figures.figure3):
            report = kernel.lint(factory())
            assert findings_of(report, "unreachable-under-ssd") == []


# ----------------------------------------------------------------------
# depth-k-escalation
# ----------------------------------------------------------------------
def chained_grant_policy():
    """``eve`` holds two grant privileges that only pay off chained:
    grant(eve, stage) then grant(stage, vault) reach the vault perm."""
    eve, admin = User("eve"), Role("admin")
    stage, vault = Role("stage"), Role("vault")
    return Policy(
        ua=[(eve, admin)],
        rh=[],
        pa=[
            (admin, Grant(eve, stage)),
            (admin, Grant(stage, vault)),
            (vault, perm("open", "vault")),
        ],
    )


class TestDepthKEscalation:
    @BOTH_KERNELS
    def test_two_step_chain_flagged(self, kernel):
        report = kernel.lint(chained_grant_policy())
        found = findings_of(report, "depth-k-escalation")
        assert len(found) == 1
        finding = found[0]
        assert finding.subject == User("eve")
        assert finding.witness == (
            Grant(User("eve"), Role("stage")),
            Grant(Role("stage"), Role("vault")),
            perm("open", "vault"),
        )
        assert "2 chained grants" in finding.message
        assert finding.repair == "revoke(admin, grant(eve, stage))"
        # The one-step rule stays silent: no single grant escalates.
        assert findings_of(report, "self-escalation") == []

    @BOTH_KERNELS
    def test_depth_bound_gates_detection(self, kernel):
        report = kernel.lint(
            chained_grant_policy(), escalation_depth=1
        )
        assert findings_of(report, "depth-k-escalation") == []

    @BOTH_KERNELS
    def test_one_step_escalation_not_double_reported(self, kernel):
        # eve directly holds grant(eve, vault): self-escalation's
        # domain — depth-k must skip it even though BFS finds it first.
        eve, vault = User("eve"), Role("vault")
        policy = Policy(
            ua=[(eve, Role("admin"))],
            pa=[
                (Role("admin"), Grant(eve, vault)),
                (vault, perm("open", "vault")),
            ],
        )
        report = kernel.lint(policy)
        assert findings_of(report, "depth-k-escalation") == []
        assert len(findings_of(report, "self-escalation")) == 1

    def test_kernels_agree(self):
        fast = lint_policy(chained_grant_policy())
        slow = reference_lint_policy(chained_grant_policy())
        assert fast.findings == slow.findings
        assert fast.stats == slow.stats

    @BOTH_KERNELS
    def test_fixtures_stay_silent(self, kernel):
        for factory in (figures.figure1, figures.figure2, figures.figure3):
            report = kernel.lint(factory())
            assert findings_of(report, "depth-k-escalation") == []

    @BOTH_KERNELS
    def test_probe_counter_prunes_unarmed_users(self, kernel):
        # Only eve holds a grant privilege, so only eve is probed.
        policy = chained_grant_policy()
        policy.add_edge(User("mallory"), Role("vault"))
        report = kernel.lint(policy)
        assert report.stats["depth-k-escalation"]["users_probed"] == 1
