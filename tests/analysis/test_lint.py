"""Unit tests for the static policy lint pass."""

import json
import random
from types import SimpleNamespace

import pytest

from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import (
    RULES,
    Finding,
    LintReport,
    Severity,
    lint_policy,
)
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.errors import AnalysisError
from repro.oracle import reference_lint_policy
from repro.papercases import figures
from repro.workloads.generators import PolicyShape, random_policy

#: each case runs on the production rules and on their frozenset twins.
BOTH_KERNELS = pytest.mark.parametrize(
    "kernel",
    [
        SimpleNamespace(lint=lint_policy),
        SimpleNamespace(lint=reference_lint_policy),
    ],
    ids=["compiled", "frozenset"],
)


def by_rule(report: LintReport, rule: str):
    return report.by_rule().get(rule, ())


# ----------------------------------------------------------------------
# Severity / registry plumbing
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_severity_order_and_labels(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.WARNING.label == "warning"
        assert Severity.parse("ERROR") is Severity.ERROR
        assert Severity.parse(" info ") is Severity.INFO

    def test_severity_parse_rejects_unknown(self):
        with pytest.raises(AnalysisError, match="unknown severity"):
            Severity.parse("fatal")

    def test_registry_names_and_probing_rule_last(self):
        assert set(RULES) == {
            "dead-role",
            "dormant-privilege",
            "constraint-conflict",
            "irrevocable-authority",
            "self-escalation",
            "unreachable-under-ssd",
            "depth-k-escalation",
            "redundant-delegation",
        }
        # The mutation-probing rule must run after the pure mask sweeps
        # and the exploration-backed dynamic rules.
        assert list(RULES)[-1] == "redundant-delegation"

    def test_unknown_rule_rejected(self):
        with pytest.raises(AnalysisError, match="unknown lint rule"):
            lint_policy(figures.figure1(), rules=["dead-role", "nope"])

    def test_rule_subset_selection(self):
        report = lint_policy(figures.figure2(), rules=["dead-role"])
        assert {finding.rule for finding in report.findings} == {"dead-role"}


# ----------------------------------------------------------------------
# Individual rules on crafted policies
# ----------------------------------------------------------------------
class TestDeadRole:
    @BOTH_KERNELS
    def test_unreachable_role_reported(self, kernel):
        policy = Policy(ua=[(User("u"), Role("live"))])
        policy.add_role(Role("orphan"))
        report = kernel.lint(policy)
        findings = by_rule(report, "dead-role")
        assert [finding.subject for finding in findings] == [Role("orphan")]
        assert findings[0].severity is Severity.INFO
        assert findings[0].repair is None  # no successors to revoke

    @BOTH_KERNELS
    def test_repair_points_at_first_successor(self, kernel):
        policy = Policy(rh=[(Role("orphan"), Role("junior"))])
        policy.add_user(User("u"))
        report = kernel.lint(policy)
        orphan = by_rule(report, "dead-role")
        subjects = {finding.subject for finding in orphan}
        assert Role("orphan") in subjects
        finding = next(f for f in orphan if f.subject == Role("orphan"))
        assert finding.repair == "revoke(orphan, junior)"

    @BOTH_KERNELS
    def test_reachable_roles_clean(self, kernel):
        policy = Policy(
            ua=[(User("u"), Role("senior"))],
            rh=[(Role("senior"), Role("junior"))],
        )
        report = kernel.lint(policy)
        assert by_rule(report, "dead-role") == ()


class TestDormantPrivilege:
    @BOTH_KERNELS
    def test_privilege_on_dead_role_is_dormant(self, kernel):
        policy = Policy(pa=[(Role("orphan"), perm("read", "doc"))])
        policy.add_user(User("u"))
        report = kernel.lint(policy)
        findings = by_rule(report, "dormant-privilege")
        assert [f.subject for f in findings] == [perm("read", "doc")]
        assert findings[0].witness == (Role("orphan"),)
        assert findings[0].repair == "revoke(orphan, (read, doc))"

    @BOTH_KERNELS
    def test_one_step_grant_path_suppresses(self, kernel):
        # admin holds grant(u, orphan): one authorized command brings
        # the orphan role — and its privilege — into u's reach.
        u, admin = User("u"), User("admin")
        policy = Policy(
            ua=[(admin, Role("adm"))],
            pa=[
                (Role("orphan"), perm("read", "doc")),
                (Role("adm"), Grant(u, Role("orphan"))),
            ],
        )
        policy.add_user(u)
        report = kernel.lint(policy)
        assert by_rule(report, "dormant-privilege") == ()

    @BOTH_KERNELS
    def test_unactivatable_grant_does_not_suppress(self, kernel):
        # The only grant covering the orphan role is itself dormant
        # (no user reaches it), so it cannot rescue the privilege.
        ghost = User("ghost")
        policy = Policy(
            pa=[
                (Role("orphan"), perm("read", "doc")),
                (Role("unheld"), Grant(ghost, Role("orphan"))),
            ],
        )
        policy.add_user(User("u"))
        policy.add_user(ghost)
        report = kernel.lint(policy)
        dormant = {f.subject for f in by_rule(report, "dormant-privilege")}
        assert perm("read", "doc") in dormant

    @BOTH_KERNELS
    def test_privilege_target_grant_suppresses(self, kernel):
        # grant(r, p) held by a reachable role: one command assigns the
        # dormant privilege p to the reachable role r.
        p = perm("read", "doc")
        policy = Policy(
            ua=[(User("u"), Role("r"))],
            pa=[(Role("dead"), p), (Role("r"), Grant(Role("r"), p))],
        )
        report = kernel.lint(policy)
        dormant = {f.subject for f in by_rule(report, "dormant-privilege")}
        assert p not in dormant


class TestConstraintConflict:
    @BOTH_KERNELS
    def test_user_violation_is_error(self, kernel):
        u = User("u")
        policy = Policy(ua=[(u, Role("payer")), (u, Role("approver"))])
        constraint = SsdConstraint(
            "sep", frozenset({Role("payer"), Role("approver")})
        )
        report = kernel.lint(
            policy, constraints=[constraint]
        )
        findings = by_rule(report, "constraint-conflict")
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert [f.subject for f in errors] == [u]
        assert f"{errors[0].witness[0]}" in {"payer", "approver"}
        assert errors[0].repair.startswith("revoke(u, ")

    @BOTH_KERNELS
    def test_latent_role_conflict_is_warning(self, kernel):
        # No user holds both yet, but the hierarchy funnels through a
        # single role that reaches both separation roles.
        policy = Policy(
            rh=[
                (Role("funnel"), Role("payer")),
                (Role("funnel"), Role("approver")),
            ],
        )
        policy.add_user(User("u"))
        constraint = SsdConstraint(
            "sep", frozenset({Role("payer"), Role("approver")})
        )
        report = kernel.lint(
            policy, constraints=[constraint]
        )
        warnings = [
            f for f in by_rule(report, "constraint-conflict")
            if f.severity is Severity.WARNING
        ]
        assert [f.subject for f in warnings] == [Role("funnel")]

    @BOTH_KERNELS
    def test_no_constraints_no_findings(self, kernel):
        policy = figures.figure2()
        report = kernel.lint(policy)
        assert by_rule(report, "constraint-conflict") == ()


class TestIrrevocableAuthority:
    @BOTH_KERNELS
    def test_grant_without_revoke_flagged(self, kernel):
        u, r = User("u"), Role("r")
        policy = Policy(ua=[(User("admin"), Role("adm"))],
                        pa=[(Role("adm"), Grant(u, r))])
        policy.add_user(u)
        report = kernel.lint(policy)
        findings = by_rule(report, "irrevocable-authority")
        assert [f.subject for f in findings] == [Grant(u, r)]
        assert findings[0].witness == (u, r)
        assert findings[0].repair == "grant(adm, revoke(u, r))"

    @BOTH_KERNELS
    def test_matching_revoke_clears_finding(self, kernel):
        u, r = User("u"), Role("r")
        policy = Policy(
            ua=[(User("admin"), Role("adm"))],
            pa=[(Role("adm"), Grant(u, r)), (Role("adm"), Revoke(u, r))],
        )
        policy.add_user(u)
        report = kernel.lint(policy)
        assert by_rule(report, "irrevocable-authority") == ()

    @BOTH_KERNELS
    def test_partial_coverage_counts_exposed_pairs(self, kernel):
        # grant(u, senior) covers (u, senior) and (u, junior); only the
        # junior pair is revocable, so exactly one pair stays exposed.
        u = User("u")
        senior, junior = Role("senior"), Role("junior")
        policy = Policy(
            ua=[(User("admin"), Role("adm"))],
            rh=[(senior, junior)],
            pa=[
                (Role("adm"), Grant(u, senior)),
                (Role("adm"), Revoke(u, junior)),
            ],
        )
        policy.add_user(u)
        report = kernel.lint(policy)
        findings = by_rule(report, "irrevocable-authority")
        assert len(findings) == 1
        assert "1 of 2 pair(s)" in findings[0].message
        assert findings[0].witness == (u, senior)


class TestSelfEscalation:
    @BOTH_KERNELS
    def test_entity_grant_escalation(self, kernel):
        # u reaches r1 and holds grant(r1, r2); granting (r1 -> r2)
        # hands u the privilege assigned below r2.
        u = User("u")
        r1, r2 = Role("r1"), Role("r2")
        policy = Policy(
            ua=[(u, r1), (u, Role("admin_role"))],
            pa=[
                (Role("admin_role"), Grant(r1, r2)),
                (r2, perm("read", "t")),
            ],
        )
        report = kernel.lint(policy)
        findings = by_rule(report, "self-escalation")
        assert [f.subject for f in findings] == [u]
        route, target, gained = findings[0].witness
        assert (route, target, gained) == (r1, r2, perm("read", "t"))
        assert findings[0].severity is Severity.ERROR
        assert findings[0].repair == "revoke(admin_role, grant(r1, r2))"

    @BOTH_KERNELS
    def test_no_route_back_no_finding(self, kernel):
        # u holds grant(other, r2) but does not reach ``other``: the
        # granted authority would not flow back to u.
        u, other = User("u"), User("other")
        r2 = Role("r2")
        policy = Policy(
            ua=[(u, Role("admin_role"))],
            pa=[
                (Role("admin_role"), Grant(other, r2)),
                (r2, perm("read", "t")),
            ],
        )
        policy.add_user(other)
        report = kernel.lint(policy)
        assert by_rule(report, "self-escalation") == ()

    @BOTH_KERNELS
    def test_already_held_target_no_finding(self, kernel):
        u = User("u")
        r1, r2 = Role("r1"), Role("r2")
        policy = Policy(
            ua=[(u, r1), (u, r2), (u, Role("admin_role"))],
            pa=[
                (Role("admin_role"), Grant(r1, r2)),
                (r2, perm("read", "t")),
            ],
        )
        report = kernel.lint(policy)
        assert by_rule(report, "self-escalation") == ()

    @BOTH_KERNELS
    def test_privilege_target_grant_escalation(self, kernel):
        # u holds grant(r1, p) with r1 in reach but p not: one grant
        # command assigns p under u's own reach.
        u, r1 = User("u"), Role("r1")
        p = perm("read", "secret")
        policy = Policy(
            ua=[(u, r1)],
            pa=[(r1, Grant(r1, p)), (Role("vault"), p)],
        )
        policy.add_user(User("other"))
        report = kernel.lint(policy)
        findings = by_rule(report, "self-escalation")
        assert [f.subject for f in findings] == [u]
        assert findings[0].witness == (r1, p, p)


class TestRedundantDelegation:
    @BOTH_KERNELS
    def test_closure_implied_edge_flagged(self, kernel):
        u = User("u")
        r1, r2 = Role("r1"), Role("r2")
        policy = Policy(
            ua=[(u, r1), (u, r2)],
            rh=[(r1, r2)],
            pa=[(r2, perm("read", "doc"))],
        )
        report = kernel.lint(policy)
        findings = by_rule(report, "redundant-delegation")
        assert len(findings) == 1
        assert findings[0].subject == u
        assert findings[0].witness == (u, r2, r1)  # reroutes via r1
        assert findings[0].repair == "revoke(u, r2)"
        assert report.stats["redundant-delegation"] == {
            "candidates": 1, "verified": 1,
        }

    @BOTH_KERNELS
    def test_redundant_privilege_assignment(self, kernel):
        p = perm("read", "doc")
        r1, r2 = Role("r1"), Role("r2")
        policy = Policy(
            ua=[(User("u"), r1)],
            rh=[(r1, r2)],
            pa=[(r1, p), (r2, p)],
        )
        report = kernel.lint(policy)
        witnesses = {
            f.witness for f in by_rule(report, "redundant-delegation")
        }
        assert (r1, p, r2) in witnesses

    @BOTH_KERNELS
    def test_sole_assignment_never_probed(self, kernel):
        # Removing the only assignment would garbage-collect the
        # privilege vertex; the rule must skip it entirely.
        policy = Policy(
            ua=[(User("u"), Role("r"))],
            pa=[(Role("r"), perm("read", "doc"))],
        )
        report = kernel.lint(policy)
        assert by_rule(report, "redundant-delegation") == ()
        assert "candidates" not in report.stats.get(
            "redundant-delegation", {}
        )

    @BOTH_KERNELS
    def test_probing_restores_policy_exactly(self, kernel):
        policy = figures.figure1()
        edges = policy.edge_set()
        vertices = policy.vertex_set()
        first = kernel.lint(policy)
        assert policy.edge_set() == edges
        assert policy.vertex_set() == vertices
        again = kernel.lint(policy)
        assert again.findings == first.findings


# ----------------------------------------------------------------------
# Report API
# ----------------------------------------------------------------------
class TestReport:
    def test_paper_figures_expected_findings(self):
        report1 = lint_policy(figures.figure1())
        assert [f.rule for f in report1.findings] == ["redundant-delegation"]

        report2 = lint_policy(figures.figure2())
        rules = [f.rule for f in report2.findings]
        assert rules.count("dead-role") == 1
        assert rules.count("dormant-privilege") == 2
        assert rules.count("irrevocable-authority") == 2
        assert rules.count("redundant-delegation") == 1
        assert report2.max_severity() is Severity.WARNING

    def test_findings_deterministically_sorted(self):
        report = lint_policy(figures.figure2())
        keys = [finding.sort_key for finding in report.findings]
        assert keys == sorted(keys)

    def test_at_or_above_filters(self):
        report = lint_policy(figures.figure2())
        warnings = report.at_or_above(Severity.WARNING)
        assert warnings
        assert all(f.severity >= Severity.WARNING for f in warnings)
        assert report.at_or_above(Severity.ERROR) == ()

    def test_empty_policy_clean(self):
        report = lint_policy(Policy())
        assert report.findings == ()
        assert report.max_severity() is None

    def test_json_round_trip(self):
        report = lint_policy(figures.figure2())
        payload = json.loads(report.to_json())
        assert len(payload["findings"]) == len(report.findings)
        assert payload["findings"][0]["severity"] in {
            "info", "warning", "error"
        }
        assert "stats" in payload

    def test_render_mentions_repair(self):
        finding = Finding(
            "dead-role", Severity.INFO, Role("r"), (),
            "role r is not reachable from any user", "revoke(r, s)",
        )
        text = finding.render()
        assert text.startswith("info")
        assert "[repair: revoke(r, s)]" in text


# ----------------------------------------------------------------------
# Kernel agreement and ID-recycling stability (satellite property test)
# ----------------------------------------------------------------------
class TestKernelAgreement:
    @pytest.mark.parametrize(
        "build",
        [figures.figure1, figures.figure2, figures.figure3],
        ids=["figure1", "figure2", "figure3"],
    )
    def test_compiled_matches_frozenset_on_paper_cases(self, build):
        policy = build()
        fast = lint_policy(policy)
        oracle = reference_lint_policy(policy)
        assert fast.findings == oracle.findings
        assert fast.stats == oracle.stats

    @pytest.mark.parametrize("seed", range(4))
    def test_findings_stable_under_id_recycling(self, seed):
        """Deprovision every user and re-provision with identical
        memberships in the same order (the free list is LIFO, so this
        hands each user another user's recycled ID): the policy is
        semantically unchanged but its interner layout is scrambled —
        the findings (and rule statistics) must not move."""
        policy = random_policy(
            seed,
            PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4,
                        max_nesting=2),
        )
        roles = sorted(policy.roles(), key=str)
        constraints = [SsdConstraint("sep", frozenset(roles[:3]))]
        before = lint_policy(policy, constraints=constraints)

        users = sorted(policy.users(), key=str)
        memberships = {
            user: sorted(policy.graph.successors(user), key=str)
            for user in users
        }
        vids_before = {user: policy.graph.vid(user) for user in users}
        for user in users:
            policy.remove_user(user)
        for user in users:
            policy.add_user(user)
            for role in memberships[user]:
                policy.assign_user(user, role)
        assert any(
            policy.graph.vid(user) != vids_before[user] for user in users
        ), "churn did not actually scramble interner IDs"

        after = lint_policy(policy, constraints=constraints)
        oracle = reference_lint_policy(policy, constraints=constraints)
        assert after.findings == before.findings
        assert after.stats == before.stats
        assert after.findings == oracle.findings

    def test_findings_stable_after_recycling_churn_round_trip(self):
        """The fuzz-idiom variant: churn forward with the invariant-10
        prefix, then compare kernels on the churned policy."""
        from repro.workloads.fuzz import _recycling_churn

        policy = random_policy(
            7,
            PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4,
                        max_nesting=2),
        )
        _recycling_churn(random.Random(7), policy, steps=30)
        fast = lint_policy(policy)
        oracle = reference_lint_policy(policy)
        assert fast.findings == oracle.findings
        assert fast.stats == oracle.stats
