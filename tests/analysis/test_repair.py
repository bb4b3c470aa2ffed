"""Unit tests for the lint-to-repair engine.

The repair contract under test: plans are executable and typed, every
applied plan passes the refinement gate (the repaired policy grants no
more than the original, Definition 6), rejected plans roll back to
value equality, and the driver converges to a re-lint fixed point that
strictly shrinks the finding set.
"""

import json

import pytest

from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import Severity, lint_policy
from repro.analysis.repair import (
    APPLIED,
    PLANNERS,
    REJECTED_NOT_REFINEMENT,
    RepairAction,
    RepairPlan,
    apply_plan,
    plan_repair,
    repair_policy,
)
from repro.core.authz_index import AuthorizationIndex
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.core.refinement import is_refinement
from repro.papercases import figures
from repro.workloads.churn import cover_table_problems
from repro.workloads.enterprise import enterprise_policy
from repro.workloads.hospital import hospital_policy

BOTH_KERNELS = pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "frozenset"]
)

FIXTURES = {
    "figure1": figures.figure1,
    "figure2": figures.figure2,
    "figure3": figures.figure3,
    "hospital": hospital_policy,
    "enterprise": enterprise_policy,
}


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class TestPlanning:
    @BOTH_KERNELS
    def test_redundant_delegation_plan(self, compiled):
        policy = figures.figure1()
        report = lint_policy(policy, compiled=compiled)
        [finding] = report.findings
        plan = plan_repair(policy, finding, compiled=compiled)
        assert plan is not None
        assert plan.rule == "redundant-delegation"
        assert [a.kind for a in plan.actions] == ["remove-edge"]
        assert plan.render() == (
            "redundant-delegation: revoke(diana, nurse)"
        )
        # Planning never mutates the policy.
        assert policy == figures.figure1()

    @BOTH_KERNELS
    def test_dead_role_plan_deprovisions(self, compiled):
        policy = figures.figure2()
        report = lint_policy(policy, compiled=compiled)
        finding = next(
            f for f in report.findings if f.rule == "dead-role"
        )
        plan = plan_repair(policy, finding, compiled=compiled)
        assert plan is not None
        assert [a.kind for a in plan.actions] == ["remove-role"]
        assert plan.actions[0].source == finding.subject

    @BOTH_KERNELS
    def test_stale_finding_returns_none(self, compiled):
        policy = figures.figure1()
        report = lint_policy(policy, compiled=compiled)
        [finding] = report.findings
        policy.remove_edge(User("diana"), Role("nurse"))
        assert plan_repair(policy, finding, compiled=compiled) is None

    def test_plan_signatures_kernel_identical(self):
        for factory in FIXTURES.values():
            fast_policy, slow_policy = factory(), factory()
            fast = [
                plan_repair(fast_policy, f, compiled=True)
                for f in lint_policy(fast_policy).findings
            ]
            slow = [
                plan_repair(slow_policy, f, compiled=False)
                for f in lint_policy(slow_policy, compiled=False).findings
            ]
            assert [
                p.signature() if p else None for p in fast
            ] == [p.signature() if p else None for p in slow]

    def test_every_rule_has_a_planner(self):
        from repro.analysis.lint import RULES

        assert set(PLANNERS) == set(RULES)


# ----------------------------------------------------------------------
# The refinement gate
# ----------------------------------------------------------------------
class TestGates:
    @BOTH_KERNELS
    def test_adversarial_add_edge_rejected_with_counterexample(
        self, compiled
    ):
        policy = figures.figure2()
        reference = policy.copy()
        report = lint_policy(policy, compiled=compiled)
        # staff reaches real user privileges alice holds no path to —
        # Definition 6 ranges over user privileges, so this addition is
        # exactly what the refinement gate exists to catch.
        adversarial = RepairPlan(
            rule="redundant-delegation",
            finding=report.findings[0],
            actions=(
                RepairAction("add-edge", User("alice"), Role("staff")),
            ),
        )
        # max_cascade=0: let the gate judge the raw mutation rather
        # than a cascade-extended plan that might revoke it right back.
        outcome, relint = apply_plan(
            policy, adversarial, report, compiled=compiled, max_cascade=0
        )
        assert outcome.status == REJECTED_NOT_REFINEMENT
        assert outcome.counterexample
        assert "alice" in outcome.counterexample
        assert relint is None
        # Rollback restored the policy to value equality.
        assert policy == reference

    def test_rollback_leaves_the_policy_index_current(self):
        """The session re-lint repairs the policy's own index to the
        post-plan state; after the rollback it must answer for the
        restored policy, as a fresh build does."""
        policy = figures.figure2()
        report = lint_policy(policy)
        adversarial = RepairPlan(
            rule="redundant-delegation",
            finding=report.findings[0],
            actions=(
                RepairAction("add-edge", User("alice"), Role("staff")),
            ),
        )
        before = policy.index.partial_refreshes
        outcome, _ = apply_plan(policy, adversarial, report, max_cascade=0)
        assert outcome.status == REJECTED_NOT_REFINEMENT
        assert policy.index.partial_refreshes > before
        fresh = AuthorizationIndex(policy)
        users = list(policy.users())
        assert policy.index.held_privileges_bulk(users) == (
            fresh.held_privileges_bulk(users)
        )
        assert cover_table_problems(policy.index, fresh) == []

    @BOTH_KERNELS
    def test_applied_plan_refines(self, compiled):
        policy = figures.figure1()
        reference = policy.copy()
        report = lint_policy(policy, compiled=compiled)
        plan = plan_repair(policy, report.findings[0], compiled=compiled)
        outcome, relint = apply_plan(
            policy, plan, report, compiled=compiled
        )
        assert outcome.status == APPLIED
        assert is_refinement(reference, policy)
        assert relint is not None and not relint.findings


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class TestRepairPolicy:
    @BOTH_KERNELS
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_fixtures_converge_clean(self, fixture, compiled):
        policy = FIXTURES[fixture]()
        report = repair_policy(policy, compiled=compiled)
        assert report.fixpoint
        assert report.remaining == ()
        assert report.clean
        assert all(o.status == APPLIED for o in report.outcomes)
        # Every applied plan refines the original.
        assert is_refinement(policy, report.policy)
        # Fixpoint: re-lint of the repaired policy is empty.
        assert not lint_policy(report.policy, compiled=compiled).findings

    def test_caller_policy_untouched_by_default(self):
        policy = figures.figure2()
        reference = policy.copy()
        repair_policy(policy)
        assert policy == reference

    def test_in_place_mutates_caller(self):
        policy = figures.figure2()
        report = repair_policy(policy, in_place=True)
        assert report.policy is policy
        assert not lint_policy(policy).findings

    def test_severity_threshold_limits_targets(self):
        # At ERROR, figure2 has nothing to repair: no plans applied.
        report = repair_policy(figures.figure2(), severity=Severity.ERROR)
        assert report.applied == ()
        assert report.fixpoint

    def test_outcomes_kernel_identical(self):
        for factory in FIXTURES.values():
            fast = repair_policy(factory())
            slow = repair_policy(factory(), compiled=False)
            assert [o.signature() for o in fast.outcomes] == [
                o.signature() for o in slow.outcomes
            ]
            assert fast.policy == slow.policy
            assert fast.final.findings == slow.final.findings

    def test_hospital_exercises_cascades(self):
        report = repair_policy(hospital_policy())
        assert any(o.cascades for o in report.applied)

    @BOTH_KERNELS
    def test_repairs_chained_grant_escalation(self, compiled):
        eve, admin = User("eve"), Role("admin")
        stage, vault = Role("stage"), Role("vault")
        policy = Policy(
            ua=[(eve, admin)],
            pa=[
                (admin, Grant(eve, stage)),
                (admin, Grant(stage, vault)),
                (vault, perm("open", "vault")),
            ],
        )
        report = repair_policy(policy, compiled=compiled)
        assert report.fixpoint and report.clean
        assert any(
            o.plan.rule == "depth-k-escalation" for o in report.applied
        )

    @BOTH_KERNELS
    def test_repairs_ssd_trapped_privilege(self, compiled):
        top, a, b = Role("top"), Role("a"), Role("b")
        policy = Policy(
            ua=[(User("u"), top)],
            rh=[(top, a), (top, b)],
            pa=[(top, perm("read", "doc"))],
        )
        constraint = SsdConstraint("sep", frozenset({a, b}))
        # Restrict to the warning rule: otherwise constraint-conflict
        # repairs first and resolves the trapped privilege for free.
        rules = ["unreachable-under-ssd"]
        report = repair_policy(
            policy, rules=rules, compiled=compiled,
            constraints=[constraint],
        )
        assert report.fixpoint
        assert any(
            o.plan.rule == "unreachable-under-ssd" for o in report.applied
        )
        final = lint_policy(
            report.policy, rules=rules, compiled=compiled,
            constraints=[constraint],
        )
        assert not final.findings

    def test_report_serializes(self):
        report = repair_policy(figures.figure1())
        payload = json.loads(report.to_json())
        assert payload["fixpoint"] is True
        assert payload["remaining_findings"] == []
        assert payload["outcomes"][0]["status"] == "applied"
