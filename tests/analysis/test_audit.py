"""Tests for the whole-population audit matrix
(:func:`repro.analysis.audit.audit_matrix`)."""

import json

import pytest

from repro.analysis.audit import AuditReport, audit_matrix
from repro.core.authz_index import AuthorizationIndex
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.workloads.churn import ChurnShape, churn_policy

READ, WRITE = perm("read", "doc"), perm("write", "doc")
ALICE, BOB, EVE = User("alice"), User("bob"), User("eve")
STAFF, LEAD, ADM = Role("staff"), Role("lead"), Role("adm")

BOTH_KERNELS = pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "frozenset"]
)


def build_policy() -> Policy:
    policy = Policy(
        ua=[(ALICE, STAFF), (BOB, LEAD), (BOB, ADM)],
        rh=[(LEAD, STAFF)],
        pa=[
            (STAFF, READ),
            (LEAD, WRITE),
            (ADM, Grant(ALICE, STAFF)),
            (ADM, Revoke(ALICE, STAFF)),
        ],
    )
    policy.add_user(EVE)
    return policy


class TestAuditMatrix:
    @BOTH_KERNELS
    def test_rows_reflect_reachable_privileges(self, compiled):
        report = audit_matrix(build_policy(), compiled=compiled)
        assert report.rows[ALICE] == frozenset({READ})
        assert report.rows[BOB] == frozenset({READ, WRITE})
        assert report.rows[EVE] == frozenset()
        # held keeps the administrative terms even though the default
        # columns are user privileges.
        assert Grant(ALICE, STAFF) in report.held[BOB]
        assert report.holds(BOB, WRITE)
        assert not report.holds(EVE, READ)

    @BOTH_KERNELS
    def test_matches_index_held_privileges(self, compiled):
        policy = build_policy()
        report = audit_matrix(policy, compiled=compiled)
        index = AuthorizationIndex(policy, compiled=compiled)
        for user in report.users:
            assert report.held[user] == index.held_privileges(user)

    def test_serving_index_equals_fresh_sweep(self):
        policy = churn_policy(11, ChurnShape(n_users=50, n_roles=10))
        plain = audit_matrix(policy)
        served = audit_matrix(policy, index=AuthorizationIndex(policy))
        oracle = audit_matrix(policy, compiled=False)
        assert plain.held == served.held == oracle.held
        assert plain.rows == served.rows == oracle.rows

    def test_admin_counts_and_holders(self):
        report = audit_matrix(build_policy())
        assert report.admin_counts(BOB) == (1, 1)
        assert report.admin_counts(ALICE) == (0, 0)
        assert report.holders(READ) == (ALICE, BOB)
        assert report.holders(WRITE) == (BOB,)

    def test_custom_columns_and_population(self):
        report = audit_matrix(
            build_policy(),
            privileges=[Grant(ALICE, STAFF)],
            users=[BOB, EVE],
        )
        assert report.users == (BOB, EVE)
        assert report.rows[BOB] == frozenset({Grant(ALICE, STAFF)})
        assert report.rows[EVE] == frozenset()

    def test_reuses_serving_index(self):
        policy = build_policy()
        index = AuthorizationIndex(policy)
        rebuilds = index.full_rebuilds
        report = audit_matrix(policy, index=index)
        assert index.full_rebuilds == rebuilds  # no second index built
        assert isinstance(report, AuditReport)

    def test_as_dict_is_json_ready(self):
        document = json.loads(
            json.dumps(audit_matrix(build_policy()).as_dict())
        )
        assert document["matrix"]["alice"] == ["(read, doc)"]
        assert document["admin_counts"]["bob"] == [1, 1]
        assert document["version"] >= 0

    def test_version_pins_the_audit(self):
        policy = build_policy()
        report = audit_matrix(policy)
        assert report.version == policy.version
        policy.assign_user(EVE, STAFF)
        assert report.version != policy.version  # stale by construction
        fresh = audit_matrix(policy)
        assert fresh.rows[EVE] == frozenset({READ})
