"""Tests for the whole-population audit matrix
(:func:`repro.analysis.audit.audit_matrix`)."""

import json

import pytest

from repro.analysis.audit import AuditReport, audit_matrix
from repro.analysis.lint import lint_policy
from repro.analysis.repair import repair_policy
from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Mode
from repro.core.entities import Role, User
from repro.core.monitor import ReferenceMonitor
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.oracle import ReferenceIndex
from repro.papercases import figures
from repro.workloads.churn import ChurnShape, churn_policy

READ, WRITE = perm("read", "doc"), perm("write", "doc")
ALICE, BOB, EVE = User("alice"), User("bob"), User("eve")
STAFF, LEAD, ADM = Role("staff"), Role("lead"), Role("adm")

#: The audit reads the policy's own bitset index; it is checked against
#: a fresh bitset index ("compiled") and the frozenset ReferenceIndex
#: oracle ("frozenset").
BOTH_INDEXES = pytest.mark.parametrize(
    "make_index", [AuthorizationIndex, ReferenceIndex],
    ids=["compiled", "frozenset"],
)


def expected_audit(index, policy: Policy, columns) -> tuple[dict, dict]:
    """(held, rows) of an audit over ``index``, computed per user."""
    users = sorted(policy.users(), key=str)
    held = index.held_privileges_bulk(users)
    return held, {user: held[user] & columns for user in users}


def count_index_builds(monkeypatch) -> list:
    """Record every AuthorizationIndex built from now on."""
    built = []
    original = AuthorizationIndex.__init__

    def recording(index, policy):
        built.append(index)
        original(index, policy)

    monkeypatch.setattr(AuthorizationIndex, "__init__", recording)
    return built


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
    @BOTH_INDEXES
    def test_rows_reflect_reachable_privileges(self, make_index):
        policy = build_policy()
        report = audit_matrix(policy)
        held, rows = expected_audit(
            make_index(policy), policy, frozenset(report.privileges)
        )
        assert report.held == held and report.rows == rows
        assert report.rows[ALICE] == frozenset({READ})
        assert report.rows[BOB] == frozenset({READ, WRITE})
        assert report.rows[EVE] == frozenset()
        # held keeps the administrative terms even though the default
        # columns are user privileges.
        assert Grant(ALICE, STAFF) in report.held[BOB]
        assert report.holds(BOB, WRITE)
        assert not report.holds(EVE, READ)

    @BOTH_INDEXES
    def test_matches_index_held_privileges(self, make_index):
        policy = build_policy()
        report = audit_matrix(policy, privileges=[Grant(ALICE, STAFF)])
        index = make_index(policy)
        for user in report.users:
            assert report.held[user] == index.held_privileges(user)
            assert report.rows[user] == (
                index.held_privileges(user) & {Grant(ALICE, STAFF)}
            )

    def test_serving_index_equals_fresh_sweep(self):
        """An audit over the policy's index after churn (so the index
        answers from incremental repairs) equals fresh sweeps."""
        policy = churn_policy(11, ChurnShape(n_users=50, n_roles=10))
        audit_matrix(policy)
        users = sorted(policy.users(), key=str)
        roles = sorted(policy.roles(), key=str)
        for user, role in zip(users[::7], roles):
            policy.assign_user(user, role)
        policy.remove_user(users[-1])
        report = audit_matrix(policy)
        assert policy.index.full_rebuilds == 1
        assert policy.index.partial_refreshes > 0
        columns = frozenset(report.privileges)
        fresh = expected_audit(AuthorizationIndex(policy), policy, columns)
        oracle = expected_audit(ReferenceIndex(policy), policy, columns)
        assert (report.held, report.rows) == fresh == oracle

    def test_rows_shared_per_profile(self):
        """Users of one authority profile share one row object, and the
        rendering is the per-user intersection's."""
        policy = churn_policy(3, ChurnShape(n_users=60, n_roles=6))
        report = audit_matrix(policy)
        profiles = {id(report.held[user]) for user in report.users}
        assert len({id(row) for row in report.rows.values()}) <= len(
            profiles
        )
        columns = frozenset(report.privileges)
        assert report.as_dict()["matrix"] == {
            user.name: sorted(str(p) for p in report.held[user] & columns)
            for user in report.users
        }

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

    def test_reuses_serving_index(self, monkeypatch):
        """Two audits and an index-backed monitor over one policy share
        the policy's single index."""
        built = count_index_builds(monkeypatch)
        policy = build_policy()
        first = audit_matrix(policy)
        monitor = ReferenceMonitor(policy, mode=Mode.REFINED, use_index=True)
        second = audit_matrix(policy)
        assert isinstance(first, AuditReport)
        assert first.as_dict() == second.as_dict()
        assert monitor._index is policy.index
        assert policy.index.full_rebuilds == 1
        assert built == [policy.index]

    def test_copy_of_a_built_index_forks_it(self, monkeypatch):
        policy = build_policy()
        audit_matrix(policy)
        built = count_index_builds(monkeypatch)
        clone = policy.copy()
        assert clone._index is None  # forked on first read, not before
        assert audit_matrix(clone).as_dict() == audit_matrix(policy).as_dict()
        assert built == []
        assert clone.index is not policy.index
        assert clone.index.full_rebuilds == 0
        # A copy whose source moved before its first read builds.
        moved = policy.copy()
        policy.assign_user(EVE, STAFF)
        assert audit_matrix(moved).rows[EVE] == frozenset()
        assert built == [moved.index]

    def test_repair_builds_one_index_on_its_work_copy(self, monkeypatch):
        """Lint and repair read no index: the repaired policy's first
        audit builds its one, so a lint -> fix -> audits cycle builds
        one, and a warm input's index is left untouched."""
        built = count_index_builds(monkeypatch)
        policy = figures.figure2()
        lint_policy(policy)
        report = repair_policy(policy)
        assert report.applied
        assert built == []
        assert policy._index is None
        assert report.policy._index is None
        audit_matrix(report.policy)
        audit_matrix(report.policy)
        assert built == [report.policy.index]
        assert report.policy.index.full_rebuilds == 1
        audit_matrix(policy)
        warm = policy.index
        before = (warm.statistics(), warm._cursor.version, policy.version)
        built.clear()
        lint_policy(policy)
        again = repair_policy(policy)
        assert again.as_dict() == report.as_dict()
        assert built == []
        assert policy._index is warm
        assert again.policy._index is None
        assert (warm.statistics(), warm._cursor.version, policy.version) == before

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
