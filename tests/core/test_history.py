"""Unit tests for versioned policy administration."""

import pytest

from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.history import PolicyHistory
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.errors import AnalysisError
from repro.papercases import figures

U, ADMIN = User("u"), User("admin")
R, S, ADM = Role("r"), Role("s"), Role("adm")


@pytest.fixture
def history():
    policy = Policy(
        ua=[(ADMIN, ADM)],
        rh=[(R, S)],
        pa=[
            (S, perm("read", "doc")),
            (ADM, Grant(U, R)),
            (ADM, Revoke(U, R)),
        ],
    )
    policy.add_user(U)
    return PolicyHistory(policy, mode=Mode.REFINED, snapshot_interval=2)


class TestLogging:
    def test_executed_commands_logged(self, history):
        record = history.submit(grant_cmd(ADMIN, U, R))
        assert record.executed
        assert history.version == 1
        assert history.log[0].command.edge == (U, R)

    def test_denied_commands_not_logged(self, history):
        record = history.submit(grant_cmd(U, U, R))
        assert not record.executed
        assert history.version == 0

    def test_implicit_entries_tracked(self, history):
        history.submit(grant_cmd(ADMIN, U, S))  # weaker than grant(u, r)
        entries = history.implicit_entries()
        assert len(entries) == 1
        assert entries[0].authorized_by == Grant(U, R)

    def test_entries_by_user(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        assert len(history.entries_by(ADMIN)) == 1
        assert history.entries_by(U) == []

    def test_invalid_snapshot_interval(self):
        with pytest.raises(AnalysisError):
            PolicyHistory(Policy(), snapshot_interval=0)


class TestReplay:
    def test_state_at_zero_is_initial(self, history):
        initial = history.state_at(0)
        history.submit(grant_cmd(ADMIN, U, R))
        assert not initial.has_edge(U, R)
        assert history.state_at(0) == initial

    def test_state_at_intermediate_versions(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        history.submit(revoke_cmd(ADMIN, U, R))
        history.submit(grant_cmd(ADMIN, U, R))
        assert history.state_at(1).has_edge(U, R)
        assert not history.state_at(2).has_edge(U, R)
        assert history.state_at(3).has_edge(U, R)

    def test_replay_crosses_snapshots(self, history):
        for _ in range(3):
            history.submit(grant_cmd(ADMIN, U, R))
            history.submit(revoke_cmd(ADMIN, U, R))
        # snapshot_interval=2: versions 2, 4, ... are snapshotted.
        assert history.state_at(5).has_edge(U, R)
        assert not history.state_at(6).has_edge(U, R)

    def test_out_of_range_version(self, history):
        with pytest.raises(AnalysisError):
            history.state_at(99)
        with pytest.raises(AnalysisError):
            history.state_at(-1)


class TestRollback:
    def test_rollback_restores_edges(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        history.submit(grant_cmd(ADMIN, U, S))
        history.rollback(1)
        assert history.version == 1
        assert history.policy.has_edge(U, R)
        assert not history.policy.has_edge(U, S)

    def test_rollback_mutates_live_policy_in_place(self, history):
        live = history.policy
        history.submit(grant_cmd(ADMIN, U, R))
        history.rollback(0)
        assert live is history.policy
        assert not live.has_edge(U, R)

    def test_rollback_drops_vertices_created_later(self):
        newbie = User("newbie")
        policy = Policy(ua=[(ADMIN, ADM)], pa=[(ADM, Grant(newbie, R))])
        history = PolicyHistory(policy, mode=Mode.REFINED)
        assert newbie not in policy.graph
        assert history.submit(grant_cmd(ADMIN, newbie, R)).executed
        assert newbie in policy.graph  # the grant introduced the user
        history.rollback(0)
        assert newbie not in policy.graph
        assert history.policy == history.state_at(0)

    def test_resubmission_after_rollback(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        history.rollback(0)
        record = history.submit(grant_cmd(ADMIN, U, R))
        assert record.executed
        assert history.version == 1


class TestAuditDiff:
    def test_grant_is_coarsening(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        diff = history.audit_diff(0, 1)
        assert diff.direction == "coarsening"
        assert (U, perm("read", "doc")) in diff.gained_pairs

    def test_revoke_is_refinement(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        history.submit(revoke_cmd(ADMIN, U, R))
        diff = history.audit_diff(1, 2)
        assert diff.direction == "refinement"

    def test_full_cycle_is_equivalent(self, history):
        history.submit(grant_cmd(ADMIN, U, R))
        history.submit(revoke_cmd(ADMIN, U, R))
        diff = history.audit_diff(0, 2)
        assert diff.direction == "equivalent"


class TestOnPaperPolicy:
    def test_figure2_session(self):
        history = PolicyHistory(figures.figure2(), mode=Mode.REFINED)
        history.submit(grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2))
        history.submit(grant_cmd(figures.JANE, figures.JOE, figures.NURSE))
        history.submit(revoke_cmd(figures.JANE, figures.JOE, figures.NURSE))
        assert history.version == 3
        assert len(history.implicit_entries()) == 1
        diff = history.audit_diff(0, 3)
        assert all(s == figures.BOB for s, _ in diff.gained_pairs)
        history.rollback(0)
        assert history.policy == figures.figure2()