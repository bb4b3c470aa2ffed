"""Unit tests for the reference monitor."""

import pytest

from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.monitor import ReferenceMonitor
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.errors import AccessDenied
from repro.papercases import figures

U, ADMIN = User("u"), User("admin")
R, S, ADM = Role("r"), Role("s"), Role("adm")
P = perm("read", "doc")


@pytest.fixture
def monitor():
    policy = Policy(
        ua=[(U, R), (ADMIN, ADM)],
        rh=[(R, S)],
        pa=[(S, P), (ADM, Grant(U, S)), (ADM, Revoke(U, R))],
    )
    return ReferenceMonitor(policy)


class TestSessions:
    def test_create_and_activate(self, monitor):
        session = monitor.create_session(U)
        monitor.add_active_role(session, R)
        assert R in session.active_roles

    def test_activate_inherited_role(self, monitor):
        session = monitor.create_session(U)
        monitor.add_active_role(session, S)  # via R -> S
        assert S in session.active_roles

    def test_activate_unauthorized_role_denied(self, monitor):
        session = monitor.create_session(U)
        with pytest.raises(AccessDenied):
            monitor.add_active_role(session, ADM)
        assert monitor.denials()

    def test_drop_active_role(self, monitor):
        session = monitor.create_session(U)
        monitor.add_active_role(session, R)
        monitor.drop_active_role(session, R)
        assert session.active_roles == set()

    def test_delete_session(self, monitor):
        session = monitor.create_session(U)
        monitor.delete_session(session)
        assert session.terminated


class TestCheckAccess:
    def test_access_via_active_role(self, monitor):
        session = monitor.create_session(U)
        monitor.add_active_role(session, R)
        assert monitor.check_access(session, "read", "doc")

    def test_no_active_role_no_access(self, monitor):
        session = monitor.create_session(U)
        assert not monitor.check_access(session, "read", "doc")

    def test_least_privilege_sessions(self, monitor):
        # Activating only a role without the privilege denies access.
        monitor.policy.add_role(Role("empty"))
        monitor.policy.assign_user(U, Role("empty"))
        session = monitor.create_session(U)
        monitor.add_active_role(session, Role("empty"))
        assert not monitor.check_access(session, "read", "doc")

    def test_revocation_mid_session_disables_role(self, monitor):
        session = monitor.create_session(U)
        monitor.add_active_role(session, R)
        assert monitor.check_access(session, "read", "doc")
        monitor.policy.remove_edge(U, R)
        assert not monitor.check_access(session, "read", "doc")

    def test_require_access_raises(self, monitor):
        session = monitor.create_session(U)
        with pytest.raises(AccessDenied):
            monitor.require_access(session, "read", "doc")

    def test_session_privileges(self, monitor):
        session = monitor.create_session(U)
        monitor.add_active_role(session, R)
        assert monitor.session_privileges(session) == {P}


class TestAdministration:
    def test_submit_executes_authorized(self, monitor):
        record = monitor.submit(grant_cmd(ADMIN, U, S))
        assert record.executed
        assert monitor.policy.has_edge(U, S)

    def test_submit_noop_on_unauthorized(self, monitor):
        before = monitor.policy.edge_set()
        record = monitor.submit(grant_cmd(U, U, S))
        assert not record.executed
        assert monitor.policy.edge_set() == before

    def test_submit_queue(self, monitor):
        records = monitor.submit_queue(
            [grant_cmd(ADMIN, U, S), revoke_cmd(ADMIN, U, R)]
        )
        assert [r.executed for r in records] == [True, True]
        assert monitor.policy.has_edge(U, S)
        assert not monitor.policy.has_edge(U, R)

    def test_refined_mode_implicit_authorization(self):
        policy = Policy(
            ua=[(ADMIN, ADM)], rh=[(R, S)], pa=[(ADM, Grant(U, R))]
        )
        monitor = ReferenceMonitor(policy, mode=Mode.REFINED)
        record = monitor.submit(grant_cmd(ADMIN, U, S))
        assert record.executed and record.implicit
        # Audit trail mentions the implicit authorization.
        admin_entries = [e for e in monitor.audit_trail if e.kind == "admin"]
        assert any("implicitly authorized" in e.detail for e in admin_entries)

    def test_strict_mode_denies_weaker_request(self):
        policy = Policy(
            ua=[(ADMIN, ADM)], rh=[(R, S)], pa=[(ADM, Grant(U, R))]
        )
        monitor = ReferenceMonitor(policy, mode=Mode.STRICT)
        assert not monitor.submit(grant_cmd(ADMIN, U, S)).executed


class TestReviewFunctions:
    def test_assigned_vs_authorized_users(self, monitor):
        assert monitor.assigned_users(S) == frozenset()
        assert monitor.authorized_users(S) == {U}
        assert monitor.assigned_users(R) == {U}

    def test_role_privileges(self, monitor):
        assert monitor.role_privileges(R) == {P}
        assert monitor.role_privileges(S) == {P}


class TestExample4EndToEnd:
    def test_flexworker_scenario(self):
        monitor = ReferenceMonitor(figures.figure3(), mode=Mode.REFINED)
        record = monitor.submit(
            grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)
        )
        assert record.executed and record.implicit
        assert record.authorized_by == Grant(figures.BOB, figures.STAFF)
        session = monitor.create_session(figures.BOB)
        monitor.add_active_role(session, figures.DBUSR2)
        assert monitor.check_access(session, "write", "t3")
        assert not monitor.check_access(session, "print", "black")


class TestIndexBackedMonitor:
    def test_index_monitor_flexworker(self):
        monitor = ReferenceMonitor(
            figures.figure3(), mode=Mode.REFINED, use_index=True
        )
        record = monitor.submit(
            grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)
        )
        assert record.executed and record.implicit
        assert record.authorized_by == Grant(figures.BOB, figures.STAFF)

    def test_index_statistics(self):
        monitor = ReferenceMonitor(
            figures.figure2(), mode=Mode.REFINED, use_index=True
        )
        stats = monitor.index_statistics()
        assert stats == monitor._index.statistics()
        assert stats["users"] == len(list(monitor.policy.users()))
        assert stats["full_rebuilds"] == 1
        oracle_only = ReferenceMonitor(figures.figure2(), mode=Mode.REFINED)
        assert oracle_only.index_statistics() is None

    def test_index_monitor_denies_like_oracle(self):
        monitor = ReferenceMonitor(
            figures.figure2(), mode=Mode.REFINED, use_index=True
        )
        record = monitor.submit(
            grant_cmd(figures.DIANA, figures.BOB, figures.STAFF)
        )
        assert not record.executed

    def test_index_monitor_exact_match_not_implicit(self):
        monitor = ReferenceMonitor(
            figures.figure2(), mode=Mode.REFINED, use_index=True
        )
        record = monitor.submit(
            grant_cmd(figures.JANE, figures.BOB, figures.STAFF)
        )
        assert record.executed and not record.implicit

    def test_index_monitor_tracks_policy_mutation(self):
        monitor = ReferenceMonitor(
            figures.figure2(), mode=Mode.REFINED, use_index=True
        )
        monitor.policy.remove_edge(
            figures.HR, Grant(figures.BOB, figures.STAFF)
        )
        record = monitor.submit(
            grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)
        )
        assert not record.executed

    def test_index_agrees_with_oracle_monitor_on_queue(self):
        from repro.core.commands import candidate_commands

        base = figures.figure2()
        commands = candidate_commands(base, Mode.REFINED)[:120]
        plain = ReferenceMonitor(base.copy(), mode=Mode.REFINED)
        indexed = ReferenceMonitor(
            base.copy(), mode=Mode.REFINED, use_index=True
        )
        for command in commands:
            assert (
                plain.submit(command).executed
                == indexed.submit(command).executed
            ), command
        assert plain.policy == indexed.policy


class TestBatchedQueue:
    """submit_queue(batched=True): one index validation per batch,
    authorization against the batch-entry state."""

    def _refined_monitor(self):
        policy = Policy(
            ua=[(ADMIN, ADM)],
            rh=[(R, S)],
            pa=[(ADM, Grant(U, R)), (ADM, Revoke(U, R))],
        )
        policy.add_user(U)
        return ReferenceMonitor(policy, mode=Mode.REFINED, use_index=True)

    def test_batched_matches_sequential_on_independent_commands(self):
        batch = [
            grant_cmd(ADMIN, U, R),
            grant_cmd(ADMIN, U, S),      # implicit via Grant(U, R)
            grant_cmd(U, U, R),          # unauthorized
            revoke_cmd(ADMIN, U, R),
        ]
        sequential = self._refined_monitor()
        records_seq = sequential.submit_queue(batch)
        batched = self._refined_monitor()
        records_bat = batched.submit_queue(batch, batched=True)
        assert [r.executed for r in records_seq] == [
            r.executed for r in records_bat
        ]
        assert sequential.policy.edge_set() == batched.policy.edge_set()

    def test_batched_authorizes_against_entry_state(self):
        """A command depending on an edge granted earlier in the same
        batch executes sequentially but not under snapshot semantics —
        the documented transactional reading."""
        grant_adm = Grant(ADM, Grant(U, S))
        policy = Policy(ua=[(ADMIN, ADM)], pa=[(ADM, grant_adm)])
        policy.add_user(U)
        policy.add_role(S)
        batch = [
            grant_cmd(ADMIN, ADM, Grant(U, S)),  # gives ADM the privilege
            grant_cmd(ADMIN, U, S),              # needs that privilege
        ]
        sequential = ReferenceMonitor(
            policy.copy(), mode=Mode.REFINED, use_index=True
        )
        assert [r.executed for r in sequential.submit_queue(batch)] == [
            True, True
        ]
        batched = ReferenceMonitor(
            policy.copy(), mode=Mode.REFINED, use_index=True
        )
        assert [
            r.executed for r in batched.submit_queue(batch, batched=True)
        ] == [True, False]

    def test_batched_validates_index_once(self):
        monitor = self._refined_monitor()
        monitor.submit(grant_cmd(ADMIN, U, R))  # warm the index
        refreshes_before = monitor._index.partial_refreshes
        batch = [grant_cmd(ADMIN, U, S), revoke_cmd(ADMIN, U, R)]
        monitor.submit_queue(batch, batched=True)
        assert (
            monitor._index.partial_refreshes - refreshes_before
            + monitor._index.full_rebuilds - 1
        ) <= 1

    def test_batched_audits_every_command(self):
        monitor = self._refined_monitor()
        before = len(monitor.audit_trail)
        batch = [grant_cmd(ADMIN, U, R), grant_cmd(U, U, R)]
        monitor.submit_queue(batch, batched=True)
        entries = monitor.audit_trail[before:]
        assert [entry.allowed for entry in entries] == [True, False]

    def test_batched_without_index_falls_back_to_sequential(self):
        policy = Policy(ua=[(ADMIN, ADM)], pa=[(ADM, Grant(U, R))])
        policy.add_user(U)
        monitor = ReferenceMonitor(policy, mode=Mode.REFINED)
        records = monitor.submit_queue(
            [grant_cmd(ADMIN, U, R)], batched=True
        )
        assert records[0].executed


class TestBatchedDuplicates:
    """The batched apply step must tolerate pre-decided mutations that
    no longer change anything — duplicate grants, duplicate revokes,
    revokes of edges an earlier command in the same batch already
    removed — and stay in exact agreement with the sequential
    Definition-5 path (which re-decides each command against the
    current state) whenever no command's *authorization* depends on an
    in-batch edge."""

    def _refined_monitor(self):
        policy = Policy(
            ua=[(ADMIN, ADM)],
            rh=[(R, S)],
            pa=[(ADM, Grant(U, R)), (ADM, Revoke(U, R))],
        )
        policy.add_user(U)
        return ReferenceMonitor(policy, mode=Mode.REFINED, use_index=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_differential_duplicate_heavy_traces(self, seed):
        import random

        # The batch authority (ADM's privileges) never touches the
        # mutated edges, so sequential and batched readings must agree
        # exactly: decisions, no-op flags, and the final policy.
        vocabulary = [
            grant_cmd(ADMIN, U, R),
            grant_cmd(ADMIN, U, R),     # duplicated on purpose
            revoke_cmd(ADMIN, U, R),
            revoke_cmd(ADMIN, U, R),
            grant_cmd(ADMIN, U, S),     # implicit via Grant(U, R)
            revoke_cmd(ADMIN, U, S),    # never authorized (exact only)
            grant_cmd(U, U, R),         # never authorized
        ]
        rng = random.Random(seed)
        batch = [rng.choice(vocabulary) for _ in range(10)]
        sequential = self._refined_monitor()
        batched = self._refined_monitor()
        records_seq = sequential.submit_queue(batch)
        records_bat = batched.submit_queue(batch, batched=True)
        assert [(r.executed, r.noop) for r in records_seq] == [
            (r.executed, r.noop) for r in records_bat
        ]
        assert sequential.policy.edge_set() == batched.policy.edge_set()

    def test_duplicate_revoke_after_privilege_gc(self):
        """Revoking the same PA edge twice in one batch: the first
        removal garbage-collects the privilege vertex; the second is
        authorized (the ♦ term is a separate vertex) and must execute
        as a tolerated no-op instead of diverging."""
        doc = perm("write", "doc")
        target_role = Role("holder")

        def build():
            policy = Policy(
                ua=[(ADMIN, ADM)],
                pa=[(ADM, Revoke(target_role, doc)), (target_role, doc)],
            )
            return ReferenceMonitor(
                policy, mode=Mode.REFINED, use_index=True
            )

        batch = [
            revoke_cmd(ADMIN, target_role, doc),
            revoke_cmd(ADMIN, target_role, doc),
        ]
        sequential, batched = build(), build()
        records_seq = sequential.submit_queue(batch)
        records_bat = batched.submit_queue(batch, batched=True)
        assert [(r.executed, r.noop) for r in records_seq] == [
            (True, False), (True, True),
        ]
        assert [(r.executed, r.noop) for r in records_bat] == [
            (True, False), (True, True),
        ]
        assert sequential.policy.edge_set() == batched.policy.edge_set()
        assert doc not in batched.policy.vertex_set()  # GC'd once

    def test_sequential_submit_records_noop(self, monitor):
        first = monitor.submit(grant_cmd(ADMIN, U, S))
        again = monitor.submit(grant_cmd(ADMIN, U, S))
        assert first.executed and not first.noop
        assert again.executed and again.noop


class TestBatchRewireConformance:
    """``submit_queue(batched=True)`` now pre-authorizes its read set
    with one ``authorizes_batch`` sweep.  The rewire must be
    record-for-record identical to the previous per-command decision
    loop — same ``ExecutionRecord`` sequences, including the ``noop``
    tolerated-redundancy records, byte-identical under ``repr`` — on
    duplicate-heavy differential traces, on both kernels."""

    def _monitor(self, compiled: bool) -> ReferenceMonitor:
        policy = Policy(
            ua=[(ADMIN, ADM)],
            rh=[(R, S)],
            pa=[(ADM, Grant(U, R)), (ADM, Revoke(U, R))],
        )
        policy.add_user(U)
        return ReferenceMonitor(
            policy, mode=Mode.REFINED, use_index=True, compiled=compiled
        )

    def _legacy_submit_queue(self, monitor, batch):
        """The pre-rewire batched path, replicated verbatim: decide
        every command against the batch entry state one scalar
        ``authorizes`` call at a time, then apply in order."""
        decisions = [
            (command, monitor._index.authorizes(command.user, command))
            for command in batch
        ]
        records = []
        for command, authorized_by in decisions:
            record = monitor._apply_decided(command, authorized_by)
            monitor._audit_admin(record)
            records.append(record)
        return records

    @pytest.mark.parametrize(
        "compiled", [True, False], ids=["compiled", "frozenset"]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_records_identical_on_duplicate_heavy_traces(
        self, seed, compiled
    ):
        import random

        vocabulary = [
            grant_cmd(ADMIN, U, R),
            grant_cmd(ADMIN, U, R),     # duplicated on purpose
            revoke_cmd(ADMIN, U, R),
            revoke_cmd(ADMIN, U, R),
            grant_cmd(ADMIN, U, S),     # implicit via Grant(U, R)
            revoke_cmd(ADMIN, U, S),    # never authorized (exact only)
            grant_cmd(U, U, R),         # never authorized
        ]
        rng = random.Random(seed)
        batch = [rng.choice(vocabulary) for _ in range(14)]
        legacy, rewired = self._monitor(compiled), self._monitor(compiled)
        records_old = self._legacy_submit_queue(legacy, batch)
        records_new = rewired.submit_queue(batch, batched=True)
        assert records_old == records_new
        assert [repr(r) for r in records_old] == [
            repr(r) for r in records_new
        ]
        assert legacy.policy.edge_set() == rewired.policy.edge_set()
        assert legacy.audit_trail == rewired.audit_trail

    def test_noop_after_privilege_gc_identical(self):
        """The PR-3 tolerated-redundancy case through the rewire: a
        duplicate revoke whose first execution garbage-collected the
        privilege vertex still yields (executed, noop) — identical to
        the legacy decision loop."""
        doc = perm("write", "doc")
        holder = Role("holder")

        def build():
            policy = Policy(
                ua=[(ADMIN, ADM)],
                pa=[(ADM, Revoke(holder, doc)), (holder, doc)],
            )
            return ReferenceMonitor(
                policy, mode=Mode.REFINED, use_index=True
            )

        batch = [
            revoke_cmd(ADMIN, holder, doc),
            revoke_cmd(ADMIN, holder, doc),
        ]
        legacy, rewired = build(), build()
        records_old = self._legacy_submit_queue(legacy, batch)
        records_new = rewired.submit_queue(batch, batched=True)
        assert records_old == records_new
        assert [(r.executed, r.noop) for r in records_new] == [
            (True, False), (True, True),
        ]
