"""Unit and differential tests for the authorization index."""

import random

import pytest

from repro.core.authz_index import (
    AuthorizationIndex,
    BitGrantRectangle,
    ReviewSnapshot,
)
from repro.core.commands import Mode, candidate_commands, grant_cmd, revoke_cmd, step
from repro.core.entities import Role, User
from repro.core.ordering import OrderingOracle
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.graph import Digraph
from repro.oracle import ReferenceIndex
from repro.papercases import figures
from repro.workloads.churn import cover_table_problems
from repro.workloads.fuzz import _recycling_churn
from repro.workloads.generators import PolicyShape, random_policy

U, ADMIN = User("u"), User("admin")
HIGH, MID, LOW, ADM = Role("high"), Role("mid"), Role("low"), Role("adm")


@pytest.fixture
def policy():
    policy = Policy(
        ua=[(ADMIN, ADM)],
        rh=[(HIGH, MID), (MID, LOW)],
        pa=[(ADM, Grant(U, HIGH)), (ADM, Revoke(U, HIGH))],
    )
    policy.add_user(U)
    return policy


class TestRectangles:
    def test_exact_grant_covered(self, policy):
        index = AuthorizationIndex(policy)
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, HIGH)) == Grant(U, HIGH)

    def test_weaker_targets_covered(self, policy):
        index = AuthorizationIndex(policy)
        for role in (MID, LOW):
            assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, role)) == Grant(U, HIGH)

    def test_unrelated_target_denied(self, policy):
        index = AuthorizationIndex(policy)
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, ADM)) is None

    def test_unauthorized_user_denied(self, policy):
        index = AuthorizationIndex(policy)
        assert index.authorizes(U, grant_cmd(U, U, LOW)) is None

    def test_revocation_exact_only(self, policy):
        index = AuthorizationIndex(policy)
        assert index.authorizes(ADMIN, revoke_cmd(ADMIN, U, HIGH)) == Revoke(U, HIGH)
        assert index.authorizes(ADMIN, revoke_cmd(ADMIN, U, LOW)) is None

    def test_ill_sorted_command_denied(self, policy):
        index = AuthorizationIndex(policy)
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, User("x"))) is None

    def test_nested_target_falls_back_to_oracle(self, policy):
        inner = Grant(U, HIGH)
        policy.assign_privilege(ADM, Grant(ADM, inner))
        index = AuthorizationIndex(policy)
        weaker_nested = Grant(ADM, Grant(U, LOW))
        command = grant_cmd(ADMIN, ADM, Grant(U, LOW))
        assert index.authorizes(ADMIN, command) == Grant(ADM, inner)

    def test_invalidated_on_policy_change(self, policy):
        index = AuthorizationIndex(policy)
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, LOW)) is not None
        policy.remove_edge(ADM, Grant(U, HIGH))
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, LOW)) is None


class TestGrantablePairs:
    def test_pairs_match_rectangle(self, policy):
        index = AuthorizationIndex(policy)
        pairs = index.grantable_pairs(ADMIN)
        assert (U, HIGH) in pairs
        assert (U, MID) in pairs
        assert (U, LOW) in pairs
        assert (U, ADM) not in pairs

    def test_unprivileged_user_has_none(self, policy):
        index = AuthorizationIndex(policy)
        assert index.grantable_pairs(U) == frozenset()

    def test_statistics(self, policy):
        stats = AuthorizationIndex(policy).statistics()
        assert stats["users"] == 2
        assert stats["rectangles"] == 1
        assert stats["rectangle_pairs"] >= 3


class TestDifferentialAgainstOracle:
    """The index must agree with the oracle-based monitor path on the
    whole candidate command universe."""

    def check_policy(self, policy):
        index = AuthorizationIndex(policy)
        for command in candidate_commands(policy, Mode.REFINED):
            probe = policy.copy()
            record = step(probe, command, Mode.REFINED, OrderingOracle(probe))
            indexed = index.authorizes(command.user, command)
            assert record.executed == (indexed is not None), command

    def test_figure2(self):
        self.check_policy(figures.figure2())

    @pytest.mark.parametrize("seed", range(6))
    def test_random_policies(self, seed):
        shape = PolicyShape(
            n_users=3, n_roles=4, n_admin_privileges=3, max_nesting=2,
        )
        self.check_policy(random_policy(seed, shape))


class TestIncrementalMaintenance:
    """Churn repairs only the dirty corner of the index (and agrees
    with a from-scratch rebuild — see tests/workloads/test_churn.py
    for the randomized differential campaigns)."""

    def test_partial_refresh_not_full_rebuild(self, policy):
        index = AuthorizationIndex(policy)
        assert index.full_rebuilds == 1
        policy.assign_user(U, LOW)
        index.refresh()
        assert index.full_rebuilds == 1
        assert index.partial_refreshes == 1

    def test_privilege_free_assignment_refreshes_nobody(self, policy):
        # LOW holds no privileges, so no held set can change.
        index = AuthorizationIndex(policy)
        refreshed_before = index.users_refreshed
        policy.assign_user(U, LOW)
        index.refresh()
        assert index.partial_refreshes == 1
        assert index.users_refreshed == refreshed_before

    def test_ua_churn_dirties_only_the_assigned_user(self, policy):
        index = AuthorizationIndex(policy)
        refreshed_before = index.users_refreshed
        policy.assign_user(U, ADM)  # ADM holds the grant privileges
        index.refresh()
        assert index.users_refreshed - refreshed_before == 1
        assert index.authorizes(U, grant_cmd(U, U, LOW)) is not None

    def test_incremental_answers_track_policy(self, policy):
        index = AuthorizationIndex(policy)
        command = grant_cmd(ADMIN, U, LOW)
        assert index.authorizes(ADMIN, command) is not None
        policy.remove_edge(ADM, Grant(U, HIGH))
        assert index.authorizes(ADMIN, command) is None
        assert index.full_rebuilds == 1  # repaired, not rebuilt

    def test_rh_churn_updates_rectangle_targets(self, policy):
        index = AuthorizationIndex(policy)
        deep = Role("deep")
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, U, deep)) is None
        policy.add_role(deep)
        policy.add_inheritance(LOW, deep)
        assert index.authorizes(
            ADMIN, grant_cmd(ADMIN, U, deep)
        ) == Grant(U, HIGH)

    def test_expired_journal_forces_rebuild(self, policy):
        index = AuthorizationIndex(policy)
        since = policy.version
        for _ in range(Digraph.JOURNAL_HARD_LIMIT // 2 + 8):
            policy.assign_user(U, LOW)
            policy.remove_edge(U, LOW)
        assert policy.graph.changes_since(since) is None
        policy.assign_user(U, ADM)
        assert index.authorizes(U, grant_cmd(U, U, LOW)) == Grant(U, HIGH)
        assert index.full_rebuilds == 2
        assert index.partial_refreshes == 0

    def test_vertex_only_burst_stays_incremental(self, policy):
        # New isolated vertices can't dirty existing entries, however
        # many there are — no fallback.
        index = AuthorizationIndex(policy)
        for i in range(AuthorizationIndex.DELTA_LIMIT + 3):
            policy.add_role(Role(f"bulk{i}"))
        index.refresh()
        assert index.full_rebuilds == 1
        assert index.partial_refreshes == 1

    def test_oversized_edge_burst_falls_back(self, policy):
        index = AuthorizationIndex(policy)
        for i in range(AuthorizationIndex.DELTA_LIMIT + 3):
            policy.add_inheritance(Role(f"bulk{i}"), Role(f"bulk{i + 1}"))
        index.refresh()
        assert index.full_rebuilds == 2

    def test_new_user_gets_an_entry(self, policy):
        index = AuthorizationIndex(policy)
        newcomer = User("newcomer")
        policy.add_user(newcomer)
        policy.assign_user(newcomer, ADM)
        assert index.authorizes(
            newcomer, grant_cmd(newcomer, U, LOW)
        ) == Grant(U, HIGH)
        assert index.statistics()["users"] == 3


class TestRectangleMemo:
    """The compiled index memoizes one rectangle per held grant
    (``_rect_memo``): rectangle contents are per-privilege, so every
    holder shares one object, and repair evicts only the stale ones."""

    def test_holders_share_one_rectangle(self, policy):
        holders = [ADMIN]
        for i in range(5):
            grantee = User(f"m{i}")
            policy.add_user(grantee)
            policy.assign_user(grantee, ADM)
            holders.append(grantee)
        for i in range(5, 20):
            policy.add_user(User(f"m{i}"))
            policy.assign_user(User(f"m{i}"), LOW)
        index = AuthorizationIndex(policy)
        memo = index._rect_memo
        assert list(memo) == [Grant(U, HIGH)]
        shared = memo[Grant(U, HIGH)]
        assert isinstance(shared, BitGrantRectangle)
        for holder in holders:
            assert index._rectangles[holder] == (shared,)
            assert index._rectangles[holder][0] is shared
        assert index.rectangles_built == 1

    def test_mutation_evicts_only_the_dirty_entry(self, policy):
        other = Role("other")
        policy.add_role(other)
        policy.assign_privilege(ADM, Grant(other, other))
        index = AuthorizationIndex(policy)
        kept = index._rect_memo[Grant(other, other)]
        dirty = index._rect_memo[Grant(U, HIGH)]
        built = index.rectangles_built
        # Mutating below HIGH changes the dirty rectangle's target
        # region but cannot touch the disconnected one.
        policy.add_inheritance(LOW, Role("deeper"))
        index.refresh()
        assert index.partial_refreshes == 1
        assert index._rect_memo[Grant(other, other)] is kept
        rebuilt = index._rect_memo[Grant(U, HIGH)]
        assert rebuilt is not dirty
        assert Role("deeper") in rebuilt.targets(policy.graph)
        assert index.rectangles_built - built == 1
        assert index._rectangles[ADMIN] == tuple(
            sorted(
                (kept, rebuilt),
                key=lambda rect: policy.graph.vid(rect.held),
            )
        )

    def test_vertex_only_churn_keeps_every_entry(self, policy):
        index = AuthorizationIndex(policy)
        before = dict(index._rect_memo)
        built = index.rectangles_built
        for i in range(10):
            policy.add_role(Role(f"isolated{i}"))
        index.refresh()
        assert index.partial_refreshes == 1
        assert index.rectangles_built == built
        assert index._rect_memo.keys() == before.keys()
        for privilege, rectangle in before.items():
            assert index._rect_memo[privilege] is rectangle


class TestCoverTable:
    """The cover table (``_source_cover`` / ``_target_cover``) is the
    inversion of the rectangle memo the batch path decides from: kept
    exact by every memo insert and eviction, shared copy-on-write with
    snapshot forks, and bounded by the vertex count."""

    def test_fork_shares_tables_until_the_live_repair(self, policy):
        index = policy.index
        snapshot = ReviewSnapshot(policy)
        fork = snapshot._index
        tables = ("_rect_memo", "_rect_pid", "_source_cover", "_target_cover")
        for name in tables:
            assert getattr(fork, name) is getattr(index, name)
        captured = {name: dict(getattr(fork, name)) for name in tables}
        probe = (ADMIN, grant_cmd(ADMIN, U, Role("deeper")))
        assert snapshot.authorizes_batch([probe]) == [None]
        # A new role below LOW widens Grant(U, HIGH)'s target region:
        # the repair evicts and recompiles that rectangle.
        policy.add_inheritance(LOW, Role("deeper"))
        index.refresh()
        for name in tables:
            assert getattr(fork, name) is not getattr(index, name)
            assert getattr(fork, name) == captured[name]
        assert snapshot.authorizes_batch([probe]) == [None]
        assert index.authorizes_batch([probe]) == [Grant(U, HIGH)]
        assert cover_table_problems(index, AuthorizationIndex(policy)) == []

    def test_cover_stays_bounded_under_recycling_churn(self):
        policy = random_policy(
            3, PolicyShape(n_users=6, n_roles=6, n_admin_privileges=5)
        )
        index = AuthorizationIndex(policy)
        rng = random.Random(3)
        for _ in range(60):
            _recycling_churn(rng, policy, 4)
            index.refresh()
        assert index.partial_refreshes > 0
        entries = index.statistics()["cover_entries"]
        assert entries == len(index._source_cover) + len(index._target_cover)
        assert 0 < entries <= 2 * len(policy.graph)
        assert cover_table_problems(index, AuthorizationIndex(policy)) == []


class TestEffectiveAuthority:
    def test_grantable_pairs_agree_with_authorizes(self, policy):
        index = AuthorizationIndex(policy)
        for source, target in index.grantable_pairs(ADMIN):
            assert index.authorizes(
                ADMIN, grant_cmd(ADMIN, source, target)
            ) is not None

    def test_revocable_pairs_agree_with_authorizes(self, policy):
        index = AuthorizationIndex(policy)
        pairs = index.revocable_pairs(ADMIN)
        assert pairs == frozenset({(U, HIGH)})
        for source, target in pairs:
            assert index.authorizes(
                ADMIN, revoke_cmd(ADMIN, source, target)
            ) is not None

    def test_revoke_only_privilege_not_grantable(self, policy):
        policy.remove_edge(ADM, Grant(U, HIGH))
        index = AuthorizationIndex(policy)
        assert index.grantable_pairs(ADMIN) == frozenset()
        assert index.revocable_pairs(ADMIN) == frozenset({(U, HIGH)})

    def test_effective_authority_view(self, policy):
        index = AuthorizationIndex(policy)
        authority = index.effective_authority(ADMIN)
        assert authority["grant"] == index.grantable_pairs(ADMIN)
        assert authority["revoke"] == index.revocable_pairs(ADMIN)
        assert index.effective_authority(U) == {
            "grant": frozenset(), "revoke": frozenset()
        }


@pytest.mark.parametrize(
    "against_reference", [False, True], ids=["bits", "sets"]
)
class TestSnapshotFork:
    """``snapshot()`` forks the live index onto a structural policy
    clone; every answer must equal a fresh build over that clone
    ("bits") and the frozenset ReferenceIndex over it ("sets") — the
    latter at grant/deny level, because which of several covering
    privileges gets reported is scan order."""

    GHOST = User("ghost")  # named by a held grant, never registered

    @classmethod
    def _probes(cls, policy):
        subjects = sorted(policy.users(), key=str) + [cls.GHOST]
        roles = sorted(policy.roles(), key=str) + [Role("nowhere")]
        sources = subjects + roles
        commands = [
            make(subject, source, target)
            for subject in subjects
            for make in (grant_cmd, revoke_cmd)
            for source in sources
            for target in roles + [Grant(U, LOW)]
        ]
        return subjects, [(command.user, command) for command in commands]

    @classmethod
    def _answers(cls, reader, policy):
        subjects, pairs = cls._probes(policy)
        return (
            reader.authorizes_batch(pairs),
            reader.grantable_pairs_bulk(subjects),
            reader.held_privileges_bulk(subjects),
        )

    @staticmethod
    def _granted(answers):
        verdicts, grantable, held = answers
        return [verdict is not None for verdict in verdicts], grantable, held

    def test_fork_answers_equal_a_fresh_build(
        self, policy, against_reference
    ):
        policy.assign_privilege(ADM, Grant(self.GHOST, HIGH))
        index = policy.index
        captured = []
        for step_mutation in (
            lambda: None,
            # Privilege GC frees an ID; the re-grant recycles it.
            lambda: policy.remove_edge(ADM, Revoke(U, HIGH)),
            lambda: policy.assign_privilege(ADM, Grant(ADMIN, LOW)),
            # Deprovision the rectangle's own endpoint (it moves to
            # the extras), then an RH change dirties the rectangle.
            lambda: policy.remove_user(U),
            lambda: policy.add_inheritance(LOW, ADM),
            lambda: (policy.add_user(U), policy.assign_user(U, MID)),
        ):
            step_mutation()
            snapshot = ReviewSnapshot(policy)
            assert snapshot.version == policy.version
            assert snapshot._index.full_rebuilds == 0
            frozen = snapshot.policy_copy()
            answers = self._answers(snapshot, frozen)
            if against_reference:
                expected = self._answers(ReferenceIndex(frozen), frozen)
                assert self._granted(answers) == self._granted(expected)
            else:
                fresh = AuthorizationIndex(snapshot.policy_copy())
                assert answers == self._answers(fresh, frozen)
            captured.append((snapshot, frozen, answers))
        # Live churn after capture never reaches a snapshot, even as
        # the live index repairs and the interner recycles its IDs.
        policy.remove_edge(ADM, Grant(ADMIN, LOW))
        policy.assign_privilege(HIGH, Grant(U, MID))
        low_id = policy.graph.vid(LOW)
        policy.remove_role(LOW)
        policy.add_role(Role("fresh"))
        assert policy.graph.vid(Role("fresh")) == low_id
        index.refresh()
        for snapshot, frozen, answers in captured:
            assert self._answers(snapshot, frozen) == answers
            assert snapshot.policy_copy() == frozen


class TestRepairFollowsTheDirtyRegion:
    """Publication work counted, not timed: one delegated-membership
    toggle recompiles one rectangle, rebuilds one user and unshares two
    adjacency sets, at either policy size."""

    @staticmethod
    def _organization(admins, users):
        from repro.workloads.churn import ChurnShape, churn_policy

        shape = ChurnShape(
            n_users=users, n_roles=48, n_admins=admins, layers=6,
            roles_per_user=3, privileges_per_role=8,
            delegations_per_top_role=40,
        )
        return churn_policy(29, shape)

    @pytest.mark.parametrize("admins", [2, 8])
    @pytest.mark.parametrize("users", [500, 2000])
    def test_one_toggle_rebuilds_one_rectangle(self, admins, users):
        policy = self._organization(admins, users)
        index = policy.index
        previous = ReviewSnapshot(policy)
        delegated = sorted(
            (
                privilege for privilege in policy.admin_privileges()
                if isinstance(privilege, Grant)
                and isinstance(privilege.source, User)
            ),
            key=str,
        )
        holders = [
            user for user in policy.users() if user.name.startswith("admin")
        ]
        assert len(holders) == admins
        for privilege in delegated[:4]:
            before = index.statistics()
            user, senior = privilege.edge
            if policy.has_edge(user, senior):
                policy.remove_edge(user, senior)
            else:
                policy.add_edge(user, senior)
            snapshot = ReviewSnapshot(policy)
            after = index.statistics()
            # The senior role's own rectangle ¤(senior, senior) gained
            # or lost a source; every administrator holds it and is
            # patched, but only the toggled user is rebuilt whole.
            assert after["rectangles_built"] - before["rectangles_built"] == 1
            assert after["users_refreshed"] - before["users_refreshed"] == 1
            assert after["partial_refreshes"] - before["partial_refreshes"] == 1
            # The snapshot clone unshared exactly the two adjacency
            # sets the toggle wrote; the fork shares every rectangle.
            live, frozen = previous._policy.graph, snapshot._policy.graph
            unshared = sum(
                live._succ[vertex] is not frozen._succ[vertex]
                for vertex in live.vertices()
            ) + sum(
                live._pred[vertex] is not frozen._pred[vertex]
                for vertex in live.vertices()
            )
            assert unshared == 2
            for holder in holders:
                assert (
                    snapshot._index._rectangles[holder]
                    is index._rectangles[holder]
                )
            previous = snapshot
        # An administrator joining a bottom-layer role changes their
        # held set (rebuilt whole) but no rectangle: every one of their
        # rectangles is reused, none recompiled.
        before = index.statistics()
        assert policy.assign_user(holders[0], Role("r47"))
        index.refresh()
        after = index.statistics()
        assert after["rectangles_built"] == before["rectangles_built"]
        assert after["users_refreshed"] - before["users_refreshed"] == 1
        fresh = AuthorizationIndex(policy)
        toggled = [privilege.source for privilege in delegated[:4]]
        for user in holders + toggled:
            assert index._rect_rows[user] == fresh._rect_rows[user]
