"""The bitset authorization kernel: sort masks, bit rectangles, index
parity with the frozenset :class:`~repro.oracle.ReferenceIndex`, the
ordering memo, and review snapshots."""

import pytest

from repro.core.authz_index import (
    AuthorizationIndex,
    GrantRectangle,
    ReviewSnapshot,
    compile_rectangle,
)
from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.monitor import ReferenceMonitor
from repro.core.ordering import OrderingOracle
from repro.core.policy import Policy, PolicyBits
from repro.core.privileges import Grant, Revoke
from repro.oracle import ReferenceIndex

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


class TestPolicyBits:
    def test_sort_masks_partition_the_vertices(self, policy):
        bits = policy.bits
        graph = policy.graph
        for vertex in graph.vertices():
            index = graph.vid(vertex)
            sorts = [
                bool(bits.users_mask >> index & 1),
                bool(bits.roles_mask >> index & 1),
                bool(bits.privileges_mask >> index & 1),
            ]
            assert sum(sorts) == 1, vertex
        assert bits.entities_mask == bits.users_mask | bits.roles_mask

    def test_grant_and_revoke_entity_masks(self, policy):
        bits = policy.bits
        graph = policy.graph
        assert bits.grant_entity_mask >> graph.vid(Grant(U, HIGH)) & 1
        assert bits.revoke_entity_mask >> graph.vid(Revoke(U, HIGH)) & 1
        # A nested grant has a privilege target: in neither mask.
        nested = Grant(ADM, Grant(U, HIGH))
        policy.assign_privilege(ADM, nested)
        bits = policy.bits
        index = policy.graph.vid(nested)
        assert not bits.grant_entity_mask >> index & 1
        assert bits.privileges_mask >> index & 1

    def test_incremental_on_additions_rebuild_on_removal(self, policy):
        bits = policy.bits
        baseline = bits.rebuilds
        policy.add_user(User("new"))
        policy.assign_user(User("new"), LOW)
        bits = policy.bits
        assert bits.rebuilds == baseline  # additions patched in place
        assert bits.users_mask >> policy.graph.vid(User("new")) & 1
        policy.remove_user(User("new"))
        bits = policy.bits
        assert bits.rebuilds == baseline + 1  # removal forces a rescan

    def test_rebuild_retires_recycled_ids(self, policy):
        policy.bits
        victim = User("victim")
        policy.add_user(victim)
        freed = policy.graph.vid(victim)
        policy.remove_user(victim)
        policy.add_role(Role("reborn"))  # recycles the freed ID
        assert policy.graph.vid(Role("reborn")) == freed
        bits = policy.bits
        assert bits.roles_mask >> freed & 1
        assert not bits.users_mask >> freed & 1

    def test_copy_keeps_built_masks(self, policy):
        policy.bits
        policy.assign_user(User("late"), LOW)  # pending on the original
        clone = policy.copy()
        assert clone.bits.rebuilds == 0
        assert _masks(clone.bits) == _masks(PolicyBits(clone.graph))

    def test_copied_masks_follow_independent_churn(self, policy):
        policy.bits
        clone = policy.copy()
        for side, tag in ((policy, "a"), (clone, "b")):
            # Deprovision, recycle the freed ID under another sort,
            # re-add, and introduce a fresh grant rectangle.
            side.remove_user(U)
            side.add_role(Role(f"reborn_{tag}"))
            side.assign_user(U, LOW)
            side.assign_privilege(ADM, Grant(User(tag), MID))
            side.remove_edge(ADM, Revoke(U, HIGH))
        for side in (policy, clone):
            assert _masks(side.bits) == _masks(PolicyBits(side.graph))
        assert policy.graph.vid(Role("reborn_a")) == clone.graph.vid(
            Role("reborn_b")
        )

    def test_copy_of_unbuilt_masks_stays_lazy(self, policy):
        assert policy.copy()._bits is None


def _masks(bits: PolicyBits) -> tuple:
    return (
        bits.users_mask, bits.roles_mask, bits.entities_mask,
        bits.privileges_mask, bits.grant_entity_mask,
        bits.revoke_entity_mask, bits.grant_sources, bits.grant_targets,
    )


class TestBitGrantRectangle:
    def test_covers_matches_frozenset_rectangle(self, policy):
        compiled = compile_rectangle(policy, Grant(U, HIGH))
        oracle = ReferenceIndex(policy)
        frozen = [
            r for r in oracle.rectangles(ADMIN) if r.held == Grant(U, HIGH)
        ][0]
        for source in (U, ADMIN, HIGH, LOW, User("nobody")):
            for target in (HIGH, MID, LOW, ADM, Role("nowhere")):
                assert compiled.covers(
                    policy.graph, source, target
                ) == frozen.covers(source, target), (source, target)
        assert compiled.sources(policy.graph) == frozen.sources
        assert compiled.targets(policy.graph) == frozen.targets
        assert compiled.pair_count() == frozen.pair_count()
        assert compiled.thaw(policy.graph) == frozen

    def test_off_graph_grantor_covered_via_extras(self, policy):
        ghost = User("ghost")  # mentioned by the grant, never registered
        policy.assign_privilege(ADM, Grant(ghost, HIGH))
        compiled = compile_rectangle(policy, Grant(ghost, HIGH))
        assert compiled.extra_sources == {ghost}
        assert compiled.covers(policy.graph, ghost, MID)
        assert not compiled.covers(policy.graph, User("other"), MID)
        # Parity with the frozenset reference on the whole surface.
        index = AuthorizationIndex(policy)
        oracle = ReferenceIndex(policy)
        probe = grant_cmd(ADMIN, ghost, MID)
        assert index.authorizes(ADMIN, probe) is not None
        assert (
            index.authorizes(ADMIN, probe) is not None
        ) == (oracle.authorizes(ADMIN, probe) is not None)

    def test_deprovisioned_user_still_covered(self, policy):
        """remove_user(U) leaves Grant(U, HIGH) assigned; the refined
        monitor may still execute the grant (re-provisioning)."""
        index = AuthorizationIndex(policy)
        oracle = ReferenceIndex(policy)
        policy.remove_user(U)
        probe = grant_cmd(ADMIN, U, MID)
        got = index.authorizes(ADMIN, probe)
        want = oracle.authorizes(ADMIN, probe)
        assert (got is None) == (want is None)
        assert got is not None

    def test_reprovision_in_later_window_migrates_extras(self, policy):
        """Deprovision in one delta window, re-provision in a *later*
        one: the rectangle was rebuilt with the endpoint in its
        extras, and the re-add (which journals no removal) must
        migrate it back into the mask — a regression a long-run
        burst fuzz caught."""
        index = AuthorizationIndex(policy)
        probe = grant_cmd(ADMIN, U, MID)
        assert index.authorizes(ADMIN, probe) is not None
        policy.remove_user(U)
        # Validate while U is off-graph: rectangle goes extras-based.
        assert index.authorizes(ADMIN, probe) is not None
        # New window: U re-provisioned (add-vertex + UA edge only).
        policy.add_user(U)
        policy.assign_user(U, LOW)
        got = index.authorizes(ADMIN, probe)
        oracle = ReferenceIndex(policy)
        assert got is not None
        assert (got is None) == (oracle.authorizes(ADMIN, probe) is None)
        # Pure add-vertex window (no edges) must migrate too.
        ghost = User("ghost")
        policy.assign_privilege(ADM, Grant(ghost, HIGH))
        assert index.authorizes(ADMIN, grant_cmd(ADMIN, ghost, MID)) \
            is not None
        policy.add_user(ghost)  # weight-0 window
        got = index.authorizes(ADMIN, grant_cmd(ADMIN, ghost, MID))
        fresh = ReferenceIndex(policy)
        assert (got is None) == (
            fresh.authorizes(ADMIN, grant_cmd(ADMIN, ghost, MID)) is None
        )
        assert got is not None

    def test_equality_and_hash_by_contents(self, policy):
        one = compile_rectangle(policy, Grant(U, HIGH))
        two = compile_rectangle(policy, Grant(U, HIGH))
        assert one == two and hash(one) == hash(two)
        assert one != GrantRectangle(
            Grant(U, HIGH), one.sources(policy.graph),
            one.targets(policy.graph),
        )


class TestCompiledIndexParity:
    def test_surfaces_match_frozenset_oracle(self, policy):
        users = [U, ADMIN]
        for i in range(12):
            extra = User(f"m{i}")
            users.append(extra)
            policy.add_user(extra)
            policy.assign_user(extra, ADM if i < 3 else LOW)
        compiled = AuthorizationIndex(policy)
        oracle = ReferenceIndex(policy)
        probes = [
            grant_cmd(ADMIN, U, HIGH), grant_cmd(ADMIN, U, LOW),
            revoke_cmd(ADMIN, U, HIGH), revoke_cmd(ADMIN, U, LOW),
            grant_cmd(U, U, LOW),
            grant_cmd(ADMIN, ADM, Grant(U, HIGH)),  # nested target
        ]
        for user in users:
            assert compiled.grantable_pairs(user) == oracle.grantable_pairs(
                user
            )
            assert compiled.revocable_pairs(user) == oracle.revocable_pairs(
                user
            )
            assert compiled.effective_authority(
                user
            ) == oracle.effective_authority(user)
            for probe in probes:
                command = grant_cmd(user, probe.source, probe.target)
                got = compiled.authorizes(user, command)
                want = oracle.authorizes(user, command)
                assert (got is None) == (want is None), (user, command)

    def test_gc_and_reassign_with_recycled_id_in_one_window(self):
        """Privilege GC frees an interner ID, a user removal stacks
        another on the free-list, and a re-grant brings the privilege
        back under a *different* recycled ID — all in one journal
        window.  Compaction must not swallow the GC's edge deltas, or
        surviving held masks keep pointing at the freed slot (the
        review-caught unsoundness)."""
        u, victim = User("u2"), User("victim")
        r, high = Role("r"), Role("high")
        p = Grant(u, high)
        policy = Policy(ua=[(u, r)], pa=[(r, p)])
        policy.add_user(victim)
        index = AuthorizationIndex(policy)
        oracle = ReferenceIndex(policy)
        policy.remove_edge(r, p)       # GC: p's vertex + ID freed
        policy.remove_user(victim)     # second freed ID tops the list
        policy.assign_privilege(r, p)  # p returns under a recycled ID
        assert index.held_privileges(u) == oracle.held_privileges(u)
        probe = grant_cmd(u, u, high)
        assert (index.authorizes(u, probe) is None) == (
            oracle.authorizes(u, probe) is None
        )

    def test_held_privileges_decodes_the_mask(self, policy):
        compiled = AuthorizationIndex(policy)
        oracle = ReferenceIndex(policy)
        assert isinstance(compiled._held[ADMIN], int)
        assert compiled.held_privileges(ADMIN) == oracle.held_privileges(
            ADMIN
        )
        assert compiled.held_privileges(User("nobody")) == frozenset()

    def test_incremental_repair_stays_compiled(self, policy):
        index = AuthorizationIndex(policy)
        policy.assign_user(U, LOW)
        policy.assign_privilege(ADM, Grant(U, MID))
        index.refresh()
        assert index.full_rebuilds == 1
        assert index.partial_refreshes >= 1
        oracle = ReferenceIndex(policy)
        for user in (U, ADMIN):
            assert index.effective_authority(
                user
            ) == oracle.effective_authority(user)


class TestCompiledOrderingMemo:
    def test_decisions_identical_after_churn(self, policy):
        """A memoized oracle kept across churn decides like a fresh one
        at every version (the seeded eviction differential lives in
        tests/core/test_ordering.py)."""
        memoized = OrderingOracle(policy)
        probes = [
            (Grant(U, HIGH), Grant(U, MID)),
            (Grant(U, HIGH), Grant(U, HIGH)),
            (Grant(U, MID), Grant(U, HIGH)),
            (Revoke(U, HIGH), Revoke(U, HIGH)),
        ]
        for mutate in (
            lambda: policy.assign_user(User("churn"), LOW),
            lambda: policy.remove_edge(User("churn"), LOW),
            lambda: policy.remove_edge(HIGH, MID),
            lambda: policy.add_inheritance(HIGH, MID),
        ):
            mutate()
            fresh = OrderingOracle(policy)
            for stronger, weaker in probes:
                assert memoized.is_weaker(stronger, weaker) == (
                    fresh.is_weaker(stronger, weaker)
                ), (stronger, weaker)


class TestReviewSnapshots:
    def test_at_version_answers_from_the_frozen_copy(self, policy):
        index = policy.index
        snapshot = ReviewSnapshot(policy)
        before = index.grantable_pairs(ADMIN)
        policy.remove_edge(ADM, Grant(U, HIGH))
        assert index.grantable_pairs(ADMIN) != before
        assert snapshot.version != policy.version
        assert snapshot.grantable_pairs(ADMIN) == before
        assert snapshot.effective_authority(ADMIN)["grant"] == before

    def test_batched_queue_snapshot_sees_entry_state(self, policy):
        monitor = ReferenceMonitor(
            policy, mode=Mode.REFINED, use_index=True
        )
        entry = ReviewSnapshot(policy)
        entry_authority = monitor._index.grantable_pairs(ADMIN)
        records = monitor.submit_queue(
            [grant_cmd(ADMIN, U, MID)], batched=True
        )
        assert [r.executed for r in records] == [True]
        assert entry.grantable_pairs(ADMIN) == entry_authority
        # Mutate authority after the batch: the snapshot stays put.
        policy.remove_edge(ADM, Grant(U, HIGH))
        assert entry.grantable_pairs(ADMIN) == entry_authority
        assert monitor._index.grantable_pairs(ADMIN) != entry_authority


class TestMonitorKernelKnob:
    def test_both_kernels_execute_identically(self, policy):
        """The index-backed monitor and the unindexed Lemma-1 path
        execute a queue identically."""
        queue = [
            grant_cmd(ADMIN, U, MID),
            grant_cmd(U, U, HIGH),
            revoke_cmd(ADMIN, U, HIGH),
            grant_cmd(ADMIN, U, LOW),
        ]
        indexed = ReferenceMonitor(
            policy.copy(), mode=Mode.REFINED, use_index=True
        )
        unindexed = ReferenceMonitor(policy.copy(), mode=Mode.REFINED)
        for command in queue:
            assert (
                indexed.submit(command).executed
                == unindexed.submit(command).executed
            ), command
        assert indexed.policy == unindexed.policy
