"""Unit and differential tests for the sharded authorization index
and the cross-subject rectangle pool."""

import pytest

from repro.core.authz_index import AuthorizationIndex
from repro.core.authz_shard import (
    RectanglePool,
    ShardedAuthorizationIndex,
    shard_of,
)
from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.monitor import ReferenceMonitor
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.papercases import figures

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


def population(policy, count=40, grantees=3):
    """Register ``count`` extra users; the first ``grantees`` are given
    the admin role so several subjects hold the same grant."""
    users = [User(f"m{i}") for i in range(count)]
    for index, user in enumerate(users):
        policy.add_user(user)
        policy.assign_user(user, ADM if index < grantees else LOW)
    return users


class TestShardAssignment:
    def test_deterministic_and_in_range(self):
        for count in (1, 2, 4, 7):
            for i in range(50):
                user = User(f"u{i}")
                assert 0 <= shard_of(user, count) < count
                assert shard_of(user, count) == shard_of(User(f"u{i}"), count)

    def test_every_shard_gets_users(self):
        owners = {shard_of(User(f"u{i}"), 4) for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_rejects_zero_shards(self, policy):
        with pytest.raises(ValueError):
            ShardedAuthorizationIndex(policy, shards=0)


class TestQueryParity:
    """Every query surface must match the unsharded index exactly."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_all_surfaces_match_unsharded(self, policy, shards):
        users = [U, ADMIN] + population(policy)
        sharded = ShardedAuthorizationIndex(policy, shards=shards)
        plain = AuthorizationIndex(policy)
        probes = [
            grant_cmd(ADMIN, U, HIGH), grant_cmd(ADMIN, U, LOW),
            revoke_cmd(ADMIN, U, HIGH), revoke_cmd(ADMIN, U, LOW),
            grant_cmd(U, U, LOW),
        ]
        for user in users:
            assert sharded.grantable_pairs(user) == plain.grantable_pairs(user)
            assert sharded.revocable_pairs(user) == plain.revocable_pairs(user)
            assert sharded.effective_authority(
                user
            ) == plain.effective_authority(user)
            for probe in probes:
                command = grant_cmd(user, probe.source, probe.target)
                assert sharded.authorizes(user, command) == plain.authorizes(
                    user, command
                ), (user, command)

    def test_figure3_flexworker_through_shards(self):
        policy = figures.figure3()
        sharded = ShardedAuthorizationIndex(policy, shards=3)
        command = grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)
        assert sharded.authorizes(figures.JANE, command) == Grant(
            figures.BOB, figures.STAFF
        )

    def test_tracks_churn_per_shard(self, policy):
        population(policy)
        sharded = ShardedAuthorizationIndex(policy, shards=4)
        command = grant_cmd(ADMIN, U, LOW)
        assert sharded.authorizes(ADMIN, command) is not None
        policy.remove_edge(ADM, Grant(U, HIGH))
        assert sharded.authorizes(ADMIN, command) is None
        assert sharded.full_rebuilds == 4  # repaired, never rebuilt


class TestLazyShardRepair:
    def test_only_queried_shard_repairs(self, policy):
        users = population(policy, count=60)
        promoted = users[10]  # not a grantee yet
        sharded = ShardedAuthorizationIndex(policy, shards=4)
        target_shard = sharded.shard_for(promoted)
        refreshed = {
            id(shard): shard.users_refreshed for shard in sharded.shards
        }
        assert policy.assign_user(promoted, ADM)  # ADM holds the privileges
        assert sharded.authorizes(
            promoted, grant_cmd(promoted, U, LOW)
        ) is not None
        for shard in sharded.shards:
            gained = shard.users_refreshed - refreshed[id(shard)]
            if shard is target_shard:
                assert gained == 1
            else:
                assert gained == 0

    def test_statistics_aggregates_all_shards(self, policy):
        population(policy, count=30)
        sharded = ShardedAuthorizationIndex(policy, shards=4)
        stats = sharded.statistics()
        assert stats["shards"] == 4
        assert stats["users"] == 32  # 30 + U + ADMIN
        assert stats["full_rebuilds"] == 4
        per_shard = sharded.per_shard_statistics()
        assert len(per_shard) == 4
        assert sum(s["users"] for s in per_shard) == stats["users"]

    def test_parallel_refresh_equals_serial(self, policy):
        population(policy, count=50)
        serial = ShardedAuthorizationIndex(policy, shards=4)
        parallel = ShardedAuthorizationIndex(policy, shards=4)
        policy.add_inheritance(LOW, Role("deeper"))
        policy.assign_user(User("m1"), ADM)
        serial.refresh(parallel=False)
        parallel.refresh(parallel=True)
        for a, b in zip(serial.shards, parallel.shards):
            assert a._held == b._held
            assert a._rectangles == b._rectangles


class TestRectanglePool:
    def test_rectangles_shared_across_subjects(self, policy):
        population(policy, count=20, grantees=5)
        sharded = ShardedAuthorizationIndex(policy, shards=4)
        rectangles = [
            rect
            for shard in sharded.shards
            for rects in shard._rectangles.values()
            for rect in rects
        ]
        distinct = {id(rect) for rect in rectangles}
        # 6 subjects (5 grantees + ADMIN) hold the one grant; all share
        # one interned rectangle object.
        assert len(rectangles) == 6
        assert len(distinct) == 1
        assert sharded.pool.statistics()["pool_rectangles"] == 1

    def test_pool_evicts_only_dirty_regions(self, policy):
        other = Role("other")
        policy.add_role(other)
        policy.assign_privilege(ADM, Grant(other, other))
        pool = RectanglePool(policy)
        kept = pool.rectangle(Grant(other, other))
        dirty = pool.rectangle(Grant(U, HIGH))
        # Mutating below HIGH changes the dirty rectangle's target
        # region but cannot touch the disconnected one.
        policy.add_inheritance(LOW, Role("deeper"))
        pool.validate()
        assert pool.rectangle(Grant(other, other)) is kept
        rebuilt = pool.rectangle(Grant(U, HIGH))
        assert rebuilt is not dirty
        assert Role("deeper") in rebuilt.targets(policy.graph)
        assert pool.evictions == 1
        assert pool.full_clears == 0

    def test_pool_full_clear_on_oversized_burst(self, policy):
        pool = RectanglePool(policy)
        pool.rectangle(Grant(U, HIGH))
        for i in range(RectanglePool.DELTA_LIMIT + 2):
            policy.add_inheritance(Role(f"bulk{i}"), Role(f"bulk{i + 1}"))
        pool.validate()
        assert pool.full_clears == 1
        assert pool.statistics()["pool_rectangles"] == 0

    def test_vertex_only_churn_keeps_pool(self, policy):
        pool = RectanglePool(policy)
        kept = pool.rectangle(Grant(U, HIGH))
        for i in range(10):
            policy.add_role(Role(f"isolated{i}"))
        pool.validate()
        assert pool.rectangle(Grant(U, HIGH)) is kept
        assert pool.evictions == 0 and pool.full_clears == 0


class TestMonitorShardKnob:
    def test_default_is_single_index(self, policy):
        monitor = ReferenceMonitor(policy, mode=Mode.REFINED, use_index=True)
        assert isinstance(monitor._index, AuthorizationIndex)

    def test_sharded_monitor_matches_plain(self, policy):
        population(policy)
        plain = ReferenceMonitor(
            policy.copy(), mode=Mode.REFINED, use_index=True
        )
        sharded = ReferenceMonitor(
            policy.copy(), mode=Mode.REFINED, use_index=True, shards=4
        )
        assert isinstance(sharded._index, ShardedAuthorizationIndex)
        queue = [
            grant_cmd(ADMIN, U, MID),
            grant_cmd(U, U, HIGH),
            revoke_cmd(ADMIN, U, HIGH),
            grant_cmd(ADMIN, U, LOW),
        ]
        for command in queue:
            assert (
                plain.submit(command).executed
                == sharded.submit(command).executed
            ), command
        assert plain.policy == sharded.policy

    def test_index_statistics_aggregated(self, policy):
        monitor = ReferenceMonitor(
            policy, mode=Mode.REFINED, use_index=True, shards=3
        )
        stats = monitor.index_statistics()
        assert stats["shards"] == 3
        assert "pool_rectangles" in stats
        oracle_only = ReferenceMonitor(policy, mode=Mode.REFINED)
        assert oracle_only.index_statistics() is None

    def test_rejects_bad_shard_count(self, policy):
        with pytest.raises(ValueError):
            ReferenceMonitor(policy, use_index=True, shards=0)

    def test_batched_queue_through_sharded_index(self, policy):
        monitor = ReferenceMonitor(
            policy, mode=Mode.REFINED, use_index=True, shards=2
        )
        batch = [
            grant_cmd(ADMIN, U, MID),
            grant_cmd(ADMIN, U, MID),  # duplicate: executes as a no-op
            grant_cmd(U, U, HIGH),     # unauthorized
        ]
        records = monitor.submit_queue(batch, batched=True)
        assert [r.executed for r in records] == [True, True, False]
        assert [r.noop for r in records] == [False, True, False]
        assert monitor.policy.has_edge(U, MID)
