"""Unit tests for the journal-invalidated decision cache.

The cross-checks that matter most — cached verdicts staying identical
to fresh kernel verdicts under random churn — run in the fuzz campaign
(invariant 14) and, with vertex-ID recycling inside one window, in
:class:`TestVertexChurnDifferential`; here each mechanism is also
pinned deliberately: version gating, selective eviction (dirty
subjects go, clean entries stay), journal-expiry full clear, and the
capacity bound.
"""

import random

import pytest

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Command, CommandAction, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.graph.digraph import Digraph
from repro.oracle import ReferenceIndex
from repro.serve import DecisionCache, cacheable

from .conftest import ADM, ADMIN, OTHER, PEER, R, S, U, serve_policy


def fresh_verdict(policy, subject, command):
    return AuthorizationIndex(policy).authorizes(subject, command)


class TestCacheable:
    def test_entity_edges_are_cacheable(self):
        assert cacheable(grant_cmd(ADMIN, U, R))
        assert cacheable(revoke_cmd(ADMIN, U, R))

    def test_nested_privilege_target_is_not(self):
        assert not cacheable(grant_cmd(ADMIN, ADM, Grant(U, S)))

    def test_ill_sorted_edge_is_not(self):
        # role -> user is no legal privilege; the kernel denies it
        # without a term to key on.
        assert not cacheable(Command(ADMIN, CommandAction.GRANT, R, ADMIN))


class TestGetPut:
    def test_roundtrip_and_counters(self, policy):
        cache = DecisionCache(policy)
        command = grant_cmd(ADMIN, U, R)
        assert cache.get(ADMIN, command) is None
        cache.put(ADMIN, command, Grant(U, R), policy.version)
        assert cache.get(ADMIN, command) == (Grant(U, R),)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_denial_is_not_a_miss(self, policy):
        cache = DecisionCache(policy)
        command = grant_cmd(OTHER, U, R)
        cache.put(OTHER, command, None, policy.version)
        assert cache.get(OTHER, command) == (None,)
        assert cache.hits == 1

    def test_put_rejects_stale_version(self, policy):
        cache = DecisionCache(policy)
        command = grant_cmd(ADMIN, U, R)
        cache.put(ADMIN, command, Grant(U, R), policy.version - 1)
        assert cache.get(ADMIN, command) is None
        assert cache.entries == 0

    def test_put_rejects_uncacheable(self, policy):
        cache = DecisionCache(policy)
        nested = grant_cmd(ADMIN, ADM, Grant(U, S))
        cache.put(ADMIN, nested, Grant(ADM, Grant(U, S)), policy.version)
        assert cache.get(ADMIN, nested) is None
        assert cache.entries == 0

    def test_max_entries_bounds_insertion(self, policy):
        cache = DecisionCache(policy, max_entries=2)
        version = policy.version
        cache.put(ADMIN, grant_cmd(ADMIN, U, R), Grant(U, R), version)
        cache.put(ADMIN, grant_cmd(ADMIN, U, S), Grant(U, R), version)
        cache.put(PEER, grant_cmd(PEER, U, R), Grant(U, R), version)
        assert cache.entries == 2
        assert cache.get(PEER, grant_cmd(PEER, U, R)) is None

    def test_overwrite_does_not_double_count(self, policy):
        cache = DecisionCache(policy)
        command = grant_cmd(ADMIN, U, R)
        cache.put(ADMIN, command, Grant(U, R), policy.version)
        cache.put(ADMIN, command, Grant(U, R), policy.version)
        assert cache.entries == 1


class TestSelectiveEviction:
    def fill(self, policy, cache):
        """Cache fresh verdicts for a spread of subjects and edges."""
        queries = [
            (ADMIN, grant_cmd(ADMIN, U, R)),
            (ADMIN, grant_cmd(ADMIN, U, S)),   # via the R -> S rectangle
            (PEER, grant_cmd(PEER, U, R)),
            (PEER, revoke_cmd(PEER, U, R)),
            (OTHER, grant_cmd(OTHER, U, R)),   # cached denial
        ]
        for subject, command in queries:
            cache.put(
                subject, command,
                fresh_verdict(policy, subject, command), policy.version,
            )
        return queries

    def test_dirty_subject_evicted_clean_entries_survive(self, policy):
        cache = DecisionCache(policy)
        self.fill(policy, cache)
        # Unassign ADMIN: only ADMIN's authority changes.
        policy.remove_edge(ADMIN, ADM)
        cache.advance(policy.version)
        assert cache.get(ADMIN, grant_cmd(ADMIN, U, R)) is None
        assert cache.evicted_subjects == 1
        # PEER's and OTHER's entries survived — and still match a
        # fresh kernel run on the mutated policy.
        for subject, command in [
            (PEER, grant_cmd(PEER, U, R)),
            (PEER, revoke_cmd(PEER, U, R)),
            (OTHER, grant_cmd(OTHER, U, R)),
        ]:
            hit = cache.get(subject, command)
            assert hit is not None
            assert hit[0] == fresh_verdict(policy, subject, command)

    def test_dirty_target_entry_evicted_sibling_survives(self, policy):
        cache = DecisionCache(policy)
        self.fill(policy, cache)
        # Dropping R -> S shrinks the rectangle's target side: grants
        # onto S change verdict, grants onto R do not.
        policy.remove_edge(R, S)
        cache.advance(policy.version)
        assert cache.get(ADMIN, grant_cmd(ADMIN, U, S)) is None
        hit = cache.get(ADMIN, grant_cmd(ADMIN, U, R))
        assert hit is not None
        assert hit[0] == fresh_verdict(
            policy, ADMIN, grant_cmd(ADMIN, U, R)
        )
        assert fresh_verdict(policy, ADMIN, grant_cmd(ADMIN, U, S)) is None

    def test_privilege_garbage_collection_evicts_holders(self, policy):
        cache = DecisionCache(policy)
        self.fill(policy, cache)
        # Removing the exact Grant(U, R) assignment garbage-collects
        # the privilege vertex; both admins' buckets are upstream.
        policy.remove_edge(ADM, Grant(U, R))
        cache.advance(policy.version)
        assert cache.get(ADMIN, grant_cmd(ADMIN, U, R)) is None
        assert cache.get(PEER, grant_cmd(PEER, U, R)) is None
        # The survivors (if any) must still agree with the kernel.
        hit = cache.get(OTHER, grant_cmd(OTHER, U, R))
        if hit is not None:
            assert hit[0] == fresh_verdict(
                policy, OTHER, grant_cmd(OTHER, U, R)
            )

    def test_advance_is_idempotent_at_version(self, policy):
        cache = DecisionCache(policy)
        cache.advance(policy.version)
        assert cache.advances == 0  # same version: nothing to consume

    def test_never_full_clear_on_ordinary_churn(self, policy):
        cache = DecisionCache(policy)
        self.fill(policy, cache)
        for _ in range(12):
            policy.remove_edge(ADM, Grant(U, R))
            policy.assign_privilege(ADM, Grant(U, R))
            cache.advance(policy.version)
        assert cache.full_clears == 0
        assert cache.advances == 12


class TestJournalExpiry:
    def test_expired_journal_forces_full_clear(self, policy):
        cache = DecisionCache(policy)
        cache.put(
            ADMIN, grant_cmd(ADMIN, U, R),
            fresh_verdict(policy, ADMIN, grant_cmd(ADMIN, U, R)),
            policy.version,
        )
        # Blow past the journal's hard cap while the cache lags: the
        # trim discards entries the cursor still needed.
        toggles = Digraph.JOURNAL_HARD_LIMIT // 2 + 8
        for _ in range(toggles):
            policy.add_edge(OTHER, R)
            policy.remove_edge(OTHER, R)
        cache.advance(policy.version)
        assert cache.full_clears == 1
        assert cache.entries == 0
        assert cache.get(ADMIN, grant_cmd(ADMIN, U, R)) is None


def assert_survivors_exact(policy, cache):
    """Every verdict the cache still holds equals the reference
    verdict over the policy at its current version."""
    reference = ReferenceIndex(policy)
    for subject, bucket in cache._buckets.items():
        for (action, source, target), verdict in bucket.items():
            command = Command(subject, action, source, target)
            assert verdict == reference.authorizes(subject, command), (
                subject, command,
            )


class TestVertexChurnDifferential:
    USERS = [User(f"u{index}") for index in range(6)]
    ROLES = [Role(f"r{index}") for index in range(6)]

    def churn_policy(self, rng):
        users, roles = self.USERS, self.ROLES
        policy = Policy()
        for user in users:
            policy.add_user(user)
        for role in roles:
            policy.add_role(role)
        for _ in range(8):
            policy.assign_user(rng.choice(users), rng.choice(roles))
        for _ in range(4):
            senior, junior = rng.sample(roles, 2)
            policy.add_inheritance(senior, junior)
        for _ in range(8):
            policy.assign_privilege(rng.choice(roles), self.privilege(rng))
        return policy

    def privilege(self, rng):
        kind = rng.choice((Grant, Grant, Revoke))
        return kind(rng.choice(self.USERS + self.ROLES), rng.choice(self.ROLES))

    def fill(self, rng, policy, cache):
        reference = ReferenceIndex(policy)
        for _ in range(12):
            subject = rng.choice(self.USERS)
            command = rng.choice((grant_cmd, revoke_cmd))(
                subject,
                rng.choice(self.USERS + self.ROLES),
                rng.choice(self.ROLES),
            )
            cache.put(
                subject, command, reference.authorizes(subject, command),
                policy.version,
            )

    def burst(self, rng, policy):
        """One to five mutations: edge churn, privilege garbage
        collection, and users deprovisioned and re-added (the interner
        hands their freed IDs on within the same window)."""
        users, roles = self.USERS, self.ROLES
        for _ in range(rng.randint(1, 5)):
            op = rng.random()
            if op < 0.25:
                policy.assign_user(rng.choice(users), rng.choice(roles))
            elif op < 0.4:
                senior, junior = rng.sample(roles, 2)
                policy.add_inheritance(senior, junior)
            elif op < 0.55:
                policy.assign_privilege(rng.choice(roles), self.privilege(rng))
            elif op < 0.75:
                # Includes PA edges: a privilege losing its last
                # assignment is garbage-collected.
                edges = sorted(policy.graph.edges(), key=str)
                if edges:
                    policy.remove_edge(*rng.choice(edges))
            elif op < 0.88:
                policy.remove_user(rng.choice(users))
            else:
                absent = [user for user in users if user not in policy.graph]
                if absent:
                    policy.assign_user(rng.choice(absent), rng.choice(roles))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bursts_keep_every_surviving_verdict_exact(self, seed):
        rng = random.Random(seed)
        policy = self.churn_policy(rng)
        cache = DecisionCache(policy)
        for _ in range(40):
            self.fill(rng, policy, cache)
            self.burst(rng, policy)
            cache.advance(policy.version)
            assert cache.version == policy.version
            assert_survivors_exact(policy, cache)
        assert cache.evicted_entries > 0
        assert cache.full_clears == 0

    def test_deprovisioned_subject_id_handed_on(self, policy):
        """A cached subject is deprovisioned and its interned ID goes
        to a new vertex before the next advance: the subject's bucket
        and every entry naming it go, and every survivor is exact."""
        cache = DecisionCache(policy)
        newcomer = User("newcomer")
        queries = [
            (ADMIN, grant_cmd(ADMIN, U, R)),
            (PEER, grant_cmd(PEER, ADMIN, R)),
            (PEER, revoke_cmd(PEER, U, R)),
            (OTHER, grant_cmd(OTHER, U, R)),
        ]
        for subject, command in queries:
            cache.put(
                subject, command, fresh_verdict(policy, subject, command),
                policy.version,
            )
        assert cache.get(ADMIN, grant_cmd(ADMIN, U, R)) == (Grant(U, R),)
        freed = policy.graph.vid(ADMIN)
        policy.remove_user(ADMIN)
        policy.assign_user(newcomer, ADM)
        assert policy.graph.vid(newcomer) == freed
        cache.advance(policy.version)
        assert cache.get(ADMIN, grant_cmd(ADMIN, U, R)) is None
        assert cache.get(PEER, grant_cmd(PEER, ADMIN, R)) is None
        assert_survivors_exact(policy, cache)
