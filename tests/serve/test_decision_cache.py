"""Unit tests for the journal-invalidated decision cache.

The cross-checks that matter most — cached verdicts staying identical
to fresh kernel verdicts under random churn — run in the fuzz campaign
(invariant 14); here each mechanism is pinned deliberately: version
gating, selective eviction (dirty subjects go, clean entries stay),
journal-expiry full clear, and the capacity bound.
"""

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Command, CommandAction, grant_cmd, revoke_cmd
from repro.core.privileges import Grant
from repro.graph.digraph import Digraph
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
