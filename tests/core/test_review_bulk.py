"""Differential tests for the bulk review read
(``grantable_pairs_bulk``) and the :class:`ReviewSnapshot` decision
surface the serving layer reads through.

The contract: the bulk sweep is keyed-equal to calling
``grantable_pairs`` per subject — on the live index or on a
:class:`ReviewSnapshot` pinned to one version — while subjects sharing an authority profile share one expansion.  Each
test checks its answers against two per-subject expectations: the
index's own scalar surface and the frozenset
:class:`~repro.oracle.ReferenceIndex` over the same policy version.
"""

import pytest

from repro.core.authz_index import AuthorizationIndex, ReviewSnapshot
from repro.core.commands import grant_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.oracle import ReferenceIndex

ADMIN, PEER, OTHER = User("admin"), User("peer"), User("other")
GHOST = User("ghost")
ADM = Role("adm")
R, S, T = Role("r"), Role("s"), Role("t")
U = User("u")

#: Where the expected per-subject answers come from: the index's own
#: scalar surface ("compiled") or the frozenset ReferenceIndex.
BOTH_EXPECTATIONS = pytest.mark.parametrize(
    "against_reference", [False, True], ids=["compiled", "frozenset"]
)


def build_policy() -> Policy:
    # ADMIN and PEER share the adm profile (one rectangle, one exact
    # entity grant, one nested grant that must NOT appear in pairs);
    # OTHER holds nothing grantable.
    policy = Policy(
        ua=[(ADMIN, ADM), (PEER, ADM)],
        rh=[(R, S)],
        pa=[
            (ADM, Grant(U, R)),
            (ADM, Revoke(U, R)),
            (ADM, Grant(ADM, Grant(U, S))),
        ],
    )
    policy.add_user(U)
    policy.add_user(OTHER)
    policy.add_role(T)
    return policy


def expectation(index, against_reference, policy=None):
    """The scalar surface the answers must match: ``index`` itself, or
    a reference over ``policy`` (default: the index's policy)."""
    if against_reference:
        return ReferenceIndex(index.policy if policy is None else policy)
    return index


def assert_bulk_matches_scalar(index, population, against_reference):
    bulk = index.grantable_pairs_bulk(population)
    expected = expectation(index, against_reference)
    assert bulk == {
        user: expected.grantable_pairs(user) for user in population
    }
    return bulk


class TestGrantablePairsBulk:
    @BOTH_EXPECTATIONS
    def test_equals_per_user(self, against_reference):
        index = AuthorizationIndex(build_policy())
        population = [ADMIN, PEER, OTHER, U, GHOST, ADMIN]
        bulk = assert_bulk_matches_scalar(
            index, population, against_reference
        )
        assert (U, R) in bulk[ADMIN]        # exact entity grant
        assert (U, S) in bulk[ADMIN]        # rectangle descendant
        assert bulk[GHOST] == frozenset()
        assert bulk[OTHER] == frozenset()
        # The nested Grant(ADM, Grant(U, S)) is not an entity pair.
        assert all(
            isinstance(target, (User, Role))
            for _, target in bulk[ADMIN]
        )

    @BOTH_EXPECTATIONS
    def test_shared_profiles_share_expansion(self, against_reference):
        # ADMIN and PEER hold identical grant authority, so the bulk
        # sweep expands the profile once and both map to the same
        # frozenset object — the memoization the serving layer's
        # review endpoint leans on.
        index = AuthorizationIndex(build_policy())
        bulk = index.grantable_pairs_bulk([ADMIN, PEER])
        assert bulk[ADMIN] == bulk[PEER]
        assert bulk[ADMIN] is bulk[PEER]
        expected = expectation(index, against_reference)
        assert bulk[PEER] == expected.grantable_pairs(PEER)

    @BOTH_EXPECTATIONS
    def test_empty_population_skips_validation(self, against_reference):
        policy = build_policy()
        index = AuthorizationIndex(policy)
        cursor = index._cursor.version
        policy.assign_user(OTHER, ADM)  # leave the index stale
        assert index.grantable_pairs_bulk([]) == {}
        assert index.grantable_pairs_bulk(iter(())) == {}
        assert index._cursor.version == cursor  # untouched
        # The stale index still answers for the moved policy.
        expected = expectation(index, against_reference)
        assert index.grantable_pairs_bulk([OTHER]) == {
            OTHER: expected.grantable_pairs(OTHER)
        }

    @BOTH_EXPECTATIONS
    def test_after_incremental_repair(self, against_reference):
        policy = build_policy()
        index = AuthorizationIndex(policy)
        index.grantable_pairs(ADMIN)  # warm
        policy.assign_user(OTHER, ADM)
        policy.remove_edge(ADM, Grant(U, R))
        bulk = assert_bulk_matches_scalar(
            index, [ADMIN, PEER, OTHER, U], against_reference
        )
        assert (U, R) not in bulk[OTHER]
        assert (U, S) not in bulk[ADMIN]  # rectangle gone with the grant

    @BOTH_EXPECTATIONS
    def test_at_version_pins_the_snapshot(self, against_reference):
        policy = build_policy()
        index = policy.index
        snapshot = ReviewSnapshot(policy)
        pinned = snapshot.grantable_pairs_bulk([ADMIN, OTHER])
        expected = expectation(
            index, against_reference, snapshot.policy_copy()
        )
        assert pinned[ADMIN] == expected.grantable_pairs(ADMIN)
        policy.assign_user(OTHER, ADM)  # move the live policy on
        assert pinned[OTHER] == frozenset()
        again = snapshot.grantable_pairs_bulk([ADMIN, OTHER])
        assert again == pinned
        live = index.grantable_pairs_bulk([OTHER])
        assert live[OTHER] == index.grantable_pairs(ADMIN)


class TestReviewSnapshotDecisions:
    @BOTH_EXPECTATIONS
    def test_authorizes_frozen_at_capture(self, against_reference):
        policy = build_policy()
        live = policy.index
        snapshot = ReviewSnapshot(policy)
        command = grant_cmd(OTHER, U, R)
        assert snapshot.authorizes(OTHER, command) is None
        policy.assign_user(OTHER, ADM)  # live policy moves on
        assert snapshot.authorizes(OTHER, command) is None
        expected = expectation(live, against_reference)
        assert live.authorizes(OTHER, command) == Grant(U, R)
        assert expected.authorizes(OTHER, command) == Grant(U, R)

    @BOTH_EXPECTATIONS
    def test_authorizes_batch_matches_scalar(self, against_reference):
        snapshot = ReviewSnapshot(build_policy())
        pairs = [
            (ADMIN, grant_cmd(ADMIN, U, R)),
            (ADMIN, grant_cmd(ADMIN, U, S)),
            (OTHER, grant_cmd(OTHER, U, R)),
            (GHOST, grant_cmd(GHOST, U, R)),
        ]
        batch = snapshot.authorizes_batch(pairs)
        expected = expectation(
            snapshot, against_reference, snapshot.policy_copy()
        )
        assert batch == [
            expected.authorizes(user, command) for user, command in pairs
        ]
        assert batch[0] == Grant(U, R)
        assert batch[2] is None

    @BOTH_EXPECTATIONS
    def test_policy_copy_is_detached(self, against_reference):
        snapshot = ReviewSnapshot(build_policy())
        copy = snapshot.policy_copy()
        copy.assign_user(OTHER, ADM)
        # Mutating the copy never leaks into the snapshot's answers.
        assert snapshot.authorizes(OTHER, grant_cmd(OTHER, U, R)) is None
        assert snapshot.grantable_pairs_bulk([OTHER])[OTHER] == frozenset()
        if against_reference:  # ... while the copy itself moved on
            assert ReferenceIndex(copy).authorizes(
                OTHER, grant_cmd(OTHER, U, R)
            ) == Grant(U, R)
