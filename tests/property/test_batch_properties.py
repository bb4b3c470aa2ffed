"""Property-based tests for batch authorization semantics.

The batch API is a pure re-packaging of the scalar one; these
properties pin the algebra that makes it safe to use anywhere the
scalar calls were: order-invariance, duplicate coherence, bulk/held
agreement, and edge cases that must not touch index state.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Command, CommandAction
from repro.core.entities import User
from repro.oracle import ReferenceIndex

from .strategies import ROLES, USERS, policies

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

GHOST = User("batch_ghost")


def _query_batch(draw_seed: int, policy) -> list:
    """A deterministic duplicate-heavy batch over the shared pools,
    including a never-registered ghost subject."""
    rng = random.Random(draw_seed)
    subjects = USERS + [GHOST]
    vertices = USERS + ROLES
    pairs = []
    for _ in range(30):
        subject = rng.choice(subjects)
        command = Command(
            subject,
            rng.choice([CommandAction.GRANT, CommandAction.REVOKE]),
            rng.choice(vertices),
            rng.choice(ROLES),
        )
        pairs.append((subject, command))
        if rng.random() < 0.4:
            pairs.append((subject, command))
    return pairs


@SETTINGS
@given(
    policy=policies(max_admin=3, admin_depth=2),
    seed=st.integers(0, 10_000),
)
def test_batch_equals_scalar_and_is_permutation_invariant(policy, seed):
    """Verdicts equal per-pair scalar calls, and reordering the batch
    reorders the verdicts with it (no cross-query interference)."""
    index = AuthorizationIndex(policy)
    pairs = _query_batch(seed, policy)
    verdicts = index.authorizes_batch(pairs)
    assert verdicts == [index.authorizes(u, c) for u, c in pairs]

    order = list(range(len(pairs)))
    random.Random(seed + 1).shuffle(order)
    shuffled = [pairs[i] for i in order]
    assert index.authorizes_batch(shuffled) == [
        verdicts[i] for i in order
    ]


@SETTINGS
@given(
    policy=policies(max_admin=3, admin_depth=2),
    seed=st.integers(0, 10_000),
)
def test_duplicate_pairs_resolve_identically(policy, seed):
    """Every occurrence of the same (subject, command) pair — identical
    or value-equal objects — gets the same verdict."""
    index = AuthorizationIndex(policy)
    pairs = _query_batch(seed, policy)
    # Add value-equal twins of a few pairs (fresh objects throughout).
    rng = random.Random(seed + 2)
    for user, command in rng.sample(pairs, min(5, len(pairs))):
        pairs.append((
            User(user.name),
            Command(
                command.user, command.action,
                command.source, command.target,
            ),
        ))
    verdicts = index.authorizes_batch(pairs)
    by_value: dict = {}
    for (user, command), verdict in zip(pairs, verdicts):
        key = (user, command)
        assert by_value.setdefault(key, verdict) == verdict


@SETTINGS
@given(
    policy=policies(max_admin=3, admin_depth=2),
)
def test_bulk_equals_per_user_held(policy):
    index = AuthorizationIndex(policy)
    population = USERS + [GHOST, USERS[0]]  # ghost + duplicate
    bulk = index.held_privileges_bulk(population)
    assert bulk == {
        user: index.held_privileges(user) for user in population
    }
    assert bulk == ReferenceIndex(policy).held_privileges_bulk(population)


@SETTINGS
@given(policy=policies(max_admin=2, admin_depth=2))
def test_empty_and_unknown_subjects_touch_no_state(policy):
    """An empty batch returns [] without validating; unknown subjects
    decide to None without creating index entries or rebuilding
    rectangles."""
    index = AuthorizationIndex(policy)
    refreshed_before = index.users_refreshed
    rebuilds_before = index.full_rebuilds
    rectangles_before = {
        user: rects for user, rects in index._rectangles.items()
    }
    assert index.authorizes_batch([]) == []
    ghost_command = Command(
        GHOST, CommandAction.GRANT, USERS[0], ROLES[0]
    )
    assert index.authorizes_batch([(GHOST, ghost_command)]) == [None]
    assert index.held_privileges_bulk([GHOST]) == {GHOST: frozenset()}
    assert index.users_refreshed == refreshed_before
    assert index.full_rebuilds == rebuilds_before
    assert index._rectangles == rectangles_before
    assert GHOST not in index._held
