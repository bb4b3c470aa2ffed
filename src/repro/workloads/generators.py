"""Seeded random policy generators.

Used by the property-based tests (as a complement to the hypothesis
strategies), the stress tests and the differential fuzz campaigns.
All generators take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant, Privilege, Revoke, UserPrivilege, perm


@dataclass(frozen=True)
class PolicyShape:
    """Parameters of a random policy."""

    n_users: int = 6
    n_roles: int = 8
    n_user_privileges: int = 6
    ua_edges: int = 8
    rh_edges: int = 10
    pa_edges: int = 10
    n_admin_privileges: int = 4
    max_nesting: int = 2
    allow_revocations: bool = True


def _random_admin_privilege(
    rng: random.Random,
    users: list[User],
    roles: list[Role],
    user_privileges: list[UserPrivilege],
    max_nesting: int,
    allow_revocations: bool,
) -> Privilege:
    """A random well-sorted ¤/♦ term of nesting depth ≤ max_nesting."""
    connective = Grant
    if allow_revocations and rng.random() < 0.3:
        connective = Revoke
    depth = rng.randint(1, max(1, max_nesting))

    def leaf_pair():
        if rng.random() < 0.5 and users:
            return (rng.choice(users), rng.choice(roles))
        return (rng.choice(roles), rng.choice(roles))

    if depth == 1:
        source, target = leaf_pair()
        return connective(source, target)
    # Build inside-out: innermost is a leaf grant/revoke or user privilege.
    if user_privileges and rng.random() < 0.3:
        inner: Privilege = rng.choice(user_privileges)
    else:
        source, target = leaf_pair()
        inner = Grant(source, target)
    for _ in range(depth - 1):
        inner = connective(rng.choice(roles), inner)
    return inner


def random_policy(seed: int, shape: PolicyShape = PolicyShape()) -> Policy:
    """A random policy with the given shape.  Deterministic in seed."""
    rng = random.Random(seed)
    users = [User(f"u{i}") for i in range(shape.n_users)]
    roles = [Role(f"r{i}") for i in range(shape.n_roles)]
    user_privileges = [
        perm(rng.choice(["read", "write", "exec"]), f"o{i}")
        for i in range(shape.n_user_privileges)
    ]
    policy = Policy()
    for user in users:
        policy.add_user(user)
    for role in roles:
        policy.add_role(role)
    for _ in range(shape.ua_edges):
        policy.assign_user(rng.choice(users), rng.choice(roles))
    for _ in range(shape.rh_edges):
        senior, junior = rng.choice(roles), rng.choice(roles)
        if senior != junior:
            policy.add_inheritance(senior, junior)
    for _ in range(shape.pa_edges):
        policy.assign_privilege(rng.choice(roles), rng.choice(user_privileges))
    for _ in range(shape.n_admin_privileges):
        privilege = _random_admin_privilege(
            rng, users, roles, user_privileges,
            shape.max_nesting, shape.allow_revocations,
        )
        policy.assign_privilege(rng.choice(roles), privilege)
    return policy


def layered_hierarchy(
    seed: int,
    layers: int,
    roles_per_layer: int,
    users: int = 10,
    privileges_per_role: int = 1,
    cross_edges_per_role: int = 2,
) -> Policy:
    """A layered role hierarchy (the shape of large organizations).

    Roles in layer ``i`` inherit roles in layer ``i+1``; the bottom
    layer holds the user privileges.  The Lemma-1 cases of
    ``tests/integration/test_stress.py`` decide over it: the longest
    RH chain equals ``layers - 1``.
    """
    rng = random.Random(seed)
    policy = Policy()
    grid = [
        [Role(f"L{layer}_r{index}") for index in range(roles_per_layer)]
        for layer in range(layers)
    ]
    for row in grid:
        for role in row:
            policy.add_role(role)
    for layer in range(layers - 1):
        for index, role in enumerate(grid[layer]):
            # A guaranteed chain edge plus random cross edges.
            policy.add_inheritance(role, grid[layer + 1][index % roles_per_layer])
            for _ in range(cross_edges_per_role):
                policy.add_inheritance(role, rng.choice(grid[layer + 1]))
    for index, role in enumerate(grid[-1]):
        for p in range(privileges_per_role):
            policy.assign_privilege(role, perm("read", f"obj_{index}_{p}"))
    for index in range(users):
        user = User(f"user{index}")
        policy.add_user(user)
        policy.assign_user(user, rng.choice(grid[rng.randrange(layers)]))
    return policy


def nested_grant(
    roles: list[Role], user: User, depth: int
) -> Privilege:
    """``¤(r_{d-1}, ¤(r_{d-2}, ... ¤(user, r_0)))`` — a deterministic
    deeply nested grant used by the Lemma-1 stress tests."""
    term: Privilege = Grant(user, roles[0])
    for level in range(1, depth):
        term = Grant(roles[level % len(roles)], term)
    return term
