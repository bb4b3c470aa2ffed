"""Property: a policy rewound through its change journal is the policy
as it stood at that version.

The PDP's readers rely on it whenever the live policy has moved past
the published version without publishing (a writer that died after
its apply, out-of-band churn awaiting ``refresh()``): their snapshot
is ``policy.rewound(published)``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.authz_index import AuthorizationIndex
from repro.core.entities import Role, User

from .strategies import ROLES, USERS, admin_privileges, policies

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

KINDS = (
    "assign", "inherit", "pa", "remove-edge", "remove-user",
    "remove-role", "add-user", "add-role",
)
operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, 10**6),
        admin_privileges(2),
    ),
    max_size=30,
)


def apply(policy, kind, pick, privilege) -> None:
    """One churn step.  Vertex removals journal their incident edges
    (and privilege garbage collection), and re-added vertices take
    recycled interner IDs."""
    users = sorted(policy.users(), key=str) or USERS
    roles = sorted(policy.roles(), key=str) or ROLES
    user, role = users[pick % len(users)], roles[pick % len(roles)]
    junior = roles[(pick // 7) % len(roles)]
    if kind == "assign":
        policy.assign_user(user, role)
    elif kind == "inherit":
        policy.add_inheritance(role, junior)
    elif kind == "pa":
        policy.assign_privilege(role, privilege)
    elif kind == "remove-edge":
        edges = sorted(policy.edge_set(), key=str)
        if edges:
            policy.remove_edge(*edges[pick % len(edges)])
    elif kind == "remove-user":
        policy.remove_user(user)
    elif kind == "remove-role":
        policy.remove_role(role)
    elif kind == "add-user":
        policy.add_user(User(f"new{pick % 3}"))
    else:
        policy.add_role(Role(f"new{pick % 3}"))


@SETTINGS
@given(policies(), operations)
def test_rewound_policy_equals_the_copy_taken_at_that_version(policy, ops):
    policy.index  # a built index follows the churn, as the PDP's does
    taken = [policy.copy()]
    for kind, pick, privilege in ops:
        apply(policy, kind, pick, privilege)
        policy.index
        taken.append(policy.copy())
    for then in taken:
        rewound = policy.rewound(then.version)
        assert rewound.version == then.version
        assert rewound.edge_set() == then.edge_set()
        assert rewound.vertex_set() == then.vertex_set()
        users = sorted(then.users(), key=str)
        assert rewound.index.held_privileges_bulk(users) == (
            AuthorizationIndex(then).held_privileges_bulk(users)
        )
