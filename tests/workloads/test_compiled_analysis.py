"""Invariant 10: the compiled analysis explorers are observationally
identical to the reference explorers of ``repro.oracle`` (workloads
harness)."""

import pytest

from repro.core.entities import User
from repro.core.policy import Policy
from repro.workloads.fuzz import _recycling_churn, fuzz_compiled_analysis
from repro.workloads.generators import PolicyShape, random_policy

SHAPE = PolicyShape(n_users=3, n_roles=4, n_admin_privileges=3, max_nesting=2)


@pytest.mark.parametrize("seed", range(6))
def test_compiled_analysis_campaigns(seed):
    """can_obtain / reachable_policies / HRU check_safety: verdicts,
    states_explored, witness queues and state signatures must be
    identical across kernels after ID-recycling churn."""
    report = fuzz_compiled_analysis(seed, steps=20, shape=SHAPE)
    assert report.ok, report.violations[:5]


def test_recycling_churn_actually_recycles_ids():
    """The churn prefix must deprovision and re-provision users so the
    analyzed policy's interner really hands out recycled IDs —
    otherwise the ID-recycling half of the invariant is vacuous."""
    import random

    policy = random_policy(5, SHAPE)
    users_before = {
        user: policy.graph.vid(user) for user in policy.users()
    }
    _recycling_churn(random.Random(5), policy, steps=30)
    moved = [
        user for user, vid in users_before.items()
        if user in policy.graph and policy.graph.vid(user) != vid
    ]
    assert moved, "no user came back under a different interned ID"


def test_campaign_with_nested_terms():
    """Deeper admin terms widen the refined-mode candidate universe;
    the campaign must still come back clean."""
    report = fuzz_compiled_analysis(
        11, steps=12,
        shape=PolicyShape(
            n_users=3, n_roles=3, n_admin_privileges=4, max_nesting=3
        ),
        depth=2, probes=2,
    )
    assert report.ok, report.violations[:5]


def test_campaign_on_handcrafted_recycler():
    """A deterministic deprovision/re-provision trace: remove a member
    user, let a fresh role consume the freed ID, re-add the user, then
    compare explorers end to end."""
    from repro.core.entities import Role
    from repro.core.privileges import Grant, perm

    u, admin = User("u"), User("admin")
    r, adm = Role("r"), Role("adm")
    policy = Policy(
        ua=[(admin, adm), (u, r)],
        pa=[(r, perm("read", "doc")), (adm, Grant(u, r))],
    )
    old_vid = policy.graph.vid(u)
    policy.remove_user(u)
    policy.add_role(Role("burner"))  # consumes u's freed ID
    policy.add_user(u)
    assert policy.graph.vid(u) != old_vid

    from repro.analysis.safety import can_obtain
    from repro.oracle import reference_can_obtain

    fast = can_obtain(policy, u, perm("read", "doc"), depth=2)
    oracle = reference_can_obtain(policy, u, perm("read", "doc"), depth=2)
    assert fast.reachable and oracle.reachable
    assert fast.witness == oracle.witness
    assert fast.states_explored == oracle.states_explored
