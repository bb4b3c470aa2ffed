"""Invariant 9: the bitset kernel is observationally identical to the
frozenset :class:`~repro.oracle.ReferenceIndex` under churn (workloads
harness)."""

import pytest

from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.entities import User
from repro.oracle import ReferenceIndex
from repro.workloads.churn import (
    ChurnShape,
    churn_policy,
    differential_churn,
)
from repro.workloads.fuzz import fuzz_compiled_kernel, fuzz_monitor
from repro.workloads.generators import PolicyShape, random_policy

SHAPE = PolicyShape(n_users=4, n_roles=5, n_admin_privileges=3, max_nesting=2)


@pytest.mark.parametrize("seed", range(6))
def test_compiled_kernel_campaigns(seed):
    """Bitset kernel vs the reference under bursts of churn, with
    remove_user + re-add ID recycling."""
    report = fuzz_compiled_kernel(seed, steps=30, shape=SHAPE)
    assert report.ok, report.violations[:5]


def test_campaigns_exercise_id_reuse():
    """The campaign must actually deprovision and re-provision users,
    otherwise the ID-reuse half is vacuous."""
    mutation_log: list[str] = []
    violations = differential_churn(
        3, steps=30, shape=SHAPE, remove_users=True,
        mutation_log=mutation_log,
    )
    assert violations == []
    assert any(label.startswith("remove-user") for label in mutation_log)
    assert any("re-add" in label for label in mutation_log)


def test_frozenset_campaigns_still_hold():
    """The frozenset reference must stay self-consistent: one kept
    alive across churn (its memo dropped at every version move)
    answers exactly like one built fresh at each step."""
    policy = random_policy(7, SHAPE)
    kept = ReferenceIndex(policy)
    users = sorted(policy.users(), key=str)
    roles = sorted(policy.roles(), key=str)
    for step in range(25):
        user, role = users[step % len(users)], roles[step % len(roles)]
        if not policy.add_edge(user, role):
            policy.remove_edge(user, role)
        fresh = ReferenceIndex(policy)
        for subject in users:
            assert kept.held_privileges(subject) == fresh.held_privileges(
                subject
            )
            assert kept.effective_authority(
                subject
            ) == fresh.effective_authority(subject)
            for make in (grant_cmd, revoke_cmd):
                command = make(subject, user, role)
                assert kept.authorizes(subject, command) == (
                    fresh.authorizes(subject, command)
                )


def test_fuzz_monitor_on_both_kernels():
    """Invariant 6 pins the bitset index and the reference to the
    Lemma-1 oracle path on every decision."""
    report = fuzz_monitor(5, steps=40)
    assert report.ok, report.violations[:5]


class TestEnrichedChurnShape:
    def test_defaults_unchanged(self):
        """The new density knobs default to the original thin shape —
        same seed, byte-identical policy."""
        assert churn_policy(9, ChurnShape()) == churn_policy(9, ChurnShape(
            roles_per_user=1, privileges_per_role=1,
            delegations_per_top_role=4,
        ))

    def test_density_knobs_take_effect(self):
        thin = ChurnShape(n_users=20, n_roles=8)
        dense = ChurnShape(
            n_users=20, n_roles=8, roles_per_user=3,
            privileges_per_role=4, delegations_per_top_role=8,
        )
        thin_policy = churn_policy(5, thin)
        dense_policy = churn_policy(5, dense)
        assert (
            dense_policy.graph.edge_count > thin_policy.graph.edge_count
        )
        user = User("u0")
        assert len(dense_policy.descendants(user)) > len(
            thin_policy.descendants(user)
        )
        assert sum(1 for _ in dense_policy.admin_privileges()) > sum(
            1 for _ in thin_policy.admin_privileges()
        )
