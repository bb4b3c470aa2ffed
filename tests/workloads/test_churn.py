"""Churn workload generation and the incremental-index differential
properties (invariants 7 and 9 of workloads.fuzz)."""

import pytest

from repro.core.authz_index import AuthorizationIndex
from repro.workloads.churn import (
    ChurnShape,
    churn_policy,
    churn_trace,
    differential_churn,
    run_churn,
)
from repro.oracle import ReferenceIndex
from repro.workloads.fuzz import fuzz_index_churn
from repro.workloads.generators import PolicyShape

SMALL = ChurnShape(
    n_users=30, n_roles=8, n_admins=2, mutations=25, queries_per_mutation=2
)


def test_policy_and_trace_deterministic():
    assert churn_policy(3, SMALL) == churn_policy(3, SMALL)
    assert churn_trace(3, SMALL) == churn_trace(3, SMALL)


def test_trace_interleaves_mutations_and_queries():
    trace = churn_trace(3, SMALL)
    kinds = {op.kind for op in trace}
    assert kinds == {"mutate", "query"}
    mutations = sum(op.kind == "mutate" for op in trace)
    queries = sum(op.kind == "query" for op in trace)
    assert mutations == SMALL.mutations
    assert queries == SMALL.mutations * SMALL.queries_per_mutation


def test_run_churn_counts_and_decides():
    policy = churn_policy(3, SMALL)
    index = AuthorizationIndex(policy)
    stats = run_churn(policy, index, churn_trace(3, SMALL))
    assert stats.mutations == SMALL.mutations
    assert stats.queries == len(stats.decisions)


def test_incremental_and_rebuild_decisions_identical():
    """The repaired index decides like the reference, which recomputes
    everything per policy version."""
    policy_a = churn_policy(5, SMALL)
    policy_b = churn_policy(5, SMALL)
    trace = churn_trace(5, SMALL)
    a = run_churn(policy_a, AuthorizationIndex(policy_a), trace)
    b = run_churn(policy_b, ReferenceIndex(policy_b), trace)
    assert a.decisions == b.decisions


def test_incremental_path_actually_exercised():
    policy = churn_policy(5, SMALL)
    index = AuthorizationIndex(policy)
    run_churn(policy, index, churn_trace(5, SMALL))
    stats = index.statistics()
    assert stats["partial_refreshes"] > 0
    assert stats["full_rebuilds"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_differential_campaigns(seed):
    """After every mutation the incremental index equals a from-scratch
    rebuild — held sets, rectangles, effective authority, probes."""
    shape = PolicyShape(
        n_users=4, n_roles=5, n_admin_privileges=3, max_nesting=2
    )
    report = fuzz_index_churn(seed, steps=30, shape=shape)
    assert report.ok, report.violations[:5]


def test_differential_exercises_structural_churn():
    """The mutation mix must include removals (privilege GC) and PA
    churn, otherwise the differential property is vacuous."""
    violations = differential_churn(
        11, steps=40, shape=PolicyShape(n_users=3, n_roles=4)
    )
    assert violations == []


@pytest.mark.parametrize(
    "against_reference", [False, True], ids=["compiled", "frozenset"]
)
def test_differential_repairs_bursts_with_user_readd(against_reference):
    """Each step applies a burst of one to three mutations before the
    index refreshes, including users removed and re-added inside one
    burst — otherwise the multi-delta repair windows are vacuous.

    The harness checks the repaired index against two oracles and each
    case asserts one of them: ``compiled`` a fresh bitset
    ``AuthorizationIndex`` (invariant 7), ``frozenset`` the
    frozenset-backed ``ReferenceIndex`` (invariant 9), whose violations
    all name "the reference"."""

    def caught(violations: list[str]) -> list[str]:
        return [
            v for v in violations if ("reference" in v) == against_reference
        ]

    shape = PolicyShape(n_users=4, n_roles=5)
    plain_log: list[str] = []
    assert caught(differential_churn(
        3, steps=30, shape=shape, mutation_log=plain_log
    )) == []
    # Every step mutates at least once, so a longer log means some
    # bursts held several mutations.
    assert 30 < len(plain_log) <= 3 * 30
    readd_log: list[str] = []
    assert caught(differential_churn(
        3, steps=30, shape=shape, remove_users=True,
        mutation_log=readd_log,
    )) == []
    # A re-add label directly follows its removal inside one burst.
    assert any(
        label.startswith("remove-user ")
        and following == label.replace("remove-user", "re-add", 1)
        for label, following in zip(readd_log, readd_log[1:])
    )
