"""Incremental vs. full-rebuild authorization-index maintenance under
policy churn.

The hot path of a production reference monitor is interleaved
grant/revoke/query traffic: every mutation used to invalidate the whole
per-subject rectangle index, so the next query paid a rebuild
proportional to the entire user population — quadratic over a churn
trace.  With the change-journal + dirty-region maintenance the index
repairs only the subjects a mutation can actually have touched.  The
full-rebuild baseline (:class:`RebuildPerVersion`) builds a fresh
index whenever the policy version has moved.

Run under pytest (``pytest benchmarks/bench_index_churn.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_index_churn.py``).
"""

import os
import time

from conftest import print_table

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import grant_cmd
from repro.core.entities import Role, User
from repro.core.privileges import Grant
from repro.workloads.churn import (
    ChurnShape,
    churn_policy,
    churn_trace,
    run_churn,
)

SHAPE = ChurnShape(
    n_users=1000, n_roles=32, mutations=60, queries_per_mutation=4
)
SEED = 7
REPETITIONS = 3
#: local runs demand the full 5x; CI sets a lower sanity bound so a
#: noisy shared runner can't fail an unrelated PR on wall-clock jitter.
SPEEDUP_TARGET = float(os.environ.get("CHURN_SPEEDUP_TARGET", "5"))


class RebuildPerVersion:
    """The full-rebuild baseline: a fresh :class:`AuthorizationIndex`
    per policy version, built on the first query after a mutation."""

    def __init__(self, policy):
        self.policy = policy
        self.full_rebuilds = self.users_refreshed = 0
        self._build()

    def _build(self) -> None:
        self.version = self.policy.version
        self.index = AuthorizationIndex(self.policy)
        self.full_rebuilds += 1
        self.users_refreshed += self.index.users_refreshed

    def authorizes(self, user, command):
        if self.policy.version != self.version:
            self._build()
        return self.index.authorizes(user, command)

    def statistics(self) -> dict:
        return {
            "full_rebuilds": self.full_rebuilds,
            "partial_refreshes": 0,
            "users_refreshed": self.users_refreshed,
        }


def _run(make_index) -> tuple[float, dict]:
    """Best-of-N wall time for one trace replay; returns (seconds, stats)."""
    best = float("inf")
    statistics = {}
    for _ in range(REPETITIONS):
        policy = churn_policy(SEED, SHAPE)
        index = make_index(policy)
        trace = churn_trace(SEED, SHAPE)
        started = time.perf_counter()
        run_churn(policy, index, trace)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            statistics = index.statistics()
    return best, statistics


def test_report_incremental_vs_full_rebuild():
    incremental_time, incremental_stats = _run(AuthorizationIndex)
    rebuild_time, rebuild_stats = _run(RebuildPerVersion)
    operations = SHAPE.mutations * (1 + SHAPE.queries_per_mutation)

    def row(label, seconds, stats):
        return (
            label,
            f"{seconds * 1000:.1f}ms",
            f"{operations / seconds:,.0f}",
            stats["full_rebuilds"],
            stats["partial_refreshes"],
            stats["users_refreshed"],
        )

    speedup = rebuild_time / incremental_time
    print_table(
        f"Index maintenance under churn ({SHAPE.n_users} users, "
        f"{SHAPE.mutations} mutations x {SHAPE.queries_per_mutation} queries)",
        ["strategy", "time", "ops/s", "full rebuilds", "partial",
         "users refreshed"],
        [
            row("incremental", incremental_time, incremental_stats),
            row("full-rebuild", rebuild_time, rebuild_stats),
            ("speedup", f"{speedup:.1f}x", "", "", "", ""),
        ],
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"incremental maintenance only {speedup:.1f}x faster than "
        f"full rebuild (target >={SPEEDUP_TARGET}x at 1k users)"
    )


def test_report_memo_survives_localized_churn():
    """Churn-aware ordering-memo eviction (regression assert).

    The ordering oracle used to clear its memo wholesale on *every*
    policy version bump, so under churn each nested-privilege decision
    re-derived from scratch.  With dirty-region eviction, UA churn —
    whose upstream region is just the assigned user — must leave the
    nested-grant entries in place: no full clears, and re-queries after
    each mutation answered from the memo.
    """
    policy = churn_policy(SEED, SHAPE)
    admin_role, admin = Role("admin"), User("admin0")
    head, deputy = Role("dept-head"), Role("dept-deputy")
    policy.add_inheritance(head, deputy)
    nested = Grant(admin_role, Grant(head, head))
    policy.assign_privilege(admin_role, nested)
    index = AuthorizationIndex(policy)
    # A grant whose target is a (strictly weaker) privilege term falls
    # back to the ordering oracle — the query that populates the memo.
    probe = grant_cmd(admin, admin_role, Grant(head, deputy))
    assert index.authorizes(admin, probe) == nested
    oracle_stats = index._oracle.stats
    memo_entries = len(index._oracle._memo)
    assert memo_entries > 0
    hits_before = oracle_stats.memo_hits
    mutations = 60
    for i in range(mutations):
        policy.assign_user(User(f"u{i}"), Role(f"r{8 + i % 8}"))
        assert index.authorizes(admin, probe) is not None
    print_table(
        f"Ordering memo under {mutations} UA mutations",
        ["memo entries", "hits gained", "evictions", "full clears"],
        [(
            memo_entries,
            oracle_stats.memo_hits - hits_before,
            oracle_stats.memo_evictions,
            oracle_stats.memo_full_clears,
        )],
    )
    assert oracle_stats.memo_full_clears == 0, (
        "localized UA churn wholesale-cleared the ordering memo"
    )
    assert oracle_stats.memo_hits - hits_before >= mutations, (
        "nested decisions were re-derived instead of answered from the "
        "churn-surviving memo"
    )


def test_report_decisions_identical():
    """Both maintenance strategies must produce identical decisions on
    the whole trace — the benchmark compares equal work."""
    policy_a = churn_policy(SEED, SHAPE)
    policy_b = churn_policy(SEED, SHAPE)
    trace = churn_trace(SEED, SHAPE)
    incremental = run_churn(policy_a, AuthorizationIndex(policy_a), trace)
    rebuild = run_churn(policy_b, RebuildPerVersion(policy_b), trace)
    assert incremental.decisions == rebuild.decisions
    assert incremental.queries == rebuild.queries > 0


if __name__ == "__main__":
    test_report_decisions_identical()
    test_report_memo_survives_localized_churn()
    test_report_incremental_vs_full_rebuild()
