"""Bitset authorization kernel vs. the frozenset baseline.

The claim under test: compiling the monitor's hot sets — held
privileges, grant rectangles, dirty regions — to big-int bitmasks over
interned vertex IDs (:class:`AuthorizationIndex`) beats the frozenset
set algebra of :class:`repro.oracle.ReferenceIndex` by >=3x on both

* **index build** — constructing every subject's held set and grant
  rectangles for the whole population (the cost every full rebuild
  pays), and
* **query throughput** — ``authorizes`` under a query burst against a
  quiet policy (exact match is one bit-test; a rectangle miss is
  rejected by two union-mask bit-tests).

A third report pins differential identity: the index and the
reference must make identical grant/deny decisions over an entire
churn trace, and the randomized invariant-9 harness must come back
clean.  The ``*_frozenset_*`` metric keys name the reference side.

Run under pytest (``pytest benchmarks/bench_bitset_kernel.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_bitset_kernel.py``).
``BITSET_BENCH_USERS`` / ``BITSET_SPEEDUP_TARGET`` shrink the workload
and the assertion bar for CI smoke runs; ``tools/bench_report.py`` sets
``BITSET_METRICS_OUT`` to collect the numbers into the
``BENCH_kernel.json`` trajectory.
"""

import json
import os
import time

from conftest import built_reference, print_table

from repro.core.authz_index import AuthorizationIndex
from repro.oracle import ReferenceIndex
from repro.workloads.churn import (
    ChurnShape,
    churn_policy,
    churn_trace,
    run_churn,
)

USERS = int(os.environ.get("BITSET_BENCH_USERS", "5000"))
#: local runs demand the full 3x; CI sets a lower sanity bound so a
#: noisy shared runner can't fail an unrelated PR on wall-clock jitter.
SPEEDUP_TARGET = float(os.environ.get("BITSET_SPEEDUP_TARGET", "3"))
#: enterprise-weight membership: several roles per user and several
#: privileges per role, so per-subject reachable sets have realistic
#: size (tens of vertices) — the regime the set algebra actually
#: dominates in.
SHAPE = ChurnShape(
    n_users=USERS, n_roles=48, layers=6, mutations=40,
    queries_per_mutation=6, roles_per_user=3, privileges_per_role=4,
    delegations_per_top_role=12,
)
SEED = 13
REPETITIONS = 3
QUERY_PASSES = 3

_metrics_cache: dict = {}


def _build_seconds(build) -> float:
    """Best-of-N wall time to construct the full index at USERS users."""
    best = float("inf")
    for _ in range(REPETITIONS):
        policy = churn_policy(SEED, SHAPE)
        started = time.perf_counter()
        build(policy)
        best = min(best, time.perf_counter() - started)
    return best


def _probes(policy) -> list:
    """The authorization burst: administrators asking "may I assign
    user u to role r" across the population — the rectangle-covered
    decision the index exists for (rule 2's implicit authorization),
    and the query an IGA reconciliation loop issues by the thousand.
    Most probes miss (deny), so the frozenset path scans every held
    rectangle while the bitset path rejects on the union masks."""
    import random

    from repro.core.commands import grant_cmd
    from repro.core.entities import Role, User

    rng = random.Random(SEED)
    admins = [User(f"admin{i}") for i in range(SHAPE.n_admins)]
    users = [User(f"u{i}") for i in range(SHAPE.n_users)]
    roles = [Role(f"r{i}") for i in range(SHAPE.n_roles)]
    return [
        grant_cmd(rng.choice(admins), rng.choice(users), rng.choice(roles))
        for _ in range(1200)
    ]


def _query_rate(build) -> float:
    """authorizes() calls per second against a quiet (pre-validated)
    policy, over the admin assignment-probe burst."""
    policy = churn_policy(SEED, SHAPE)
    index = build(policy)
    probes = _probes(policy)
    authorizes = index.authorizes
    for command in probes[:16]:  # warm the caches
        authorizes(command.user, command)
    best = float("inf")
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        for _ in range(QUERY_PASSES):
            for command in probes:
                authorizes(command.user, command)
        best = min(best, time.perf_counter() - started)
    return QUERY_PASSES * len(probes) / best


def collect_metrics() -> dict:
    """The benchmark's headline numbers (memoized; consumed by the
    report tests below and by tools/bench_report.py)."""
    if _metrics_cache:
        return _metrics_cache
    build_frozenset = _build_seconds(built_reference)
    build_compiled = _build_seconds(AuthorizationIndex)
    rate_frozenset = _query_rate(built_reference)
    rate_compiled = _query_rate(AuthorizationIndex)
    _metrics_cache.update({
        "users": SHAPE.n_users,
        "build_frozenset_s": round(build_frozenset, 4),
        "build_compiled_s": round(build_compiled, 4),
        "build_speedup": round(build_frozenset / build_compiled, 2),
        "query_frozenset_per_s": round(rate_frozenset),
        "query_compiled_per_s": round(rate_compiled),
        "query_speedup": round(rate_compiled / rate_frozenset, 2),
        "speedup_target": SPEEDUP_TARGET,
    })
    return _metrics_cache


def test_report_kernel_speedup():
    metrics = collect_metrics()
    print_table(
        f"Bitset kernel vs frozenset baseline ({metrics['users']} users)",
        ["surface", "frozenset", "compiled", "speedup"],
        [
            (
                "index build",
                f"{metrics['build_frozenset_s'] * 1000:.1f}ms",
                f"{metrics['build_compiled_s'] * 1000:.1f}ms",
                f"{metrics['build_speedup']:.1f}x",
            ),
            (
                "queries/s",
                f"{metrics['query_frozenset_per_s']:,}",
                f"{metrics['query_compiled_per_s']:,}",
                f"{metrics['query_speedup']:.1f}x",
            ),
        ],
    )
    assert metrics["build_speedup"] >= SPEEDUP_TARGET, (
        f"compiled index build only {metrics['build_speedup']:.1f}x faster "
        f"than frozenset (target >={SPEEDUP_TARGET}x at {USERS} users)"
    )
    assert metrics["query_speedup"] >= SPEEDUP_TARGET, (
        f"compiled query throughput only {metrics['query_speedup']:.1f}x "
        f"the frozenset baseline (target >={SPEEDUP_TARGET}x at {USERS} "
        "users)"
    )


def test_report_decisions_identical():
    """The index and the reference must make identical grant/deny
    decisions over a whole churn trace — the speedup compares equal
    answers."""
    trace = churn_trace(SEED, SHAPE)
    policy_a = churn_policy(SEED, SHAPE)
    policy_b = churn_policy(SEED, SHAPE)
    compiled = run_churn(policy_a, AuthorizationIndex(policy_a), trace)
    frozenset_ = run_churn(policy_b, ReferenceIndex(policy_b), trace)
    assert compiled.decisions == frozenset_.decisions
    assert compiled.queries == frozenset_.queries > 0


def test_report_differential_identity():
    """Invariant 9 on a reduced campaign: the index's answers are
    differentially identical to the reference under randomized churn,
    including interner ID reuse after remove_user + re-add."""
    from repro.workloads.fuzz import fuzz_compiled_kernel
    from repro.workloads.generators import PolicyShape

    report = fuzz_compiled_kernel(
        SEED, steps=25,
        shape=PolicyShape(n_users=4, n_roles=5, n_admin_privileges=3),
    )
    assert report.ok, report.violations[:5]


if __name__ == "__main__":
    test_report_decisions_identical()
    test_report_differential_identity()
    test_report_kernel_speedup()
    metrics_out = os.environ.get("BITSET_METRICS_OUT")
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(collect_metrics(), handle, indent=2)
