"""Vectorized batch authorization vs. per-query compiled calls.

The claim under test: ``AuthorizationIndex.authorizes_batch`` answers a
duplicate-heavy burst of authorization queries >=10x faster than the
same burst through scalar ``authorizes`` calls on the same compiled
kernel.  The batch path wins by doing per-edge work once per distinct
(subject, edge) group instead of once per query: the burst is grouped
by object identity, each distinct edge's eligible-privileges mask is
one AND of the index's endpoint cover table, and every duplicate
resolves by one ``held & eligible`` AND plus a lowest-bit decode.
Both sides are reported in absolute terms too — µs per decision and
decisions/s, best of the repetitions — not only as a ratio.

The workload is the IGA reconciliation shape the batch API exists for:
thousands of "may admin a assign user u to role r" probes where a hot
pool of distinct pairs repeats across the burst (access reviews replay
the same candidate edges for page after page of the report).  Both
paths see the *same* query objects, rebuilt fresh for every repetition
so neither side benefits from per-command caches, and the two verdict
sequences are asserted element-for-element identical before any
timing number is trusted.

A second report times ``held_privileges_bulk`` — the whole-population
audit sweep behind ``repro.analysis.audit_matrix`` — against per-user
``held_privileges`` calls.

Run under pytest (``pytest benchmarks/bench_batch_authz.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_batch_authz.py``).
``BATCH_BENCH_USERS`` / ``BATCH_BENCH_QUERIES`` /
``BATCH_SPEEDUP_TARGET`` shrink the workload and the assertion bar for
CI smoke runs; ``tools/bench_report.py`` sets ``BATCH_METRICS_OUT`` to
collect the numbers into the ``BENCH_kernel.json`` trajectory.
"""

import json
import os
import random
import time

from conftest import print_table

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.privileges import Grant
from repro.workloads.churn import ChurnShape, churn_policy

USERS = int(os.environ.get("BATCH_BENCH_USERS", "5000"))
QUERIES = int(os.environ.get("BATCH_BENCH_QUERIES", "10000"))
#: local runs demand the full 10x; CI sets a lower sanity bound so a
#: noisy shared runner can't fail an unrelated PR on wall-clock jitter.
SPEEDUP_TARGET = float(os.environ.get("BATCH_SPEEDUP_TARGET", "10"))
#: the bitset-kernel enterprise shape: several roles per user, several
#: privileges per role — per-admin rectangle rows of realistic size.
SHAPE = ChurnShape(
    n_users=USERS, n_roles=48, layers=6, roles_per_user=3,
    privileges_per_role=4, delegations_per_top_role=12,
)
SEED = 13
REPETITIONS = 4
#: distinct (admin, action, user, role) edges in the hot pool; the
#: burst of QUERIES draws from it, so each edge repeats ~QUERIES/POOL
#: times — the duplicate profile of a paged access-review replay.
POOL = 500

_metrics_cache: dict = {}


def _hot_names(policy) -> tuple[list[str], list[str]]:
    """The names living inside administrator grant rectangles: delegated
    users (and users assigned into delegated senior roles) and the
    senior roles' inheritance subtrees.  Probes drawn from these pools
    are the plausible-assignment edges an access review replays — they
    pass the union-mask prefilter, so the scalar path must scan the
    admin's rectangle rows for every one of them."""
    hot_users: set[str] = set()
    hot_roles: set[str] = set()
    seniors: set[Role] = set()
    for privilege in policy.admin_privileges():
        if not isinstance(privilege, Grant):
            continue
        if isinstance(privilege.source, User):
            hot_users.add(privilege.source.name)
        if isinstance(privilege.target, Role):
            seniors.add(privilege.target)
    for senior in seniors:
        for vertex in policy.descendants(senior):
            if isinstance(vertex, Role):
                hot_roles.add(vertex.name)
    for user, role in policy.ua_edges():
        if role in seniors:
            hot_users.add(user.name)
    return sorted(hot_users), sorted(hot_roles)


def _fresh_pool(rng: random.Random, hot: tuple[list, list]) -> list:
    """A hot pool of POOL distinct (admin, make, user, role) edges over
    fresh entity objects.  Entities are rebuilt every repetition so the
    index's identity maps are the only sharing between repetitions.
    Half the edges are plausible-assignment probes from the delegated
    hot set (rectangle hits and near-misses that defeat the union-mask
    prefilter); the rest are uniform probes and revocations."""
    hot_users, hot_roles = hot
    admins = [User(f"admin{i}") for i in range(SHAPE.n_admins)]
    users = [User(f"u{i}") for i in range(SHAPE.n_users)]
    roles = [Role(f"r{i}") for i in range(SHAPE.n_roles)]
    pool = []
    for _ in range(POOL):
        admin = rng.choice(admins)
        draw = rng.random()
        if draw < 0.65 and hot_users and hot_roles:
            edge = (
                admin, grant_cmd,
                User(rng.choice(hot_users)), Role(rng.choice(hot_roles)),
            )
        elif draw < 0.85:
            edge = (admin, grant_cmd, rng.choice(users), rng.choice(roles))
        else:
            edge = (admin, revoke_cmd, rng.choice(users), rng.choice(roles))
        pool.append(edge)
    return pool


def _burst(rng: random.Random, pool: list) -> list:
    """QUERIES fresh :class:`Command` objects over the hot edge pool.

    Every query is a *new* command object, as arriving requests are in
    a real monitor — the scalar path pays the per-command work (wanted
    privilege construction, per-object memos) for each of them.  The
    commands still name the pool's shared entity objects, which is what
    the batch kernel's identity grouping collapses: ~QUERIES/POOL
    value-duplicate commands per edge become one decision."""
    return [
        (admin, make(admin, user, role))
        for admin, make, user, role in (
            rng.choice(pool) for _ in range(QUERIES)
        )
    ]


def _rates() -> tuple[float, float]:
    """Best-of-N (scalar, batch) decisions/second on the same bursts.

    Every repetition rebuilds the pool with fresh objects and replays
    the identical burst through both paths; the verdict sequences are
    asserted equal each time, so the speedup compares equal answers.
    """
    policy = churn_policy(SEED, SHAPE)
    index = AuthorizationIndex(policy)
    authorizes = index.authorizes
    hot = _hot_names(policy)
    best_scalar = best_batch = float("inf")
    for repetition in range(REPETITIONS):
        rng = random.Random(SEED + repetition)
        burst = _burst(rng, _fresh_pool(rng, hot))

        started = time.perf_counter()
        scalar = [authorizes(user, command) for user, command in burst]
        best_scalar = min(best_scalar, time.perf_counter() - started)

        started = time.perf_counter()
        batch = index.authorizes_batch(burst)
        best_batch = min(best_batch, time.perf_counter() - started)

        assert batch == scalar, "batch verdicts diverged from scalar"
    return QUERIES / best_scalar, QUERIES / best_batch


def _bulk_rates() -> tuple[float, float]:
    """Best-of-N (per-user, bulk) audited users/second for the
    whole-population held-privilege sweep."""
    policy = churn_policy(SEED, SHAPE)
    index = AuthorizationIndex(policy)
    population = sorted(policy.users(), key=str)
    best_scalar = best_bulk = float("inf")
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        per_user = {u: index.held_privileges(u) for u in population}
        best_scalar = min(best_scalar, time.perf_counter() - started)

        started = time.perf_counter()
        bulk = index.held_privileges_bulk(population)
        best_bulk = min(best_bulk, time.perf_counter() - started)

        assert bulk == per_user, "bulk audit diverged from per-user"
    return len(population) / best_scalar, len(population) / best_bulk


def collect_metrics() -> dict:
    """The benchmark's headline numbers (memoized; consumed by the
    report tests below and by tools/bench_report.py)."""
    if _metrics_cache:
        return _metrics_cache
    scalar_rate, batch_rate = _rates()
    bulk_scalar_rate, bulk_rate = _bulk_rates()
    _metrics_cache.update({
        "users": SHAPE.n_users,
        "queries": QUERIES,
        "pool": POOL,
        "scalar_per_s": round(scalar_rate),
        "batch_per_s": round(batch_rate),
        "scalar_us_per_decision": round(1e6 / scalar_rate, 3),
        "batch_us_per_decision": round(1e6 / batch_rate, 3),
        "batch_speedup": round(batch_rate / scalar_rate, 2),
        "bulk_per_user_per_s": round(bulk_scalar_rate),
        "bulk_users_per_s": round(bulk_rate),
        "bulk_speedup": round(bulk_rate / bulk_scalar_rate, 2),
        "speedup_target": SPEEDUP_TARGET,
    })
    return _metrics_cache


def test_report_batch_speedup():
    metrics = collect_metrics()
    print_table(
        f"Batch vs scalar authorization ({metrics['users']} users, "
        f"{metrics['queries']} queries over {metrics['pool']} pairs)",
        ["surface", "scalar", "batch", "speedup"],
        [
            (
                "authorizes/s",
                f"{metrics['scalar_per_s']:,}",
                f"{metrics['batch_per_s']:,}",
                f"{metrics['batch_speedup']:.1f}x",
            ),
            (
                "µs per decision",
                f"{metrics['scalar_us_per_decision']:.3f}",
                f"{metrics['batch_us_per_decision']:.3f}",
                "",
            ),
            (
                "audit users/s",
                f"{metrics['bulk_per_user_per_s']:,}",
                f"{metrics['bulk_users_per_s']:,}",
                f"{metrics['bulk_speedup']:.1f}x",
            ),
        ],
    )
    assert metrics["batch_speedup"] >= SPEEDUP_TARGET, (
        f"batch authorization only {metrics['batch_speedup']:.1f}x faster "
        f"than per-query compiled calls (target >={SPEEDUP_TARGET}x on "
        f"{QUERIES} queries at {USERS} users)"
    )


def test_report_batch_identical_under_fuzz():
    """Invariant 12 on a reduced campaign: batch verdicts are
    differentially identical to scalar ones and agree with the
    reference, across recycling churn and ghost subjects."""
    from repro.workloads.fuzz import fuzz_batch_authz
    from repro.workloads.generators import PolicyShape

    report = fuzz_batch_authz(
        SEED, steps=20,
        shape=PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4),
        queries=120,
    )
    assert report.ok, report.violations[:5]


if __name__ == "__main__":
    test_report_batch_identical_under_fuzz()
    test_report_batch_speedup()
    metrics_out = os.environ.get("BATCH_METRICS_OUT")
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(collect_metrics(), handle, indent=2)
