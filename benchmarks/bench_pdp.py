"""Async PDP serving latency vs. a naive one-lock-per-call baseline.

The claim under test: under >=64 concurrent principals issuing
access-review pages of authorization probes, the
:class:`repro.serve.PolicyDecisionPoint` — journal-invalidated
decision cache in front of lock-free snapshot reads coalesced into
``authorizes_batch`` sweeps — answers with a p50 request latency >=3x
better than the obvious first implementation: one ``asyncio.Lock``
around the monitor, one scalar ``authorizes`` call per probe.

The workload is the serving shape the PDP exists for.  Every *burst*,
each principal (a client connection acting as one of the policy's
administrators) submits one ``check_many`` page of PROBES fresh
command objects drawn from a hot pool of distinct requests — paged
access reviews replay the same candidate edges page after page, so
the burst is duplicate-heavy and later bursts re-ask earlier
questions.  After several bursts a writer cohort pushes grant/revoke
toggles through the mutation path (quiesced before the next round's
reads, so both servers decide every burst against the identical
policy state), invalidating the dirty slice of the cache and
republishing the snapshot.  Request latency runs from burst arrival
to page completion — queueing delay included, which is what a caller
actually experiences — and the serialized baseline queues every page
behind every other principal's scalar sweep while the PDP answers
repeats from the cache and collapses cold pages into one batched
sweep.  Both servers replay value-identical request scripts and every
burst's allowed/denied page (and every round's write outcomes) is
asserted equal between them before any timing number is trusted;
percentiles are computed exactly from the raw samples (the PDP's own
histogram p50 is reported alongside as a metrics-surface sanity
value).

Run under pytest (``pytest benchmarks/bench_pdp.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_pdp.py``).
``PDP_BENCH_PRINCIPALS`` / ``PDP_BENCH_ROUNDS`` / ``PDP_BENCH_USERS``
/ ``PDP_SPEEDUP_TARGET`` / ``PDP_P99_TARGET`` shrink the workload and
the assertion bars for CI smoke runs (a p99 target of 0 records the
p99 speedup without asserting it); ``tools/bench_report.py`` sets
``PDP_METRICS_OUT`` to collect the numbers into the
``BENCH_kernel.json`` trajectory.
"""

import asyncio
import json
import math
import os
import random
import time

from conftest import print_table

from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.monitor import ReferenceMonitor
from repro.core.privileges import Grant
from repro.serve import PolicyDecisionPoint
from repro.workloads.churn import ChurnShape, churn_policy

PRINCIPALS = int(os.environ.get("PDP_BENCH_PRINCIPALS", "128"))
ROUNDS = int(os.environ.get("PDP_BENCH_ROUNDS", "6"))
BENCH_USERS = int(os.environ.get("PDP_BENCH_USERS", "2000"))
#: local runs and CI both demand the issue's 3x floor; the measured
#: margin is far wider (the cache short-circuits repeated probes and
#: the baseline queues every page behind every other principal's).
SPEEDUP_TARGET = float(os.environ.get("PDP_SPEEDUP_TARGET", "3"))
#: the tail must not lose to the baseline either: publication blocks
#: every reader, so a slow publish shows up at p99 first.  0 disables
#: the assertion (the reduced CI run, whose p99 swings across 1x).
P99_TARGET = float(os.environ.get("PDP_P99_TARGET", "1"))
#: probes per page: one principal request carries a review page of
#: several candidate edges, the RPC shape ``check_many`` exists for.
PROBES = 8
#: read bursts between write phases — reads dominate mutations in the
#: serving workload (ChurnShape's queries_per_mutation says the same),
#: so the per-publication snapshot cost lands on the one cold burst
#: and the steady-state bursts measure the cached path.
BURSTS = 5
#: the enterprise shape, with delegated administration scaled up so a
#: single scalar decision carries realistic rectangle-scan weight.
SHAPE = ChurnShape(
    n_users=BENCH_USERS, n_roles=48, layers=6, roles_per_user=3,
    privileges_per_role=8, delegations_per_top_role=40,
)
SEED = 29
REPETITIONS = 2
#: distinct request values in the hot pool — every burst draws
#: PRINCIPALS * PROBES probes from it, so duplicates collapse in the
#: batch sweep and later bursts re-hit surviving cache entries.
POOL = max(32, PRINCIPALS)
WRITERS = max(1, PRINCIPALS // 8)

_metrics_cache: dict = {}


class SerializedBaseline:
    """The naive PDP: one lock per call, one scalar decision per probe.

    This is the honest first cut, not a strawman — it is exactly what
    wrapping the refined monitor's index in a mutex gives: correct,
    snapshot-free, and every concurrent page queues behind the page
    ahead of it."""

    def __init__(self, policy):
        self.monitor = ReferenceMonitor(
            policy, mode=Mode.REFINED, use_index=True
        )
        self._lock = asyncio.Lock()

    async def check_many(self, subject, commands) -> list[bool]:
        async with self._lock:
            authorizes = self.monitor._index.authorizes
            return [
                authorizes(subject, command) is not None
                for command in commands
            ]

    async def submit(self, command):
        async with self._lock:
            return self.monitor.submit(command)


class ServedPdp:
    """The tentpole under test, adapted to the same driver surface."""

    def __init__(self, policy):
        self.pdp = PolicyDecisionPoint(policy=policy)

    async def check_many(self, subject, commands) -> list[bool]:
        decisions = await self.pdp.check_many(subject, commands)
        return [decision.allowed for decision in decisions]

    async def submit(self, command):
        return await self.pdp.submit(command)


def _hot_names(policy):
    """Names inside the administrators' grant rectangles — probes over
    these pass the union-mask prefilter, so the scalar baseline pays
    the full rectangle scan for each of them."""
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


def _value_script(policy):
    """The deterministic request script, as entity *names* — each
    server run rematerializes fresh objects from it, so the two
    servers (and repetitions) replay value-identical but
    object-distinct traces and neither benefits from the other's
    per-object memos.

    Returns (pool, read_script, write_script): POOL distinct
    (make, user_name, role_name) probe values; per round, BURSTS
    bursts of PRINCIPALS pages of PROBES pool indices; per round,
    WRITERS (make, user_name, role_name) hot-pair toggles."""
    rng = random.Random(SEED + 1)
    hot_users, hot_roles = _hot_names(policy)
    plain_users = [f"u{i}" for i in range(SHAPE.n_users)]
    plain_roles = [f"r{i}" for i in range(SHAPE.n_roles)]
    pool = []
    for _ in range(POOL):
        draw = rng.random()
        if draw < 0.7 and hot_users and hot_roles:
            pool.append((
                grant_cmd, rng.choice(hot_users), rng.choice(hot_roles),
            ))
        elif draw < 0.85:
            pool.append((
                grant_cmd, rng.choice(plain_users), rng.choice(plain_roles),
            ))
        else:
            pool.append((
                revoke_cmd, rng.choice(plain_users), rng.choice(plain_roles),
            ))
    read_script = [
        [
            [
                [rng.randrange(POOL) for _ in range(PROBES)]
                for _ in range(PRINCIPALS)
            ]
            for _ in range(BURSTS)
        ]
        for _ in range(ROUNDS)
    ]
    write_script = []
    for round_index in range(ROUNDS):
        writes = []
        for writer in range(WRITERS):
            user = rng.choice(hot_users) if hot_users else rng.choice(plain_users)
            role = rng.choice(hot_roles) if hot_roles else rng.choice(plain_roles)
            make = grant_cmd if (round_index + writer) % 2 == 0 else revoke_cmd
            writes.append((make, user, role))
        write_script.append(writes)
    return pool, read_script, write_script


def _materialize(script):
    """Fresh entity and command objects for one server run.

    Every page probe is a *new* :class:`Command` naming the run's
    shared entity objects, as arriving requests are in a real server —
    the scalar path pays the per-command work (wanted-privilege
    construction) for each of them, while the PDP's value-keyed cache
    recognizes the repeat.  Principal ``i`` acts as administrator
    ``i % n_admins``."""
    pool, read_script, write_script = script
    admins = [User(f"admin{i}") for i in range(SHAPE.n_admins)]
    users = {name: User(name) for _, name, _ in pool}
    roles = {name: Role(name) for _, _, name in pool}

    def probe(principal, index):
        make, user, role = pool[index]
        return make(
            admins[principal % len(admins)],
            users.setdefault(user, User(user)),
            roles.setdefault(role, Role(role)),
        )

    reads = [
        [
            [
                (
                    admins[principal % len(admins)],
                    [probe(principal, index) for index in page],
                )
                for principal, page in enumerate(burst)
            ]
            for burst in round_bursts
        ]
        for round_bursts in read_script
    ]
    writes = [
        [
            make(
                admins[position % len(admins)],
                users.setdefault(user, User(user)),
                roles.setdefault(role, Role(role)),
            )
            for position, (make, user, role) in enumerate(round_writes)
        ]
        for round_writes in write_script
    ]
    return reads, writes


async def _drive(server, reads, writes):
    """Replay the script; returns (per-page latencies, per-burst
    allowed pages, per-round write outcomes).  Page latency runs from
    burst arrival to page completion; the write phase is quiesced
    between rounds so both servers decide each burst against the same
    policy state."""
    latencies: list[float] = []
    allowed: list[list[list[bool]]] = []
    applied: list[list[bool]] = []

    async def page(subject, commands, arrival, verdicts, position):
        verdicts[position] = await server.check_many(subject, commands)
        latencies.append(time.perf_counter() - arrival)

    for round_bursts, round_writes in zip(reads, writes):
        for burst in round_bursts:
            verdicts: list = [None] * len(burst)
            arrival = time.perf_counter()
            await asyncio.gather(*[
                page(subject, commands, arrival, verdicts, position)
                for position, (subject, commands) in enumerate(burst)
            ])
            allowed.append(verdicts)
        records = await asyncio.gather(*[
            server.submit(command) for command in round_writes
        ])
        applied.append([record.executed for record in records])
    return latencies, allowed, applied


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _run_servers():
    """Best-of-N p50/p99 for both servers on value-identical scripts,
    with the allowed pages and write outcomes asserted equal every
    repetition."""
    base_policy = churn_policy(SEED, SHAPE)
    script = _value_script(base_policy)
    best: dict[str, dict[str, float]] = {}
    last_pdp = None
    for _ in range(REPETITIONS):
        results = {}
        for name in ("baseline", "pdp"):
            reads, writes = _materialize(script)
            policy = base_policy.copy()
            if name == "baseline":
                server = SerializedBaseline(policy)
                outcome = asyncio.run(_drive(server, reads, writes))
            else:
                server = ServedPdp(policy)

                async def scenario(server=server, reads=reads, writes=writes):
                    async with server.pdp:
                        return await _drive(server, reads, writes)

                outcome = asyncio.run(scenario())
                last_pdp = server.pdp
            results[name] = outcome
        assert results["pdp"][1] == results["baseline"][1], (
            "PDP allowed/denied pages diverged from the serialized "
            "baseline on a value-identical request script"
        )
        assert results["pdp"][2] == results["baseline"][2], (
            "PDP write outcomes diverged from the serialized baseline"
        )
        for name, (latencies, _, _) in results.items():
            candidate = {
                "p50": _percentile(latencies, 0.50),
                "p99": _percentile(latencies, 0.99),
            }
            if name not in best or candidate["p50"] < best[name]["p50"]:
                best[name] = candidate
    return best, last_pdp


def collect_metrics() -> dict:
    """The benchmark's headline numbers (memoized; consumed by the
    report tests below and by tools/bench_report.py)."""
    if _metrics_cache:
        return _metrics_cache
    best, pdp = _run_servers()
    internal = pdp.metrics.decision_latency.snapshot()
    _metrics_cache.update({
        "principals": PRINCIPALS,
        "probes": PROBES,
        "bursts": BURSTS,
        "rounds": ROUNDS,
        "users": SHAPE.n_users,
        "pool": POOL,
        "baseline_p50_us": round(best["baseline"]["p50"] * 1e6, 1),
        "baseline_p99_us": round(best["baseline"]["p99"] * 1e6, 1),
        "pdp_p50_us": round(best["pdp"]["p50"] * 1e6, 1),
        "pdp_p99_us": round(best["pdp"]["p99"] * 1e6, 1),
        "pdp_internal_p50_us": round(internal["p50"] * 1e6, 1),
        "p50_speedup": round(
            best["baseline"]["p50"] / best["pdp"]["p50"], 2
        ),
        "p99_speedup": round(
            best["baseline"]["p99"] / best["pdp"]["p99"], 2
        ),
        "cache_hits": pdp.metrics.cache_hits,
        "read_batches": pdp.metrics.read_batches,
        "write_batches": pdp.metrics.batches,
        "max_batch_size": pdp.metrics.max_batch_size,
        "speedup_target": SPEEDUP_TARGET,
        "p99_target": P99_TARGET,
    })
    return _metrics_cache


def test_report_pdp_latency():
    metrics = collect_metrics()
    print_table(
        f"PDP vs one-lock-per-call baseline ({metrics['principals']} "
        f"principals x {metrics['probes']} probes/page, "
        f"{metrics['rounds']}x{metrics['bursts']} bursts, "
        f"{metrics['users']} users)",
        ["latency", "baseline", "pdp", "speedup"],
        [
            (
                "p50",
                f"{metrics['baseline_p50_us']:,}us",
                f"{metrics['pdp_p50_us']:,}us",
                f"{metrics['p50_speedup']:.1f}x",
            ),
            (
                "p99",
                f"{metrics['baseline_p99_us']:,}us",
                f"{metrics['pdp_p99_us']:,}us",
                f"{metrics['p99_speedup']:.1f}x",
            ),
        ],
    )
    assert metrics["principals"] >= 64, (
        "the serving claim is about concurrent load: keep "
        "PDP_BENCH_PRINCIPALS >= 64"
    )
    assert metrics["p50_speedup"] >= SPEEDUP_TARGET, (
        f"PDP p50 only {metrics['p50_speedup']:.1f}x better than the "
        f"serialized baseline (target >={SPEEDUP_TARGET}x at "
        f"{PRINCIPALS} principals)"
    )
    if P99_TARGET > 0:
        assert metrics["p99_speedup"] >= P99_TARGET, (
            f"PDP p99 only {metrics['p99_speedup']:.1f}x the serialized "
            f"baseline's (target >={P99_TARGET}x at {PRINCIPALS} "
            "principals)"
        )
    # The serving machinery must actually be engaged, or the latency
    # story is vacuous.
    assert metrics["cache_hits"] > 0
    assert metrics["read_batches"] >= 1
    assert metrics["write_batches"] >= 1


def test_report_pdp_conformance_under_fuzz():
    """Invariant 14 on a reduced campaign: interleaved PDP decisions
    and batches validate against the synchronous reference, across
    recycling churn."""
    from repro.workloads.fuzz import fuzz_pdp
    from repro.workloads.generators import PolicyShape

    shape = PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4)
    report = fuzz_pdp(SEED, shape=shape)
    assert report.ok, report.violations[:5]


if __name__ == "__main__":
    test_report_pdp_conformance_under_fuzz()
    test_report_pdp_latency()
    metrics_out = os.environ.get("PDP_METRICS_OUT")
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(collect_metrics(), handle, indent=2)
