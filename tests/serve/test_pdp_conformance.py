"""Conformance suite: the PDP is observationally identical to direct
synchronous :class:`ReferenceMonitor` calls on replayed traces — both
an index-backed monitor and the definitional path (an unindexed
monitor, with :class:`~repro.oracle.ReferenceIndex` for reads).

The randomized interleaved campaigns live in
:func:`repro.workloads.fuzz.fuzz_pdp` (invariant 14); these tests pin
each serving path deliberately — fresh reads, cache hits, rate-limited
retries, micro-batched mutation ordering — against the oracle.
"""

import asyncio

import pytest

from repro.core.commands import Mode, grant_cmd, revoke_cmd
from repro.core.monitor import ReferenceMonitor
from repro.core.privileges import Grant, Revoke
from repro.errors import ReproError
from repro.serve import (
    PolicyDecisionPoint,
    QueueFull,
    RateLimited,
    RateLimiter,
    as_command,
    cacheable,
)

from .conftest import (
    ADM,
    ADMIN,
    BOTH_VERIFIERS,
    OTHER,
    PEER,
    R,
    S,
    T,
    U,
    gate_writer,
    oracle_monitor,
    reads,
    run,
    serve_policy,
)


def read_trace():
    """A read trace covering every decision path (see
    tests/core/test_batch_authz.py for the kernel-side twin)."""
    return [
        (ADMIN, grant_cmd(ADMIN, U, R)),     # exact match
        (ADMIN, grant_cmd(ADMIN, U, S)),     # rectangle (implicit)
        (ADMIN, revoke_cmd(ADMIN, U, R)),    # exact revoke
        (ADMIN, revoke_cmd(ADMIN, U, S)),    # revoke: exact only -> deny
        (ADMIN, grant_cmd(ADMIN, ADM, Grant(U, S))),  # nested, exact
        (ADMIN, grant_cmd(ADMIN, U, T)),     # uncovered -> deny
        (OTHER, grant_cmd(OTHER, U, R)),     # holds nothing -> deny
        (PEER, grant_cmd(PEER, U, S)),       # second admin, implicit
    ]


def write_trace():
    return [
        grant_cmd(ADMIN, U, S),              # implicit, executes
        grant_cmd(OTHER, U, R),              # denied, no-op
        grant_cmd(PEER, U, R),               # exact, executes
        revoke_cmd(ADMIN, U, R),             # revokes what PEER granted
        grant_cmd(ADMIN, U, R),              # re-grant
        grant_cmd(ADMIN, U, R),              # duplicate -> noop record
    ]


class TestReadConformance:
    @BOTH_VERIFIERS
    def test_reads_match_direct_monitor(self, definitional):
        oracle = oracle_monitor(definitional)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy()
            ) as pdp:
                return [
                    await pdp.check(subject, command)
                    for subject, command in read_trace()
                ]

        decisions = run(scenario())
        for (subject, command), decision in zip(read_trace(), decisions):
            verdict = reads(oracle).authorizes(subject, command)
            assert decision.allowed == (verdict is not None)
            assert decision.authorized_by == verdict

    @BOTH_VERIFIERS
    def test_cache_hits_recheck_against_oracle(self, definitional):
        oracle = oracle_monitor(definitional)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy()
            ) as pdp:
                trace = read_trace()
                first = [await pdp.check(s, c) for s, c in trace]
                second = [await pdp.check(s, c) for s, c in trace]
                return first, second, pdp.metrics.cache_hits

        first, second, hits = run(scenario())
        assert hits > 0
        for (subject, command), fresh, cached in zip(
            read_trace(), first, second
        ):
            verdict = reads(oracle).authorizes(subject, command)
            # The cached verdict is the oracle verdict, not merely the
            # first answer repeated.
            assert cached.authorized_by == verdict
            assert cached.allowed == fresh.allowed
            assert cached.version == fresh.version
            # Nested-privilege targets are uncacheable by design.
            assert cached.cached == cacheable(command)

    @BOTH_VERIFIERS
    def test_check_many_matches_sequential_checks(self, definitional):
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy()
            ) as pdp:
                requests = [
                    Grant(U, R), Grant(U, S), Revoke(U, R), Grant(U, T)
                ]
                many = await pdp.check_many(ADMIN, requests)
                one_by_one = [
                    await pdp.check(ADMIN, request)
                    for request in requests
                ]
                return many, one_by_one

        many, one_by_one = run(scenario())
        assert [(d.allowed, d.authorized_by) for d in many] == [
            (d.allowed, d.authorized_by) for d in one_by_one
        ]
        # Keep the monitor: a policy's own index refers to it weakly.
        oracle = oracle_monitor(definitional)
        requests = [Grant(U, R), Grant(U, S), Revoke(U, R), Grant(U, T)]
        assert [d.authorized_by for d in many] == [
            reads(oracle).authorizes(ADMIN, as_command(ADMIN, request))
            for request in requests
        ]

    def test_concurrent_reads_coalesce_into_one_sweep(self):
        oracle = oracle_monitor(False)
        queries = [
            (ADMIN, grant_cmd(ADMIN, U, R)),
            (PEER, grant_cmd(PEER, U, S)),
            (OTHER, grant_cmd(OTHER, U, R)),
            (U, grant_cmd(U, U, R)),
            (ADMIN, revoke_cmd(ADMIN, U, R)),
            (PEER, grant_cmd(PEER, U, T)),
        ]

        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                decisions = await asyncio.gather(*[
                    pdp.check(subject, command)
                    for subject, command in queries
                ])
                return decisions, pdp.metrics.read_batches

        decisions, read_batches = run(scenario())
        assert read_batches == 1  # one authorizes_batch for all six
        for (subject, command), decision in zip(queries, decisions):
            verdict = reads(oracle).authorizes(subject, command)
            assert decision.authorized_by == verdict

    @BOTH_VERIFIERS
    def test_review_endpoint_matches_bulk_reads(self, definitional):
        oracle = oracle_monitor(definitional)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy()
            ) as pdp:
                return await pdp.review([ADMIN, PEER, OTHER, U])

        review = run(scenario())
        assert review == reads(oracle).grantable_pairs_bulk(
            [ADMIN, PEER, OTHER, U]
        )
        assert review[ADMIN] is review[PEER]  # shared authority profile


class TestWriteConformance:
    @BOTH_VERIFIERS
    def test_records_match_sequential_replay(self, definitional):
        oracle = oracle_monitor(definitional)
        expected = [oracle.submit(c) for c in write_trace()]

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy()
            ) as pdp:
                records = [
                    await pdp.submit(command)
                    for command in write_trace()
                ]
                return records, pdp.monitor.policy

        records, served_policy = run(scenario())
        assert records == expected
        assert served_policy == oracle.policy

    @BOTH_VERIFIERS
    def test_coalesced_batch_matches_batched_replay(self, definitional):
        trace = write_trace()
        oracle = oracle_monitor(definitional)
        # The unindexed verifier replays sequentially; this trace's
        # authorizations never depend on its own mutations, so the
        # batched and sequential readings coincide.
        expected = oracle.submit_queue(trace, batched=True)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), max_batch=64
            ) as pdp:
                records = await pdp.submit_many(trace)
                return records, pdp.metrics.batches, pdp.monitor.policy

        records, batches, served_policy = run(scenario())
        assert batches == 1  # the whole trace coalesced into one batch
        assert records == expected  # futures resolved in queue order
        assert served_policy == oracle.policy

    def test_concurrent_submits_coalesce(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                commands = [grant_cmd(ADMIN, U, R) for _ in range(8)]
                records = await asyncio.gather(*[
                    pdp.submit(command) for command in commands
                ])
                return records, pdp.metrics

        records, metrics = run(scenario())
        assert metrics.batches == 1
        assert metrics.mutations == 8
        assert metrics.max_batch_size == 8
        # First in queue executes the change; the rest are noops.
        assert [r.noop for r in records] == [False] + [True] * 7

    def test_max_batch_watermark_splits_batches(self):
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), max_batch=3
            ) as pdp:
                commands = [grant_cmd(ADMIN, U, R) for _ in range(8)]
                await asyncio.gather(*[
                    pdp.submit(command) for command in commands
                ])
                return pdp.metrics

        metrics = run(scenario())
        assert metrics.batches >= 3  # 8 commands, watermark 3
        assert metrics.max_batch_size <= 3

    @BOTH_VERIFIERS
    def test_audit_contract_preserved(self, definitional):
        """The snapshot published before a batch is its entry state,
        the audit trail grows one entry per command, and its verdicts
        are the verifier's."""
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy()
            ) as pdp:
                entry = pdp.last_snapshot
                entry_version = pdp.monitor.policy.version
                await pdp.submit_many(write_trace())
                return entry.version, entry_version, pdp.monitor.audit_trail

        snapshot_version, entry_version, trail = run(scenario())
        assert snapshot_version == entry_version
        assert len(trail) == len(write_trace())
        oracle = oracle_monitor(definitional)
        oracle.submit_queue(write_trace(), batched=True)
        assert [(e.subject, e.allowed) for e in trail] == [
            (e.subject, e.allowed) for e in oracle.audit_trail
        ]

    def test_reads_see_writes_after_publication(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                before = await pdp.check(U, Grant(U, T))
                denied = await pdp.check(OTHER, Grant(U, R))
                record = await pdp.submit(grant_cmd(ADMIN, U, R))
                after = await pdp.check(ADMIN, Grant(U, R))
                return before, denied, record, after, pdp.version

        before, denied, record, after, version = run(scenario())
        assert not before.allowed and not denied.allowed
        assert record.executed
        assert after.allowed
        assert after.version == version > before.version


class TestGroupCommit:
    """The writer closes a batch as soon as the queue is empty: no
    timer holds a lone write back, and batches form only from
    commands that queued up while the writer was busy."""

    def test_lone_submit_resolves_within_a_few_ticks(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                task = asyncio.ensure_future(
                    pdp.submit(grant_cmd(ADMIN, U, R))
                )
                for _ in range(5):
                    await asyncio.sleep(0)
                    if task.done():
                        break
                assert task.done(), "a lone write waited on a timer"
                return task.result(), pdp.metrics

        record, metrics = run(scenario())
        assert record.executed
        assert metrics.batches == 1

    def test_max_batch_splits_a_full_queue_exactly(self):
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), max_batch=4
            ) as pdp:
                await asyncio.gather(*[
                    pdp.submit(grant_cmd(ADMIN, U, R)) for _ in range(8)
                ])
                return pdp.metrics

        metrics = run(scenario())
        assert metrics.batches == 2
        assert metrics.max_batch_size == 4

    def test_retry_after_follows_batch_apply_latency(self):
        async def scenario():
            pdp = PolicyDecisionPoint(
                policy=serve_policy(), max_batch=1, queue_limit=2
            )
            gate = gate_writer(pdp)
            async with pdp:
                backlog = asyncio.ensure_future(pdp.submit_many([
                    grant_cmd(ADMIN, U, R), grant_cmd(ADMIN, ADMIN, R),
                ]))
                await asyncio.sleep(0)
                with pytest.raises(QueueFull) as before:
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                assert pdp.metrics.batches == 0
                gate.set()
                await backlog
                # Refill within one tick, behind two applied batches.
                backlog = asyncio.ensure_future(pdp.submit_many([
                    grant_cmd(ADMIN, U, R), grant_cmd(ADMIN, ADMIN, R),
                ]))
                await asyncio.sleep(0)
                with pytest.raises(QueueFull) as after:
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                mean = pdp.metrics.batch_apply_latency.mean
                await backlog
                return before.value, after.value, mean

        before, after, mean = run(scenario())
        assert before.retry_after > 0
        # depth 2 at max_batch 1: this batch plus two ahead of it
        assert after.retry_after == pytest.approx(mean * 3)

    def test_queue_wait_records_one_sample_per_command(self):
        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), max_batch=3
            ) as pdp:
                await asyncio.gather(*[
                    pdp.submit(grant_cmd(ADMIN, U, R)) for _ in range(5)
                ])
                await pdp.submit_many([
                    grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R),
                ])
                await pdp.refresh()  # not a command: no sample
                return pdp.statistics()

        stats = run(scenario())
        assert stats["mutations"] == 7
        assert stats["queue_wait_latency"]["count"] == 7
        assert set(stats["queue_wait_latency"]) == {
            "count", "mean", "p50", "p99", "max"
        }


class TestRateLimitedPath:
    def test_rate_limited_then_retry_matches_oracle(self, clock):
        oracle = oracle_monitor(False)
        limiter = RateLimiter(capacity=2, rate=1.0, clock=clock)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), rate_limiter=limiter, clock=clock
            ) as pdp:
                await pdp.check(ADMIN, Grant(U, R))
                await pdp.check(ADMIN, Grant(U, S))
                with pytest.raises(RateLimited) as excinfo:
                    await pdp.check(ADMIN, Revoke(U, R))
                # An unrelated principal is not limited.
                other_decision = await pdp.check(OTHER, Grant(U, R))
                clock.advance(excinfo.value.retry_after)
                retried = await pdp.check(ADMIN, Revoke(U, R))
                return excinfo.value, other_decision, retried, pdp.metrics

        exc, other_decision, retried, metrics = run(scenario())
        assert exc.principal == ADMIN
        assert exc.retry_after > 0
        assert metrics.rate_limited == 1
        assert not other_decision.allowed
        # The post-rate-limit retry matches the oracle exactly.
        verdict = reads(oracle).authorizes(ADMIN, revoke_cmd(ADMIN, U, R))
        assert retried.allowed and retried.authorized_by == verdict

    def test_rate_limited_submit_spends_nothing(self, clock):
        limiter = RateLimiter(capacity=2, rate=1.0, clock=clock)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), rate_limiter=limiter, clock=clock
            ) as pdp:
                trace = [grant_cmd(ADMIN, U, R)] * 3
                with pytest.raises(RateLimited):
                    await pdp.submit_many(trace)  # 3 tokens > capacity 2
                # The rejected batch spent nothing: capacity 2 still
                # covers a 2-command batch without advancing the clock.
                return await pdp.submit_many(trace[:2])

        records = run(scenario())
        assert [r.executed for r in records] == [True, True]


class TestRequestShapes:
    def test_as_command_shapes(self):
        assert as_command(ADMIN, Grant(U, R)) == grant_cmd(ADMIN, U, R)
        assert as_command(ADMIN, Revoke(U, R)) == revoke_cmd(ADMIN, U, R)
        assert as_command(ADMIN, "grant", (U, R)) == grant_cmd(ADMIN, U, R)
        assert as_command(ADMIN, "revoke", (U, R)) == revoke_cmd(ADMIN, U, R)
        # A foreign command is re-issued on behalf of the subject.
        reissued = as_command(PEER, grant_cmd(ADMIN, U, R))
        assert reissued.user == PEER and reissued.edge == (U, R)
        with pytest.raises(ReproError):
            as_command(ADMIN, 42)

    def test_nested_request_decidable(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                return await pdp.check(ADMIN, Grant(ADM, Grant(U, S)))

        decision = run(scenario())
        assert decision.allowed and not decision.cached


class TestLifecycle:
    def test_not_serving_outside_context(self):
        async def scenario():
            pdp = PolicyDecisionPoint(policy=serve_policy())
            with pytest.raises(ReproError):
                await pdp.submit(grant_cmd(ADMIN, U, R))
            async with pdp:
                await pdp.submit(grant_cmd(ADMIN, U, R))
            with pytest.raises(ReproError):
                await pdp.submit(grant_cmd(ADMIN, U, R))
            return True

        assert run(scenario())

    def test_stop_applies_queued_mutations(self):
        async def scenario():
            pdp = PolicyDecisionPoint(policy=serve_policy())
            await pdp.start()
            future = asyncio.ensure_future(
                pdp.submit(grant_cmd(ADMIN, U, R))
            )
            await asyncio.sleep(0)  # let the submit enqueue its command
            await pdp.stop()
            return await future

        record = run(scenario())
        assert record.executed

    def test_requires_refined_indexed_monitor(self):
        with pytest.raises(ReproError):
            PolicyDecisionPoint(
                ReferenceMonitor(serve_policy(), mode=Mode.STRICT)
            )
        with pytest.raises(ReproError):
            PolicyDecisionPoint(
                ReferenceMonitor(serve_policy(), mode=Mode.REFINED)
            )
        with pytest.raises(ReproError):
            PolicyDecisionPoint(policy=serve_policy(), max_batch=0)
        with pytest.raises(ReproError):
            PolicyDecisionPoint()

    def test_statistics_shape(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=serve_policy()) as pdp:
                await pdp.check(ADMIN, Grant(U, R))
                await pdp.submit(grant_cmd(ADMIN, U, R))
                return pdp.statistics()

        stats = run(scenario())
        assert stats["decisions"] == 1
        assert stats["mutations"] == 1
        # The write published a version no reader has materialized yet:
        # the decision cache stays at the materialized one.
        assert stats["cache"]["version"] == stats["materialized_version"]
        assert stats["materialized_version"] < stats["version"]
        assert (stats["publications"], stats["materializations"]) == (1, 0)
        assert set(stats["decision_latency"]) == {
            "count", "mean", "p50", "p99", "max"
        }
