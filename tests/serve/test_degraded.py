"""Graceful degradation and backpressure: staleness-reported reads,
per-request deadlines, bounded-queue shedding, and the degraded
read-only mode that keeps answering while the writer is down.
"""

import asyncio

import pytest

from repro.core.commands import grant_cmd
from repro.errors import ReproError
from repro.serve import (
    DeadlineExceeded,
    PolicyDecisionPoint,
    QueueFull,
    ServiceStopped,
    SnapshotTooStale,
    WriterFailed,
    WriterSupervisor,
)
from repro.workloads.faults import FAULTS

from .conftest import (
    ADMIN,
    ManualClock,
    R,
    U,
    gate_writer,
    run,
    serve_policy,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.clear()
    yield
    FAULTS.clear()


def _pdp(**kwargs):
    kwargs.setdefault("policy", serve_policy())
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault(
        "supervisor", WriterSupervisor(base_delay=0.0, breaker_threshold=3)
    )
    return PolicyDecisionPoint(**kwargs)


class TestStaleness:
    def test_decisions_report_snapshot_age(self, clock):
        async def scenario():
            pdp = _pdp(clock=clock)
            async with pdp:
                await pdp.submit(grant_cmd(ADMIN, U, R))
                clock.advance(2.5)
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.staleness == pytest.approx(2.5)
                assert pdp.statistics()["staleness"] == pytest.approx(2.5)
                # the cached re-ask reports the age at *its* read time
                clock.advance(1.0)
                cached = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert cached.cached
                assert cached.staleness == pytest.approx(3.5)

        run(scenario())

    def test_publish_resets_staleness(self, clock):
        async def scenario():
            pdp = _pdp(clock=clock)
            async with pdp:
                await pdp.submit(grant_cmd(ADMIN, U, R))
                clock.advance(5.0)
                await pdp.refresh()
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.staleness == 0.0

        run(scenario())

    def test_bound_not_enforced_while_serving(self, clock):
        """`max_staleness` bounds *degraded* reads; a healthy writer
        between publications is not an error."""

        async def scenario():
            pdp = _pdp(clock=clock, max_staleness=1.0)
            async with pdp:
                clock.advance(60.0)
                assert pdp.health == "serving"
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.allowed
                assert decision.staleness == pytest.approx(60.0)

        run(scenario())

    def test_bound_enforced_once_writer_is_down(self, clock):
        async def scenario():
            pdp = _pdp(clock=clock, max_staleness=1.0)
            FAULTS.arm("writer.before_apply", "crash", times=1)
            async with pdp:
                with pytest.raises(WriterFailed):
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                assert pdp.health == "dead"
                # within the bound: degraded reads still answer
                clock.advance(0.5)
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.allowed
                # past the bound: typed refusal, not a silent stale read
                clock.advance(1.0)
                with pytest.raises(SnapshotTooStale) as caught:
                    await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert caught.value.staleness == pytest.approx(1.5)
                assert caught.value.bound == 1.0

        run(scenario())

    def test_failing_writer_does_not_reset_staleness(self, clock):
        """The failure-path republish must not restamp the staleness
        clock while the version stands still — otherwise a writer
        stuck failing keeps reported staleness near zero during
        exactly the outage max_staleness is meant to bound."""

        async def scenario():
            pdp = _pdp(
                clock=clock, max_staleness=1.0,
                supervisor=WriterSupervisor(
                    base_delay=0.0, breaker_threshold=3, clock=clock,
                ),
            )
            FAULTS.arm("writer.before_apply", "fail", times=3)
            async with pdp:
                for _ in range(3):
                    clock.advance(0.6)
                    with pytest.raises(WriterFailed):
                        await pdp.submit(grant_cmd(ADMIN, U, R))
                assert pdp.health == "degraded"
                # staleness spans the whole outage, not just the last
                # failed attempt — and the bound therefore fires
                assert pdp.statistics()["staleness"] == pytest.approx(1.8)
                with pytest.raises(SnapshotTooStale):
                    await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))

        run(scenario())


class TestDegradedReads:
    def test_reads_pinned_at_last_published_version(self):
        async def scenario():
            pdp = _pdp()
            async with pdp:
                await pdp.submit(grant_cmd(ADMIN, U, R))
                pinned = pdp.version
                FAULTS.arm("writer.before_apply", "crash", times=1)
                with pytest.raises(WriterFailed):
                    await pdp.submit(grant_cmd(ADMIN, ADMIN, R))
                # the writer is dead; reads keep answering at the
                # pinned snapshot and report its version
                for _ in range(3):
                    decision = await pdp.check(
                        ADMIN, grant_cmd(ADMIN, U, R)
                    )
                    assert decision.version == pinned
                assert pdp.version == pinned
                with pytest.raises(ServiceStopped):
                    await pdp.submit(grant_cmd(ADMIN, U, R))

        run(scenario())


class TestDeadlines:
    def test_expired_read_deadline_raises_before_index_work(self, clock):
        async def scenario():
            pdp = _pdp(clock=clock)
            async with pdp:
                clock.advance(10.0)
                before = pdp.statistics()
                with pytest.raises(DeadlineExceeded) as caught:
                    await pdp.check(
                        ADMIN, grant_cmd(ADMIN, U, R), deadline=9.0
                    )
                assert caught.value.operation == "check"
                after = pdp.statistics()
                # shed at entry: no decision, no cache traffic
                assert after["decisions"] == before["decisions"]
                assert after["cache_misses"] == before["cache_misses"]
                assert (
                    after["deadline_expired"]
                    == before["deadline_expired"] + 1
                )

        run(scenario())

    def test_future_read_deadline_passes(self, clock):
        async def scenario():
            pdp = _pdp(clock=clock)
            async with pdp:
                decision = await pdp.check(
                    ADMIN, grant_cmd(ADMIN, U, R), deadline=clock.now + 5
                )
                assert decision.allowed

        run(scenario())

    def test_nonpositive_submit_timeout_sheds_immediately(self):
        async def scenario():
            pdp = _pdp()
            async with pdp:
                with pytest.raises(DeadlineExceeded):
                    await pdp.submit_many(
                        [grant_cmd(ADMIN, U, R)], timeout=0.0
                    )
                assert pdp.metrics.deadline_expired == 1

        run(scenario())

    def test_submit_timeout_on_stalled_writer(self):
        """A stalled writer (gated before it takes the queued command)
        must not hold the caller past its timeout — and the shed is
        typed, with no un-retrieved future warnings."""

        async def scenario():
            pdp = _pdp()
            gate = gate_writer(pdp)
            async with pdp:
                with pytest.raises(DeadlineExceeded) as caught:
                    await pdp.submit_many(
                        [grant_cmd(ADMIN, U, R)], timeout=0.05
                    )
                assert caught.value.operation == "submit"
                assert pdp.metrics.deadline_expired == 1
                gate.set()  # let stop() drain the abandoned command

        run(scenario())


class TestBackpressure:
    def test_queue_full_sheds_with_retry_hint(self):
        async def scenario():
            pdp = _pdp(queue_limit=2)
            async with pdp:
                # Fill the queue within one tick: the backlog task's
                # synchronous prologue enqueues both commands before
                # the writer (woken later in the callback queue) can
                # drain them.
                backlog = asyncio.ensure_future(pdp.submit_many([
                    grant_cmd(ADMIN, U, R),
                    grant_cmd(ADMIN, ADMIN, R),
                ]))
                await asyncio.sleep(0)
                with pytest.raises(QueueFull) as caught:
                    await pdp.submit_many([grant_cmd(ADMIN, U, R)])
                assert caught.value.depth == 2
                assert caught.value.limit == 2
                assert caught.value.retry_after > 0
                assert pdp.metrics.queue_shed == 1
                stats = pdp.statistics()
                assert stats["queue"]["limit"] == 2
                # the backlog drains, and a fitting batch then applies
                records = await backlog
                assert len(records) == 2
                record = await pdp.submit(grant_cmd(ADMIN, U, R))
                assert record.executed

        run(scenario())

    def test_oversized_batch_is_a_nonretryable_error(self):
        """A batch larger than queue_limit can never fit, even into an
        empty queue — so it must not shed as retryable QueueFull."""

        async def scenario():
            pdp = _pdp(queue_limit=2)
            async with pdp:
                with pytest.raises(ReproError) as caught:
                    await pdp.submit_many([
                        grant_cmd(ADMIN, U, R),
                        grant_cmd(ADMIN, ADMIN, R),
                        grant_cmd(ADMIN, U, R),
                    ])
                assert not isinstance(caught.value, QueueFull)
                assert "queue_limit" in str(caught.value)
                assert pdp.metrics.queue_shed == 0
                # a batch that fits still applies
                record = await pdp.submit(grant_cmd(ADMIN, U, R))
                assert record.executed

        run(scenario())

    def test_unbounded_queue_never_sheds(self):
        async def scenario():
            pdp = _pdp()  # queue_limit=None
            async with pdp:
                records = await pdp.submit_many(
                    [grant_cmd(ADMIN, U, R)] * 32
                )
                assert len(records) == 32
                assert pdp.metrics.queue_shed == 0

        run(scenario())
