"""The supervised writer: typed per-batch failures, backoff, the
crash-loop circuit breaker, and the no-hung-futures guarantee.

The regression this suite pins hardest: under the pre-supervision
writer, one exception killed the loop and every queued future hung
forever.  Now every path out of the writer — a supervised batch
failure, an injected crash, :meth:`stop`, :meth:`kill`, task
cancellation mid-collection — must resolve every pending future with
a typed error, promptly.
"""

import asyncio

import pytest

from repro.core.commands import grant_cmd, revoke_cmd
from repro.serve import (
    PolicyDecisionPoint,
    ServiceStopped,
    WriterFailed,
    WriterSupervisor,
)
from repro.workloads.faults import FAULTS, CrashInjected

from .conftest import (
    ADMIN,
    ManualClock,
    R,
    S,
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


class TestSupervisorStateMachine:
    def test_backoff_ladder_then_breaker(self):
        clock = ManualClock()
        supervisor = WriterSupervisor(
            base_delay=0.05, factor=2.0, max_delay=5.0,
            breaker_threshold=4, breaker_reset=30.0, clock=clock,
        )
        error = RuntimeError("boom")
        assert supervisor.record_failure(error) == pytest.approx(0.05)
        assert supervisor.health == "backoff"
        assert supervisor.record_failure(error) == pytest.approx(0.10)
        assert supervisor.record_failure(error) == pytest.approx(0.20)
        assert supervisor.allow_attempt()
        # the fourth consecutive failure opens the breaker: no more
        # sleeping, writes shed instead
        assert supervisor.record_failure(error) == 0.0
        assert supervisor.health == "degraded"
        assert supervisor.breaker_trips == 1
        assert not supervisor.allow_attempt()
        assert not supervisor.accepting
        # half-open probe after the reset window
        clock.advance(30.0)
        assert supervisor.allow_attempt()
        assert supervisor.accepting
        # a failed probe re-opens the breaker and restarts its clock
        assert supervisor.record_failure(error) == 0.0
        assert not supervisor.allow_attempt()
        clock.advance(30.0)
        supervisor.record_success()
        assert supervisor.health == "serving"
        assert supervisor.restarts == 1
        assert supervisor.consecutive_failures == 0

    def test_backoff_delay_is_capped(self):
        supervisor = WriterSupervisor(
            base_delay=1.0, factor=10.0, max_delay=3.0,
            breaker_threshold=10,
        )
        error = RuntimeError("boom")
        supervisor.record_failure(error)
        assert supervisor.record_failure(error) == 3.0

    def test_force_degrade_opens_immediately(self):
        clock = ManualClock()
        supervisor = WriterSupervisor(breaker_threshold=5, clock=clock)
        supervisor.force_degrade("wal resync failed")
        assert supervisor.health == "degraded"
        assert supervisor.breaker_trips == 1
        assert not supervisor.accepting
        assert supervisor.snapshot()["last_error"] == "wal resync failed"

    def test_terminal_states(self):
        supervisor = WriterSupervisor()
        supervisor.mark_dead("killed")
        assert not supervisor.accepting
        supervisor.mark_stopped()  # dead is sticky
        assert supervisor.health == "dead"
        fresh = WriterSupervisor()
        fresh.mark_stopped()
        assert fresh.health == "stopped"
        assert not fresh.accepting

    def test_threshold_validated(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="breaker_threshold"):
            WriterSupervisor(breaker_threshold=0)


class TestSupervisedWriter:
    def test_batch_failure_fails_only_that_batch(self):
        """An injected recoverable failure fails the doomed batch's
        futures typed — and the very next batch applies normally."""

        async def scenario():
            pdp = _pdp()
            FAULTS.arm("writer.before_apply", "fail", times=1)
            async with pdp:
                with pytest.raises(WriterFailed) as caught:
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                assert caught.value.health in ("backoff", "serving")
                record = await pdp.submit(grant_cmd(ADMIN, U, R))
                assert record.executed
                stats = pdp.statistics()
                assert stats["writer_failures"] == 1
                assert stats["writer"]["health"] == "serving"
                assert stats["writer"]["restarts"] == 1

        run(scenario())

    def test_crash_loop_opens_breaker_and_sheds_writes(self):
        async def scenario():
            pdp = _pdp()  # breaker_threshold=3, base_delay=0
            FAULTS.arm("writer.before_apply", "fail", times=3)
            async with pdp:
                for _ in range(3):
                    with pytest.raises(WriterFailed):
                        await pdp.submit(grant_cmd(ADMIN, U, R))
                assert pdp.health == "degraded"
                # breaker open: the submit sheds before enqueueing
                with pytest.raises(WriterFailed) as caught:
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                assert caught.value.health == "degraded"
                assert pdp.metrics.writer_shed >= 1
                # reads keep serving at the pinned snapshot
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.allowed

        run(scenario())

    def test_breaker_half_open_probe_recovers(self):
        async def scenario():
            supervisor = WriterSupervisor(
                base_delay=0.0, breaker_threshold=2, breaker_reset=0.0
            )
            pdp = _pdp(supervisor=supervisor)
            FAULTS.arm("writer.before_apply", "fail", times=2)
            async with pdp:
                for _ in range(2):
                    with pytest.raises(WriterFailed):
                        await pdp.submit(grant_cmd(ADMIN, U, R))
                assert pdp.health == "degraded"
                # breaker_reset=0: the next attempt is the half-open
                # probe, the fault budget is spent, so it closes
                record = await pdp.submit(grant_cmd(ADMIN, U, R))
                assert record.executed
                assert pdp.health == "serving"

        run(scenario())

    def test_injected_crash_is_fatal_and_typed(self):
        async def scenario():
            pdp = _pdp()
            FAULTS.arm("writer.before_apply", "crash", times=1)
            async with pdp:
                with pytest.raises(WriterFailed) as caught:
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                assert caught.value.health == "dead"
                assert isinstance(caught.value.cause, CrashInjected)
                assert pdp.health == "dead"
                # post-death submits shed typed, immediately
                with pytest.raises(ServiceStopped):
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                # reads still answer (degraded read-only mode)
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.allowed

        run(scenario())


class TestNoHungFutures:
    def test_kill_fails_in_flight_and_queued_futures(self):
        """The regression test the issue names: futures pending when
        the writer dies resolve typed."""

        async def scenario():
            # the writer is gated, so the submissions are still queued
            # when kill() lands
            pdp = _pdp()
            gate_writer(pdp)
            await pdp.start()
            task = asyncio.ensure_future(pdp.submit_many([
                grant_cmd(ADMIN, U, R), grant_cmd(ADMIN, ADMIN, S),
            ]))
            await asyncio.sleep(0.01)
            pdp.kill()
            with pytest.raises(ServiceStopped):
                await asyncio.wait_for(task, timeout=1.0)
            assert pdp.health == "dead"

        run(scenario())

    def test_crash_mid_trace_fails_every_pending_future(self):
        async def scenario():
            pdp = _pdp(max_batch=2)
            FAULTS.arm("writer.before_apply", "crash", times=1)
            async with pdp:
                futures = [
                    asyncio.ensure_future(
                        pdp.submit(grant_cmd(ADMIN, U, R))
                    )
                    for _ in range(6)
                ]
                done, pending = await asyncio.wait(futures, timeout=1.0)
                assert not pending, "futures hung past writer death"
                for future in done:
                    assert isinstance(
                        future.exception(), (WriterFailed, ServiceStopped)
                    )

        run(scenario())

    def test_stop_applies_queued_work_then_stops(self):
        async def scenario():
            pdp = _pdp()
            gate = gate_writer(pdp)
            await pdp.start()
            task = asyncio.ensure_future(pdp.submit_many([
                grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R),
            ]))
            await asyncio.sleep(0.01)
            assert not task.done()  # still queued behind the gate
            gate.set()
            await asyncio.wait_for(pdp.stop(), timeout=2.0)
            records = await asyncio.wait_for(task, timeout=1.0)
            assert [r.executed for r in records] == [True, True]
            assert pdp.health == "stopped"
            with pytest.raises(ServiceStopped):
                await pdp.submit(grant_cmd(ADMIN, U, R))

        run(scenario())

    def test_error_escaping_the_writer_fails_its_batch(self):
        """An error raised by the failure path itself ends the writer
        loop while it holds a batch: the drain must still resolve that
        batch's futures, typed."""

        async def scenario():
            pdp = _pdp()

            def broken_publish(fresh=True):
                raise RuntimeError("publish failed")

            pdp._publish = broken_publish
            FAULTS.arm("writer.before_apply", "fail", times=1)
            await pdp.start()
            with pytest.raises(ServiceStopped):
                await asyncio.wait_for(
                    pdp.submit(grant_cmd(ADMIN, U, R)), timeout=1.0
                )
            with pytest.raises(RuntimeError):
                await pdp._writer
            pdp.kill()

        run(scenario())

    def test_stop_after_death_does_not_hang(self):
        async def scenario():
            pdp = _pdp()
            FAULTS.arm("writer.before_apply", "crash", times=1)
            async with pdp:
                with pytest.raises(WriterFailed):
                    await pdp.submit(grant_cmd(ADMIN, U, R))
            # __aexit__ ran stop() against a dead writer: reaching
            # here without a timeout is the assertion
            assert pdp.health == "dead"

        run(asyncio.wait_for(scenario(), timeout=2.0))

    def test_refresh_futures_fail_typed_on_breaker(self):
        async def scenario():
            supervisor = WriterSupervisor(
                base_delay=0.0, breaker_threshold=1, breaker_reset=60.0
            )
            pdp = _pdp(supervisor=supervisor)
            FAULTS.arm("writer.before_apply", "fail", times=1)
            async with pdp:
                with pytest.raises(WriterFailed):
                    await pdp.submit(grant_cmd(ADMIN, U, R))
                assert pdp.health == "degraded"
                with pytest.raises((WriterFailed, ServiceStopped)):
                    await asyncio.wait_for(pdp.refresh(), timeout=1.0)

        run(scenario())
