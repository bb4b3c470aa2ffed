"""The asyncio policy-decision-point (PDP).

The serving layer the ROADMAP calls for: one
:class:`~repro.core.monitor.ReferenceMonitor` behind an asyncio
front, split into a **single writer** and **lock-free readers**.

Writer side
    Every mutation goes through :meth:`PolicyDecisionPoint.submit`,
    which enqueues the command and returns a future.  One writer task
    drains the queue by group commit: it takes the first queued
    command, then whatever else is already queued (up to
    ``max_batch``), and closes the batch as soon as the queue is
    empty — no timer holds a lone write back.  Batches still form
    under load, because commands queue up while the previous batch
    applies and fsyncs.  Each batch executes as one
    ``submit_queue(batched=True)`` transaction, so one
    ``authorizes_batch`` call authorizes the whole batch against its
    entry state — the policy at the version published before the
    batch (:attr:`PolicyDecisionPoint.last_snapshot` captures it).
    After each pass the writer *publishes* the policy's version: it
    records the number and stamps the time, nothing more.  The
    per-request futures resolve to the returned
    :class:`ExecutionRecord`\\ s in queue order.

Reader side
    :meth:`check` / :meth:`check_many` never touch the writer's index.
    They decide against a
    :class:`~repro.core.authz_index.ReviewSnapshot` of the published
    version, which the first reader of that version *materializes*:
    the policy is cloned copy-on-write, the clone's index is a fork of
    the live one (the live index repairs its dirty region, patching
    only the rectangle rows of stale privileges, and shares every
    rectangle with the fork), and the decision cache advances over the
    journal window since the last materialized version.  A run of
    batches nobody reads therefore costs no capture at all, and the
    next reader pays one clone, one fork and one cache advance for the
    whole run.  Should the live policy have moved past the published
    version without publishing (a writer that died after its apply,
    out-of-band churn awaiting :meth:`~PolicyDecisionPoint.refresh`,
    a :meth:`~PolicyDecisionPoint.rollback` in progress), the snapshot
    is taken of the policy rewound through its change journal
    (:meth:`~repro.core.policy.Policy.rewound`), so a reader never sees
    a version that was not published.  A snapshot is an immutable
    object, so no locks, and requests arriving within one event-loop
    tick accumulate into a read window answered by a single
    ``authorizes_batch`` sweep.  A read is therefore pinned to one
    policy version, reported on its :class:`Decision` along with the
    age of its publication (``staleness``).

Fault tolerance
    With a :class:`~repro.serve.wal.PolicyWal` attached, every
    accepted batch is hash-chained to disk and fsync'd **before** its
    futures resolve, and :meth:`PolicyDecisionPoint.recover` rebuilds
    policy + index + snapshot from the log alone by deterministic
    replay.  The writer runs supervised
    (:class:`~repro.serve.supervisor.WriterSupervisor`): a per-batch
    failure fails only that batch's futures with a typed
    :class:`~repro.serve.supervisor.WriterFailed` and the writer
    retries under exponential backoff; a crash loop opens a circuit
    breaker and the service degrades to read-only — snapshot reads
    keep answering at the pinned stale version (staleness reported,
    optionally bounded by ``max_staleness``) while writes shed fast.
    Backpressure is a bounded submit queue
    (:class:`~repro.serve.supervisor.QueueFull` carries
    ``retry_after``) plus per-request deadlines (``submit(...,
    timeout=)`` / ``check(..., deadline=)``).  No future ever hangs:
    shutdown, writer death and :meth:`kill` all resolve every pending
    future with a typed error.

In between sits the :class:`~repro.serve.cache.DecisionCache`
(journal-invalidated, selectively evicted on publication — see that
module for the soundness argument), a per-principal
:class:`~repro.serve.ratelimit.RateLimiter` with an injectable clock,
and a :class:`~repro.serve.metrics.PdpMetrics` registry.

Conformance is pinned the repo's established way: the suite in
``tests/serve/`` holds PDP decisions element-for-element identical to
a synchronous :class:`ReferenceMonitor` on replayed traces, fuzz
invariant 14 (:func:`repro.workloads.fuzz.fuzz_pdp`) interleaves
mutation bursts with concurrent read batches under churn on both
kernels, reading every past state from the WAL, and fuzz invariant 15
(:func:`repro.workloads.fuzz.fuzz_crash_recovery`) kills the PDP at
every fault-injection point mid-trace and pins the recovered state
byte-identical to an uninterrupted oracle run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..core.authz_index import ReviewSnapshot
from ..core.commands import Command, CommandAction, ExecutionRecord, Mode
from ..core.entities import User
from ..core.monitor import ReferenceMonitor
from ..core.privileges import Grant, Privilege, Revoke
from ..errors import ReproError
from ..workloads.faults import FAULTS, CrashInjected
from .cache import DecisionCache
from .metrics import PdpMetrics
from .ratelimit import RateLimited, RateLimiter
from .supervisor import (
    DeadlineExceeded,
    QueueFull,
    ServiceStopped,
    SnapshotTooStale,
    WriterFailed,
    WriterSupervisor,
)
from .wal import (
    PolicyWal,
    iter_wal,
    read_wal,
    repair_torn_tail,
    replay_wal,
    state_at,
    verify_chain,
)

__all__ = ["Decision", "PolicyDecisionPoint", "as_command"]


@dataclass(frozen=True)
class Decision:
    """One PDP read verdict, pinned to the snapshot that made it."""

    allowed: bool
    #: the privilege that authorized the request (None when denied).
    authorized_by: Privilege | None
    #: the policy version the decision was made at.
    version: int
    #: True when the verdict came from the decision cache.
    cached: bool = False
    #: age of the answering snapshot in clock seconds — how long ago
    #: the version this decision is pinned to was published.  Grows
    #: while the writer is down or recovering (the degraded read-only
    #: mode); ~0 on a healthy write path.
    staleness: float = 0.0


def as_command(subject: User, request, target=None) -> Command:
    """Normalize a read request to a :class:`Command`.

    Accepts a :class:`Command` as-is (re-issued on behalf of
    ``subject``), a privilege term (``Grant(v, v')`` / ``Revoke(v,
    v')`` — "may ``subject`` exercise this?"), or an
    ``("grant"|"revoke", source, target)`` triple spelled as two
    arguments."""
    if isinstance(request, Command):
        if request.user == subject:
            return request
        return Command(
            subject, request.action, request.source, request.target
        )
    if isinstance(request, (Grant, Revoke)):
        action = (
            CommandAction.GRANT if isinstance(request, Grant)
            else CommandAction.REVOKE
        )
        source, privilege_target = request.edge
        return Command(subject, action, source, privilege_target)
    if isinstance(request, str) and target is not None:
        action = CommandAction(request)
        return Command(subject, action, target[0], target[1])
    raise ReproError(
        f"cannot interpret decision request {request!r} "
        "(expected a Command, a Grant/Revoke term, or "
        "('grant'|'revoke', (source, target)))"
    )


_REFRESH = object()  # writer-queue marker: publish without mutating
_SHUTDOWN = object()


class PolicyDecisionPoint:
    """An asyncio PDP over one index-backed refined monitor.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`); all coroutine methods must run on the loop that
    started it.  ``clock`` feeds the rate limiter, the latency
    histograms, the staleness surface and the supervisor's breaker,
    so a manual clock makes the whole surface deterministic.

    Durability: pass ``wal`` (a :class:`~repro.serve.wal.PolicyWal`
    or a path) to hash-chain every accepted batch to disk.  An empty
    log gets a genesis record of the current policy; a non-empty log
    gets a ``rebase`` anchor, so the chain always resumes from the
    exact live policy (:meth:`recover` relies on this).  The log is
    the only history: :func:`~repro.serve.wal.state_at` rebuilds a
    logged version and :meth:`rollback` restores one.  ``queue_limit``
    bounds the submit queue (load shedding via
    :class:`~repro.serve.supervisor.QueueFull`); ``max_staleness``
    bounds degraded reads (:class:`SnapshotTooStale` once the
    published snapshot is older while the writer is unhealthy).
    """

    def __init__(
        self,
        monitor: ReferenceMonitor | None = None,
        *,
        policy=None,
        max_batch: int = 64,
        rate_limiter: RateLimiter | None = None,
        cache_size: int = 65536,
        clock=time.monotonic,
        wal: PolicyWal | str | None = None,
        queue_limit: int | None = None,
        max_staleness: float | None = None,
        supervisor: WriterSupervisor | None = None,
    ):
        if monitor is None:
            if policy is None:
                raise ReproError("PolicyDecisionPoint needs a monitor or a policy")
            monitor = ReferenceMonitor(
                policy, mode=Mode.REFINED, use_index=True
            )
        if monitor.mode is not Mode.REFINED or monitor._index is None:
            raise ReproError(
                "PolicyDecisionPoint requires an index-backed refined "
                "monitor (mode=Mode.REFINED, use_index=True): the "
                "writer rides the batched submit-queue transaction"
            )
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit is not None and queue_limit < 1:
            raise ReproError(
                f"queue_limit must be >= 1 or None, got {queue_limit}"
            )
        self.monitor = monitor
        self.max_batch = max_batch
        self.limiter = rate_limiter
        self.clock = clock
        self.metrics = PdpMetrics()
        self.cache = DecisionCache(monitor.policy, max_entries=cache_size)
        self.queue_limit = queue_limit
        self.max_staleness = max_staleness
        self.supervisor = supervisor or WriterSupervisor(clock=clock)
        self.wal: PolicyWal | None = None
        if wal is not None:
            if not isinstance(wal, PolicyWal):
                wal = PolicyWal(wal)
            if wal.next_seq == 0:
                wal.append_genesis(monitor.policy)
            else:
                # Re-anchor: whatever history precedes (a recovery, an
                # operator reattach), replay resumes from this exact
                # live policy — never from a silently diverged one.
                wal.append_rebase(monitor.policy)
            self.wal = wal
        #: the last materialized reader snapshot (:meth:`_materialize`)
        #: and the version the writer last published; the snapshot
        #: lags while nobody reads.
        self._snapshot = ReviewSnapshot(monitor.policy)
        self._published = self._snapshot.version
        #: a published version the journal no longer reached back to.
        self._unreachable: int | None = None
        self._published_at = self.clock()
        #: (command or _REFRESH, future, enqueue clock) entries, plus
        #: the _SHUTDOWN marker.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._writer: asyncio.Task | None = None
        #: the batch the writer is currently applying — entries here
        #: left the queue, so the drain must cover them too or an error
        #: escaping the writer loop would leak their futures.
        self._inflight: list | None = None
        self._window: list[tuple[User, Command, asyncio.Future]] = []
        self._drain_scheduled = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PolicyDecisionPoint":
        if self._writer is not None:
            raise ReproError("PolicyDecisionPoint already started")
        if self.supervisor.health == "dead":
            raise ServiceStopped(self.supervisor.last_error or "dead")
        self._stopping = False
        self._writer = asyncio.get_running_loop().create_task(
            self._writer_loop()
        )
        return self

    async def stop(self) -> None:
        """Drain the mutation queue, apply the final batch, stop.

        Never hangs and never leaks: if the writer already died, the
        queued futures were failed at death; a cleanly stopping writer
        applies everything queued ahead of the shutdown marker and the
        loop's exit path fails anything that could remain.  A PDP
        that was never started (a :meth:`recover`\\ ed one inspected
        without serving) only closes its WAL handle."""
        if self._writer is None:
            if self.wal is not None:
                self.wal.close()
            return
        self._stopping = True
        writer = self._writer
        if not writer.done():
            self._queue.put_nowait(_SHUTDOWN)
        try:
            await writer
        except asyncio.CancelledError:
            pass
        self._writer = None
        self.supervisor.mark_stopped()
        if self.wal is not None:
            self.wal.close()

    def kill(self) -> None:
        """Abrupt death — the crash campaigns' kill switch, and the
        operator's last resort.  Cancels the writer without draining,
        fails every pending future with
        :class:`~repro.serve.supervisor.ServiceStopped` (no hangs, no
        leaks), and closes the WAL handle.  In-memory state is
        abandoned: bring the service back with :meth:`recover`."""
        self.supervisor.mark_dead("killed")
        self._stopping = True
        writer, self._writer = self._writer, None
        if writer is not None and not writer.done():
            writer.cancel()
        self._drain_pending()
        if self.wal is not None:
            self.wal.close()

    async def __aenter__(self) -> "PolicyDecisionPoint":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @classmethod
    def recover(
        cls,
        path,
        *,
        expected_head: str | None = None,
        **kwargs,
    ) -> "PolicyDecisionPoint":
        """Rebuild a PDP from its write-ahead log alone.

        Truncates a torn tail (the one legitimate crash artifact —
        that batch was never acknowledged), verifies the full hash
        chain (against ``expected_head`` when an external anchor is
        known), deterministically replays every record through
        ``submit_queue(batched=True)``
        (:func:`~repro.serve.wal.replay_wal` — outcome and version
        tripwires included), and returns an **unstarted** PDP whose
        policy, index and published snapshot are byte-identical to the
        pre-crash service at its durable prefix (fuzz invariant 15).
        The log is reattached with a ``rebase`` anchor, so the chain
        continues across the crash.  ``kwargs`` pass through to the
        constructor (``max_batch``, ``rate_limiter``, ...); call
        :meth:`start` (or enter the context manager) to serve.  Each
        pass streams the log, so recovery never holds all of its
        records in memory at once."""
        path = str(path)
        repair_torn_tail(path)
        verify_chain(iter_wal(path), expected_head=expected_head)
        monitor = replay_wal(iter_wal(path))
        return cls(monitor, wal=PolicyWal(path), **kwargs)

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    async def submit(
        self, command: Command, *, timeout: float | None = None
    ) -> ExecutionRecord:
        """Queue one mutation; resolves when its micro-batch applied
        (durably, when a WAL is attached).  ``timeout`` bounds the
        wait in real loop seconds — on expiry
        :class:`DeadlineExceeded` is raised, with the usual write
        ambiguity (the batch may still apply)."""
        [record] = await self.submit_many([command], timeout=timeout)
        return record

    async def submit_many(
        self, commands, *, timeout: float | None = None
    ) -> list[ExecutionRecord]:
        """Queue several mutations (still individually batched — the
        writer may coalesce them with other principals' commands).

        Sheds before spending anything: a stopped/dead service raises
        :class:`ServiceStopped`, an open circuit breaker
        :class:`WriterFailed`, a full bounded queue
        :class:`QueueFull` (with ``retry_after``), an already-expired
        ``timeout`` :class:`DeadlineExceeded` — all ahead of the
        rate-limiter spend and the enqueue."""
        commands = list(commands)
        self._require_running()
        if not self.supervisor.accepting:
            self.metrics.writer_shed += len(commands)
            raise WriterFailed(
                "circuit breaker open; writes shed while degraded",
                health=self.supervisor.health,
            )
        if timeout is not None and timeout <= 0:
            self.metrics.deadline_expired += 1
            raise DeadlineExceeded("submit", 0.0)
        if not commands:
            return []
        if (
            self.queue_limit is not None
            and len(commands) > self.queue_limit
        ):
            # Not QueueFull: the batch exceeds the queue bound on its
            # own, so no amount of retrying can ever fit it.
            raise ReproError(
                f"batch of {len(commands)} commands exceeds "
                f"queue_limit {self.queue_limit} and can never be "
                "accepted; split it"
            )
        depth = self._queue.qsize()
        if (
            self.queue_limit is not None
            and depth + len(commands) > self.queue_limit
        ):
            self.metrics.queue_shed += 1
            # Before the first batch there is no apply latency to go
            # by: the histogram's smallest bucket keeps the hint > 0.
            applied = self.metrics.batch_apply_latency
            per_batch = applied.mean or applied.start
            batches_ahead = depth // self.max_batch + 1
            raise QueueFull(
                depth, self.queue_limit,
                retry_after=per_batch * batches_ahead,
            )
        if self.limiter is not None:
            # One atomic acquisition per principal for its whole share
            # of the batch: a rejected principal spends nothing, so a
            # retry after backoff cannot be starved by the front of
            # its own batch re-spending the refill.
            needed: dict[User, int] = {}
            for command in commands:
                needed[command.user] = needed.get(command.user, 0) + 1
            for principal, tokens in needed.items():
                try:
                    self.limiter.check(principal, float(tokens))
                except RateLimited:
                    self.metrics.rate_limited += 1
                    raise
        loop = asyncio.get_running_loop()
        started = self.clock()
        futures = []
        for command in commands:
            future = loop.create_future()
            futures.append(future)
            self._queue.put_nowait((command, future, started))
        if timeout is not None:
            done, pending = await asyncio.wait(futures, timeout=timeout)
            if pending:
                for future in pending:
                    future.cancel()
                for future in done:
                    if not future.cancelled():
                        future.exception()  # retrieved, not leaked
                self.metrics.deadline_expired += 1
                raise DeadlineExceeded("submit", timeout)
        results = await asyncio.gather(*futures, return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        self.metrics.mutation_latency.observe(self.clock() - started)
        return list(results)

    async def refresh(self) -> int:
        """Publish the current policy state without mutating — the hook
        for out-of-band policy churn (tests, migrations); until then,
        readers keep answering at the version published before the
        churn.  Routed through the writer queue so publication order
        stays single-writer; with a WAL attached the drifted policy is
        re-anchored with a ``rebase`` record before publication.
        Returns the published version."""
        self._require_running()
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((_REFRESH, future, None))
        await future
        return self._published

    async def rollback(self, version: int) -> int:
        """Restore the live policy, in place, to its logged state at
        ``version`` (:func:`~repro.serve.wal.state_at` over the verified
        WAL), then :meth:`refresh`: its drift ``rebase`` makes the
        rollback durable at a new, higher version, which it returns.
        Raises :class:`ReproError` with the policy untouched when there
        is no WAL, the WAL is poisoned, its chain does not verify to
        the handle's head, or no record lands on ``version``.  Commands
        queued ahead of the refresh apply on the rolled-back state;
        reads answer at the version published before the rollback
        until the refresh publishes it."""
        wal = self.wal
        if wal is None:
            raise ReproError("rollback needs a WAL: the log is the history")
        if wal.poisoned is not None:
            raise ReproError(f"rollback refused: {wal.poisoned}")
        self._require_running()
        if not self.supervisor.accepting:
            raise WriterFailed(
                "circuit breaker open; rollback refused while degraded",
                health=self.supervisor.health,
            )
        records, _ = read_wal(wal.path)
        verify_chain(records, expected_head=wal.head)
        target = state_at(records, version)
        policy = self.monitor.policy
        target_edges = target.edge_set()
        for edge in policy.edge_set() - target_edges:
            policy.remove_edge(*edge)
        for edge in target_edges:
            if not policy.has_edge(*edge):
                policy.add_edge(*edge)
        graph = policy.graph
        target_vertices = target.vertex_set()
        for vertex in target_vertices:
            graph.add_vertex(vertex)
        # Vertices created after ``version`` (a user or role a later
        # grant introduced) have no edges left by now; drop them too.
        for vertex in policy.vertex_set() - target_vertices:
            graph.remove_vertex(vertex)
        return await self.refresh()

    def _require_running(self) -> None:
        """Raise :class:`ServiceStopped` unless the writer task runs:
        before :meth:`start`, and once stopping, stopped or dead."""
        if (
            self._writer is None
            or self._stopping
            or self.supervisor.health in ("stopped", "dead")
        ):
            raise ServiceStopped(
                "killed" if self.supervisor.health == "dead" else "stopped"
            )

    async def _writer_loop(self) -> None:
        try:
            while True:
                item = await self._queue.get()
                if item is _SHUTDOWN:
                    break
                batch = [item]
                self._inflight = batch
                shutdown = False
                # Group commit: take only what is already queued.
                while len(batch) < self.max_batch and not self._queue.empty():
                    item = self._queue.get_nowait()
                    if item is _SHUTDOWN:
                        shutdown = True
                        break
                    batch.append(item)
                if not self.supervisor.allow_attempt():
                    # Breaker open: shed the whole batch fast, typed.
                    self.metrics.writer_shed += len(batch)
                    self._fail_batch(batch, WriterFailed(
                        "circuit breaker open; batch shed",
                        health=self.supervisor.health,
                    ))
                else:
                    try:
                        self._apply_batch(batch)
                        self.supervisor.record_success()
                    except CrashInjected as crash:
                        # A simulated kill -9: fatal, no retry.  The
                        # death path below is fully synchronous, so no
                        # submit can slip between it and the drain.
                        self._die(str(crash), batch, crash)
                        return
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        try:
                            delay = self._handle_batch_failure(batch, error)
                        except CrashInjected as crash:
                            self._die(str(crash), batch, crash)
                            return
                        if delay > 0:
                            await asyncio.sleep(delay)
                if shutdown:
                    break
        except asyncio.CancelledError:
            if self.supervisor.health != "dead":
                self.supervisor.mark_dead("writer task cancelled")
            raise
        finally:
            # Whatever path ended the loop, nothing queued may hang.
            self._drain_pending()
            self.supervisor.mark_stopped()

    def _apply_batch(self, batch) -> None:
        """Execute one micro-batch as a submit-queue transaction,
        make it durable, and publish the post-batch version (the
        snapshot waits for its first reader, :meth:`_materialize`).
        Synchronous on purpose: the whole apply/log/publish step
        happens within one event-loop tick, so readers see either the
        old or the new version, never an intermediate — and futures
        resolve only *after* the fsync, so an acknowledged mutation
        is on disk."""
        depth = self._queue.qsize()
        refreshes = [entry for entry in batch if entry[0] is _REFRESH]
        entries = [entry for entry in batch if entry[0] is not _REFRESH]
        commands = [command for command, _, _ in entries]
        apply_started = self.clock()
        for _, _, enqueued in entries:
            self.metrics.queue_wait_latency.observe(apply_started - enqueued)
        if FAULTS.active:
            FAULTS.hit("writer.before_apply")
        if (
            self.wal is not None
            and self.wal.last_version != self.monitor.policy.version
        ):
            # Out-of-band churn since the last append (refresh(), or
            # direct monitor use): anchor the drifted policy so replay
            # sees the same batch-entry state the kernel does.
            self.wal.append_rebase(self.monitor.policy)
        if commands:
            records = self.monitor.submit_queue(commands, batched=True)
            self.metrics.observe_write_batch(len(commands), depth)
        else:
            records = []
        if FAULTS.active:
            FAULTS.hit("writer.after_apply")
        if self.wal is not None and commands:
            wal_started = self.clock()
            self.wal.append_batch(
                commands,
                [(record.executed, record.noop) for record in records],
                self.monitor.policy.version,
            )
            self.metrics.wal_appends += 1
            self.metrics.wal_append_latency.observe(
                self.clock() - wal_started
            )
        if FAULTS.active:
            FAULTS.hit("writer.before_publish")
        self._publish()
        self.metrics.batch_apply_latency.observe(
            self.clock() - apply_started
        )
        if FAULTS.active:
            FAULTS.hit("writer.before_resolve")
        for (_, future, _), record in zip(entries, records):
            if not future.done():
                future.set_result(record)
        for _, future, _ in refreshes:
            if not future.done():
                future.set_result(None)

    def _handle_batch_failure(self, batch, error: Exception) -> float:
        """Per-batch supervision: fail only this batch's futures
        (typed), resync the WAL if the apply half-landed, republish,
        and hand back the supervisor's backoff delay."""
        self.metrics.writer_failures += 1
        delay = self.supervisor.record_failure(error)
        self._resync_wal()
        # Publish whatever state exists: a failure after the apply
        # mutated the policy must still reach readers (and the decision
        # cache, when they materialize it).  fresh=False: unless the
        # version actually advanced, this republish must not reset the
        # staleness clock — a writer stuck failing would otherwise
        # keep reported staleness near zero during exactly the outage
        # max_staleness is meant to bound.
        self._publish(fresh=False)
        self._fail_batch(batch, WriterFailed(
            "batch apply failed",
            health=self.supervisor.health,
            cause=error,
        ))
        return delay

    def _resync_wal(self) -> None:
        """After a mid-batch failure the policy may hold mutations the
        log never saw (applied, then the append failed).  A ``rebase``
        record closes that durability gap; if even the rebase cannot
        be written, the breaker is forced open — accepting more writes
        would only widen the gap, while reads stay safe."""
        wal = self.wal
        if wal is None or wal.last_version == self.monitor.policy.version:
            return
        try:
            wal.append_rebase(self.monitor.policy)
        except CrashInjected:
            raise
        except Exception as resync_error:
            self.supervisor.force_degrade(
                f"WAL resync failed: {resync_error}"
            )

    def _fail_batch(self, batch, error: ReproError) -> None:
        for _, future, _ in batch:
            if not future.done():
                future.set_exception(error)

    def _die(self, reason: str, batch, cause: Exception) -> None:
        """Fatal writer death (simulated process kill): mark dead and
        fail the in-flight batch.  Runs synchronously — by the time
        any other coroutine runs, the health is ``dead`` and every
        pending future is resolved with a typed error."""
        self.supervisor.mark_dead(reason)
        self._fail_batch(batch, WriterFailed(
            reason, health="dead", cause=cause,
        ))

    def _drain_pending(self) -> None:
        """Fail everything still queued — no future survives the
        writer.  The hung-future fix: stop(), kill() and every death
        path funnel through here."""
        if self.supervisor.health == "dead":
            error = ServiceStopped(self.supervisor.last_error or "dead")
        else:
            error = ServiceStopped("stopped")
        inflight, self._inflight = self._inflight, None
        if inflight:
            # Resolved entries are skipped by the done() guard, so a
            # stale pointer to an applied batch is harmless.
            for _, future, _ in inflight:
                if not future.done():
                    future.set_exception(error)
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _SHUTDOWN:
                continue
            _, future, _ = item
            if not future.done():
                future.set_exception(error)

    def _publish(self, fresh: bool = True) -> None:
        """Publish the current policy version: record it, and stamp the
        publication time.  No snapshot is captured and the decision
        cache does not move; the first reader of the version does both
        (:meth:`_materialize`).

        ``fresh=True`` (every successful pass through the writer,
        batches and refreshes alike) restamps ``_published_at``; the
        failure path passes False so the staleness clock only resets
        when the version actually advanced — a same-version republish
        from a failing writer proves nothing about freshness."""
        version = self.monitor.policy.version
        if version != self._published:
            self._published = version
            self.metrics.publications += 1
            fresh = True
        if fresh:
            self._published_at = self.clock()

    def _materialize(self) -> ReviewSnapshot:
        """The reader snapshot at the published version, captured on
        the first read of that version, and the decision cache advanced
        to it.  Every reader path goes through here.

        The live policy is normally still at the published version, and
        the snapshot is a :class:`ReviewSnapshot` of it.  When the
        policy has moved past it without a publication, the snapshot is
        taken of the policy rewound through its journal
        (:meth:`~repro.core.policy.Policy.rewound`).  Should the journal
        no longer reach back, reads keep the last materialized snapshot
        until the next publication (``rewind_misses`` counts such
        versions)."""
        snapshot = self._snapshot
        version = self._published
        if snapshot.version == version or version == self._unreachable:
            return snapshot
        policy = self.monitor.policy
        if policy.version != version:
            policy = policy.rewound(version)
            if policy is None:
                self._unreachable = version
                self.metrics.rewind_misses += 1
                return snapshot
            self.metrics.rewinds += 1
        snapshot = self._snapshot = ReviewSnapshot(policy)
        self.metrics.materializations += 1
        self.cache.advance(version)
        return snapshot

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The currently published policy version."""
        return self._published

    @property
    def last_snapshot(self) -> ReviewSnapshot:
        """The reader snapshot at the published version, materialized
        on this read if no reader has captured it yet."""
        return self._materialize()

    @property
    def health(self) -> str:
        """The writer's health state (see
        :class:`~repro.serve.supervisor.WriterSupervisor`)."""
        return self.supervisor.health

    def _staleness(self) -> float:
        """Clock seconds since the current version was published."""
        return max(0.0, self.clock() - self._published_at)

    async def check(
        self, subject: User, request, target=None, *,
        deadline: float | None = None,
    ) -> Decision:
        """Decide one request for ``subject`` against the latest
        published snapshot (see :func:`as_command` for accepted
        request shapes).  Raises :class:`RateLimited` when the
        subject's bucket is empty, :class:`DeadlineExceeded` when
        ``deadline`` (a ``clock()`` timestamp) has already passed —
        checked at entry, before any cache or index work."""
        [decision] = await self.check_many(
            subject, [(request, target)], deadline=deadline
        )
        return decision

    async def check_many(
        self, subject: User, requests, *, deadline: float | None = None
    ) -> list[Decision]:
        """Batch :meth:`check`: one rate-limit acquisition of
        ``len(requests)`` tokens, one cache pass, and the misses ride
        the shared read window's ``authorizes_batch`` sweep.

        Reads keep answering while the writer is down (the degraded
        read-only mode) — pinned to the last published snapshot, with
        the growing ``staleness`` reported per decision and bounded by
        ``max_staleness`` (:class:`SnapshotTooStale`) when configured."""
        now = self.clock()
        if deadline is not None and now >= deadline:
            self.metrics.deadline_expired += 1
            raise DeadlineExceeded("check", now - deadline)
        staleness = self._staleness()
        if (
            self.max_staleness is not None
            and staleness > self.max_staleness
            and self.supervisor.health != "serving"
        ):
            raise SnapshotTooStale(staleness, self.max_staleness)
        commands = []
        for request in requests:
            if isinstance(request, tuple) and len(request) == 2 and (
                isinstance(request[0], (Command, Grant, Revoke, str))
            ):
                commands.append(as_command(subject, request[0], request[1]))
            else:
                commands.append(as_command(subject, request))
        if not commands:
            return []
        if self.limiter is not None:
            try:
                self.limiter.check(subject, float(len(commands)))
            except RateLimited:
                self.metrics.rate_limited += 1
                raise
        started = self.clock()
        self._materialize()  # the cache answers at the published version
        decisions: list = [None] * len(commands)
        pending: list[asyncio.Future] = []
        positions: list[int] = []
        for position, command in enumerate(commands):
            hit = self.cache.get(subject, command)
            if hit is not None:
                self.metrics.cache_hits += 1
                (verdict,) = hit
                decisions[position] = Decision(
                    verdict is not None, verdict, self.cache.version,
                    cached=True, staleness=staleness,
                )
            else:
                self.metrics.cache_misses += 1
                pending.append(self._enqueue_read(subject, command))
                positions.append(position)
        if pending:
            for position, decision in zip(
                positions, await asyncio.gather(*pending)
            ):
                decisions[position] = decision
        self.metrics.decisions += len(commands)
        self.metrics.decision_latency.observe(self.clock() - started)
        return decisions

    def _enqueue_read(self, subject: User, command: Command) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._window.append((subject, command, future))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            loop.call_soon(self._drain_reads)
        return future

    def _drain_reads(self) -> None:
        """Answer the accumulated read window in one batch sweep
        against the published version's snapshot.  Runs as a loop
        callback, so no version can be published mid-sweep."""
        self._drain_scheduled = False
        window, self._window = self._window, []
        if not window:
            return
        snapshot = self._materialize()
        verdicts = snapshot.authorizes_batch(
            [(subject, command) for subject, command, _ in window]
        )
        self.metrics.read_batches += 1
        version = snapshot.version
        staleness = self._staleness()
        for (subject, command, future), verdict in zip(window, verdicts):
            self.cache.put(subject, command, verdict, version)
            if not future.done():
                future.set_result(
                    Decision(
                        verdict is not None, verdict, version,
                        staleness=staleness,
                    )
                )

    async def review(
        self, subjects, principal: User | None = None
    ) -> dict[User, frozenset]:
        """Grantable entity pairs for a population, answered at one
        pinned version via the bulk review sweep
        (:meth:`AuthorizationIndex.grantable_pairs_bulk`).  When a
        ``principal`` (the auditor) is given, the sweep costs them one
        token per reviewed subject."""
        subjects = list(subjects)
        if self.limiter is not None and principal is not None and subjects:
            try:
                self.limiter.check(principal, float(len(subjects)))
            except RateLimited:
                self.metrics.rate_limited += 1
                raise
        self.metrics.reviews += 1
        return self._materialize().grantable_pairs_bulk(subjects)

    def statistics(self) -> dict[str, object]:
        """Metrics plus cache, writer-health, queue, staleness, rate
        limiter and WAL counters — one JSON-able dict.  ``version`` is
        the published version and ``materialized_version`` that of the
        last snapshot a reader captured (the decision cache's), which
        lags while nobody reads."""
        stats = self.metrics.snapshot()
        stats["cache"] = self.cache.statistics()
        stats["version"] = self._published
        stats["materialized_version"] = self._snapshot.version
        stats["writer"] = self.supervisor.snapshot()
        stats["staleness"] = self._staleness()
        stats["queue"] = {
            "depth": self._queue.qsize(),
            "limit": self.queue_limit,
        }
        if self.limiter is not None:
            stats["rate_limiter"] = self.limiter.statistics()
        if self.wal is not None:
            stats["wal"] = self.wal.statistics()
        return stats
