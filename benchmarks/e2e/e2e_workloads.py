"""The end-to-end workloads: inputs, traffic, metrics and checks.

Four workloads, each run in its own process by ``run.py`` (or
directly: ``python e2e_workloads.py --workload NAME --seed N
--seconds S --trace 0|1`` with ``src`` on ``PYTHONPATH``; the last
stdout line is the result as JSON).

Three kinds of caller use the reference monitor, and the workloads
follow them:

* applications ask ``PolicyDecisionPoint.check_many`` for refined-mode
  decisions — ``read_cold`` (distinct probes, answered by the
  ``authorizes_batch`` sweep; the decision cache's hits are exercised
  by ``mixed_rw``'s hot pages);
* administrators push grant/revoke commands through ``submit_many`` —
  ``provision`` (writes only, large micro-batches) and ``mixed_rw``
  (one administrator writing one command at a time into read
  traffic, so every write is its own batch and its snapshot
  publication blocks the readers);
* auditors run ``lint_policy``, ``repair_policy`` (``repro lint
  --fix``) and ``audit_matrix`` over an enterprise policy —
  ``audit_offline``.

Everything runs on one thread and one asyncio loop, with no sockets.
The organization each workload serves is fixed; ``--seed`` permutes
the order of the policy document the program loads (so the interned
layout differs between seeds) and draws every probe, the phase of the
periodic arrivals and every write.  The structure is held fixed on purpose: over ten seeds the
enterprise policy's findings count alone moved ``lint --fix`` time by
±15%, which would drown a 10% regression.

A serving run sets the program up from the policy document
``SETUPS`` times (each timed: ``setup_s`` is their median) and serves
from the last one: an open-loop phase (arrivals on a seeded schedule;
latency from each request's due time), then a closed-loop phase
(callers that wait for each reply; throughput), with the other kind
of request still arriving open loop (``mixed_rw`` is all closed-loop
phase: one administrator writing while the pages arrive).  An auditor
run repeats a cycle —
load the policy (a set-up), one lint, one ``lint --fix``, 20
population audits — for the run's length.  Every time is read from
the :class:`~e2e_clock.ReferenceClock`, which divides the shared
host's speed drift out.  Correctness is checked after the run,
outside the timed region.  :func:`e2e_metrics` says how the samples
combine.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import repro.analysis.audit as audit_module
import repro.analysis.lint as lint_module
import repro.analysis.repair as repair_module
from repro.analysis.constraints import SsdConstraint
from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.privileges import Grant, Revoke, is_privilege
from repro.core.refinement import is_refinement
from repro.core.serialization import (
    policy_from_json,
    policy_to_dict,
    policy_to_json,
)
from repro.errors import ReproError
from repro.serve import (
    PolicyDecisionPoint,
    RateLimiter,
    read_wal,
    replay_wal,
    verify_chain,
)
from repro.workloads.churn import ChurnShape, churn_policy
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy

from e2e_clock import ReferenceClock
from e2e_stats import percentile
from e2e_trace import Tracer, self_times

# ----------------------------------------------------------------------
# Shapes and traffic constants
# ----------------------------------------------------------------------
#: the serving organization: the bench_pdp churn shape with 8
#: administrators — 2000 users, 48 roles in 6 layers, 3 roles per
#: user, 8 privileges per role, 40 delegations per top role.
SERVE_SHAPE = ChurnShape(
    n_users=2000, n_roles=48, n_admins=8, layers=6, roles_per_user=3,
    privileges_per_role=8, delegations_per_top_role=40,
)
SERVE_STRUCTURE_SEED = 29
#: the auditors' enterprise: 5 departments x 4 levels x 3 roles, with
#: closure-implied shortcut edges and a cross-department SSD set.  With
#: 500 employees per department one lint + fix + 20 audits take about
#: 2.4 reference seconds, so a 7 s run makes three of them.
AUDIT_SHAPE = EnterpriseShape(
    departments=5, levels_per_department=4, roles_per_level=3,
    employees_per_department=500, delegation_depth=2,
)
AUDIT_STRUCTURE_SEED = 0

#: set-ups per serving run; ``setup_s`` is their median.
SETUPS = 3
#: share of each serving run spent in the closed-loop phase.
CLOSED_SHARE = 0.3
CLOSED_CALLERS = 64
PROBES_PER_PAGE = 8
HOT_POOL = 256
#: a page slower than this misses the read latency objective.
SLO_MS = 50.0
#: the open-loop generator sleeps until this close to a due time, then
#: yields to the loop until it arrives — timer wake-ups are rounded to
#: whole milliseconds, which would otherwise dominate a sub-ms p50.
SPIN_S = 0.002
#: the generator drops requests it could not issue within this long
#: after the window closed; any drop marks a growing backlog.
GRACE_S = 1.0
#: token buckets large enough to be spent on every request and never
#: to refuse one at these loads.
LIMIT_TOKENS = 1e7
AUDIT_CALLS = 20
READ_SAMPLE = 500
#: each sampled version costs a replay from genesis and an index build.
REPLAY_VERSIONS = 2
AUDIT_SAMPLE = 100
#: achieved-over-scheduled below this marks the run invalid.
VALID_RATE_RATIO = 0.98


@dataclass(frozen=True)
class ServeSpec:
    """One serving traffic mix."""

    #: open-loop check_many pages per second (0: no reads).
    page_rate: float
    #: probes from the 256-entry hot pool (else uniform over
    #: administrators x users x roles).
    hot: bool
    #: open-loop grant/revoke toggles per second (0: none).
    write_rate: float
    #: writers in the closed-loop phase (0: 64 readers instead).  The
    #: other kind of request keeps arriving open loop meanwhile.
    closed_writers: int
    #: share of the run spent in the closed-loop phase.
    closed_share: float = CLOSED_SHARE
    #: seconds a closed-loop writer waits between a reply and its next
    #: write.
    think_s: float = 0.0

    @property
    def writes(self) -> bool:
        """Whether the workload writes (and so gets a write-ahead log)."""
        return bool(self.write_rate or self.closed_writers)


# There is no read-only workload of cache hits: pages answered from
# the decision cache take ~30 us of the program's time and ~30 us of
# the harness's, and on the shared host their p50 and capacity spread
# by up to 25% between runs of the same code (the reference clock
# tracks the host's drift for heavier work, not for these).
SERVE_SPECS = {
    "read_cold": ServeSpec(800, False, 0, 0),
    # One administrator writing for the whole run, one write at a
    # time, while pages arrive open loop: every batch is a single
    # command, and each publication blocks the readers.  After each
    # reply the administrator waits 20 ms, long enough for the next
    # page to arrive (every 3.3 ms) and pay the index build of the
    # new snapshot.  Without the pause a write paid that build or not
    # depending on whether a page slipped in before its batch, and
    # the median fell between the two modes (~130 and ~230 ms): it
    # moved by 10% between seeds.  Open-loop writes at 2/s were worse
    # (14 writes a run, median moving by 14%).
    "mixed_rw": ServeSpec(300, True, 0, 1, closed_share=1.0, think_s=0.02),
    "provision": ServeSpec(0, True, 150, CLOSED_CALLERS),
}
WORKLOADS = (*SERVE_SPECS, "audit_offline")

#: end-to-end metrics: every workload reports each of them.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("capacity_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: per-layer metrics from the traced run: every workload reports each
#: of them, 0 where the workload never enters the layer.
LAYER_METRICS = (
    ("ratelimit.check.busy_pct", "%"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get.busy_pct", "%"),
    ("cache.advance.p50_ms", "ms/call"),
    ("cache.evicted_entries", "count"),
    ("graph.dirty_region.busy_pct", "%"),
    ("snapshot.authorizes_batch.calls", "count"),
    ("snapshot.authorizes_batch.busy_pct", "%"),
    ("snapshot.authorizes_batch.p50_ms", "ms/call"),
    ("snapshot.sweep_pairs_mean", "count"),
    ("snapshot.init.p50_ms", "ms/call"),
    ("snapshot.copies_per_write_batch", "1/batch"),
    ("index.build.p50_ms", "ms/call"),
    ("index.builds_per_write_batch", "1/batch"),
    ("monitor.submit_queue.self_p50_ms", "ms/call"),
    ("monitor.batch_size_mean", "count"),
    ("monitor.single_command_batch_pct", "%"),
    ("writer.queue_wait_p50_ms", "ms/call"),
    ("wal.append_batch.p50_ms", "ms/call"),
    ("wal.append_batch.p99_ms", "ms/call"),
    ("write.accounted_pct", "%"),
    ("lint.lint_policy.busy_pct", "%"),
    ("refinement.counterexample.busy_pct", "%"),
    ("policy.copy.calls", "count"),
    ("repair.accept_ratio", "ratio"),
    ("audit.index.build_p50_ms", "ms/call"),
    ("load.lag_p50_ms", "ms/call"),
    ("load.lag_p99_ms", "ms/call"),
    ("load.achieved_rate_ratio", "ratio"),
    ("diag.p99_ms", "ms/call"),
    ("diag.check_p50_ms", "ms/call"),
    ("diag.check_slo_miss_pct", "%"),
    ("diag.lint_s", "s/call"),
    ("diag.audit_matrix_ms", "ms/call"),
    ("diag.gc_pause_pct", "%"),
    ("diag.host_slowdown", "ratio"),
    ("trace.overhead_pct", "%"),
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def permuted_document(policy, rng: random.Random) -> str:
    """The policy as the JSON document the program loads, with every
    list in a seeded order (the program interns vertices in load
    order, so each seed exercises a different bit layout)."""
    document = policy_to_dict(policy)
    for key in ("users", "roles", "ua", "rh", "pa"):
        rng.shuffle(document[key])
    return json.dumps(document, separators=(",", ":"))


@dataclass
class ServeInputs:
    """The seeded inputs of one serving workload."""

    document: str
    admins: list[str]
    users: list[str]
    roles: list[str]
    #: (user, role) probe values inside the administrators' grant
    #: rectangles.
    hot_pool: list[tuple[str, str]]
    #: (user, top role) pairs the administrators may both grant and
    #: revoke — the write workloads toggle these.
    toggles: list[tuple[str, str]]
    #: whether each toggle pair is an edge of the initial policy.
    present: list[bool]
    seed: int


def serve_inputs(seed: int) -> ServeInputs:
    policy = churn_policy(SERVE_STRUCTURE_SEED, SERVE_SHAPE)
    rng = random.Random(f"serve-{seed}")
    reach: dict[Role, list[str]] = {}
    toggles = []
    revocable = {
        privilege.edge for privilege in policy.admin_privileges()
        if isinstance(privilege, Revoke)
    }
    for privilege in sorted(policy.admin_privileges(), key=str):
        if not isinstance(privilege, Grant) or not isinstance(
            privilege.target, Role
        ):
            continue
        senior = privilege.target
        sources = reach.setdefault(senior, [])
        if isinstance(privilege.source, User):
            sources.append(privilege.source.name)
            if privilege.edge in revocable:
                toggles.append((privilege.source.name, senior.name))
        else:
            sources.extend(
                user.name for user, role in policy.ua_edges()
                if role == privilege.source
            )
    seniors = sorted(reach, key=str)
    below = {
        senior: sorted(
            vertex.name for vertex in policy.descendants(senior)
            if isinstance(vertex, Role)
        )
        for senior in seniors
    }
    hot_pool = []
    for _ in range(HOT_POOL):
        senior = rng.choice(seniors)
        hot_pool.append(
            (rng.choice(sorted(reach[senior])), rng.choice(below[senior]))
        )
    toggles.sort()
    return ServeInputs(
        document=permuted_document(policy, rng),
        admins=[f"admin{i}" for i in range(SERVE_SHAPE.n_admins)],
        users=[f"u{i}" for i in range(SERVE_SHAPE.n_users)],
        roles=[f"r{i}" for i in range(SERVE_SHAPE.n_roles)],
        hot_pool=hot_pool,
        toggles=toggles,
        present=[
            policy.has_edge(User(user), Role(role)) for user, role in toggles
        ],
        seed=seed,
    )


def audit_inputs(seed: int):
    """(policy document, SSD constraints) for ``audit_offline``: the
    enterprise policy plus closure-implied shortcut edges (work for
    the redundancy rule) and a cross-department SSD set (work for the
    constraint rules)."""
    policy = enterprise_policy(AUDIT_SHAPE, AUDIT_STRUCTURE_SEED)
    for dept in range(AUDIT_SHAPE.departments):
        for index in range(AUDIT_SHAPE.roles_per_level):
            upper = Role(f"dept{dept}_L0_r{index}")
            lower = Role(f"dept{dept}_L2_r{index}")
            if (
                policy.reaches(upper, lower)
                and not policy.has_edge(upper, lower)
            ):
                policy.add_inheritance(upper, lower)
    constraints = (
        SsdConstraint(
            "cross_department",
            frozenset(
                Role(f"dept{dept}_L0_r0")
                for dept in range(AUDIT_SHAPE.departments)
            ),
        ),
    )
    return permuted_document(policy, random.Random(f"audit-{seed}")), constraints


def arrivals(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Periodic arrivals over ``[0, duration)``, one per ``1/rate``
    slot, at a seeded phase within the slot: every run offers the same
    load, and no two requests arrive together.  (With Poisson arrivals
    two sparse writes sometimes landed together and compounded their
    stalls, which moved a run's mean latency by 2x.)"""
    slot = 1.0 / rate
    phase = rng.random()
    return [(index + phase) * slot for index in range(int(rate * duration))]


class Entities:
    """One User/Role object per name, as a request parser would intern
    them."""

    def __init__(self):
        self.users: dict[str, User] = {}
        self.roles: dict[str, Role] = {}

    def user(self, name: str) -> User:
        found = self.users.get(name)
        if found is None:
            found = self.users[name] = User(name)
        return found

    def role(self, name: str) -> Role:
        found = self.roles.get(name)
        if found is None:
            found = self.roles[name] = Role(name)
        return found

    def decode(self, page):
        """A page as the program takes it: ``(administrator, [grant
        commands])``."""
        name, pairs = page
        admin = self.user(name)
        return admin, [
            grant_cmd(admin, self.user(user), self.role(role))
            for user, role in pairs
        ]


def make_page(inputs: ServeInputs, hot: bool, rng: random.Random):
    """A fresh page, as names: ``(administrator, ((user, role), ...))``.

    Pages (and the verdicts kept for the checks) are tuples of strings,
    booleans and integers, which the cyclic garbage collector stops
    tracking.  Kept as command and decision objects, the pages a run
    answers grew the collector's work with the run's length: full
    collections took 8-10% of a 6 s run of cache-hit pages, and
    lengthened the pages they interrupted by 20-30 ms."""
    admin = rng.choice(inputs.admins)
    if hot:
        pairs = tuple(
            inputs.hot_pool[rng.randrange(HOT_POOL)]
            for _ in range(PROBES_PER_PAGE)
        )
    else:
        pairs = tuple(
            (rng.choice(inputs.users), rng.choice(inputs.roles))
            for _ in range(PROBES_PER_PAGE)
        )
    return admin, pairs


class Toggles:
    """Grant/revoke toggles over the revocable pairs; the direction of
    each write is decided when it is issued, from the pair's state
    after every earlier write (the writer applies them in issue
    order, and every one is authorized)."""

    def __init__(self, inputs: ServeInputs, entities: Entities):
        self.admins = [entities.user(name) for name in inputs.admins]
        self.pairs = [
            (entities.user(user), entities.role(role))
            for user, role in inputs.toggles
        ]
        self.present = list(inputs.present)

    def command(self, index: int):
        user, role = self.pairs[index]
        make = revoke_cmd if self.present[index] else grant_cmd
        self.present[index] = not self.present[index]
        return make(self.admins[index % len(self.admins)], user, role)


# ----------------------------------------------------------------------
# One run's measurements
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Samples of one run.  Times are reference seconds (see
    :mod:`e2e_clock`) unless a field says wall."""

    setups: list[float] = field(default_factory=list)
    #: measured wall seconds (open + closed phases, or the audit calls).
    window_s: float = 0.0
    #: latencies of the requests ``p50_ms`` describes.
    primary: list[float] = field(default_factory=list)
    #: latencies of the requests ``diag.p99_ms`` describes.
    tail: list[float] = field(default_factory=list)
    pages: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    #: latencies of the closed-loop writers' writes, from issue.
    closed_writes: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    #: open-loop pages attempted, and those that failed or were slow.
    page_attempts: int = 0
    slo_misses: int = 0
    scheduled: int = 0
    issued: int = 0
    capacity: float = 0.0
    attempted: int = 0
    failed: int = 0
    evicted_entries: int = 0
    lint_s: list[float] = field(default_factory=list)
    audit_s: list[float] = field(default_factory=list)
    accept_ratio: float = 0.0
    #: wall seconds of cyclic garbage collector pauses in the window.
    gc_pause_s: float = 0.0
    #: the host's median slowdown over the run (wall seconds per
    #: reference second).
    host_slowdown: float = 1.0
    #: correctness check failures (empty when every check passed).
    errors: list[str] = field(default_factory=list)
    checks: int = 0


@contextlib.contextmanager
def measured(result: RunResult, tracer: Tracer | None):
    """The timed region.  The cyclic garbage collector stays on, but
    what set-up allocated is frozen out of it (``gc.freeze``): full
    collections then scan what the program allocates while serving —
    policy copies, snapshots, cache entries — and not the loaded
    policy.  Collector pauses inside the region are added to
    ``result.gc_pause_s``."""
    started = [0.0]

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            result.gc_pause_s += time.perf_counter() - started[0]

    gc.collect()
    gc.freeze()
    gc.callbacks.append(on_collect)
    if tracer is not None:
        tracer.recording = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.recording = False
        gc.callbacks.remove(on_collect)
        gc.unfreeze()


class ServeRun:
    """One serving run: ``SETUPS`` set-ups, the open-loop window and
    the closed-loop window on the last PDP, then the correctness
    checks."""

    def __init__(self, spec: ServeSpec, inputs: ServeInputs,
                 seconds: float, workdir: str, tracer: Tracer | None,
                 clock: ReferenceClock):
        self.spec = spec
        self.inputs = inputs
        self.tracer = tracer
        self.clock = clock
        self.workdir = workdir
        self.tag = str(inputs.seed)
        self.rng = random.Random(self.tag)
        self.entities = Entities()
        self.toggles = Toggles(inputs, self.entities)
        self.open_s = seconds * (1 - spec.closed_share)
        self.closed_s = seconds * spec.closed_share
        #: the write-ahead log of the PDP being served (write workloads).
        self.wal_path: str | None = None
        self.pdp: PolicyDecisionPoint | None = None
        #: (page, ((allowed, version), ...)) per answered page.
        self.answered: list = []
        #: writes applied, and those not applied as issued.
        self.applied = 0
        self.misapplied: list[str] = []
        self.result: RunResult | None = None

    # -- schedule ------------------------------------------------------
    def _events(self, duration: float, reads: bool = True,
                writes: bool = True):
        """Merged (offset, kind, payload) events for one open window."""
        events = []
        if reads and self.spec.page_rate:
            events += [
                (offset, "read",
                 make_page(self.inputs, self.spec.hot, self.rng))
                for offset in arrivals(self.rng, self.spec.page_rate, duration)
            ]
        if writes and self.spec.write_rate:
            for offset in arrivals(self.rng, self.spec.write_rate, duration):
                pair = self.rng.randrange(len(self.toggles.pairs))
                events.append((offset, "write", pair))
        events.sort(key=lambda event: event[0])
        return events

    # -- requests ------------------------------------------------------
    async def _check(self, page, request) -> int:
        """Ask for one decoded page; keep its verdicts for the checks.
        Returns the number of decisions, or 0 when the request failed."""
        admin, commands = request
        self.result.attempted += 1
        try:
            if self.tracer is None:
                decisions = await self.pdp.check_many(admin, commands)
            else:
                with self.tracer.request("request.check"):
                    decisions = await self.pdp.check_many(admin, commands)
        except ReproError:
            self.result.failed += 1
            return 0
        self.answered.append((page, tuple(
            (decision.allowed, decision.version) for decision in decisions
        )))
        return len(decisions)

    async def _submit(self, command) -> bool:
        """Submit one write; returns whether it was answered."""
        self.result.attempted += 1
        try:
            if self.tracer is None:
                [applied] = await self.pdp.submit_many([command])
            else:
                with self.tracer.request("request.write"):
                    [applied] = await self.pdp.submit_many([command])
        except ReproError:
            self.result.failed += 1
            return False
        self.applied += 1
        if not applied.executed or applied.noop:
            self.misapplied.append(str(command))
        return True

    async def _read(self, due: float, page, request) -> None:
        result = self.result
        result.page_attempts += 1
        if not await self._check(page, request):
            result.slo_misses += 1
            return
        latency = self.clock() - due
        result.pages.append(latency)
        result.slo_misses += latency * 1e3 > SLO_MS

    async def _write(self, due: float, command) -> None:
        if await self._submit(command):
            self.result.writes.append(self.clock() - due)

    # -- phases --------------------------------------------------------
    async def _open_loop(self, events, duration: float):
        """Issue each event at its due time (latency counted from it);
        drop whatever cannot be issued by ``duration + GRACE_S``."""
        loop = asyncio.get_running_loop()
        clock = self.clock
        # Finished tasks are dropped at once, so the collector does not
        # keep scanning them; their failures are kept.
        pending: set[asyncio.Task] = set()
        crashed: list[BaseException] = []

        def finished(task: asyncio.Task) -> None:
            pending.discard(task)
            if not task.cancelled() and task.exception() is not None:
                crashed.append(task.exception())

        result = self.result
        start = clock()
        cutoff = start + duration + GRACE_S
        for offset, kind, payload in events:
            due = start + offset
            if kind == "read":
                # Decoding a request precedes its arrival.
                request = self.entities.decode(payload)
            while True:
                remaining = due - clock()
                if remaining <= 0:
                    break
                # Timers run on the wall clock.
                wall = remaining * clock.slowdown
                await asyncio.sleep(wall - SPIN_S if wall > SPIN_S else 0)
            now = clock()
            if now > cutoff:
                break
            result.lags.append(now - due)
            result.issued += 1
            if kind == "read":
                task = loop.create_task(self._read(due, payload, request))
            else:
                command = self.toggles.command(payload)
                task = loop.create_task(self._write(due, command))
            pending.add(task)
            task.add_done_callback(finished)
        result.scheduled += len(events)
        await asyncio.gather(*pending)
        if crashed:
            raise crashed[0]

    async def _closed_loop(self, duration: float, background) -> float:
        """The spec's ``closed_writers`` writers, or 64 readers, issuing
        back to back, with the ``background`` events of the other kind
        arriving open loop meanwhile; returns completed decisions or
        writes per second, up to the last completion (so a phase that
        completes few slow writes is not rounded to whole writes per
        window).

        Each reader decodes a fresh page from its own seeded stream,
        as a server decodes each request.  A fixed pool of pages would
        wrap only when a run went fast enough, and the wrap would turn
        cold probes into cache hits: that feedback made ``read_cold``
        capacity bimodal (25k or 80k decisions/s)."""
        clock = self.clock
        done = [0]
        last = [0.0]
        result = self.result
        writers = self.spec.closed_writers
        if not writers:
            async def caller(index: int) -> None:
                rng = random.Random(f"{self.tag}-caller-{index}")
                while clock() < stop:
                    page = make_page(self.inputs, self.spec.hot, rng)
                    answered = await self._check(
                        page, self.entities.decode(page)
                    )
                    if answered:
                        done[0] += answered
                        last[0] = clock()
                    await asyncio.sleep(0)
        else:
            owned = [
                list(range(index, len(self.toggles.pairs), writers))
                for index in range(writers)
            ]

            async def caller(index: int) -> None:
                mine = owned[index]
                turn = 0
                while clock() < stop and mine:
                    command = self.toggles.command(mine[turn % len(mine)])
                    turn += 1
                    issued = clock()
                    if await self._submit(command):
                        done[0] += 1
                        last[0] = clock()
                        result.closed_writes.append(last[0] - issued)
                    await asyncio.sleep(self.spec.think_s * clock.slowdown)

        jobs = [caller(index) for index in range(writers or CLOSED_CALLERS)]
        if background:
            jobs.append(self._open_loop(background, duration))
        started = clock()
        stop = started + duration
        await asyncio.gather(*jobs)
        return done[0] / (last[0] - started) if done[0] else 0.0

    # -- the run -------------------------------------------------------
    async def _set_up(self, index: int) -> None:
        """Stop the previous PDP (untimed), then load the policy
        document, build and start a PDP (with a new write-ahead log
        when the workload writes), and answer one read so the snapshot
        index is built — timed into ``result.setups``."""
        if self.pdp is not None:
            await self.pdp.stop()
            self.pdp = None
            gc.collect()
        if self.spec.writes:
            self.wal_path = os.path.join(self.workdir, f"policy-{index}.wal")
        started = self.clock()
        policy = policy_from_json(self.inputs.document)
        self.pdp = PolicyDecisionPoint(
            policy=policy,
            rate_limiter=RateLimiter(LIMIT_TOKENS, LIMIT_TOKENS),
            wal=self.wal_path,
        )
        await self.pdp.start()
        admin = self.entities.user(self.inputs.admins[0])
        user, role = self.inputs.hot_pool[0]
        await self.pdp.check_many(admin, [grant_cmd(
            admin, self.entities.user(user), self.entities.role(role),
        )])
        self.result.setups.append(self.clock() - started)

    async def run(self) -> RunResult:
        events = self._events(self.open_s)
        writers = bool(self.spec.closed_writers)
        background = self._events(
            self.closed_s, reads=writers, writes=not writers
        )
        self.result = result = RunResult()
        with self.clock.ticking():
            for index in range(SETUPS):
                await self._set_up(index)
            if self.spec.hot and self.spec.page_rate:
                # Fill the decision cache with the hot pool, as a
                # server that has been up for a while would have it.
                for name in self.inputs.admins:
                    admin = self.entities.user(name)
                    await self.pdp.check_many(admin, [
                        grant_cmd(admin, self.entities.user(u),
                                  self.entities.role(r))
                        for u, r in self.inputs.hot_pool
                    ])
            evicted = self.pdp.cache.evicted_entries
            with measured(result, self.tracer):
                window_started = time.perf_counter()
                await self._open_loop(events, self.open_s)
                result.capacity = await self._closed_loop(
                    self.closed_s, background
                )
                result.window_s = time.perf_counter() - window_started
        result.host_slowdown = self.clock.median_slowdown()
        result.evicted_entries = self.pdp.cache.evicted_entries - evicted
        # The median describes the writes when the workload has any
        # (open loop if it has an open-loop write stream): on mixed_rw
        # the page latencies are bimodal (cache hits at ~40 us, pages
        # stalled behind a publication at ~100 ms) and their median
        # jumps between the modes, while each write carries the
        # publication cost directly.  The tail is the readers' when the
        # workload reads: on mixed_rw, the pages stalled behind it.
        if self.spec.write_rate:
            result.primary = result.writes
        elif self.spec.closed_writers:
            result.primary = result.closed_writes
        else:
            result.primary = result.pages
        result.tail = result.pages if self.spec.page_rate else result.writes
        await self.pdp.stop()
        if not (result.primary and result.tail):
            raise ValueError(
                f"a {self.open_s + self.closed_s:.3g}s run is too short "
                "to time a single request; raise --seconds"
            )
        self.check()
        return result

    # -- correctness ---------------------------------------------------
    def check(self) -> None:
        result = self.result
        result.checks += self.applied
        if self.misapplied:
            result.errors.append(
                f"{len(self.misapplied)} authorized toggle(s) not applied "
                f"as issued, first {self.misapplied[0]}"
            )
        if self.wal_path is None:
            self._check_reads_unchanged()
            return
        self._check_wal()

    def _reads(self):
        """(admin, (user, role), allowed, version) per answered probe."""
        for (admin, pairs), verdicts in self.answered:
            for pair, (allowed, version) in zip(pairs, verdicts):
                yield admin, pair, allowed, version

    def _decide(self, index: AuthorizationIndex, admin: str, pair) -> bool:
        user, role = pair
        subject = self.entities.user(admin)
        command = grant_cmd(
            subject, self.entities.user(user), self.entities.role(role)
        )
        return index.authorizes(subject, command) is not None

    def _check_reads_unchanged(self) -> None:
        """Read-only: the policy never moved, and every distinct
        answered request gets the same verdict from a fresh scalar
        index over the unchanged policy."""
        result = self.result
        live = self.pdp.version
        oracle = AuthorizationIndex(policy_from_json(self.inputs.document))
        verdicts: dict[tuple, bool] = {}
        for admin, pair, allowed, version in self._reads():
            result.checks += 1
            if version != live:
                result.errors.append(
                    f"read answered at version {version} of a read-only "
                    f"policy at {live}"
                )
                return
            key = (admin, pair)
            known = verdicts.get(key)
            if known is None:
                known = verdicts[key] = self._decide(oracle, admin, pair)
            if known != allowed:
                result.errors.append(
                    f"{admin} granting {pair} answered allowed={allowed}, "
                    f"scalar index says {known}"
                )
                return

    def _check_wal(self) -> None:
        """Write workloads: the hash chain verifies up to the live head;
        recovery from the log alone reproduces the live policy; sampled
        reads get the same verdict at their version when the logged
        batches are replayed in order."""
        result = self.result
        live = policy_to_json(self.pdp.monitor.policy)
        wal = self.pdp.wal
        try:
            # The records the live PDP wrote (recovery appends more).
            records = read_wal(self.wal_path)[0][:wal.next_seq]
            verify_chain(records, expected_head=wal.head)
        except ReproError as error:
            result.errors.append(f"WAL chain: {error}")
            return
        result.checks += 1
        self._replay_reads(records)
        recovered = PolicyDecisionPoint.recover(self.wal_path)
        try:
            result.checks += 1
            if policy_to_json(recovered.monitor.policy) != live:
                result.errors.append(
                    "recovered policy differs from the live policy"
                )
        finally:
            recovered.wal.close()

    def _replay_reads(self, records) -> None:
        """Re-decide up to ``READ_SAMPLE`` reads, answered at up to
        ``REPLAY_VERSIONS`` sampled policy versions, with a fresh scalar
        index over ``replay_wal`` of the log prefix that ends at each
        version."""
        result = self.result
        by_version: dict[int, list] = {}
        for read in self._reads():
            by_version.setdefault(read[3], []).append(read)
        ends = {}
        for end, record in enumerate(records):
            ends.setdefault(record.payload["version"], end)
        unlogged = sorted(set(by_version) - set(ends))
        if unlogged:
            result.errors.append(
                f"reads answered at versions {unlogged} that no logged "
                "batch produced"
            )
            return
        versions = sorted(by_version)
        if len(versions) > REPLAY_VERSIONS:
            versions = sorted(self.rng.sample(versions, REPLAY_VERSIONS))
        samples = [sample for version in versions
                   for sample in by_version[version]]
        if len(samples) > READ_SAMPLE:
            samples = self.rng.sample(samples, READ_SAMPLE)
        for version in versions:
            try:
                monitor = replay_wal(records[:ends[version] + 1])
            except ReproError as error:
                result.errors.append(f"WAL replay: {error}")
                return
            index = AuthorizationIndex(monitor.policy)
            for admin, pair, allowed, answered_at in samples:
                if answered_at != version:
                    continue
                result.checks += 1
                replayed = self._decide(index, admin, pair)
                if replayed != allowed:
                    result.errors.append(
                        f"{admin} granting {pair} answered "
                        f"allowed={allowed} at version {version}, replay "
                        f"says {replayed}"
                    )
                    return


async def run_serve(name: str, seed: int, seconds: float,
                    tracer: Tracer | None, workdir: str,
                    clock: ReferenceClock) -> RunResult:
    run = ServeRun(SERVE_SPECS[name], serve_inputs(seed), seconds, workdir,
                   tracer, clock)
    return await run.run()


# ----------------------------------------------------------------------
# audit_offline
# ----------------------------------------------------------------------
def run_audit(seed: int, seconds: float, tracer: Tracer | None,
              clock: ReferenceClock) -> RunResult:
    """Auditor cycles until ``seconds`` have passed: each loads the
    policy document (a set-up), then makes one lint, one ``lint --fix``
    and ``AUDIT_CALLS`` population audits."""
    document, constraints = audit_inputs(seed)
    result = RunResult()

    def call(name, function, *args, **kwargs):
        began = clock()
        if tracer is None:
            value = function(*args, **kwargs)
        else:
            with tracer.request(name):
                value = function(*args, **kwargs)
        return value, clock() - began

    repaired = set()
    with clock.ticking():
        stop = clock() + seconds
        while not result.setups or clock() < stop:
            started = clock()
            policy = policy_from_json(document)
            result.setups.append(clock() - started)
            with measured(result, tracer):
                window_started = time.perf_counter()
                report, lint_s = call(
                    "auditor.lint", lint_module.lint_policy, policy,
                    constraints=constraints,
                )
                fixed, fix_s = call(
                    "auditor.fix", repair_module.repair_policy, policy,
                    constraints=constraints,
                )
                audits = []
                for _ in range(AUDIT_CALLS):
                    audit, audit_s = call(
                        "auditor.audit_matrix", audit_module.audit_matrix,
                        fixed.policy,
                    )
                    audits.append(audit)
                    result.audit_s.append(audit_s)
                result.window_s += time.perf_counter() - window_started
            result.lint_s.append(lint_s)
            # The auditor's request is ``lint --fix``.
            result.primary.append(fix_s)
            result.tail += [lint_s, fix_s, *result.audit_s[-AUDIT_CALLS:]]
            repaired.add(policy_to_json(fixed.policy))
    result.host_slowdown = clock.median_slowdown()
    result.attempted = result.scheduled = result.issued = len(result.tail)
    # Population audit throughput: users audited per second.
    result.capacity = len(audits[0].users) / statistics.median(result.audit_s)
    outcomes = fixed.outcomes
    result.accept_ratio = (
        len(fixed.applied) / len(outcomes) if outcomes else 1.0
    )
    result.checks += 1
    if len(repaired) != 1:
        result.errors.append(
            f"{len(result.setups)} repairs of one policy gave "
            f"{len(repaired)} different results"
        )
    check_audit(result, policy, constraints, report, fixed, audits[-1],
                random.Random(f"audit-check-{seed}"))
    return result


def check_audit(result: RunResult, original, constraints, report, fixed,
                audit, rng: random.Random) -> None:
    """The repair is a Definition-6 refinement of the original, a
    fresh re-lint finds exactly the findings the repair left, and the
    audit matrix agrees with plain reachability on a user sample."""
    result.checks += 1
    if not report.findings:
        result.errors.append("the audit policy produced no lint findings")
    result.checks += 1
    if not is_refinement(original, fixed.policy):
        result.errors.append("repaired policy is not a refinement")
    relint = lint_module.lint_policy(fixed.policy, constraints=constraints)
    result.checks += 1
    if relint.findings != fixed.remaining:
        result.errors.append(
            f"re-lint found {len(relint.findings)} finding(s), the "
            f"repair report left {len(fixed.remaining)}"
        )
    columns = frozenset(audit.privileges)
    for user in rng.sample(list(audit.users), min(AUDIT_SAMPLE, len(audit.users))):
        result.checks += 1
        held = frozenset(
            vertex for vertex in fixed.policy.descendants(user)
            if is_privilege(vertex)
        )
        if audit.held[user] != held or audit.rows[user] != held & columns:
            result.errors.append(f"audit row of {user} disagrees with reachability")
            return


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def e2e_metrics(run: RunResult) -> dict[str, float]:
    """The end-to-end metrics of one run: the median set-up, the exact
    median latency of the workload's requests, and the closed-loop
    capacity, all in reference time.  The tail is reported as the
    diagnostic ``diag.p99_ms``."""
    return {
        "setup_s": _median(run.setups),
        "p50_ms": _ms(percentile(run.primary, 0.5)),
        "capacity_per_s": run.capacity,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


def _percentile_ms(samples, q: float) -> float:
    return _ms(percentile(samples, q)) if samples else 0.0


def diagnostic_metrics(run: RunResult) -> dict[str, float]:
    """``load.*``: the traffic generator's view — how late it ran and
    how much of the schedule it issued.  ``diag.*``: figures reported
    ungated, beside the end-to-end metrics.  ``diag.p99_ms`` is exact
    over the run's tail requests (at least ten samples lie beyond it
    on the serving workloads)."""
    return {
        "load.lag_p50_ms": _percentile_ms(run.lags, 0.5),
        "load.lag_p99_ms": _percentile_ms(run.lags, 0.99),
        "load.achieved_rate_ratio": (
            run.issued / run.scheduled if run.scheduled else 1.0
        ),
        "diag.p99_ms": _percentile_ms(run.tail, 0.99),
        "diag.check_p50_ms": _percentile_ms(run.pages, 0.5),
        "diag.check_slo_miss_pct": (
            100.0 * run.slo_misses / run.page_attempts
            if run.page_attempts else 0.0
        ),
        "diag.lint_s": _median(run.lint_s),
        "diag.audit_matrix_ms": _percentile_ms(run.audit_s, 0.5),
        "diag.gc_pause_pct": 100.0 * run.gc_pause_s / run.window_s,
        "diag.host_slowdown": run.host_slowdown,
    }


def layer_metrics(tracer: Tracer, traced: RunResult,
                  untraced: RunResult) -> dict[str, float]:
    """Per-layer numbers from the traced run (the ``load.*`` and
    ``diag.*`` values come from the untraced one)."""
    spans = tracer.spans
    own = self_times(spans)
    window_ns = traced.window_s * 1e9
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy_pct(name: str) -> float:
        aggregate = tracer.aggregates.get(name)
        if aggregate is not None:
            total = aggregate.total_ns
        else:
            total = sum(own[span.sid] for span in by_name.get(name, ()))
        return 100.0 * total / window_ns if window_ns else 0.0

    def p_ms(values, q: float) -> float:
        return percentile(values, q) / 1e6 if values else 0.0

    def durations(name: str) -> list[int]:
        return [span.duration for span in by_name.get(name, ())]

    batches = by_name.get("monitor.submit_queue", [])
    requests = {
        span.sid: span.name for span in spans if span.request == span.sid
    }
    gets = tracer.aggregates.get("cache.get")
    sweeps = by_name.get("snapshot.authorizes_batch", [])
    waits = [batch.start - request.start
             for request, batch in tracer.write_links]
    metrics = {
        "ratelimit.check.busy_pct": busy_pct("ratelimit.check"),
        "cache.hit_ratio": gets.hits / gets.calls if gets and gets.calls else 0.0,
        "cache.get.busy_pct": busy_pct("cache.get"),
        "cache.advance.p50_ms": p_ms(durations("cache.advance"), 0.5),
        "cache.evicted_entries": float(traced.evicted_entries),
        "graph.dirty_region.busy_pct": busy_pct("graph.dirty_region"),
        "snapshot.authorizes_batch.calls": float(len(sweeps)),
        "snapshot.authorizes_batch.busy_pct": busy_pct(
            "snapshot.authorizes_batch"
        ),
        "snapshot.authorizes_batch.p50_ms": p_ms(
            [own[span.sid] for span in sweeps], 0.5
        ),
        "snapshot.sweep_pairs_mean": (
            statistics.fmean(span.size for span in sweeps) if sweeps else 0.0
        ),
        "snapshot.init.p50_ms": p_ms(durations("snapshot.init"), 0.5),
        "snapshot.copies_per_write_batch": (
            len(by_name.get("snapshot.init", ())) / len(batches)
            if batches else 0.0
        ),
        "index.build.p50_ms": p_ms(durations("index.build"), 0.5),
        "index.builds_per_write_batch": (
            len(by_name.get("index.build", ())) / len(batches)
            if batches else 0.0
        ),
        "monitor.submit_queue.self_p50_ms": p_ms(
            [own[span.sid] for span in batches], 0.5
        ),
        "monitor.batch_size_mean": (
            statistics.fmean(span.size for span in batches)
            if batches else 0.0
        ),
        "monitor.single_command_batch_pct": (
            100.0 * sum(span.size == 1 for span in batches) / len(batches)
            if batches else 0.0
        ),
        "writer.queue_wait_p50_ms": p_ms(waits, 0.5),
        "wal.append_batch.p50_ms": p_ms(durations("wal.append_batch"), 0.5),
        "wal.append_batch.p99_ms": p_ms(durations("wal.append_batch"), 0.99),
        "write.accounted_pct": write_accounted_pct(tracer),
        "lint.lint_policy.busy_pct": busy_pct("lint.lint_policy"),
        "refinement.counterexample.busy_pct": busy_pct(
            "refinement.counterexample"
        ),
        "policy.copy.calls": float(len(by_name.get("policy.copy", ()))),
        "repair.accept_ratio": traced.accept_ratio,
        "audit.index.build_p50_ms": p_ms(
            [
                span.duration for span in by_name.get("index.build", ())
                if requests.get(span.request) == "auditor.audit_matrix"
            ],
            0.5,
        ),
    }
    metrics.update(diagnostic_metrics(untraced))
    plain = e2e_metrics(untraced)["p50_ms"]
    metrics["trace.overhead_pct"] = (
        100.0 * (e2e_metrics(traced)["p50_ms"] / plain - 1.0) if plain else 0.0
    )
    return metrics


def write_accounted_pct(tracer: Tracer) -> float:
    """Share of the mean ``submit_many`` latency covered by its queue
    wait plus the writer spans of its batch (the batch transaction,
    the WAL append, the publication and the cache advance)."""
    batch_time: dict[int, int] = {}
    for span in tracer.spans:
        if span.batch is not None and span.parent is None:
            batch_time[span.batch] = batch_time.get(span.batch, 0) + span.duration
    links = tracer.write_links
    if not links:
        return 0.0
    accounted = sum(
        batch.start - request.start + batch_time.get(batch.sid, 0)
        for request, batch in links
    )
    latency = sum(request.duration for request, _ in links)
    return 100.0 * accounted / latency if latency else 0.0


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
def _measure(name: str, seed: int, seconds: float, tracer,
             workdir: str) -> RunResult:
    clock = ReferenceClock()
    if name == "audit_offline":
        return run_audit(seed, seconds, tracer, clock)
    return asyncio.run(run_serve(name, seed, seconds, tracer, workdir, clock))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, trace_out: str | None = None) -> dict:
    """Run one workload and return its result document.

    With ``trace`` the workload runs twice — untraced, then with the
    layer patches installed — and the metrics are the per-layer ones;
    otherwise they are the end-to-end ones."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    started = time.perf_counter()
    os.makedirs(workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
    try:
        untraced = _measure(name, seed, seconds, None, scratch)
        runs = [untraced]
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = _measure(name, seed, seconds, tracer, scratch)
            finally:
                tracer.uninstall()
            runs.append(traced)
            values = layer_metrics(tracer, traced, untraced)
            units = dict(LAYER_METRICS)
            if trace_out:
                tracer.dump(trace_out)
        else:
            values = e2e_metrics(untraced)
            units = {metric: unit for metric, unit, _ in E2E_METRICS}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    errors = [error for run in runs for error in run.errors]
    diagnostics = diagnostic_metrics(untraced)
    ratio = diagnostics["load.achieved_rate_ratio"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not errors,
        "errors": errors[:10],
        "checks": sum(run.checks for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "valid": ratio >= VALID_RATE_RATIO,
        "achieved_rate_ratio": ratio,
        "samples": {
            "setups_s": untraced.setups,
            "window_wall_s": untraced.window_s,
            "requests": len(untraced.primary),
            "tail_requests": len(untraced.tail),
        },
        "diagnostics": diagnostics,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
        "elapsed_s": time.perf_counter() - started,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.workdir, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
