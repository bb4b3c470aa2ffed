"""Named fault-injection points for the serving layer.

The chaos harness the fault-tolerance layer is tested with: the WAL
and the PDP writer thread named *injection points* through their hot
paths (``wal.before_append``, ``writer.after_apply``, ...), and this
module decides — per point — whether to do nothing (the default),
raise a simulated process death (:class:`CrashInjected`), raise an
ordinary supervised failure (:class:`InjectedFailure`), sleep, or
corrupt the bytes about to hit disk (a *torn write*: a prefix of the
record reaches the file, then the process dies).

Zero overhead when disarmed: call sites guard with the single
attribute read ``if FAULTS.active: FAULTS.hit("point")``, so a
serving deployment pays one falsy branch per point.  Arming is
programmatic (:meth:`FaultInjector.arm`) or environment-driven
(``REPRO_FAULTS=point:action[:times[:after]][,...]`` — the knob the
CLI and CI chaos jobs use).

The second half of the module is the differential crash-recovery
campaign behind **fuzz invariant 15**
(:func:`differential_crash_recovery` +
:func:`differential_append_failure` + :func:`wal_tamper_campaign`,
fronted by :func:`repro.workloads.fuzz.fuzz_crash_recovery` and
``repro fuzz --crash-diff``): for every injection point, a PDP is
killed mid-trace, recovered from the WAL alone, and pinned
byte-identical to an uninterrupted oracle run at the durable batch
prefix; a *recoverable* failure at every point (the
``wal.before_fsync:fail`` class) must fail only its batch and leave
a chain that still verifies and recovers to the live state; and
every single-record mutation, omission and truncation of the log
must be rejected by ``verify_chain``.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = [
    "CrashInjected",
    "InjectedFailure",
    "Fault",
    "FaultInjector",
    "FAULTS",
    "FAIL_POINTS",
    "INJECTION_POINTS",
    "differential_append_failure",
    "differential_crash_recovery",
    "wal_tamper_campaign",
]


class CrashInjected(ReproError):
    """A simulated ``kill -9`` at a named injection point.

    The supervisor treats this as **fatal** — the writer dies without
    retry, exactly like a real process death: whatever bytes already
    reached the WAL are the only survivors, and recovery must rebuild
    from them alone."""

    def __init__(self, point: str):
        self.point = point
        super().__init__(f"crash injected at {point}")


class InjectedFailure(ReproError):
    """A simulated *recoverable* failure (I/O hiccup, transient bug):
    the supervisor fails the affected batch and retries under
    backoff."""

    def __init__(self, point: str):
        self.point = point
        super().__init__(f"failure injected at {point}")


@dataclass
class Fault:
    """One armed fault: fire ``action`` at ``point``, skipping the
    first ``after`` hits, at most ``times`` times."""

    point: str
    action: str = "crash"  # crash | fail | delay | torn
    times: int = 1
    after: int = 0
    delay: float = 0.0
    #: bytes of the record prefix that survive a torn write (the rest
    #: of the line, including the newline, is lost with the process).
    torn_bytes: int = 16
    hits: int = field(default=0)
    fired: int = field(default=0)

    _ACTIONS = ("crash", "fail", "delay", "torn")

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {', '.join(self._ACTIONS)})"
            )


class FaultInjector:
    """The registry of armed faults, keyed by injection point.

    One module-level instance (:data:`FAULTS`) is shared by the WAL,
    the PDP writer and the campaigns; tests arm and :meth:`clear` it
    around each scenario.  ``active`` is the cheap guard: False means
    every ``hit`` call was skipped at the call site.
    """

    def __init__(self):
        self._faults: dict[str, Fault] = {}
        self.active = False

    # -- arming --------------------------------------------------------
    def arm(
        self,
        point: str,
        action: str = "crash",
        times: int = 1,
        after: int = 0,
        delay: float = 0.0,
        torn_bytes: int = 16,
    ) -> Fault:
        """Arm ``action`` at ``point``; returns the armed fault (its
        ``fired`` counter lets tests assert the fault actually hit)."""
        fault = Fault(
            point, action, times=times, after=after,
            delay=delay, torn_bytes=torn_bytes,
        )
        self._faults[point] = fault
        self.active = True
        return fault

    def disarm(self, point: str) -> None:
        self._faults.pop(point, None)
        self.active = bool(self._faults)

    def clear(self) -> None:
        self._faults.clear()
        self.active = False

    def load_env(self, text: str | None = None) -> int:
        """Arm faults from ``REPRO_FAULTS`` (or an explicit spec):
        ``point:action[:times[:after]]`` entries, comma-separated.
        Returns the number of faults armed."""
        if text is None:
            text = os.environ.get("REPRO_FAULTS", "")
        count = 0
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) < 2:
                raise ReproError(
                    f"malformed REPRO_FAULTS entry {entry!r} "
                    "(want point:action[:times[:after]])"
                )
            point, action = parts[0], parts[1]
            try:
                times = int(parts[2]) if len(parts) > 2 else 1
                after = int(parts[3]) if len(parts) > 3 else 0
            except ValueError as error:
                raise ReproError(
                    f"malformed REPRO_FAULTS entry {entry!r}: {error}"
                ) from None
            self.arm(point, action, times=times, after=after)
            count += 1
        return count

    # -- introspection -------------------------------------------------
    def fired(self, point: str) -> int:
        """How many times the fault at ``point`` actually fired."""
        fault = self._faults.get(point)
        return fault.fired if fault else 0

    def armed(self) -> list[str]:
        return sorted(self._faults)

    # -- the hot-path hooks -------------------------------------------
    def hit(self, point: str) -> None:
        """Consult the registry at ``point``.  Raises
        :class:`CrashInjected` / :class:`InjectedFailure` or sleeps
        when an armed fault fires; otherwise returns immediately."""
        fault = self._faults.get(point)
        if fault is None or fault.fired >= fault.times:
            return
        fault.hits += 1
        if fault.hits <= fault.after:
            return
        fault.fired += 1
        if fault.action == "crash":
            raise CrashInjected(point)
        if fault.action == "fail":
            raise InjectedFailure(point)
        if fault.action == "delay":
            time.sleep(fault.delay)

    def torn_prefix(self, point: str, data: bytes) -> bytes | None:
        """For torn-write points: the surviving prefix of ``data`` if
        a ``torn`` fault fires here, else None.  The caller writes the
        prefix and then raises :class:`CrashInjected` itself — the
        split keeps the file mutation and the death at the call site,
        where the handles live."""
        fault = self._faults.get(point)
        if fault is None or fault.action != "torn":
            return None
        if fault.fired >= fault.times:
            return None
        fault.hits += 1
        if fault.hits <= fault.after:
            return None
        fault.fired += 1
        return data[: max(1, min(fault.torn_bytes, len(data) - 1))]


#: The shared injector instance.  ``REPRO_FAULTS`` is honoured at
#: import so env-armed faults reach code that never touches this
#: module directly.
FAULTS = FaultInjector()
if os.environ.get("REPRO_FAULTS"):
    FAULTS.load_env()


# ---------------------------------------------------------------------------
# The differential crash-recovery campaign (fuzz invariant 15)
# ---------------------------------------------------------------------------

#: Every named injection point the campaign kills the PDP at, in
#: pipeline order.  The writer's apply/log/publish/resolve steps plus
#: the WAL's append/torn-write/fsync steps — between them, a crash
#: lands on every edge of the durability pipeline.
INJECTION_POINTS = (
    "writer.before_apply",
    "writer.after_apply",
    "wal.before_append",
    "wal.torn_write",
    "wal.before_fsync",
    "writer.before_publish",
    "writer.before_resolve",
)

#: How many batches are *durable* when a crash fires at each point on
#: batch ``k`` (0-based).  Before the WAL append (or mid-append, the
#: torn write) the batch is lost; once the full line reached the file
#: it survives — an in-process simulated death does not lose the page
#: cache, so ``wal.before_fsync`` keeps its batch.  Values are the
#: offset added to ``k``.
_DURABLE_OFFSET = {
    "writer.before_apply": 0,
    "writer.after_apply": 0,
    "wal.before_append": 0,
    "wal.torn_write": 0,
    "wal.before_fsync": 1,
    "writer.before_publish": 1,
    "writer.before_resolve": 1,
}

#: The points the *recoverable-failure* campaign arms with action
#: "fail" instead of a kill: every crash point except the torn write
#: (which only exists as a death), plus ``wal.after_append``.  The
#: load-bearing case is ``wal.before_fsync:fail`` — a flush/fsync
#: error *after* the line reached the file must roll the file back,
#: or the supervised retry/rebase would append a duplicate seq and
#: permanently break the chain.
FAIL_POINTS = (
    "writer.before_apply",
    "writer.after_apply",
    "wal.before_append",
    "wal.before_fsync",
    "wal.after_append",
    "writer.before_publish",
    "writer.before_resolve",
)


def _campaign_dir(workdir: str | None, prefix: str):
    """``workdir`` as given, or a temporary directory removed when the
    campaign ends — either way the context yields the path."""
    if workdir is not None:
        return contextlib.nullcontext(workdir)
    return tempfile.TemporaryDirectory(prefix=prefix)


async def _scripted_run(
    seed: int,
    batches: int,
    batch_size: int,
    shape,
    wal_path: str | None = None,
    plan: list | None = None,
):
    """Drive one PDP for ``batches`` micro-batches.

    With ``plan=None`` the command stream is generated on the fly
    (deterministic in ``seed`` and the evolving policy); otherwise the
    given per-batch command lists are replayed verbatim — how the
    victim runs repeat the oracle's exact trace.  ``max_batch`` equals
    the batch size and every batch is fully enqueued within one event
    loop tick, so batching is deterministic: one submit_many == one
    WAL record.  Returns ``(plan, states)`` where ``states[k]`` is the
    ``(policy_json, version)`` pair after ``k`` applied batches."""
    import random

    from ..core.serialization import policy_to_json
    from ..serve import PolicyDecisionPoint
    from .fuzz import _random_command
    from .generators import random_policy

    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    pdp = PolicyDecisionPoint(
        policy=policy, wal=wal_path, max_batch=batch_size,
    )
    executed_plan: list = []
    states = [(policy_to_json(pdp.monitor.policy), pdp.monitor.policy.version)]
    async with pdp:
        for index in range(batches):
            if plan is None:
                commands = [
                    _random_command(rng, pdp.monitor.policy)
                    for _ in range(batch_size)
                ]
            else:
                commands = plan[index]
            executed_plan.append(commands)
            await pdp.submit_many(commands)
            states.append(
                (policy_to_json(pdp.monitor.policy),
                 pdp.monitor.policy.version)
            )
    return executed_plan, states


async def _victim_run(
    seed: int,
    plan: list,
    shape,
    wal_path: str,
    point: str,
    crash_batch: int,
):
    """Replay the oracle's trace into a WAL-attached PDP with one
    fault armed at ``point``, scheduled for batch ``crash_batch``.
    Returns ``(fault, failure)`` — the armed fault (its ``fired``
    counter proves the crash actually happened) and the typed error
    the doomed submit surfaced with (None is a campaign violation:
    something hung or silently succeeded)."""
    from ..serve import PolicyDecisionPoint
    from .generators import random_policy

    policy = random_policy(seed, shape)
    batch_size = len(plan[0])
    # Construct first, arm second: the genesis append must not
    # consume a hit, so every point's budget counts batches only.
    pdp = PolicyDecisionPoint(
        policy=policy, wal=wal_path, max_batch=batch_size,
    )
    action = "torn" if point == "wal.torn_write" else "crash"
    fault = FAULTS.arm(point, action, times=1, after=crash_batch)
    failure = None
    await pdp.start()
    try:
        for commands in plan:
            try:
                await pdp.submit_many(commands)
            except ReproError as error:
                failure = error
                break
    finally:
        FAULTS.clear()
        pdp.kill()
    return fault, failure


async def _failure_run(
    seed: int,
    plan: list,
    shape,
    wal_path: str,
    point: str,
    fail_batch: int,
):
    """Replay the oracle's trace with a *recoverable* failure armed at
    ``point`` for batch ``fail_batch``: the doomed batch must fail
    typed, the supervised writer must resync and keep serving, and the
    remaining batches must apply.  Returns ``(fault, failure, doc,
    version, head)`` — the armed fault, the typed error the doomed
    submit surfaced with, and the live service's final canonical
    policy JSON / version / WAL head."""
    from ..core.serialization import policy_to_json
    from ..serve import PolicyDecisionPoint, WriterSupervisor

    from .generators import random_policy

    policy = random_policy(seed, shape)
    batch_size = len(plan[0])
    # Construct first, arm second: the genesis append must not consume
    # a hit, so every point's budget counts batches only.
    pdp = PolicyDecisionPoint(
        policy=policy, wal=wal_path, max_batch=batch_size,
        supervisor=WriterSupervisor(base_delay=0.0),
    )
    fault = FAULTS.arm(point, "fail", times=1, after=fail_batch)
    failure = None
    try:
        async with pdp:
            for commands in plan:
                try:
                    await pdp.submit_many(commands)
                except ReproError as error:
                    failure = error
            return (
                fault,
                failure,
                policy_to_json(pdp.monitor.policy),
                pdp.monitor.policy.version,
                pdp.wal.head,
            )
    finally:
        FAULTS.clear()


def differential_append_failure(
    seed: int = 0,
    batches: int = 6,
    batch_size: int = 8,
    shape=None,
    points=None,
    fail_batch: int | None = None,
    workdir: str | None = None,
) -> list[str]:
    """Inject a recoverable failure at every point; pin the survivors.

    The crash campaign kills the process, so it never exercises the
    *supervised* path where the writer lives on after an append
    failure — exactly where a half-written line followed by a
    retry/rebase could duplicate a seq and break the chain for good.
    Per point in :data:`FAIL_POINTS`: a WAL-attached PDP replays the
    oracle's trace, an ``InjectedFailure`` fires mid-``fail_batch``,
    the doomed batch must surface a typed
    :class:`~repro.serve.supervisor.WriterFailed` (no hang, no silent
    success), the remaining batches must still apply, and afterwards
    the log must (a) pass the strict head-anchored ``verify_chain``
    and (b) :meth:`~repro.serve.pdp.PolicyDecisionPoint.recover` to
    state byte-identical to the live service's.
    Returns violation strings; empty means the invariant held."""
    import asyncio

    from ..core.serialization import policy_to_json
    from ..serve import PolicyDecisionPoint
    from ..serve.supervisor import WriterFailed
    from ..serve.wal import WalError, read_wal, verify_chain
    from .generators import PolicyShape

    if shape is None:
        shape = PolicyShape()
    if points is None:
        points = FAIL_POINTS
    if fail_batch is None:
        fail_batch = batches // 2
    if not 0 <= fail_batch < batches:
        raise ReproError(
            f"fail_batch {fail_batch} outside [0, {batches})"
        )
    violations: list[str] = []
    plan, _ = asyncio.run(
        _scripted_run(seed, batches, batch_size, shape)
    )
    with _campaign_dir(workdir, "repro-fail-") as workdir:
        for point in points:
            path = os.path.join(
                workdir, point.replace(".", "_") + "_fail.wal"
            )
            fault, failure, doc, version, head = asyncio.run(
                _failure_run(seed, plan, shape, path, point, fail_batch)
            )
            if fault.fired == 0:
                violations.append(f"{point}: armed fault never fired")
                continue
            if failure is None:
                violations.append(
                    f"{point}: injected failure surfaced no typed error "
                    "(hang or silent success)"
                )
                continue
            if not isinstance(failure, WriterFailed):
                violations.append(
                    f"{point}: doomed batch raised "
                    f"{type(failure).__name__}, expected WriterFailed"
                )
            try:
                records, _ = read_wal(path)
                verify_chain(records, expected_head=head)
            except WalError as error:
                violations.append(
                    f"{point}: log corrupt after supervised failure "
                    f"(duplicate seq / broken chain?): {error}"
                )
                continue
            try:
                recovered = PolicyDecisionPoint.recover(path)
            except ReproError as error:
                violations.append(f"{point}: recovery failed: {error}")
                continue
            recovered.wal.close()
            if policy_to_json(recovered.monitor.policy) != doc:
                violations.append(
                    f"{point}: recovered policy diverges "
                    "from the live post-failure state"
                )
            if recovered.monitor.policy.version != version:
                violations.append(
                    f"{point}: recovered version "
                    f"{recovered.monitor.policy.version} != live {version}"
                )
    return violations


def differential_crash_recovery(
    seed: int = 0,
    batches: int = 6,
    batch_size: int = 8,
    shape=None,
    points=None,
    crash_batch: int | None = None,
    workdir: str | None = None,
) -> list[str]:
    """Kill the PDP at every injection point; pin recovery to the oracle.

    One uninterrupted *oracle* run records the state trajectory
    ``states[k]`` (canonical policy JSON + version after ``k``
    batches).  Then, per injection point: a fresh WAL-attached PDP
    replays the same trace, a crash fires mid-``crash_batch``, the
    service is killed, and :meth:`PolicyDecisionPoint.recover` must
    rebuild state byte-identical to the oracle at that point's durable
    prefix.  Also asserts the crash surfaced
    as a typed error (no hang, no silent success) and that the fault
    actually fired.  Returns violation strings; empty means the
    invariant held."""
    import asyncio

    from ..core.serialization import policy_to_json
    from ..serve import PolicyDecisionPoint
    from .generators import PolicyShape

    if shape is None:
        shape = PolicyShape()
    if points is None:
        points = INJECTION_POINTS
    if crash_batch is None:
        crash_batch = batches // 2
    if not 0 <= crash_batch < batches:
        raise ReproError(
            f"crash_batch {crash_batch} outside [0, {batches})"
        )
    violations: list[str] = []
    plan, states = asyncio.run(
        _scripted_run(seed, batches, batch_size, shape)
    )
    with _campaign_dir(workdir, "repro-crash-") as workdir:
        for point in points:
            if point not in _DURABLE_OFFSET:
                raise ReproError(f"unknown injection point {point!r}")
            path = os.path.join(workdir, point.replace(".", "_") + ".wal")
            fault, failure = asyncio.run(
                _victim_run(seed, plan, shape, path, point, crash_batch)
            )
            if fault.fired == 0:
                violations.append(f"{point}: armed fault never fired")
                continue
            if failure is None:
                violations.append(
                    f"{point}: crash surfaced no typed error "
                    "(hang or silent success)"
                )
                continue
            expected_doc, expected_version = states[
                crash_batch + _DURABLE_OFFSET[point]
            ]
            try:
                recovered = PolicyDecisionPoint.recover(path)
            except ReproError as error:
                violations.append(f"{point}: recovery failed: {error}")
                continue
            recovered.wal.close()
            document = policy_to_json(recovered.monitor.policy)
            if document != expected_doc:
                violations.append(
                    f"{point}: recovered policy diverges from oracle at "
                    f"durable batch {crash_batch + _DURABLE_OFFSET[point]}"
                )
            if recovered.monitor.policy.version != expected_version:
                violations.append(
                    f"{point}: recovered version "
                    f"{recovered.monitor.policy.version} != oracle "
                    f"{expected_version}"
                )
            if recovered.version != expected_version:
                violations.append(
                    f"{point}: published snapshot version "
                    f"{recovered.version} != oracle {expected_version}"
                )
    return violations


def wal_tamper_campaign(
    seed: int = 0,
    batches: int = 4,
    batch_size: int = 6,
    shape=None,
) -> list[str]:
    """Every single-record mutation, omission, and truncation of a
    healthy log must be rejected by :func:`~repro.serve.wal.verify_chain`.

    Builds one healthy WAL, then for **every** record produces three
    tampered variants — payload mutated (stored digest kept), record
    omitted, log truncated at the record — and requires the strict
    read/verify path (anchored at the known head digest, the way
    ``repro wal verify --head`` runs) to raise
    :class:`~repro.serve.wal.WalError` for each.  Returns violation
    strings for any tamper that was accepted."""
    import asyncio
    import json

    from ..serve.wal import WalError, read_wal, verify_chain
    from .generators import PolicyShape

    if shape is None:
        shape = PolicyShape()
    with tempfile.TemporaryDirectory(prefix="repro-tamper-") as workdir:
        path = os.path.join(workdir, "healthy.wal")
        asyncio.run(
            _scripted_run(seed, batches, batch_size, shape, wal_path=path)
        )
        records, _ = read_wal(path)
        head = verify_chain(records)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()

        def _mutate(line: bytes) -> bytes:
            document = json.loads(line)
            version = document["payload"].get("version")
            document["payload"]["version"] = (
                version + 1 if isinstance(version, int) else 1
            )
            return json.dumps(
                document, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")

        violations: list[str] = []
        tampered_path = os.path.join(workdir, "tampered.wal")
        for index in range(len(lines)):
            variants = (
                ("mutation", lines[:index] + [_mutate(lines[index])]
                 + lines[index + 1:]),
                ("omission", lines[:index] + lines[index + 1:]),
                ("truncation", lines[:index]),
            )
            for name, tampered in variants:
                with open(tampered_path, "wb") as handle:
                    for line in tampered:
                        handle.write(line + b"\n")
                try:
                    tampered_records, _ = read_wal(tampered_path)
                    verify_chain(tampered_records, expected_head=head)
                except WalError:
                    continue
                violations.append(
                    f"record {index}: {name} accepted by verify_chain"
                )
    return violations
