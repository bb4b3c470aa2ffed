"""The policy write-ahead log: durable, hash-chained, replayable.

Reuses the append/replay idiom of the kvlog backend
(:mod:`repro.dbms.backends.kvlog`) for the PDP's mutation stream:
every accepted micro-batch becomes one canonical JSON line, fsync'd
**before** the batch's futures resolve, so an acknowledged mutation
survives any process death.  Three record kinds:

``genesis``
    The full policy document and version at the moment the WAL was
    attached — the replay starting point.
``batch``
    One applied micro-batch: the commands (via
    :func:`~repro.core.serialization.command_to_dict`), the
    executed/noop outcome per command (a replay-divergence tripwire —
    batched ``submit_queue`` decisions are deterministic functions of
    batch-entry state, so replay must reproduce them exactly), and the
    post-batch policy version.
``rebase``
    A fresh full policy document mid-log.  Appended when the policy
    version drifted past what the WAL recorded — out-of-band churn
    through :meth:`~repro.serve.pdp.PolicyDecisionPoint.refresh`, or
    the writer resynchronizing after an append failure — so replay
    never has to reconstruct mutations the log never saw.

Tamper evidence is a SHA-256 hash chain: each record's ``digest``
covers its ``seq``, ``kind``, ``payload`` and the *predecessor's
digest* (``prev``), over a canonical encoding (sorted keys, tight
separators).  :func:`verify_chain` therefore detects any single-record
**mutation** (digest mismatch), **omission** (seq gap / prev-link
break) and — given the expected head digest — **truncation** of the
tail.  A *torn tail* (one final line without its newline) is the
legitimate crash artifact: the batch it belonged to was never
acknowledged (fsync precedes resolution), so recovery may drop it;
everything else is corruption.

Recovery is deterministic replay: :func:`replay_wal` rebuilds the
policy from the genesis document, re-aligns the version counter
(:meth:`~repro.graph.digraph.Digraph.fast_forward_version`), and
re-executes every batch through ``submit_queue(batched=True)`` —
byte-identical to the uninterrupted run at the durable prefix, on
either kernel (fuzz invariant 15 pins exactly this).
"""

from __future__ import annotations

import hashlib
import json
import os

from ..core.commands import Mode
from ..core.monitor import ReferenceMonitor
from ..core.serialization import (
    command_from_dict,
    command_to_dict,
    policy_from_dict,
    policy_to_dict,
)
from ..errors import ReproError
from ..workloads.faults import FAULTS, CrashInjected

__all__ = [
    "GENESIS_PREV",
    "PolicyWal",
    "WalError",
    "WalRecord",
    "iter_wal",
    "read_wal",
    "repair_torn_tail",
    "replay_wal",
    "verify_chain",
]

#: The ``prev`` digest of the genesis record (no predecessor).
GENESIS_PREV = "0" * 64

_KINDS = ("genesis", "batch", "rebase")


class WalError(ReproError):
    """A corrupt, tampered, or misused write-ahead log."""


class WalRecord:
    """One parsed log record (immutable value object)."""

    __slots__ = ("seq", "kind", "payload", "prev", "digest")

    def __init__(self, seq: int, kind: str, payload: dict,
                 prev: str, digest: str):
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.prev = prev
        self.digest = digest

    def __repr__(self) -> str:
        return (
            f"WalRecord(seq={self.seq}, kind={self.kind!r}, "
            f"digest={self.digest[:12]}...)"
        )


def _canonical(seq: int, kind: str, payload: dict, prev: str) -> bytes:
    """The digest pre-image: the record minus its own digest, in
    canonical JSON (sorted keys, tight separators) — the encoding the
    chain is defined over, independent of line formatting."""
    return json.dumps(
        {"kind": kind, "payload": payload, "prev": prev, "seq": seq},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def _digest(seq: int, kind: str, payload: dict, prev: str) -> str:
    return hashlib.sha256(_canonical(seq, kind, payload, prev)).hexdigest()


def _encode(record: WalRecord) -> bytes:
    return json.dumps(
        {
            "digest": record.digest,
            "kind": record.kind,
            "payload": record.payload,
            "prev": record.prev,
            "seq": record.seq,
        },
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8") + b"\n"


def _parse_line(data: bytes, line_number: int) -> WalRecord:
    try:
        document = json.loads(data)
    except ValueError as error:
        raise WalError(
            f"WAL line {line_number} is not valid JSON: {error}"
        ) from None
    if not isinstance(document, dict):
        raise WalError(f"WAL line {line_number} is not a record object")
    seq = document.get("seq")
    kind = document.get("kind")
    payload = document.get("payload")
    prev = document.get("prev")
    digest = document.get("digest")
    if (
        not isinstance(seq, int)
        or kind not in _KINDS
        or not isinstance(payload, dict)
        or not isinstance(prev, str)
        or not isinstance(digest, str)
    ):
        raise WalError(f"WAL line {line_number} is malformed: {data[:80]!r}")
    return WalRecord(seq, kind, payload, prev, digest)


def _scan_wal(path: str, tolerate_torn_tail: bool):
    """Parse the log at ``path`` one line at a time, yielding
    ``(offset, record)``: the byte offset of each record's line, and
    ``(offset, None)`` last for a tolerated torn tail.  Streaming keeps
    memory flat in the log's length for callers that need no list."""
    offset = 0
    with open(path, "rb") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.endswith(b"\n"):
                # Unterminated final line: the torn-write artifact.
                if not tolerate_torn_tail:
                    raise WalError(
                        f"WAL has a torn tail at byte {offset} (line "
                        f"{line_number}): recover with "
                        "tolerate_torn_tail=True, or the file is corrupt"
                    )
                yield offset, None
                return
            if line.strip():
                yield offset, _parse_line(line[:-1], line_number)
            offset += len(line)


def iter_wal(path: str):
    """The records of the cleanly terminated log at ``path``, parsed
    lazily (a torn tail raises, as in strict :func:`read_wal`)."""
    return (record for _, record in _scan_wal(path, False))


def read_wal(
    path: str, tolerate_torn_tail: bool = False
) -> tuple[list[WalRecord], int | None]:
    """Parse the log at ``path`` into records.

    Returns ``(records, torn_offset)``: ``torn_offset`` is the byte
    offset of a torn tail (a final line missing its newline — the one
    legitimate crash artifact, dropped from ``records``), or None for
    a cleanly terminated file.  With ``tolerate_torn_tail=False`` a
    torn tail raises instead — the strict mode ``verify`` uses.  Any
    malformed *newline-terminated* line is corruption and always
    raises :class:`WalError`."""
    records: list[WalRecord] = []
    torn_offset: int | None = None
    for offset, record in _scan_wal(path, tolerate_torn_tail):
        if record is None:
            torn_offset = offset
        else:
            records.append(record)
    return records, torn_offset


def repair_torn_tail(path: str) -> int | None:
    """Truncate a torn tail off the log at ``path`` so appends can
    resume on a clean record boundary.  Returns the truncation offset,
    or None when the file was already cleanly terminated.  The dropped
    batch was never acknowledged (fsync precedes future resolution),
    so no caller was told it survived."""
    torn_offset = None
    for offset, record in _scan_wal(path, tolerate_torn_tail=True):
        if record is None:
            torn_offset = offset
    if torn_offset is not None:
        with open(path, "rb+") as handle:
            handle.truncate(torn_offset)
            handle.flush()
            os.fsync(handle.fileno())
    return torn_offset


def verify_chain(records, expected_head: str | None = None) -> str:
    """Verify the full tamper-evidence contract over ``records`` (any
    iterable, e.g. :func:`iter_wal`); returns the head digest.  Raises
    :class:`WalError` naming the first violated link:

    * the log is non-empty and starts with a ``genesis`` at seq 0
      whose ``prev`` is the all-zero digest;
    * sequence numbers are contiguous (an omitted record breaks this
      even if the tamperer re-links ``prev``);
    * every record's stored digest matches a recomputation over its
      canonical encoding (mutation detection);
    * every record's ``prev`` equals its predecessor's digest
      (omission/reorder detection — re-sequencing without re-hashing
      breaks here);
    * with ``expected_head``, the final record's digest matches it
      (tail-truncation detection: a truncated log is internally
      consistent, so the head must be anchored outside the file —
      the live WAL's in-memory head, or an operator-recorded anchor).
    """
    head = GENESIS_PREV
    position = -1
    for position, record in enumerate(records):
        if record.seq != position:
            raise WalError(
                f"sequence break at record {position}: stored seq "
                f"{record.seq} (omitted or reordered record)"
            )
        if position == 0 and record.kind != "genesis":
            raise WalError(
                f"record 0 is {record.kind!r}, expected genesis"
            )
        if position > 0 and record.kind == "genesis":
            raise WalError(f"unexpected genesis at record {position}")
        if record.prev != head:
            raise WalError(
                f"hash chain broken at record {position}: prev "
                f"{record.prev[:12]}... does not match predecessor "
                f"digest {head[:12]}..."
            )
        recomputed = _digest(
            record.seq, record.kind, record.payload, record.prev
        )
        if recomputed != record.digest:
            raise WalError(
                f"digest mismatch at record {position}: stored "
                f"{record.digest[:12]}..., recomputed "
                f"{recomputed[:12]}... (record mutated)"
            )
        head = record.digest
    if position < 0:
        raise WalError("empty WAL: no genesis record")
    if expected_head is not None and head != expected_head:
        raise WalError(
            f"head digest {head[:12]}... does not match expected "
            f"{expected_head[:12]}... (log truncated or diverged)"
        )
    return head


def replay_wal(records) -> ReferenceMonitor:
    """Deterministically rebuild the pre-crash monitor from verified
    ``records`` (any iterable): policy document + version fast-forward
    at genesis and every rebase, one ``submit_queue(batched=True)``
    transaction per batch record.  Each batch's recorded executed/noop
    outcomes and post-batch version are cross-checked — a mismatch
    means the log does not describe this codebase's deterministic
    decision function and replay must not silently continue."""
    monitor: ReferenceMonitor | None = None
    for record in records:
        if record.kind in ("genesis", "rebase"):
            policy = policy_from_dict(record.payload.get("policy"))
            version = record.payload.get("version")
            if not isinstance(version, int):
                raise WalError(
                    f"record {record.seq}: missing policy version"
                )
            policy.graph.fast_forward_version(version)
            monitor = ReferenceMonitor(
                policy, mode=Mode.REFINED, use_index=True
            )
            continue
        if monitor is None:
            raise WalError(f"batch record {record.seq} before genesis")
        payload = record.payload
        try:
            commands = [
                command_from_dict(document)
                for document in payload.get("commands", [])
            ]
        except ReproError as error:
            raise WalError(
                f"record {record.seq}: undecodable command: {error}"
            ) from None
        outcomes = payload.get("outcomes")
        version = payload.get("version")
        replayed = monitor.submit_queue(commands, batched=True)
        observed = [
            [record_out.executed, record_out.noop]
            for record_out in replayed
        ]
        if outcomes is not None and observed != outcomes:
            raise WalError(
                f"replay divergence at record {record.seq}: recorded "
                f"outcomes {outcomes} != replayed {observed}"
            )
        if isinstance(version, int) and monitor.policy.version != version:
            raise WalError(
                f"replay divergence at record {record.seq}: recorded "
                f"version {version} != replayed "
                f"{monitor.policy.version}"
            )
    if monitor is None:
        raise WalError("empty WAL: nothing to replay")
    return monitor


class PolicyWal:
    """An append handle over one hash-chained policy log.

    Opening an existing file parses and chains it (so appends continue
    the chain); a torn tail is refused here — run
    :func:`repair_torn_tail` first (the recovery entry point
    :meth:`PolicyDecisionPoint.recover` does) so appends never land
    mid-record.  ``fsync=False`` trades durability for speed (the
    bench's no-durability baseline); the serving default is True.
    """

    def __init__(self, path, fsync: bool = True):
        self.path = str(path)
        self.fsync = fsync
        self._handle = None
        self.head = GENESIS_PREV
        self.next_seq = 0
        self.records = 0
        self.batches = 0
        self.bytes_written = 0
        #: policy version after the last appended record (None before
        #: genesis) — the writer's drift tripwire.
        self.last_version: int | None = None
        #: non-None once the on-disk state no longer matches this
        #: handle's chain position (a simulated mid-append death, or an
        #: append failure whose rollback failed too): every further
        #: append is refused — writing on ambiguous state would
        #: duplicate a seq and corrupt the chain for good.
        self._poisoned: str | None = None
        if os.path.exists(self.path) and os.path.getsize(self.path):
            self.head = verify_chain(self._tally(iter_wal(self.path)))
            self.next_seq = self.records
            self.bytes_written = os.path.getsize(self.path)

    def _tally(self, records):
        """Pass ``records`` through, counting them (and the batches)
        and keeping the last recorded policy version — the handle's
        position in an existing log, read in one streaming pass."""
        for record in records:
            self.records += 1
            if record.kind == "batch":
                self.batches += 1
            version = record.payload.get("version")
            if isinstance(version, int):
                self.last_version = version
            yield record

    # -- appends -------------------------------------------------------
    def _append(self, kind: str, payload: dict) -> WalRecord:
        if self._poisoned is not None:
            raise WalError(
                f"WAL at {self.path} refuses appends: {self._poisoned}"
            )
        if FAULTS.active:
            FAULTS.hit("wal.before_append")
        record = WalRecord(
            self.next_seq, kind, payload, self.head,
            _digest(self.next_seq, kind, payload, self.head),
        )
        line = _encode(record)
        if self._handle is None:
            self._handle = open(self.path, "ab")
        if FAULTS.active:
            torn = FAULTS.torn_prefix("wal.torn_write", line)
            if torn is not None:
                # A simulated process death mid-write: the prefix
                # stays on disk (recovery repairs it) and — exactly
                # like a real kill — no cleanup runs, so the handle is
                # done for.
                self._poisoned = "simulated crash mid-append (torn write)"
                self._handle.write(torn)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                raise CrashInjected("wal.torn_write")
        try:
            self._handle.write(line)
            self._handle.flush()
            if FAULTS.active:
                FAULTS.hit("wal.before_fsync")
            if self.fsync:
                os.fsync(self._handle.fileno())
        except CrashInjected:
            # A simulated process death after the line (possibly)
            # reached the file: no cleanup, recovery decides what
            # survived the page cache.
            self._poisoned = "simulated crash mid-append"
            raise
        except BaseException as error:
            # The line may be wholly or partly on disk while
            # head/next_seq still describe the pre-append state; a
            # supervised retry or rebase on top would duplicate the
            # seq and break the chain permanently.  Wind the file back
            # to the last durable record boundary first.
            self._rollback(error)
            raise
        self.head = record.digest
        self.next_seq += 1
        self.records += 1
        self.bytes_written += len(line)
        version = payload.get("version")
        if isinstance(version, int):
            self.last_version = version
        if FAULTS.active:
            FAULTS.hit("wal.after_append")
        return record

    def _rollback(self, cause: BaseException) -> None:
        """Truncate the file back to ``bytes_written`` — the end of the
        last *successful* append, the repair_torn_tail idiom applied
        eagerly — so the failed line never coexists with its retry.
        If even the rollback fails, post-write state is ambiguous and
        the handle is poisoned: further appends are refused (the
        writer's resync path then forces the breaker open, and reads
        keep serving)."""
        try:
            if self._handle is not None:
                try:
                    # Drop any bytes still buffered from the failed
                    # write before truncating on a fresh handle.
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
            with open(self.path, "rb+") as handle:
                handle.truncate(self.bytes_written)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            self._poisoned = (
                f"append failed ({cause}) and rollback to byte "
                f"{self.bytes_written} failed too ({error})"
            )

    def append_genesis(self, policy) -> WalRecord:
        """Record the replay starting point; must be the first append."""
        if self.next_seq != 0:
            raise WalError(
                f"genesis must be record 0, log already holds "
                f"{self.next_seq} record(s)"
            )
        return self._append(
            "genesis",
            {"policy": policy_to_dict(policy), "version": policy.version},
        )

    def append_batch(self, commands, outcomes, version: int) -> WalRecord:
        """Record one applied micro-batch (commands, executed/noop
        outcome per command, post-batch policy version)."""
        if self.next_seq == 0:
            raise WalError("cannot append a batch before genesis")
        record = self._append(
            "batch",
            {
                "commands": [
                    command_to_dict(command) for command in commands
                ],
                "outcomes": [list(outcome) for outcome in outcomes],
                "version": version,
            },
        )
        self.batches += 1
        return record

    def append_rebase(self, policy) -> WalRecord:
        """Record a full policy document mid-log — the resync record
        for out-of-band churn and append-failure recovery."""
        if self.next_seq == 0:
            raise WalError("cannot rebase before genesis")
        return self._append(
            "rebase",
            {"policy": policy_to_dict(policy), "version": policy.version},
        )

    # -- maintenance ---------------------------------------------------
    def verify(self, expected_head: str | None = None) -> dict:
        """Re-read and verify the file on disk; returns a stats dict.
        With no explicit anchor, the handle's in-memory head pins the
        tail — so truncation behind a live WAL is caught too."""
        records, _ = read_wal(self.path, tolerate_torn_tail=False)
        anchor = expected_head
        if anchor is None and self.records:
            anchor = self.head
        head = verify_chain(records, expected_head=anchor)
        return {
            "records": len(records),
            "batches": sum(1 for r in records if r.kind == "batch"),
            "head": head,
            "version": next(
                (
                    r.payload["version"] for r in reversed(records)
                    if isinstance(r.payload.get("version"), int)
                ),
                None,
            ),
        }

    @property
    def poisoned(self) -> str | None:
        """Why this handle refuses appends, or None while healthy."""
        return self._poisoned

    def statistics(self) -> dict:
        return {
            "path": self.path,
            "records": self.records,
            "batches": self.batches,
            "bytes": self.bytes_written,
            "head": self.head,
            "version": self.last_version,
            "fsync": self.fsync,
            "poisoned": self._poisoned,
        }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
