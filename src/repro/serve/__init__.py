"""The serving layer: an asyncio policy-decision-point over the
reference monitor.

Single-writer micro-batched mutations (`submit_queue(batched=True)`
transactions), lock-free snapshot reads batched
through ``authorizes_batch``, a journal-invalidated decision cache,
per-principal token-bucket rate limiting and a metrics surface — see
:mod:`repro.serve.pdp` for the architecture and
``docs/ARCHITECTURE.md`` ("The serving layer") for the contract.

Fault tolerance rides on top: a hash-chained policy write-ahead log
(:mod:`repro.serve.wal`) makes every acknowledged batch durable and
crash recovery a deterministic replay
(:meth:`PolicyDecisionPoint.recover`), while the supervised writer
(:mod:`repro.serve.supervisor`) turns failures into typed errors,
backoff, and a degraded read-only mode — see ``docs/ARCHITECTURE.md``
("Fault tolerance & durability").
"""

from .cache import DecisionCache, cacheable
from .metrics import LatencyHistogram, PdpMetrics
from .pdp import Decision, PolicyDecisionPoint, as_command
from .ratelimit import RateLimited, RateLimiter, TokenBucket
from .supervisor import (
    DeadlineExceeded,
    QueueFull,
    ServiceStopped,
    SnapshotTooStale,
    WriterFailed,
    WriterSupervisor,
)
from .wal import (
    GENESIS_PREV,
    PolicyWal,
    WalError,
    WalRecord,
    iter_wal,
    read_wal,
    repair_torn_tail,
    replay_wal,
    state_at,
    verify_chain,
)

__all__ = [
    "DecisionCache",
    "cacheable",
    "LatencyHistogram",
    "PdpMetrics",
    "Decision",
    "PolicyDecisionPoint",
    "as_command",
    "RateLimited",
    "RateLimiter",
    "TokenBucket",
    "DeadlineExceeded",
    "QueueFull",
    "ServiceStopped",
    "SnapshotTooStale",
    "WriterFailed",
    "WriterSupervisor",
    "GENESIS_PREV",
    "PolicyWal",
    "WalError",
    "WalRecord",
    "iter_wal",
    "read_wal",
    "repair_torn_tail",
    "replay_wal",
    "state_at",
    "verify_chain",
]
