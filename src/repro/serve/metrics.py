"""Metrics surface for the serving layer.

Counters, gauges and log-bucketed latency histograms, all plain
in-process objects: the PDP increments them on its hot paths and
``snapshot()`` renders one JSON-able dict for the CLI, the bench and
the tests.  Latency percentiles (p50/p99) come from the histogram's
cumulative bucket walk — the production idiom (fixed memory, no sample
retention) — with the reported value being the geometric midpoint of
the bucket containing the requested quantile.
"""

from __future__ import annotations

import math


class LatencyHistogram:
    """Log-spaced latency buckets over seconds.

    Bucket ``i`` covers ``[start * factor**i, start * factor**(i+1))``;
    observations below ``start`` land in bucket 0 and observations past
    the last boundary land in the overflow bucket.  With the defaults
    (1 µs start, x2 factor, 36 buckets) the range spans 1 µs to ~68 s,
    ample for an in-process decision path.
    """

    __slots__ = ("start", "factor", "_log_factor", "_counts", "count",
                 "total", "max")

    def __init__(
        self, start: float = 1e-6, factor: float = 2.0, buckets: int = 36
    ):
        if start <= 0 or factor <= 1 or buckets < 1:
            raise ValueError("histogram needs start>0, factor>1, buckets>=1")
        self.start = start
        self.factor = factor
        self._log_factor = math.log(factor)
        self._counts = [0] * (buckets + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        if seconds < self.start:
            index = 0
        else:
            index = int(
                math.log(seconds / self.start) / self._log_factor
            ) + 1
            if index >= len(self._counts):
                index = len(self._counts) - 1
        self._counts[index] += 1

    def _bucket_value(self, index: int) -> float:
        if index == 0:
            return self.start / 2
        low = self.start * self.factor ** (index - 1)
        return low * math.sqrt(self.factor)  # geometric midpoint

    def percentile(self, q: float) -> float:
        """The latency at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank and bucket:
                return min(self._bucket_value(index), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


class PdpMetrics:
    """The PDP's metric registry: one instance per decision point.

    Counters are monotone; gauges reflect the most recent observation
    (plus a high-water mark for queue depth and batch size).
    """

    __slots__ = (
        "decisions", "mutations", "cache_hits", "cache_misses",
        "rate_limited", "batches", "read_batches", "reviews",
        "queue_depth", "queue_depth_peak", "last_batch_size",
        "max_batch_size", "decision_latency", "mutation_latency",
        "writer_failures", "writer_shed", "queue_shed",
        "deadline_expired", "wal_appends",
        "publications", "materializations", "rewinds", "rewind_misses",
        "batch_apply_latency", "wal_append_latency", "queue_wait_latency",
    )

    def __init__(self):
        self.decisions = 0
        self.mutations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.rate_limited = 0
        self.batches = 0
        self.read_batches = 0
        self.reviews = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.last_batch_size = 0
        self.max_batch_size = 0
        self.decision_latency = LatencyHistogram()
        self.mutation_latency = LatencyHistogram()
        # Fault-tolerance surface: per-batch writer failures, writes
        # shed while the breaker is open, submits rejected by the
        # bounded queue, expired per-request deadlines, and the WAL's
        # append count/latency alongside the writer's apply latency.
        self.writer_failures = 0
        self.writer_shed = 0
        self.queue_shed = 0
        self.deadline_expired = 0
        self.wal_appends = 0
        # Publication on demand: versions the writer published, reader
        # snapshots captured, captures of a version the live policy had
        # moved past (rewound through the journal), and captures given
        # up because the journal no longer reached back.
        self.publications = 0
        self.materializations = 0
        self.rewinds = 0
        self.rewind_misses = 0
        self.batch_apply_latency = LatencyHistogram()
        self.wal_append_latency = LatencyHistogram()
        # Write-path stage: enqueue to the start of the command's batch.
        self.queue_wait_latency = LatencyHistogram()

    def observe_write_batch(self, size: int, depth: int) -> None:
        self.batches += 1
        self.mutations += size
        self.last_batch_size = size
        if size > self.max_batch_size:
            self.max_batch_size = size
        self.queue_depth = depth
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def snapshot(self) -> dict[str, object]:
        return {
            "decisions": self.decisions,
            "mutations": self.mutations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rate_limited": self.rate_limited,
            "batches": self.batches,
            "read_batches": self.read_batches,
            "reviews": self.reviews,
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "last_batch_size": self.last_batch_size,
            "max_batch_size": self.max_batch_size,
            "decision_latency": self.decision_latency.snapshot(),
            "mutation_latency": self.mutation_latency.snapshot(),
            "writer_failures": self.writer_failures,
            "writer_shed": self.writer_shed,
            "queue_shed": self.queue_shed,
            "deadline_expired": self.deadline_expired,
            "wal_appends": self.wal_appends,
            "publications": self.publications,
            "materializations": self.materializations,
            "rewinds": self.rewinds,
            "rewind_misses": self.rewind_misses,
            "batch_apply_latency": self.batch_apply_latency.snapshot(),
            "wal_append_latency": self.wal_append_latency.snapshot(),
            "queue_wait_latency": self.queue_wait_latency.snapshot(),
        }
