"""Spans recorded from outside the program, around its public calls.

The benchmark's traced run patches public methods at class or module
level — where the caller looks the name up, so a function imported
into another module is patched in that module — before the PDP is
built.  Every call then records a span: name, start, end, the span
that was open when it started (a :mod:`contextvars` variable, so
concurrent asyncio tasks each see their own parent), the request it
belongs to, and the writer batch it ran in.  Spans stay in memory and
are written to JSON when the run ends.

Per-probe leaf calls (``DecisionCache.get``) would dominate the span
count, so they are *aggregated*: their calls, time and hits are
counted, and their time is charged to the parent span's children
total, which keeps the parent's self time exact without storing one
span per probe.

Self time of a stored span is its duration minus the part of its
interval covered by its children (the union of the stored children's
intervals, plus the aggregated children's summed time).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time

#: (module, attribute path, span name, aggregate?) — the layer
#: boundaries the traced run records.  Each entry names the place a
#: caller looks the callable up.
LAYER_PATCHES = (
    ("repro.serve.pdp", "PolicyDecisionPoint.check_many", "pdp.check_many", False),
    ("repro.serve.pdp", "PolicyDecisionPoint.submit_many", "pdp.submit_many", False),
    ("repro.serve.ratelimit", "RateLimiter.check", "ratelimit.check", True),
    ("repro.serve.cache", "DecisionCache.get", "cache.get", True),
    ("repro.serve.cache", "DecisionCache.advance", "cache.advance", False),
    ("repro.serve.cache", "dirty_region", "graph.dirty_region", False),
    ("repro.core.authz_index", "ReviewSnapshot.__init__", "snapshot.init", False),
    ("repro.core.authz_index", "ReviewSnapshot.authorizes_batch",
     "snapshot.authorizes_batch", False),
    ("repro.core.authz_index", "AuthorizationIndex.__init__", "index.build", False),
    ("repro.core.monitor", "ReferenceMonitor.submit_queue",
     "monitor.submit_queue", False),
    ("repro.serve.wal", "PolicyWal.append_batch", "wal.append_batch", False),
    ("repro.core.policy", "Policy.copy", "policy.copy", False),
    ("repro.analysis.lint", "lint_policy", "lint.lint_policy", False),
    ("repro.analysis.repair", "lint_policy", "lint.lint_policy", False),
    ("repro.analysis.repair", "refinement_counterexample",
     "refinement.counterexample", False),
)


class Span:
    """One recorded call.  Times are ``perf_counter_ns`` integers."""

    __slots__ = ("sid", "name", "start", "end", "parent", "request",
                 "batch", "child_ns", "size")

    def __init__(self, sid, name, start, parent, request, batch):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.batch = batch
        #: summed time of aggregated (unstored) children.
        self.child_ns = 0
        #: items the call handled (sweep pairs, batch commands), or 0.
        self.size = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.request, self.batch, self.size]


def self_times(spans) -> dict[int, int]:
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part of its interval
    that its direct children cover: overlapping children (concurrent
    tasks under one parent) are counted once, and each child is
    clipped to the parent's interval.  ``child_ns`` (aggregated
    children) is subtracted as a plain sum."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = max(0, span.duration - covered - span.child_ns)
    return result


class Aggregate:
    """Counters for an aggregated leaf: calls, total time, hits."""

    __slots__ = ("calls", "total_ns", "hits")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.hits = 0


class Tracer:
    """Records spans around patched public calls.

    ``install()`` applies :data:`LAYER_PATCHES`; ``uninstall()``
    restores every original.  Spans are recorded only while
    ``recording`` is true, so set-up work done with the patches in
    place stays out of the trace."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self.recording = False
        #: submit_many span per queued command, by command identity.
        self.pending_writes: dict[int, Span] = {}
        #: (write request span, batch span) for every queued command.
        self.write_links: list[tuple[Span, Span]] = []
        self._current = contextvars.ContextVar("e2e_span", default=None)
        self._request = contextvars.ContextVar("e2e_request", default=None)
        self._batch = contextvars.ContextVar("e2e_batch", default=None)
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------
    def _open(self, name: str) -> Span:
        self._next_id += 1
        parent = self._current.get()
        return Span(
            self._next_id, name, time.perf_counter_ns(),
            None if parent is None else parent.sid,
            self._request.get(), self._batch.get(),
        )

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.spans.append(span)

    def request(self, name: str) -> "_RequestScope":
        """A benchmark-side request span: every span opened inside it (in
        this task, or in callbacks scheduled from it) shares its id."""
        return _RequestScope(self, name)

    def aggregate(self, name: str) -> Aggregate:
        found = self.aggregates.get(name)
        if found is None:
            found = self.aggregates[name] = Aggregate()
        return found

    # -- patching -----------------------------------------------------
    def install(self) -> None:
        for module_name, path, name, aggregated in LAYER_PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # A class attribute is read from the class dict, so the
            # plain function (not a bound method) is wrapped and put back.
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, aggregated))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, name: str, function, aggregated: bool):
        tracer = self
        if aggregated:
            counters = self.aggregate(name)

            @functools.wraps(function)
            def leaf(*args, **kwargs):
                if not tracer.recording:
                    return function(*args, **kwargs)
                started = time.perf_counter_ns()
                result = function(*args, **kwargs)
                elapsed = time.perf_counter_ns() - started
                counters.calls += 1
                counters.total_ns += elapsed
                if result is not None:
                    counters.hits += 1
                parent = tracer._current.get()
                if parent is not None:
                    parent.child_ns += elapsed
                return result

            return leaf
        hook = _HOOKS.get(name)
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                if not tracer.recording:
                    return await function(*args, **kwargs)
                span = tracer._open(name)
                if hook is not None:
                    hook(tracer, span, args)
                token = tracer._current.set(span)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    tracer._close(span)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            span = tracer._open(name)
            if hook is not None:
                hook(tracer, span, args)
            token = tracer._current.set(span)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._current.reset(token)
                tracer._close(span)

        return traced

    # -- output -------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span and aggregate as JSON."""
        document = {
            "fields": ["sid", "name", "start_ns", "end_ns", "parent",
                       "request", "batch", "size"],
            "spans": [span.as_list() for span in self.spans],
            "aggregates": {
                name: {"calls": a.calls, "total_ns": a.total_ns,
                       "hits": a.hits}
                for name, a in self.aggregates.items()
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


class _RequestScope:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.span: Span | None = None

    def __enter__(self) -> Span | None:
        tracer = self.tracer
        if not tracer.recording:
            return None
        span = self.span = tracer._open(self.name)
        span.request = span.sid
        self._tokens = (
            tracer._current.set(span), tracer._request.set(span.sid),
        )
        return span

    def __exit__(self, *exc) -> None:
        if self.span is None:
            return
        current, request = self._tokens
        self.tracer._request.reset(request)
        self.tracer._current.reset(current)
        self.tracer._close(self.span)


def _sweep_size(tracer: Tracer, span: Span, args) -> None:
    span.size = len(args[1])


def _queue_writes(tracer: Tracer, span: Span, args) -> None:
    commands = args[1]
    span.size = len(commands)
    for command in commands:
        tracer.pending_writes[id(command)] = span


def _open_batch(tracer: Tracer, span: Span, args) -> None:
    """Start of a writer batch: tag the writer task's context so the
    WAL append, publication and cache advance that follow in the same
    task carry this batch's id, and link each queued command's
    request to the batch."""
    queue = args[1]
    span.size = len(queue)
    span.batch = span.sid
    tracer._batch.set(span.sid)
    for command in queue:
        request = tracer.pending_writes.pop(id(command), None)
        if request is not None:
            tracer.write_links.append((request, span))


_HOOKS = {
    "snapshot.authorizes_batch": _sweep_size,
    "pdp.submit_many": _queue_writes,
    "monitor.submit_queue": _open_batch,
}
