"""The PDP fuzzing campaigns (invariant 14 of workloads.fuzz).

Concurrent readers and a chunked writer interleave over an asyncio
PDP under recycling churn.  The PDP's WAL is the campaign's history:
every decision is pinned against a synchronous
:class:`~repro.oracle.ReferenceIndex` (the frozenset reference) over
its snapshot version's state as the log replays it, every published
snapshot must hold that state, every logged micro-batch is replayed
through a fresh synchronous monitor, and the rate-limited and
cache-hit paths are required to fire.
"""

import pytest

from repro.core.authz_index import ReviewSnapshot
from repro.core.policy import Policy
from repro.serve import DecisionCache, PolicyWal
from repro.workloads.fuzz import fuzz_pdp
from repro.workloads.generators import PolicyShape

SHAPE = PolicyShape(
    n_users=4, n_roles=5, n_admin_privileges=4, max_nesting=2
)


@pytest.mark.parametrize("seed", range(6))
def test_pdp_campaigns_compiled(seed):
    report = fuzz_pdp(seed, shape=SHAPE)
    assert report.ok, report.violations[:5]


@pytest.mark.parametrize("seed", range(6))
def test_pdp_campaigns_frozenset(seed, monkeypatch):
    """The frozenset reference side has teeth: with every snapshot
    read denied, each campaign must report decisions diverging from
    the reference."""
    monkeypatch.setattr(
        ReviewSnapshot, "authorizes_batch",
        lambda self, pairs: [None] * len(list(pairs)),
    )
    report = fuzz_pdp(seed, shape=SHAPE)
    assert any(
        "decision diverges from oracle" in violation
        for violation in report.violations
    )


@pytest.mark.parametrize("seed", range(3))
def test_published_snapshots_must_agree_with_the_log(seed, monkeypatch):
    """The WAL/snapshot agreement check has teeth: with the drift
    ``rebase`` records dropped, the snapshots published after
    out-of-band churn name versions the log cannot replay to."""
    monkeypatch.setattr(PolicyWal, "append_rebase", lambda self, policy: None)
    report = fuzz_pdp(seed, shape=SHAPE)
    assert any(
        violation.startswith("published snapshot at version")
        for violation in report.violations
    )


@pytest.mark.parametrize("seed", range(3))
def test_readers_must_not_see_the_live_policy_ahead_of_publication(
    seed, monkeypatch
):
    """The rewind has teeth: with the live policy copied instead of
    rewound, the reads across out-of-band churn materialize and answer
    at a version nobody published."""
    monkeypatch.setattr(Policy, "rewound", lambda self, version: self.copy())
    report = fuzz_pdp(seed, shape=SHAPE)
    assert any(
        violation.startswith("reader snapshot at version")
        for violation in report.violations
    )
    assert any(
        violation.startswith("decision at unpublished version")
        for violation in report.violations
    )


def test_cache_cursor_must_stop_at_the_materialized_version(monkeypatch):
    """The cache cursor has teeth: moved to the live head when the
    cache advances to a rewound version, the verdicts read across
    churn outlive the refresh that changes them."""
    advance = DecisionCache.advance

    def to_the_head(self, version):
        advance(self, version)
        self._cursor.version = self._graph.version

    monkeypatch.setattr(DecisionCache, "advance", to_the_head)
    reports = [fuzz_pdp(seed, shape=SHAPE) for seed in range(6)]
    assert any(
        violation.startswith("decision diverges from oracle")
        and "(cached=True)" in violation
        for report in reports
        for violation in report.violations
    )


def test_campaigns_exercise_both_outcomes():
    """Across seeds the interleaved campaigns must hit executed,
    denied, and implicit mutations — otherwise the replay comparisons
    are vacuous."""
    reports = [fuzz_pdp(seed, shape=SHAPE) for seed in range(4)]
    assert all(report.ok for report in reports)
    assert sum(report.executed for report in reports) > 0
    assert sum(report.denied for report in reports) > 0
    assert sum(report.implicit for report in reports) > 0


def test_deterministic_in_seed():
    first = fuzz_pdp(7, shape=SHAPE)
    second = fuzz_pdp(7, shape=SHAPE)
    assert (first.executed, first.denied, first.implicit) == (
        second.executed, second.denied, second.implicit
    )


def test_dense_shape_with_extra_rounds():
    shape = PolicyShape(
        n_users=5, n_roles=6, n_admin_privileges=6, max_nesting=2,
        ua_edges=8, rh_edges=9,
    )
    report = fuzz_pdp(42, steps=16, shape=shape, rounds=3)
    assert report.ok, report.violations[:5]
