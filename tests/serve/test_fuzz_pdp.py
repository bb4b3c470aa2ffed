"""The PDP fuzzing campaigns (invariant 14 of workloads.fuzz).

Concurrent readers and a chunked writer interleave over an asyncio
PDP under recycling churn; every decision is pinned against a
synchronous :class:`~repro.oracle.ReferenceIndex` (the frozenset
reference) at its snapshot version, every applied micro-batch is
replayed through a fresh synchronous monitor, and the rate-limited and
cache-hit paths are required to fire.
"""

import pytest

from repro.core.authz_index import ReviewSnapshot
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
