"""The monitor fuzzing campaigns (invariants 1–6 of workloads.fuzz)."""

import pytest

from repro.core.commands import Mode
from repro.workloads.fuzz import fuzz_many, fuzz_monitor
from repro.workloads.generators import PolicyShape


@pytest.mark.parametrize("seed", range(8))
def test_refined_mode_campaigns(seed):
    report = fuzz_monitor(seed, steps=50)
    assert report.ok, report.violations
    assert report.steps == 50


@pytest.mark.parametrize("seed", range(4))
def test_strict_mode_campaigns(seed):
    report = fuzz_monitor(seed, steps=50, mode=Mode.STRICT)
    assert report.ok, report.violations


def test_campaigns_exercise_both_outcomes():
    """Across seeds the fuzzer must actually hit executed, denied, and
    implicit decisions — otherwise the invariants are vacuous."""
    reports = fuzz_many(range(10), steps=40)
    assert sum(r.executed for r in reports) > 0
    assert sum(r.denied for r in reports) > 0
    assert sum(r.implicit for r in reports) > 0
    assert all(r.ok for r in reports)


def test_dense_admin_shape():
    shape = PolicyShape(
        n_admin_privileges=8, max_nesting=3, ua_edges=10, rh_edges=14
    )
    report = fuzz_monitor(99, steps=60, shape=shape)
    assert report.ok, report.violations


def test_deterministic_in_seed():
    first = fuzz_monitor(5, steps=30)
    second = fuzz_monitor(5, steps=30)
    assert (first.executed, first.denied, first.implicit) == (
        second.executed, second.denied, second.implicit
    )


@pytest.mark.parametrize("seed", range(6))
def test_batch_authz_campaigns(seed):
    """Invariant 12: batch authorization is element-for-element
    identical to scalar calls on both kernels, across recycling churn,
    ghost subjects, and equal-but-distinct query objects."""
    from repro.workloads.fuzz import fuzz_batch_authz

    shape = PolicyShape(
        n_users=4, n_roles=5, n_admin_privileges=4, max_nesting=2
    )
    report = fuzz_batch_authz(seed, steps=20, shape=shape, queries=120)
    assert report.ok, report.violations[:5]


def test_fuzz_many_wires_batch_campaigns():
    """``fuzz_many(batch=True)`` appends one invariant-12 campaign per
    seed alongside the monitor campaigns."""
    shape = PolicyShape(
        n_users=4, n_roles=5, n_admin_privileges=3, max_nesting=2
    )
    seeds = range(2)
    plain = fuzz_many(seeds, steps=15, shape=shape)
    with_batch = fuzz_many(seeds, steps=15, shape=shape, batch=True)
    assert len(with_batch) == len(plain) + len(list(seeds))
    assert all(r.ok for r in with_batch)
