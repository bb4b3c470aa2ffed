"""Invariant 11: the bitset-compiled lint pass is observationally
identical to the frozenset oracle (workloads harness)."""

import pytest

from repro.workloads.fuzz import fuzz_lint
from repro.workloads.generators import PolicyShape


@pytest.mark.parametrize("seed", range(10))
def test_lint_campaigns(seed):
    """Findings, severities, witnesses, repairs and rule statistics
    must be identical across kernels — initially and after every
    ID-recycling churn round, with sampled SSD constraints."""
    report = fuzz_lint(seed)
    assert report.ok, report.violations[:5]


def test_campaign_with_nested_terms():
    """Deeper admin terms widen the rectangle structure the rules
    sweep; the campaign must still come back clean."""
    report = fuzz_lint(
        17,
        steps=16,
        shape=PolicyShape(
            n_users=3, n_roles=4, n_admin_privileges=5, max_nesting=3
        ),
        rounds=2,
    )
    assert report.ok, report.violations[:5]


@pytest.mark.parametrize("seed", range(8))
def test_session_campaigns_on_wider_policies(seed):
    """Wider policies with deeper terms give the session's re-lints
    more grants whose holders, rectangles and assigners a burst can
    change independently of one another."""
    report = fuzz_lint(
        seed,
        shape=PolicyShape(
            n_users=6, n_roles=7, n_admin_privileges=6, max_nesting=3
        ),
    )
    assert report.ok, report.violations[:5]


def test_session_relints_compare_and_carry_depth_k_findings():
    """Each campaign plants a two-step grant chain, so the session
    differential sees ``depth-k-escalation`` findings: over seeds 0-4
    at CI's churn length its re-lints compare some and carry some
    across bursts that leave the chain alone, on both kernels."""
    reports = [fuzz_lint(seed, steps=40) for seed in range(5)]
    assert all(report.ok for report in reports)

    def total(name):
        return sum(report.counts.get(name, 0) for report in reports)

    assert total("depth_k_compared") > 0
    assert total("depth_k_carried_compiled") > 0
    assert total("depth_k_carried_frozenset") > 0


def test_campaign_deterministic_in_seed():
    first = fuzz_lint(3)
    second = fuzz_lint(3)
    assert first.violations == second.violations
    assert first.counts == second.counts
    assert first.ok
