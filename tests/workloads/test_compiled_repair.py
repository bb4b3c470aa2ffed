"""Invariant 13: the lint-to-repair engine agrees with its reference
run and is self-consistent (workloads harness).

Each campaign churns a random policy through ID-recycling rounds and,
per round, repairs it with the production driver and with
``repro.oracle.reference_repair_policy``: plan sequences and outcomes
must be identical, the repaired policies value-equal, every accepted
run a Definition-6 refinement of its baseline, and the result a
re-lint fixed point.
"""

import pytest

from repro.workloads.fuzz import fuzz_repair
from repro.workloads.generators import PolicyShape


@pytest.mark.parametrize("seed", range(10))
def test_repair_campaigns(seed):
    report = fuzz_repair(seed)
    assert report.ok, report.violations[:5]


def test_campaign_with_nested_terms():
    """Deeper admin terms produce richer escalation chains for the
    depth-k rule to repair; the campaign must still come back clean."""
    report = fuzz_repair(
        23,
        steps=14,
        shape=PolicyShape(
            n_users=3, n_roles=4, n_admin_privileges=5, max_nesting=3
        ),
        rounds=2,
    )
    assert report.ok, report.violations[:5]


def test_campaign_deterministic_in_seed():
    first = fuzz_repair(3)
    second = fuzz_repair(3)
    assert first.violations == second.violations
    assert first.ok
