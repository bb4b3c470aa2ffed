"""Property-based tests for versioned administration on the WAL."""

import asyncio
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.commands import Mode, candidate_commands, effective_commands
from repro.core.diff import diff_policies
from repro.core.monitor import ReferenceMonitor
from repro.core.serialization import command_from_dict
from repro.serve import (
    PolicyDecisionPoint,
    PolicyWal,
    read_wal,
    replay_wal,
    state_at,
)

from .strategies import policies

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def served(policy, scenario):
    """Run ``scenario(pdp)`` on a started PDP over ``policy`` whose
    WAL lives in a temporary directory; returns the scenario's result
    and the log's records."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "p.wal")

        async def main():
            pdp = PolicyDecisionPoint(
                policy=policy, wal=PolicyWal(path, fsync=False)
            )
            async with pdp:
                return await scenario(pdp)

        result = asyncio.run(main())
        records, _ = read_wal(path)
    return result, records


async def drive(pdp, data, max_batches: int = 4, churn: bool = False):
    """Submit random batches from the candidate command universe,
    biased toward the commands executable at the time; with
    ``churn``, remove a random edge behind the PDP's back and
    ``refresh()`` between batches, so the log gains ``rebase``
    anchors."""
    policy = pdp.monitor.policy
    universe = candidate_commands(policy, Mode.REFINED)
    for _ in range(data.draw(st.integers(0, max_batches))):
        executable = [
            command
            for command, _, _ in effective_commands(policy, Mode.REFINED)
        ]
        pools = [st.sampled_from(pool) for pool in (executable, universe)
                 if pool]
        if pools:
            await pdp.submit_many(data.draw(
                st.lists(st.one_of(pools), min_size=1, max_size=3)
            ))
        if churn and data.draw(st.booleans()):
            edges = sorted(policy.edge_set(), key=repr)
            if edges:
                policy.remove_edge(*data.draw(st.sampled_from(edges)))
                await pdp.refresh()


def logged_versions(records) -> list[int]:
    return sorted({record.payload["version"] for record in records})


@SETTINGS
@given(policy=policies(max_admin=3, admin_depth=1), data=st.data())
def test_state_at_final_version_is_live_policy(policy, data):
    async def scenario(pdp):
        await drive(pdp, data, churn=True)
        return pdp.version, pdp.monitor.policy.copy()

    (version, live), records = served(policy, scenario)
    assert state_at(records, version) == live


@SETTINGS
@given(policy=policies(max_admin=3, admin_depth=1), data=st.data())
def test_state_at_matches_full_prefix_replay(policy, data):
    """Replay from the nearest anchor equals replay of the whole
    prefix, for every logged version, across ``rebase`` anchors."""

    async def scenario(pdp):
        await drive(pdp, data, churn=True)

    _, records = served(policy, scenario)
    for version in logged_versions(records):
        end = next(
            position for position, record in enumerate(records)
            if record.payload["version"] == version
        )
        assert state_at(records, version) == (
            replay_wal(records[:end + 1]).policy
        )


@SETTINGS
@given(policy=policies(max_admin=3, admin_depth=1), data=st.data())
def test_replay_is_consistent_across_snapshot_boundaries(policy, data):
    initial = policy.copy()

    async def scenario(pdp):
        genesis = pdp.version
        await drive(pdp, data, churn=True)
        return genesis

    genesis, records = served(policy, scenario)
    assert state_at(records, genesis) == initial
    # Every version is reconstructible and versions chain: replaying
    # one logged batch from the state before it gives the state after.
    for previous, record in zip(records, records[1:]):
        if record.kind != "batch":
            continue
        before = state_at(records, previous.payload["version"])
        monitor = ReferenceMonitor(before, mode=Mode.REFINED, use_index=True)
        replayed = monitor.submit_queue(
            [command_from_dict(doc) for doc in record.payload["commands"]],
            batched=True,
        )
        assert [[r.executed, r.noop] for r in replayed] == (
            record.payload["outcomes"]
        )
        assert monitor.policy == state_at(records, record.payload["version"])


@SETTINGS
@given(policy=policies(max_admin=3, admin_depth=1), data=st.data())
def test_rollback_then_replay_identity(policy, data):
    async def scenario(pdp):
        await drive(pdp, data, churn=True)
        records, _ = read_wal(pdp.wal.path)
        target = data.draw(st.sampled_from(logged_versions(records)))
        expected = state_at(records, target)
        before = pdp.version
        published = await pdp.rollback(target)
        assert published >= before
        assert pdp.monitor.policy == expected
        assert pdp.last_snapshot.policy_copy() == expected
        return target, expected

    (target, expected), records = served(policy, scenario)
    # History is unchanged, and the rollback is the log's head state.
    assert state_at(records, target) == expected
    assert replay_wal(records).policy == expected


@SETTINGS
@given(policy=policies(max_admin=2, admin_depth=1), data=st.data())
def test_audit_diff_composes(policy, data):
    async def scenario(pdp):
        genesis = pdp.version
        await drive(pdp, data, max_batches=3)
        return genesis, pdp.version

    (v0, v), records = served(policy, scenario)
    first, last = state_at(records, v0), state_at(records, v)
    full = diff_policies(first, last)
    # Edge-level composition: (v0->v) adds exactly what the final state
    # has beyond the initial one.
    assert full.added_edges == frozenset(last.edge_set() - first.edge_set())
