"""Snapshot publication accounting: one capture per write batch.

The PDP publishes through the index's ``snapshot()``: after a batch the
live index repairs itself incrementally and is forked onto a
structural clone of the policy, and that published snapshot is also
the next batch's entry snapshot (``submit_queue(snapshot=True)``).  So
N single-command batches cost N captures, readers never build an
index, and a republish at an unchanged version copies nothing.
"""

from collections import Counter

import pytest

from repro.core.authz_index import AuthorizationIndex, ReviewSnapshot
from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.policy import Policy
from repro.serve import PolicyDecisionPoint, WriterFailed, WriterSupervisor
from repro.workloads.faults import FAULTS

from .conftest import (
    ADMIN,
    BOTH_VERIFIERS,
    OTHER,
    PEER,
    R,
    S,
    U,
    oracle_monitor,
    reads,
    run,
    serve_policy,
)


@pytest.fixture
def calls(monkeypatch):
    """Count snapshot captures, index builds and policy copies."""
    counts = Counter()
    for owner, name, label in (
        (ReviewSnapshot, "__init__", "captures"),
        (AuthorizationIndex, "__init__", "index_builds"),
        (Policy, "copy", "copies"),
    ):
        original = getattr(owner, name)

        def counting(*args, _original=original, _label=label, **kwargs):
            counts[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.clear()
    yield
    FAULTS.clear()


def _pdp():
    return PolicyDecisionPoint(
        policy=serve_policy(),
        supervisor=WriterSupervisor(base_delay=0.0),
    )


@BOTH_VERIFIERS
def test_one_capture_per_batch_and_no_reader_builds(calls, definitional):
    writes = [
        grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R),
        grant_cmd(ADMIN, U, S), grant_cmd(PEER, U, R),
        revoke_cmd(PEER, U, R),
    ]

    probe = grant_cmd(ADMIN, U, S)
    decisions = []

    async def scenario():
        pdp = _pdp()
        # Construction builds the live index once and forks it.
        assert calls == {"index_builds": 1, "captures": 1, "copies": 1}
        calls.clear()
        async with pdp:
            for command in writes:
                published = pdp.last_snapshot
                record = await pdp.submit(command)
                assert record.executed and not record.noop
                # The batch-entry capture is the snapshot published
                # before the batch; the batch published a new one.
                assert pdp.monitor.last_snapshot is published
                assert pdp.last_snapshot is not published
                assert pdp.version == pdp.monitor.policy.version
                decision = await pdp.check(ADMIN, probe)
                assert decision.allowed
                assert decision.version == pdp.version
                decisions.append(decision)

    run(scenario())
    assert calls == {"captures": len(writes), "copies": len(writes)}
    # Each published version decides the probe like the verifier does
    # after the same writes.
    oracle = oracle_monitor(definitional)
    for command, decision in zip(writes, decisions):
        oracle.submit(command)
        verdict = reads(oracle).authorizes(ADMIN, probe)
        assert decision.authorized_by == verdict


def test_unchanged_version_republishes_without_copying(calls):
    async def scenario():
        pdp = _pdp()
        calls.clear()
        async with pdp:
            published = pdp.last_snapshot
            # A denied command moves no version: the batch republishes
            # the snapshot it entered with.
            record = await pdp.submit(grant_cmd(OTHER, U, R))
            assert not record.executed
            assert pdp.last_snapshot is published
            # So does a batch that fails before it applies.
            FAULTS.arm("writer.before_apply", "fail", times=1)
            with pytest.raises(WriterFailed):
                await pdp.submit(grant_cmd(ADMIN, U, R))
            assert pdp.last_snapshot is published
            assert pdp.version == pdp.monitor.policy.version
        return pdp

    pdp = run(scenario())
    assert pdp.statistics()["writer_failures"] == 1
    assert calls == {}
