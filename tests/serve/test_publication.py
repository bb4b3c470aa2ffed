"""Publication on demand: the first reader of a version captures it.

After a batch the writer only publishes the policy's version.  The
first reader of that version materializes a ``ReviewSnapshot(policy)``
— a structural clone of the policy whose index is a fork of the live
one, repaired incrementally first — and advances the decision cache.
So batches nobody reads cost no capture, a run of them costs the next
reader one capture and one cache advance, readers never build an
index, and a republish at an unchanged version copies nothing.  When
the live policy has moved past the published version without
publishing (the writer died after its apply, out-of-band churn awaits
``refresh()``), the reader's snapshot is the policy rewound through
its journal to the published version.
"""

from collections import Counter

import pytest

from repro.core.authz_index import AuthorizationIndex, ReviewSnapshot
from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.entities import Role
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.graph import Digraph, JournalWindow
from repro.serve import PolicyDecisionPoint, WriterFailed, WriterSupervisor
from repro.workloads.faults import FAULTS

from .conftest import (
    ADM,
    ADMIN,
    BOTH_VERIFIERS,
    OTHER,
    PEER,
    R,
    S,
    T,
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
                # The snapshot of the version published before the
                # batch is the batch-entry state; the first read after
                # the batch captures the batch's version.
                published = pdp.last_snapshot
                assert published.version == pdp.monitor.policy.version
                record = await pdp.submit(command)
                assert record.executed and not record.noop
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


def test_one_command_write_sweeps_each_region_half_once(monkeypatch):
    """Every journal consumer of a write — the live index, the
    policy's reachability cache and sort masks, and the decision
    cache — reads one memoized window, so the write sweeps its
    upstream and its downstream half once each."""
    sweeps = Counter()
    original = JournalWindow._sweep

    def counting(window, seeds, upstream):
        sweeps["upstream" if upstream else "downstream"] += 1
        return original(window, seeds, upstream)

    monkeypatch.setattr(JournalWindow, "_sweep", counting)

    async def scenario():
        pdp = _pdp()
        async with pdp:
            # Warm the decision cache, so the advance has entries to
            # test against the region.
            await pdp.check(ADMIN, grant_cmd(ADMIN, U, S))
            assert pdp.cache.entries
            sweeps.clear()
            [record] = await pdp.submit_many([grant_cmd(ADMIN, U, R)])
            assert record.executed
            assert pdp.cache.advances == 0
            # The first read of the new version materializes it.
            await pdp.check(ADMIN, grant_cmd(ADMIN, U, S))
            assert pdp.cache.advances == 1

    run(scenario())
    assert sweeps == {"upstream": 1, "downstream": 1}


def test_unread_batches_capture_nothing_until_the_first_read(calls):
    """N batches nobody reads make no capture and no copy, and the
    empty decision cache follows each publication (it has nothing to
    evict); the first read after them makes one capture and one copy,
    at the live version, and finds the cache already there."""
    writes = [
        grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R),
        grant_cmd(ADMIN, U, S), grant_cmd(PEER, U, R),
    ]

    async def scenario():
        pdp = _pdp()
        calls.clear()
        async with pdp:
            for command in writes:
                record = await pdp.submit(command)
                assert record.executed and not record.noop
            assert calls == {}
            assert pdp.cache.advances == len(writes)
            assert pdp.cache.version == pdp.version
            stats = pdp.statistics()
            assert stats["publications"] == len(writes)
            assert stats["materializations"] == 0
            assert stats["version"] == pdp.monitor.policy.version
            assert stats["materialized_version"] < stats["version"]
            decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, S))
            assert decision.version == pdp.version
            assert decision.version == pdp.monitor.policy.version
            assert calls == {"captures": 1, "copies": 1}
            assert pdp.cache.advances == len(writes)
            stats = pdp.statistics()
            assert (stats["materializations"], stats["rewinds"]) == (1, 0)
            assert stats["materialized_version"] == stats["version"]

    run(scenario())


def test_unread_batches_on_an_empty_cache_pin_no_journal(monkeypatch):
    """The empty cache's cursor follows each publication, so a run of
    batches nobody reads leaves the live journal within
    ``JOURNAL_LIMIT`` instead of pinning it up to the hard limit."""
    monkeypatch.setattr(Digraph, "JOURNAL_LIMIT", 16)
    monkeypatch.setattr(Digraph, "JOURNAL_HARD_LIMIT", 64)

    async def scenario():
        pdp = _pdp()
        async with pdp:
            for index in range(40):
                command = (revoke_cmd if index % 2 else grant_cmd)(ADMIN, U, R)
                [record] = await pdp.submit_many([command])
                assert record.executed
            graph = pdp.monitor.policy.graph
            assert len(graph._journal) <= Digraph.JOURNAL_LIMIT
            assert not pdp.cache.entries
            assert pdp.cache.version == pdp.version

    run(scenario())


# ----------------------------------------------------------------------
# The live policy ahead of the published version: the rewind
# ----------------------------------------------------------------------

BOSS = Role("boss")
#: U may grant OTHER into T exactly while U is a member of BOSS.
PROBE = grant_cmd(U, OTHER, T)


def _boss_policy() -> Policy:
    """ADMIN may put U into BOSS and take U out again; BOSS holds the
    grant PROBE needs, so PROBE's verdict flips with U's membership."""
    policy = Policy(
        ua=[(ADMIN, ADM)],
        pa=[
            (ADM, Grant(U, BOSS)),
            (ADM, Revoke(U, BOSS)),
            (BOSS, Grant(OTHER, T)),
        ],
    )
    policy.add_user(U)
    policy.add_user(OTHER)
    policy.add_role(T)
    return policy


#: Every point where the writer can die after its apply moved the live
#: policy and before it published, with and without a WAL where the
#: point exists without one.
DEATHS_AFTER_APPLY = [
    ("writer.after_apply", False),
    ("writer.after_apply", True),
    ("wal.before_append", True),
    ("wal.torn_write", True),
    ("wal.before_fsync", True),
    ("writer.before_publish", False),
    ("writer.before_publish", True),
]


@pytest.mark.parametrize(
    "point, logged", DEATHS_AFTER_APPLY,
    ids=[f"{point}-{'wal' if logged else 'nowal'}"
         for point, logged in DEATHS_AFTER_APPLY],
)
def test_death_after_the_apply_reads_the_published_version(
    point, logged, tmp_path
):
    """An acknowledged write no reader has seen, then a writer death
    after the next batch's apply: reads answer at the acknowledged
    version with its verdict, not at the dead batch's state nor at the
    last version a reader saw."""

    async def scenario():
        pdp = PolicyDecisionPoint(
            policy=_boss_policy(),
            wal=str(tmp_path / "p.wal") if logged else None,
        )
        async with pdp:
            assert not (await pdp.check(U, PROBE)).allowed
            record = await pdp.submit(grant_cmd(ADMIN, U, BOSS))
            assert record.executed
            acknowledged = pdp.version
            FAULTS.arm(point, "torn" if point == "wal.torn_write" else "crash")
            with pytest.raises(WriterFailed):
                await pdp.submit(revoke_cmd(ADMIN, U, BOSS))
            assert pdp.health == "dead"
            live = pdp.monitor.policy
            assert live.version > acknowledged
            assert not live.has_edge(U, BOSS)
            # The miss, then the cache hit it left.
            for cached in (False, True):
                decision = await pdp.check(U, PROBE)
                assert decision.cached is cached
                assert decision.allowed
                assert decision.version == pdp.version == acknowledged
            assert pdp.last_snapshot.version == acknowledged
            assert pdp.statistics()["rewinds"] == 1

    run(scenario())


def test_out_of_band_churn_is_read_at_the_published_version():
    """Churn awaiting ``refresh()`` is invisible to readers, and the
    verdicts they cached meanwhile do not outlive it: the decision
    cache's cursor stopped at the rewound version, so the advance to
    the refreshed one evicts them."""

    async def scenario():
        pdp = PolicyDecisionPoint(policy=_boss_policy())
        async with pdp:
            await pdp.submit(grant_cmd(ADMIN, U, BOSS))
            published = pdp.version
            pdp.monitor.policy.remove_edge(U, BOSS)
            for cached in (False, True):
                decision = await pdp.check(U, PROBE)
                assert (decision.allowed, decision.cached) == (True, cached)
                assert decision.version == published
            assert pdp.statistics()["rewinds"] == 1
            assert await pdp.refresh() == pdp.monitor.policy.version
            decision = await pdp.check(U, PROBE)
            assert decision.version == pdp.version > published
            assert not decision.allowed
            assert not decision.cached

    run(scenario())


def test_rewind_beyond_the_journal_keeps_the_last_snapshot(monkeypatch):
    """When the journal no longer reaches back to the published
    version, reads keep the last materialized snapshot, the miss is
    counted once, and the next publication is read as usual."""
    monkeypatch.setattr(Digraph, "JOURNAL_LIMIT", 4)
    monkeypatch.setattr(Digraph, "JOURNAL_HARD_LIMIT", 8)

    async def scenario():
        pdp = PolicyDecisionPoint(policy=_boss_policy())
        async with pdp:
            materialized = pdp.last_snapshot.version
            await pdp.submit(grant_cmd(ADMIN, U, BOSS))
            policy = pdp.monitor.policy
            for index in range(10):
                policy.add_role(Role(f"churn_{index}"))
            for _ in range(2):
                decision = await pdp.check(U, PROBE)
                assert decision.version == materialized < pdp.version
                assert not decision.allowed
            stats = pdp.statistics()
            assert (stats["rewind_misses"], stats["rewinds"]) == (1, 0)
            await pdp.refresh()
            decision = await pdp.check(U, PROBE)
            assert decision.version == pdp.version
            assert decision.allowed

    run(scenario())
