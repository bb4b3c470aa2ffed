"""The policy write-ahead log: chaining, tamper evidence, torn tails,
and byte-identical crash recovery.

The durability contract under test (``docs/ARCHITECTURE.md``, "Fault
tolerance & durability"): every record is hash-chained over a
canonical encoding, so :func:`verify_chain` rejects **every**
single-record mutation, omission and (head-anchored) truncation; a
torn tail is the one legitimate crash artifact and is repaired by
truncation; and :meth:`PolicyDecisionPoint.recover` rebuilds policy,
index and snapshot byte-identical to the uninterrupted service, on
both kernels.
"""

import json

import pytest

from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.serialization import policy_to_json
from repro.serve import (
    GENESIS_PREV,
    PolicyDecisionPoint,
    PolicyWal,
    WalError,
    WriterFailed,
    WriterSupervisor,
    iter_wal,
    read_wal,
    repair_torn_tail,
    replay_wal,
    verify_chain,
)
from repro.workloads.faults import FAULTS, CrashInjected, InjectedFailure

from .conftest import (
    ADMIN,
    BOTH_VERIFIERS,
    R,
    S,
    U,
    oracle_monitor,
    reads,
    run,
    serve_policy,
)


def _commands():
    return [
        grant_cmd(ADMIN, U, R),
        grant_cmd(ADMIN, ADMIN, S),
        revoke_cmd(ADMIN, U, R),
        grant_cmd(ADMIN, U, R),
    ]


def _drive(path, batches=2):
    """Run a WAL-attached PDP over a couple of micro-batches; returns
    (final policy JSON, final version, head digest)."""

    async def scenario():
        pdp = PolicyDecisionPoint(
            policy=serve_policy(), wal=str(path), max_batch=4,
        )
        async with pdp:
            for _ in range(batches):
                await pdp.submit_many(_commands())
            head = pdp.wal.head
            return (
                policy_to_json(pdp.monitor.policy),
                pdp.monitor.policy.version,
                head,
            )

    return run(scenario())


class TestChain:
    def test_append_and_verify_round_trip(self, tmp_path):
        path = tmp_path / "p.wal"
        _, version, head = _drive(path)
        records, torn = read_wal(str(path))
        assert torn is None
        assert records[0].kind == "genesis"
        assert records[0].prev == GENESIS_PREV
        assert [r.seq for r in records] == list(range(len(records)))
        assert verify_chain(records, expected_head=head) == head
        # the batch payloads carry outcomes and post-batch versions
        batch_records = [r for r in records if r.kind == "batch"]
        assert len(batch_records) == 2
        for record in batch_records:
            assert len(record.payload["commands"]) == 4
            assert len(record.payload["outcomes"]) == 4
        assert batch_records[-1].payload["version"] == version

    def test_empty_log_rejected(self):
        with pytest.raises(WalError, match="empty WAL"):
            verify_chain([])
        with pytest.raises(WalError, match="empty WAL"):
            verify_chain(iter(()))

    def test_streaming_reader_matches_read_wal(self, tmp_path):
        """Recovery streams the log: iter_wal yields what read_wal
        lists, and verify_chain / replay_wal accept the stream."""
        path = tmp_path / "p.wal"
        _, version, head = _drive(path)
        records, _ = read_wal(str(path))
        assert [
            (r.seq, r.kind, r.digest, r.payload) for r in iter_wal(str(path))
        ] == [(r.seq, r.kind, r.digest, r.payload) for r in records]
        assert verify_chain(iter_wal(str(path)), expected_head=head) == head
        replayed = replay_wal(iter_wal(str(path)))
        assert replayed.policy.version == version
        assert replayed.policy == replay_wal(records).policy
        with path.open("ab") as handle:
            handle.write(b'{"torn": ')
        with pytest.raises(WalError, match="torn tail"):
            list(iter_wal(str(path)))

    def test_genesis_must_be_first(self, tmp_path):
        path = tmp_path / "p.wal"
        wal = PolicyWal(str(path))
        with pytest.raises(WalError, match="before genesis"):
            wal.append_batch([], [], 0)
        with pytest.raises(WalError, match="before genesis"):
            wal.append_rebase(serve_policy())
        wal.append_genesis(serve_policy())
        with pytest.raises(WalError, match="genesis must be record 0"):
            wal.append_genesis(serve_policy())
        wal.close()

    def test_every_single_record_tamper_is_rejected(self, tmp_path):
        """The acceptance matrix: for every record of a healthy log,
        mutation, omission, and head-anchored truncation must all be
        caught."""
        path = tmp_path / "p.wal"
        _, _, head = _drive(path)
        lines = path.read_bytes().splitlines()
        assert len(lines) >= 3
        tampered_path = tmp_path / "tampered.wal"
        for index in range(len(lines)):
            mutated = json.loads(lines[index])
            mutated["payload"]["version"] = 999
            variants = {
                "mutation": lines[:index]
                + [json.dumps(
                    mutated, sort_keys=True, separators=(",", ":")
                ).encode()]
                + lines[index + 1:],
                "omission": lines[:index] + lines[index + 1:],
                "truncation": lines[:index],
            }
            for name, tampered in variants.items():
                tampered_path.write_bytes(
                    b"".join(line + b"\n" for line in tampered)
                )
                with pytest.raises(WalError):
                    records, _ = read_wal(str(tampered_path))
                    verify_chain(records, expected_head=head)

    def test_truncation_needs_the_head_anchor(self, tmp_path):
        """A truncated log is internally consistent — only the
        expected-head anchor catches it (why `repro wal verify --head`
        exists)."""
        path = tmp_path / "p.wal"
        _, _, head = _drive(path)
        lines = path.read_bytes().splitlines()
        truncated = b"".join(line + b"\n" for line in lines[:-1])
        path.write_bytes(truncated)
        records, _ = read_wal(str(path))
        verify_chain(records)  # internally consistent: passes
        with pytest.raises(WalError, match="truncated"):
            verify_chain(records, expected_head=head)

    def test_malformed_terminated_line_always_raises(self, tmp_path):
        path = tmp_path / "p.wal"
        _drive(path)
        path.write_bytes(path.read_bytes() + b"not json\n")
        with pytest.raises(WalError, match="not valid JSON"):
            read_wal(str(path), tolerate_torn_tail=True)


class TestTornTail:
    def test_torn_tail_refused_strict_tolerated_in_recovery(
        self, tmp_path
    ):
        path = tmp_path / "p.wal"
        _drive(path)
        clean = path.read_bytes()
        path.write_bytes(clean + b'{"seq": 99, "kind"')
        with pytest.raises(WalError, match="torn tail"):
            read_wal(str(path))
        records, torn = read_wal(str(path), tolerate_torn_tail=True)
        assert torn == len(clean)
        verify_chain(records)  # the full records before the tear hold

    def test_repair_truncates_and_appends_resume(self, tmp_path):
        path = tmp_path / "p.wal"
        _, _, head = _drive(path)
        clean = path.read_bytes()
        path.write_bytes(clean + b'{"torn')
        assert repair_torn_tail(str(path)) == len(clean)
        assert path.read_bytes() == clean
        assert repair_torn_tail(str(path)) is None  # idempotent
        # a reopened handle continues the chain from the repaired tail
        wal = PolicyWal(str(path))
        assert wal.head == head
        wal.append_rebase(serve_policy())
        wal.close()
        records, _ = read_wal(str(path))
        verify_chain(records, expected_head=wal.head)

    def test_open_refuses_torn_file(self, tmp_path):
        path = tmp_path / "p.wal"
        _drive(path)
        path.write_bytes(path.read_bytes() + b'{"torn')
        with pytest.raises(WalError, match="torn tail"):
            PolicyWal(str(path))


class TestAppendFailure:
    """A failed append must never leave its line in the file while
    head/next_seq describe the pre-append state — the duplicate-seq /
    broken-chain regression the recoverable-failure campaign pins."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        FAULTS.clear()
        yield
        FAULTS.clear()

    def test_failed_append_rolls_the_file_back(self, tmp_path):
        path = tmp_path / "p.wal"
        wal = PolicyWal(str(path))
        wal.append_genesis(serve_policy())
        clean = path.read_bytes()
        FAULTS.arm("wal.before_fsync", "fail", times=1)
        with pytest.raises(InjectedFailure):
            wal.append_rebase(serve_policy())
        # the failed line is gone: the file is byte-identical to the
        # pre-append state, and the same handle appends cleanly
        assert path.read_bytes() == clean
        assert wal.next_seq == 1
        record = wal.append_rebase(serve_policy())
        wal.close()
        assert record.seq == 1
        records, _ = read_wal(str(path))
        verify_chain(records, expected_head=wal.head)

    def test_supervised_retry_after_fsync_failure_keeps_chain(
        self, tmp_path
    ):
        """The serving-path regression: an fsync-stage failure inside
        the writer must not let the resync rebase append a duplicate
        seq — the chain verifies and recovery lands on the live
        state."""
        path = tmp_path / "p.wal"

        async def scenario():
            pdp = PolicyDecisionPoint(
                policy=serve_policy(), wal=str(path),
                max_batch=4,
                supervisor=WriterSupervisor(base_delay=0.0),
            )
            FAULTS.arm("wal.before_fsync", "fail", times=1)
            async with pdp:
                with pytest.raises(WriterFailed):
                    await pdp.submit_many(_commands())
                # the writer survived: the next batch applies
                await pdp.submit_many(_commands())
                return (
                    pdp.wal.head,
                    policy_to_json(pdp.monitor.policy),
                    pdp.monitor.policy.version,
                )

        head, doc, version = run(scenario())
        records, _ = read_wal(str(path))
        assert [r.seq for r in records] == list(range(len(records)))
        verify_chain(records, expected_head=head)
        recovered = PolicyDecisionPoint.recover(str(path))
        recovered.wal.close()
        assert policy_to_json(recovered.monitor.policy) == doc
        assert recovered.monitor.policy.version == version

    def test_torn_write_poisons_the_handle(self, tmp_path):
        """A simulated mid-write death leaves ambiguous bytes on disk;
        the handle must refuse further appends — only repair + reopen
        (the recovery path) resumes the chain."""
        path = tmp_path / "p.wal"
        wal = PolicyWal(str(path))
        wal.append_genesis(serve_policy())
        FAULTS.arm("wal.torn_write", "torn", torn_bytes=8)
        with pytest.raises(CrashInjected):
            wal.append_rebase(serve_policy())
        FAULTS.clear()
        assert wal.poisoned is not None
        assert wal.statistics()["poisoned"]
        with pytest.raises(WalError, match="refuses appends"):
            wal.append_rebase(serve_policy())
        wal.close()
        repair_torn_tail(str(path))
        fresh = PolicyWal(str(path))
        fresh.append_rebase(serve_policy())
        fresh.close()
        records, _ = read_wal(str(path))
        verify_chain(records, expected_head=fresh.head)


class TestReopen:
    def test_reopen_continues_sequence_and_chain(self, tmp_path):
        path = tmp_path / "p.wal"
        _, version, head = _drive(path)
        wal = PolicyWal(str(path))
        assert wal.next_seq == 3
        assert wal.head == head
        assert wal.last_version == version
        assert wal.batches == 2

    def test_open_rejects_tampered_file(self, tmp_path):
        path = tmp_path / "p.wal"
        _drive(path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"".join(line + b"\n" for line in lines[1:]))
        with pytest.raises(WalError):
            PolicyWal(str(path))


class TestRecover:
    @BOTH_VERIFIERS
    def test_recover_is_byte_identical_on_both_kernels(
        self, tmp_path, definitional
    ):
        """Recovery is byte-identical, and the recovered service's
        authority is the verifier's after the same two batches."""
        path = tmp_path / "p.wal"
        doc, version, head = _drive(path)
        recovered = PolicyDecisionPoint.recover(
            str(path), expected_head=head
        )
        recovered.wal.close()
        assert policy_to_json(recovered.monitor.policy) == doc
        assert recovered.monitor.policy.version == version
        assert recovered.version == version
        oracle = oracle_monitor(definitional)
        for _ in range(2):
            oracle.submit_queue(_commands(), batched=True)
        users = sorted(oracle.policy.users(), key=str)
        snapshot = recovered.last_snapshot
        assert snapshot.held_privileges_bulk(users) == (
            reads(oracle).held_privileges_bulk(users)
        )
        assert snapshot.grantable_pairs_bulk(users) == (
            reads(oracle).grantable_pairs_bulk(users)
        )
        # the reattached log got a rebase anchor and still verifies
        records, _ = read_wal(str(path))
        assert records[-1].kind == "rebase"
        verify_chain(records, expected_head=recovered.wal.head)

    def test_recover_repairs_a_torn_tail(self, tmp_path):
        path = tmp_path / "p.wal"
        doc, version, _ = _drive(path)
        path.write_bytes(path.read_bytes() + b'{"seq": 3, "ki')
        recovered = PolicyDecisionPoint.recover(str(path))
        recovered.wal.close()
        assert policy_to_json(recovered.monitor.policy) == doc
        assert recovered.monitor.policy.version == version

    def test_recovered_pdp_serves_and_continues_the_log(self, tmp_path):
        path = tmp_path / "p.wal"
        _drive(path)

        async def scenario():
            pdp = PolicyDecisionPoint.recover(str(path), max_batch=4)
            async with pdp:
                decision = await pdp.check(ADMIN, grant_cmd(ADMIN, U, R))
                assert decision.allowed
                await pdp.submit(revoke_cmd(ADMIN, U, R))
                return pdp.wal.head

        head = run(scenario())
        records, _ = read_wal(str(path))
        assert verify_chain(records, expected_head=head) == head

    def test_replay_rejects_outcome_divergence(self, tmp_path):
        """The replay tripwire: a log whose recorded outcomes disagree
        with the deterministic decision function must not silently
        recover."""
        path = tmp_path / "p.wal"
        _drive(path)
        lines = path.read_bytes().splitlines()
        # flip one recorded outcome and re-chain the whole log so only
        # the divergence (not the tamper evidence) can object
        documents = [json.loads(line) for line in lines]
        documents[1]["payload"]["outcomes"][0][0] = (
            not documents[1]["payload"]["outcomes"][0][0]
        )
        from repro.serve.wal import _digest

        prev = GENESIS_PREV
        for document in documents:
            document["prev"] = prev
            document["digest"] = _digest(
                document["seq"], document["kind"],
                document["payload"], prev,
            )
            prev = document["digest"]
        path.write_bytes(b"".join(
            json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
            for d in documents
        ))
        records, _ = read_wal(str(path))
        verify_chain(records)
        with pytest.raises(WalError, match="replay divergence"):
            replay_wal(records)


class TestAttach:
    def test_attach_empty_writes_genesis(self, tmp_path):
        path = tmp_path / "p.wal"

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), wal=str(path)
            ) as pdp:
                return pdp.wal.records

        assert run(scenario()) == 1
        records, _ = read_wal(str(path))
        assert [r.kind for r in records] == ["genesis"]

    def test_attach_nonempty_appends_rebase_anchor(self, tmp_path):
        path = tmp_path / "p.wal"
        _drive(path)

        async def scenario():
            async with PolicyDecisionPoint(
                policy=serve_policy(), wal=str(path)
            ) as pdp:
                return pdp.wal.head

        head = run(scenario())
        records, _ = read_wal(str(path))
        assert records[-1].kind == "rebase"
        verify_chain(records, expected_head=head)

    def test_refresh_rebases_out_of_band_churn(self, tmp_path):
        """Out-of-band policy churn reaches the log through the
        refresh path, so replay still lands on the live state."""
        path = tmp_path / "p.wal"

        async def scenario():
            pdp = PolicyDecisionPoint(
                policy=serve_policy(), wal=str(path), max_batch=4
            )
            async with pdp:
                await pdp.submit_many(_commands())
                # behind the PDP's back
                pdp.monitor.policy.assign_user(U, S)
                await pdp.refresh()
                return (
                    policy_to_json(pdp.monitor.policy),
                    pdp.monitor.policy.version,
                )

        doc, version = run(scenario())
        recovered = PolicyDecisionPoint.recover(str(path))
        recovered.wal.close()
        assert policy_to_json(recovered.monitor.policy) == doc
        assert recovered.monitor.policy.version == version
