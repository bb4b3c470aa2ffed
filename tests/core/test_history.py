"""Versioned policy administration, on the PDP's write-ahead log.

The WAL is the policy's only history.  Definition 5's transition is
deterministic, so a ``genesis``/``rebase`` anchor plus the batches
after it determine every later state: :func:`state_at` rebuilds any
logged version, ``diff_policies(state_at(r, v1), state_at(r, v2))`` is
the audit diff, and :meth:`PolicyDecisionPoint.rollback` restores a
version durably.  Versions are the policy's ``graph.version``, as the
log records them.
"""

import asyncio

import pytest

from repro.core.commands import grant_cmd, revoke_cmd
from repro.core.diff import diff_policies
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.errors import ReproError
from repro.papercases import figures
from repro.serve import (
    PolicyDecisionPoint,
    WalError,
    WriterFailed,
    read_wal,
    replay_wal,
    state_at,
)
from repro.workloads.faults import FAULTS

U, ADMIN = User("u"), User("admin")
R, S, ADM = Role("r"), Role("s"), Role("adm")


def history_policy() -> Policy:
    policy = Policy(
        ua=[(ADMIN, ADM)],
        rh=[(R, S)],
        pa=[
            (S, perm("read", "doc")),
            (ADM, Grant(U, R)),
            (ADM, Revoke(U, R)),
        ],
    )
    policy.add_user(U)
    return policy


def serve(path, scenario, policy=None):
    """Run ``scenario(pdp)`` on a started PDP over ``policy`` (default
    :func:`history_policy`) that logs to ``path``; returns the
    scenario's result and the log's records."""

    async def main():
        pdp = PolicyDecisionPoint(
            policy=policy or history_policy(), wal=str(path)
        )
        async with pdp:
            return await scenario(pdp)

    result = asyncio.run(main())
    records, _ = read_wal(str(path))
    return result, records


async def submit_each(pdp, *commands) -> list[int]:
    """Submit one command per batch; the version after each."""
    versions = []
    for command in commands:
        await pdp.submit(command)
        versions.append(pdp.version)
    return versions


def records_now(pdp):
    return read_wal(pdp.wal.path)[0]


class TestLogging:
    def test_executed_commands_logged(self, tmp_path):
        async def scenario(pdp):
            genesis = pdp.version
            record = await pdp.submit(grant_cmd(ADMIN, U, R))
            return genesis, record, pdp.version

        (genesis, record, version), records = serve(
            tmp_path / "p.wal", scenario
        )
        assert record.executed
        assert version > genesis
        batch = records[-1]
        assert batch.kind == "batch"
        assert batch.payload["version"] == version
        assert batch.payload["outcomes"] == [[True, False]]
        assert state_at(records, version).has_edge(U, R)

    def test_denied_commands_do_not_advance_the_version(self, tmp_path):
        async def scenario(pdp):
            genesis = pdp.version
            record = await pdp.submit(grant_cmd(U, U, R))
            return genesis, record, pdp.version

        (genesis, record, version), records = serve(
            tmp_path / "p.wal", scenario
        )
        assert not record.executed
        assert version == genesis
        # The batch is logged with its outcome; the state is genesis.
        assert records[-1].payload["outcomes"] == [[False, False]]
        assert records[-1].payload["version"] == genesis
        assert state_at(records, genesis) == history_policy()

    def test_implicit_grant_replays(self, tmp_path):
        async def scenario(pdp):
            # weaker than grant(u, r): authorized by the ordering
            record = await pdp.submit(grant_cmd(ADMIN, U, S))
            return record, pdp.version

        (record, version), records = serve(tmp_path / "p.wal", scenario)
        assert record.implicit
        assert record.authorized_by == Grant(U, R)
        assert state_at(records, version).has_edge(U, S)


class TestReplay:
    def test_state_at_genesis_is_initial(self, tmp_path):
        async def scenario(pdp):
            genesis = pdp.version
            initial = state_at(records_now(pdp), genesis)
            await pdp.submit(grant_cmd(ADMIN, U, R))
            return genesis, initial

        (genesis, initial), records = serve(tmp_path / "p.wal", scenario)
        assert not initial.has_edge(U, R)
        assert initial == history_policy()
        assert state_at(records, genesis) == initial

    def test_state_at_intermediate_versions(self, tmp_path):
        async def scenario(pdp):
            return await submit_each(
                pdp,
                grant_cmd(ADMIN, U, R),
                revoke_cmd(ADMIN, U, R),
                grant_cmd(ADMIN, U, R),
            )

        (v1, v2, v3), records = serve(tmp_path / "p.wal", scenario)
        assert v1 < v2 < v3
        assert state_at(records, v1).has_edge(U, R)
        assert not state_at(records, v2).has_edge(U, R)
        assert state_at(records, v3).has_edge(U, R)
        # the replayed state carries its logged version
        assert state_at(records, v2).version == v2

    def test_replay_crosses_snapshots(self, tmp_path):
        """Out-of-band churn reaches the log as a ``rebase`` record —
        a full-policy snapshot; versions on either side of it replay
        from their own anchor."""
        reader = User("reader")

        async def scenario(pdp):
            before = await submit_each(
                pdp, grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R)
            )
            pdp.monitor.policy.assign_user(reader, S)  # behind the PDP
            churned = await pdp.refresh()
            after = await submit_each(
                pdp, grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R)
            )
            return before, churned, after

        (before, churned, after), records = serve(
            tmp_path / "p.wal", scenario
        )
        assert [r.kind for r in records] == [
            "genesis", "batch", "batch", "rebase", "batch", "batch",
        ]
        assert records[3].payload["version"] == churned
        assert state_at(records, before[0]).has_edge(U, R)
        assert not state_at(records, before[1]).has_edge(reader, S)
        assert state_at(records, churned).has_edge(reader, S)
        assert state_at(records, after[0]).has_edge(U, R)
        assert not state_at(records, after[1]).has_edge(U, R)
        assert state_at(records, after[1]).has_edge(reader, S)

    def test_out_of_range_version(self, tmp_path):
        _, records = serve(
            tmp_path / "p.wal",
            lambda pdp: pdp.submit(grant_cmd(ADMIN, U, R)),
        )
        with pytest.raises(WalError, match="no WAL record"):
            state_at(records, 10**6)
        with pytest.raises(WalError, match="no WAL record"):
            state_at(records, -1)


class TestRollback:
    def test_rollback_restores_edges(self, tmp_path):
        async def scenario(pdp):
            v1, v2 = await submit_each(
                pdp, grant_cmd(ADMIN, U, R), grant_cmd(ADMIN, U, S)
            )
            published = await pdp.rollback(v1)
            return v2, published, pdp.monitor.policy

        (v2, published, live), records = serve(tmp_path / "p.wal", scenario)
        assert live.has_edge(U, R)
        assert not live.has_edge(U, S)
        # Versions never go back: the rollback lands at a new one,
        # anchored by a rebase record.
        assert published > v2
        assert records[-1].kind == "rebase"
        assert records[-1].payload["version"] == published

    def test_rollback_mutates_live_policy_in_place(self, tmp_path):
        async def scenario(pdp):
            live = pdp.monitor.policy
            genesis = pdp.version
            await pdp.submit(grant_cmd(ADMIN, U, R))
            await pdp.rollback(genesis)
            return live, pdp

        (live, pdp), _ = serve(tmp_path / "p.wal", scenario)
        assert live is pdp.monitor.policy
        assert not live.has_edge(U, R)
        assert not pdp.last_snapshot.policy_copy().has_edge(U, R)

    def test_rollback_drops_vertices_created_later(self, tmp_path):
        newbie = User("newbie")
        policy = Policy(ua=[(ADMIN, ADM)], pa=[(ADM, Grant(newbie, R))])
        assert newbie not in policy.graph

        async def scenario(pdp):
            genesis = pdp.version
            record = await pdp.submit(grant_cmd(ADMIN, newbie, R))
            introduced = newbie in pdp.monitor.policy.graph
            await pdp.rollback(genesis)
            return genesis, record, introduced, pdp.monitor.policy

        (genesis, record, introduced, live), records = serve(
            tmp_path / "p.wal", scenario, policy=policy
        )
        assert record.executed
        assert introduced  # the grant introduced the user
        assert newbie not in live.graph
        assert live == state_at(records, genesis)

    def test_resubmission_after_rollback(self, tmp_path):
        async def scenario(pdp):
            genesis = pdp.version
            await pdp.submit(grant_cmd(ADMIN, U, R))
            await pdp.rollback(genesis)
            return await pdp.submit(grant_cmd(ADMIN, U, R))

        record, records = serve(tmp_path / "p.wal", scenario)
        assert record.executed
        assert replay_wal(records).policy.has_edge(U, R)

    def test_rollback_is_durable(self, tmp_path):
        path = tmp_path / "p.wal"

        async def scenario(pdp):
            genesis = pdp.version
            await submit_each(
                pdp, grant_cmd(ADMIN, U, R), grant_cmd(ADMIN, U, S)
            )
            published = await pdp.rollback(genesis)
            return published, pdp.monitor.policy.copy()

        (published, rolled_back), _ = serve(path, scenario)
        recovered = PolicyDecisionPoint.recover(str(path))
        recovered.wal.close()
        assert recovered.monitor.policy == rolled_back
        assert rolled_back == history_policy()
        assert recovered.version == published

    def test_rollback_refuses_without_a_wal(self):
        async def scenario():
            async with PolicyDecisionPoint(policy=history_policy()) as pdp:
                await pdp.submit(grant_cmd(ADMIN, U, R))
                with pytest.raises(ReproError, match="needs a WAL"):
                    await pdp.rollback(0)
                return pdp.monitor.policy

        assert asyncio.run(scenario()).has_edge(U, R)

    def test_rollback_refuses_a_poisoned_wal(self, tmp_path):
        async def scenario(pdp):
            genesis = pdp.version
            FAULTS.arm("wal.torn_write", "torn", torn_bytes=8)
            try:
                with pytest.raises(WriterFailed):
                    await pdp.submit(grant_cmd(ADMIN, U, R))
            finally:
                FAULTS.clear()
            assert pdp.wal.poisoned is not None
            edges = pdp.monitor.policy.edge_set()
            with pytest.raises(ReproError, match="rollback refused"):
                await pdp.rollback(genesis)
            return edges, pdp.monitor.policy.edge_set()

        async def main():
            pdp = PolicyDecisionPoint(
                policy=history_policy(), wal=str(tmp_path / "p.wal")
            )
            await pdp.start()
            try:
                return await scenario(pdp)
            finally:
                pdp.kill()

        before, after = asyncio.run(main())
        assert (U, R) in before  # the doomed batch applied in memory
        assert after == before

    def test_rollback_refuses_while_degraded(self, tmp_path):
        """With the breaker open the republish would be shed, so the
        rollback refuses before touching the policy."""

        async def scenario(pdp):
            genesis = pdp.version
            await pdp.submit(grant_cmd(ADMIN, U, R))
            pdp.supervisor.force_degrade("test")
            edges = pdp.monitor.policy.edge_set()
            with pytest.raises(WriterFailed):
                await pdp.rollback(genesis)
            return edges, pdp.monitor.policy.edge_set()

        (before, after), _ = serve(tmp_path / "p.wal", scenario)
        assert after == before

    def test_rollback_refuses_a_truncated_log(self, tmp_path):
        """The log is verified against the live handle's head before
        the policy is touched: a tail cut behind the PDP's back is
        caught, not rolled back to."""
        path = tmp_path / "p.wal"

        async def scenario(pdp):
            genesis = pdp.version
            await submit_each(
                pdp, grant_cmd(ADMIN, U, R), grant_cmd(ADMIN, U, S)
            )
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:-1]))
            edges = pdp.monitor.policy.edge_set()
            with pytest.raises(WalError, match="head digest"):
                await pdp.rollback(genesis)
            return edges, pdp.monitor.policy.edge_set()

        (before, after), _ = serve(path, scenario)
        assert after == before


class TestAuditDiff:
    def test_grant_is_coarsening(self, tmp_path):
        async def scenario(pdp):
            return [pdp.version] + await submit_each(
                pdp, grant_cmd(ADMIN, U, R)
            )

        (v0, v1), records = serve(tmp_path / "p.wal", scenario)
        diff = diff_policies(state_at(records, v0), state_at(records, v1))
        assert diff.direction == "coarsening"
        assert (U, perm("read", "doc")) in diff.gained_pairs

    def test_revoke_is_refinement(self, tmp_path):
        async def scenario(pdp):
            return await submit_each(
                pdp, grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R)
            )

        (v1, v2), records = serve(tmp_path / "p.wal", scenario)
        diff = diff_policies(state_at(records, v1), state_at(records, v2))
        assert diff.direction == "refinement"

    def test_full_cycle_is_equivalent(self, tmp_path):
        async def scenario(pdp):
            return [pdp.version] + await submit_each(
                pdp, grant_cmd(ADMIN, U, R), revoke_cmd(ADMIN, U, R)
            )

        (v0, _, v2), records = serve(tmp_path / "p.wal", scenario)
        diff = diff_policies(state_at(records, v0), state_at(records, v2))
        assert diff.direction == "equivalent"


class TestOnPaperPolicy:
    def test_figure2_session(self, tmp_path):
        async def scenario(pdp):
            genesis = pdp.version
            executed = [
                await pdp.submit(command) for command in (
                    grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2),
                    grant_cmd(figures.JANE, figures.JOE, figures.NURSE),
                    revoke_cmd(figures.JANE, figures.JOE, figures.NURSE),
                )
            ]
            final = pdp.version
            await pdp.rollback(genesis)
            return genesis, final, executed, pdp.monitor.policy

        (genesis, final, executed, live), records = serve(
            tmp_path / "p.wal", scenario, policy=figures.figure2()
        )
        assert all(record.executed for record in executed)
        assert sum(record.implicit for record in executed) == 1
        diff = diff_policies(
            state_at(records, genesis), state_at(records, final)
        )
        assert all(s == figures.BOB for s, _ in diff.gained_pairs)
        assert live == figures.figure2()
