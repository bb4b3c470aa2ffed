"""ABLATION — authorization-path implementations for the refined
monitor.

Lemma 1's proof hints at an implementation choice
("the proof indicates how a decision algorithm ... can be implemented
at an RBAC reference monitor"): decide per query with the structural
procedure, or precompute grant rectangles per subject.  This bench
quantifies the trade-off on the hospital workload.
"""

from conftest import print_table

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Mode, candidate_commands, grant_cmd, step
from repro.core.ordering import OrderingOracle
from repro.papercases import figures
from repro.workloads.hospital import HospitalShape, hospital_policy


def test_report_index_vs_oracle_agreement():
    policy = hospital_policy(HospitalShape(wards=2, flexworkers=2))
    index = AuthorizationIndex(policy)
    agree = total = permitted = 0
    for command in candidate_commands(policy, Mode.REFINED):
        probe = policy.copy()
        record = step(probe, command, Mode.REFINED, OrderingOracle(probe))
        indexed = index.authorizes(command.user, command)
        total += 1
        agree += record.executed == (indexed is not None)
        permitted += record.executed
    print_table(
        "Authorization index vs ordering oracle (hospital, 2 wards)",
        ["candidate commands", "permitted", "agreement"],
        [(total, permitted, f"{agree}/{total}")],
    )
    assert agree == total


def _implicit_command():
    return grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)


def test_bench_oracle_path(benchmark):
    policy = figures.figure3()
    command = _implicit_command()
    oracle = OrderingOracle(policy)

    def run():
        # Authorization decision only (no mutation): mirror _authorize.
        from repro.core.commands import _authorize

        return _authorize(policy, command, Mode.REFINED, oracle)

    privilege, implicit = benchmark(run)
    assert privilege is not None and implicit


def test_bench_index_path(benchmark):
    policy = figures.figure3()
    command = _implicit_command()
    index = AuthorizationIndex(policy)

    privilege = benchmark(lambda: index.authorizes(command.user, command))
    assert privilege is not None


def test_bench_index_build(benchmark):
    policy = hospital_policy(HospitalShape(wards=4, flexworkers=2))

    def run():
        return AuthorizationIndex(policy).statistics()

    stats = benchmark(run)
    assert stats["rectangles"] > 0


def test_bench_grantable_pairs_review(benchmark):
    policy = hospital_policy(HospitalShape(wards=2, flexworkers=2))
    index = AuthorizationIndex(policy)
    from repro.core.entities import User

    pairs = benchmark(lambda: index.grantable_pairs(User("hr0")))
    assert pairs
