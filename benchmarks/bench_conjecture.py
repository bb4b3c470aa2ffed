"""RMK2 — Remark 2: the longest-chain cutoff conjecture.

Regenerates the conjecture's empirical verification: enumerating
weaker privileges beyond n = longest-RH-chain applications of rule (3)
adds terms, but those terms are redundant (they change nothing that is
ultimately obtainable).  Also measures the cost of the cutoff bound
itself and of the conjecture check.

The conjecture check explores admin reachability per deep term, on
the compiled undo-log explorer.
"""

from conftest import print_table

from repro.analysis.conjecture import check_conjecture_instance
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.core.weaker import remark2_bound, weaker_set
from repro.papercases.examples import example6_policy
from repro.workloads.generators import layered_hierarchy


def chain_instance():
    admin, u = User("admin"), User("u")
    adm, high, low = Role("adm"), Role("high"), Role("low")
    policy = Policy(
        ua=[(admin, adm)],
        rh=[(high, low)],
        pa=[(low, perm("read", "doc")), (adm, Grant(u, high))],
    )
    policy.add_user(u)
    return policy, adm, Grant(u, high)


def test_report_conjecture_verdicts():
    rows = []
    instances = [
        ("example 6", *(lambda pr: (pr[0], Role("r2"), pr[1]))(example6_policy())),
        ("2-chain", *chain_instance()),
    ]
    for label, policy, role, seed in instances:
        report = check_conjecture_instance(policy, role, seed, extra_depth=1)
        rows.append((
            label,
            report.bound,
            report.terms_within_bound,
            report.terms_beyond_bound,
            "holds" if report.holds else f"{len(report.violations)} violations",
        ))
    print_table(
        "Remark 2: deep weaker terms are redundant "
        "(paper conjecture; verified on these instances)",
        ["instance", "bound n", "terms <= n", "terms > n", "verdict"],
        rows,
    )
    assert all(row[4] == "holds" for row in rows)


def test_report_frontier_vs_bound():
    """Weaker-set growth around the bound on a chain with an
    Example-6-style self-referential assignment at the bottom: the set
    keeps growing past the bound (the enumeration is infinite), which
    is exactly why the cutoff matters — the conjecture says what lies
    beyond it is redundant."""
    chain = [Role(f"c{i}") for i in range(4)]
    policy = Policy(rh=list(zip(chain, chain[1:])))
    seed_privilege = Grant(chain[0], chain[-1])
    policy.assign_privilege(chain[-1], seed_privilege)
    bound = remark2_bound(policy)
    rows = []
    previous = None
    for depth in range(bound + 3):
        size = len(weaker_set(policy, seed_privilege, depth))
        rows.append((
            depth,
            size,
            "<= bound" if depth <= bound else "beyond (redundant terms)",
        ))
        if previous is not None:
            assert size >= previous
        previous = size
    print_table(
        f"Weaker-set growth around the Remark-2 bound (n = {bound}); "
        "growth continues past n — the cutoff is what keeps "
        "enumeration finite",
        ["depth", "|weaker set|", "region"],
        rows,
    )
    assert rows[-1][1] > rows[0][1]


def test_bench_remark2_bound(benchmark):
    policy = layered_hierarchy(seed=3, layers=8, roles_per_layer=6)
    bound = benchmark(lambda: remark2_bound(policy))
    assert bound == 7


def test_bench_conjecture_instance(benchmark):
    policy, role, seed = chain_instance()
    report = benchmark(
        lambda: check_conjecture_instance(policy, role, seed, extra_depth=1)
    )
    assert report.holds


if __name__ == "__main__":
    print("RMK2 reports (compiled explorer)")
    test_report_conjecture_verdicts()
    test_report_frontier_vs_bound()
