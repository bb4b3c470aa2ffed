"""SAFE — footnote 5 and safety analysis.

Regenerates the HRU-vs-refinement distinction (HRU's unordered
collusion analysis equates the lowrole/highrole policies, Definition 7
separates them) and measures the safety checkers: bounded HRU safety,
RBAC admin-reachability, and the refined-mode safety certificate.
Explorations run on the compiled undo-log engine (their frozenset
twins, in ``repro.oracle``, are measured by
``bench_analysis_kernel.py``).
"""

from conftest import print_table

from repro.analysis.hru import check_safety, encode_rbac_grants
from repro.analysis.safety import can_obtain
from repro.core.admin_refinement import check_admin_refinement, check_mode_safety
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.papercases import figures

P = perm("read", "secret")
LOWUSER, HIGHUSER = User("lowuser"), User("highuser")
LOWROLE, HIGHROLE, GUARDED = Role("lowrole"), Role("highrole"), Role("g")


def footnote5_policy(holder: Role) -> Policy:
    policy = Policy(
        ua=[(LOWUSER, LOWROLE), (HIGHUSER, HIGHROLE)],
        rh=[(HIGHROLE, LOWROLE)],
        pa=[(holder, Grant(GUARDED, P))],
    )
    policy.add_role(GUARDED)
    return policy


def test_report_footnote5():
    low_policy = footnote5_policy(LOWROLE)
    high_policy = footnote5_policy(HIGHROLE)
    rows = []
    for label, policy in [("lowrole holds grant", low_policy),
                          ("highrole holds grant", high_policy)]:
        matrix, commands = encode_rbac_grants(policy)
        hru = check_safety(matrix, commands, "m", "g", str(P), max_steps=2)
        rows.append((label, "leaks" if hru.leaks else "safe"))
    forward = check_admin_refinement(low_policy, high_policy, depth=1)
    backward = check_admin_refinement(high_policy, low_policy, depth=1)
    rows.append(("Def. 7: high refines low", "holds" if forward.holds else "no"))
    rows.append(("Def. 7: low refines high", "holds" if backward.holds else "no"))
    print_table(
        "Footnote 5: HRU equates the two policies; refinement orders "
        "them (high-role authority is the safer policy)",
        ["question", "verdict"],
        rows,
    )
    assert rows[0][1] == rows[1][1] == "leaks"
    assert rows[2][1] == "holds" and rows[3][1] == "no"


def test_report_safety_matrix_excerpt():
    policy = figures.figure2()
    questions = [
        (figures.BOB, perm("write", "t3")),
        (figures.BOB, perm("print", "black")),
        (figures.JOE, perm("read", "t1")),
        (figures.JANE, perm("read", "t1")),
    ]
    rows = []
    for user, privilege in questions:
        verdict = can_obtain(policy, user, privilege, depth=2)
        witness = (
            " ; ".join(str(c) for c in verdict.witness)
            if verdict.witness else "-"
        )
        rows.append((str(user), str(privilege),
                     "reachable" if verdict.reachable else "safe", witness))
    print_table(
        "Safety questions on Figure 2 (2 admin steps, strict mode)",
        ["user", "privilege", "verdict", "witness queue"],
        rows,
    )


def test_report_revocation_candidates():
    """§6 future work: candidate revocation orderings under the
    falsification harness (bounded — supported, not proved)."""
    from repro.analysis.revocation import (
        cross_connective_unsafe,
        dual_grant_ordering,
        falsify_candidate,
        revoke_always_weaker,
    )
    from repro.core.privileges import Revoke
    from repro.workloads.generators import PolicyShape, random_policy

    pool = [
        random_policy(seed, PolicyShape(
            n_users=2, n_roles=3, n_admin_privileges=2, max_nesting=1))
        for seed in range(3)
    ]
    # Seed handcrafted policies: one gives the revocation candidates
    # substitutions to try, the other makes the unsound control
    # observable (its revoke-for-grant swap hands out real privileges).
    crafted = footnote5_policy(HIGHROLE)
    crafted.assign_privilege(LOWROLE, Revoke(LOWUSER, LOWROLE))
    pool.append(crafted)

    jane, bob = User("jane"), User("bob")
    hr = Role("HR2")
    high2, low2 = Role("high2"), Role("low2")
    observable = Policy(
        ua=[(jane, hr)],
        rh=[(high2, low2)],
        pa=[
            (low2, perm("read", "x")),
            (high2, perm("write", "y")),
            (hr, Revoke(bob, low2)),
        ],
    )
    observable.add_user(bob)
    pool.append(observable)

    rows = []
    for name, candidate in [
        ("revoke-always-weaker", revoke_always_weaker),
        ("dual of rule (2)", dual_grant_ordering),
        ("grant-for-revoke (control)", cross_connective_unsafe),
    ]:
        outcome = falsify_candidate(
            candidate, pool, depth=1, name=name,
            max_substitutions_per_policy=6,
        )
        rows.append((
            name,
            outcome.substitutions_tried,
            "survives" if outcome.survived
            else f"refuted ({len(outcome.counterexamples)} cex)",
        ))
    print_table(
        "Candidate revocation orderings vs the bounded Def-7 falsifier "
        "(paper: future work)",
        ["candidate", "substitutions tried", "verdict"],
        rows,
    )
    assert rows[0][2] == "survives"
    assert rows[2][2].startswith("refuted")


def test_bench_hru_safety(benchmark):
    matrix, commands = encode_rbac_grants(footnote5_policy(LOWROLE))
    result = benchmark(
        lambda: check_safety(matrix, commands, "m", "g", str(P), max_steps=2)
    )
    assert result.leaks


def test_bench_rbac_safety_query(benchmark):
    policy = figures.figure2()
    verdict = benchmark(
        lambda: can_obtain(policy, figures.BOB, perm("write", "t3"), depth=1)
    )
    assert verdict.reachable


def test_bench_mode_safety_certificate(benchmark):
    policy = footnote5_policy(HIGHROLE)
    result = benchmark(lambda: check_mode_safety(policy, depth=1))
    assert result.holds


if __name__ == "__main__":
    print("SAFE reports (compiled explorer)")
    test_report_footnote5()
    test_report_safety_matrix_excerpt()
    test_report_revocation_candidates()
