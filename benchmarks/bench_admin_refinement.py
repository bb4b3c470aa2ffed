"""THM1 — Theorem 1: weakenings are administrative refinements.

Regenerates the theorem's verification table over the paper's policy
and random policies, and measures the bounded Definition-7 checker.
"""

from conftest import print_table

from repro.core.admin_refinement import check_admin_refinement
from repro.core.privileges import Grant
from repro.core.refinement import enumerate_weakenings, weaken_assignment
from repro.papercases import figures
from repro.workloads.generators import PolicyShape, random_policy


def test_report_theorem1_verification_sweep():
    """Every enumerable single-assignment weakening of Figure 2 and of
    random policies passes the bounded Definition-7 check."""
    rows = []
    checked = confirmed = 0
    policy = figures.figure2()
    for _role, stronger, weaker, psi in list(
        enumerate_weakenings(policy, max_depth=1)
    )[:6]:
        result = check_admin_refinement(policy, psi, depth=1)
        checked += 1
        confirmed += result.holds
        rows.append((
            "figure 2", str(stronger), str(weaker),
            "holds" if result.holds else "REFUTED",
        ))
    for seed in range(3):
        random = random_policy(
            seed, PolicyShape(n_admin_privileges=2, max_nesting=1,
                              allow_revocations=False),
        )
        for _role, stronger, weaker, psi in list(
            enumerate_weakenings(random, max_depth=1)
        )[:2]:
            result = check_admin_refinement(random, psi, depth=1)
            checked += 1
            confirmed += result.holds
            rows.append((
                f"random(seed={seed})", str(stronger), str(weaker),
                "holds" if result.holds else "REFUTED",
            ))
    print_table(
        "Theorem 1: weakening substitutions checked against bounded "
        "Definition 7 (paper: every weakening refines)",
        ["policy", "stronger", "weaker", "verdict"],
        rows,
    )
    assert checked == confirmed


def test_report_definition7_quantifier_directions():
    """The reproduction finding documented in
    :mod:`repro.core.admin_refinement`: the
    formula as printed (universal over φ's queues) cannot see an
    administrative strengthening; the prose reading (universal over
    ψ's queues) refutes it."""
    from repro.core.entities import Role, User
    from repro.core.policy import Policy
    from repro.core.privileges import perm

    jane, bob = User("jane"), User("bob")
    staff, nurse, db, hr = Role("staff"), Role("nurse"), Role("db"), Role("HR")
    base = dict(
        ua=[(jane, hr)],
        rh=[(staff, nurse), (staff, db)],
        pa=[(nurse, perm("print", "black")), (db, perm("write", "t3"))],
    )
    phi = Policy(**base)
    phi.add_user(bob)
    phi.assign_privilege(hr, Grant(bob, db))
    strengthened = Policy(**base)
    strengthened.add_user(bob)
    strengthened.assign_privilege(hr, Grant(bob, staff))
    weakened = weaken_assignment(
        strengthened, hr, Grant(bob, staff), Grant(bob, db)
    )

    rows = []
    for label, a, b in [
        ("Theorem-1 weakening", strengthened, weakened),
        ("strengthening", phi, strengthened),
    ]:
        printed = check_admin_refinement(a, b, depth=1,
                                         direction="phi-universal")
        prose = check_admin_refinement(a, b, depth=1,
                                       direction="psi-universal")
        rows.append((
            label,
            "holds" if printed.holds else "refuted",
            "holds" if prose.holds else "refuted",
        ))
    print_table(
        "Definition 7 quantifier directions (printed formula vs prose "
        "intuition) on a weakening and a strengthening",
        ["substitution", "as printed (forall phi)", "prose (forall psi)"],
        rows,
    )
    assert rows[0] == ("Theorem-1 weakening", "holds", "holds")
    assert rows[1] == ("strengthening", "holds", "refuted")


def test_bench_definition7_depth1(benchmark):
    phi = figures.figure2()
    psi = weaken_assignment(
        phi, figures.HR,
        Grant(figures.BOB, figures.STAFF),
        Grant(figures.BOB, figures.DBUSR2),
    )
    result = benchmark(lambda: check_admin_refinement(phi, psi, depth=1))
    assert result.holds


def test_bench_definition7_depth2(benchmark):
    phi = figures.figure2()
    psi = weaken_assignment(
        phi, figures.HR,
        Grant(figures.BOB, figures.STAFF),
        Grant(figures.BOB, figures.DBUSR2),
    )
    result = benchmark(lambda: check_admin_refinement(phi, psi, depth=2))
    assert result.holds


def test_bench_counterexample_detection(benchmark):
    """Refuting a strengthening (the checker's other job)."""
    from repro.core.entities import Role, User
    from repro.core.policy import Policy
    from repro.core.privileges import perm

    jane, bob = User("jane"), User("bob")
    staff, nurse, db, hr = Role("staff"), Role("nurse"), Role("db"), Role("HR")
    base = dict(
        ua=[(jane, hr)],
        rh=[(staff, nurse), (staff, db)],
        pa=[(nurse, perm("print", "black")), (db, perm("write", "t3"))],
    )
    phi = Policy(**base)
    phi.add_user(bob)
    phi.assign_privilege(hr, Grant(bob, db))
    psi = Policy(**base)
    psi.add_user(bob)
    psi.assign_privilege(hr, Grant(bob, staff))

    result = benchmark(lambda: check_admin_refinement(phi, psi, depth=1))
    assert not result.holds
