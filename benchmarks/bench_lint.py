"""Static policy lint: one kernel sweep vs. per-subject probing.

The claim under test: answering the lint questions (dead roles,
dormant privileges, irrevocable authority, self-escalation, SSD
conflicts, redundant delegation) with one bitset sweep per rule over
``PolicyBits`` masks and memoized ``descendants_bits`` beats the way
you would answer them without the lint subsystem — probing every
subject × object pair through the frozenset API (``policy.reaches``
per cell, ``policy.copy()`` + from-scratch index rebuild per
redundancy candidate) — by >=5x at 5k-user enterprise scale.

Three implementations over the same workload (enterprise policy plus a
handful of closure-implied shortcut edges and a cross-department SSD
set), each timed as the median of five sweeps that alternate between
the three, every sweep on a fresh ``policy.copy()`` (min and max are
reported too):

* **compiled** — ``lint_policy``, the full rule sweep;
* **oracle** — ``repro.oracle.reference_lint_policy``, the frozenset
  twins:
  findings must be *identical* (fuzz invariant 11 pins this under
  churn; the bench pins it at scale);
* **baseline** — the per-subject probing implementation defined below,
  which must agree with the sweep on every (rule, subject, witness)
  and is the denominator of the speedup assertion.

Run under pytest (``pytest benchmarks/bench_lint.py -s``) or directly
(``PYTHONPATH=src python benchmarks/bench_lint.py``).
``LINT_BENCH_DEPARTMENTS`` / ``LINT_BENCH_LEVELS`` /
``LINT_BENCH_EMPLOYEES`` shrink the workload for CI smoke runs;
``LINT_SPEEDUP_TARGET`` adjusts the assertion bar;
``tools/bench_report.py`` sets ``LINT_METRICS_OUT`` to collect the
numbers into the ``BENCH_kernel.json`` trajectory.
"""

import json
import os
import statistics
import time

from conftest import built_reference, print_table

from repro.analysis.constraints import SsdConstraint
from repro.analysis.lint import lint_policy
from repro.core.entities import Role, User
from repro.core.privileges import Grant, Revoke, is_privilege
from repro.oracle import reference_lint_policy
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy

DEPARTMENTS = int(os.environ.get("LINT_BENCH_DEPARTMENTS", "5"))
LEVELS = int(os.environ.get("LINT_BENCH_LEVELS", "4"))
EMPLOYEES = int(os.environ.get("LINT_BENCH_EMPLOYEES", "1000"))
SPEEDUP_TARGET = float(os.environ.get("LINT_SPEEDUP_TARGET", "5"))
#: timed sweeps per side; the reported time is their median.
SWEEPS = 5
SHAPE = EnterpriseShape(
    departments=DEPARTMENTS,
    levels_per_department=LEVELS,
    roles_per_level=3,
    employees_per_department=EMPLOYEES,
    delegation_depth=2,
)
SEED = 0

_metrics_cache: dict = {}


def build_workload():
    """The enterprise policy, seasoned so every rule has work to do:
    closure-implied shortcut edges feed the redundancy prober, and a
    cross-department SSD set feeds the constraint rule."""
    policy = enterprise_policy(SHAPE, SEED)
    if SHAPE.levels_per_department >= 3:
        for dept in range(SHAPE.departments):
            for index in range(SHAPE.roles_per_level):
                upper = Role(f"dept{dept}_L0_r{index}")
                lower = Role(f"dept{dept}_L2_r{index}")
                if (
                    upper in policy.graph
                    and lower in policy.graph
                    and policy.reaches(upper, lower)
                    and not policy.has_edge(upper, lower)
                ):
                    policy.add_inheritance(upper, lower)
    constraints = ()
    if SHAPE.departments >= 2:
        constraints = (
            SsdConstraint(
                "cross_department",
                frozenset(
                    Role(f"dept{dept}_L0_r0")
                    for dept in range(SHAPE.departments)
                ),
            ),
        )
    return policy, constraints


# ----------------------------------------------------------------------
# The per-subject probing baseline: same questions, no sweep.  Every
# reachability fact is re-derived per (subject, object) cell through
# the frozenset API, and every redundancy candidate costs a policy
# copy plus two from-scratch frozenset index builds.
# ----------------------------------------------------------------------
def baseline_signatures(policy, constraints):
    """rule -> sorted (str(subject), witness-strs) pairs, matching the
    lint findings' signature exactly."""
    graph = policy.graph
    users = sorted(policy.users(), key=str)
    roles = sorted(policy.roles(), key=str)
    privileges = sorted(policy.privileges(), key=str)
    entities = sorted(
        (
            vertex for vertex in policy.vertex_set()
            if isinstance(vertex, (User, Role))
        ),
        key=str,
    )
    out: dict[str, list] = {}

    def reached_by_someone(vertex):
        return any(policy.reaches(user, vertex) for user in users)

    def rectangle(privilege):
        if privilege.source in graph:
            sources = [
                entity for entity in entities
                if policy.reaches(entity, privilege.source)
            ]
        else:
            sources = [privilege.source]
        if privilege.target in graph:
            targets = [
                role for role in roles
                if policy.reaches(privilege.target, role)
            ]
        else:
            targets = (
                [privilege.target]
                if isinstance(privilege.target, Role) else []
            )
        return sources, targets

    # dead-role
    out["dead-role"] = [
        (str(role), ())
        for role in roles if not reached_by_someone(role)
    ]

    # dormant-privilege
    unreachable = [
        privilege for privilege in privileges
        if not reached_by_someone(privilege)
    ]
    potential: set = set()
    for grant in privileges:
        if not isinstance(grant, Grant) or not reached_by_someone(grant):
            continue
        if isinstance(grant.target, (User, Role)):
            sources, targets = rectangle(grant)
            activatable = any(
                source in graph and reached_by_someone(source)
                or source not in graph and isinstance(source, User)
                for source in sources
            )
            if not activatable:
                continue
            for target in targets:
                if target in graph:
                    potential.update(
                        privilege for privilege in privileges
                        if policy.reaches(target, privilege)
                    )
        else:
            if reached_by_someone(grant.source) and grant.target in graph:
                potential.add(grant.target)
    out["dormant-privilege"] = [
        (
            str(privilege),
            tuple(
                str(assigner) for assigner in
                sorted(graph.predecessors(privilege), key=str)
            ),
        )
        for privilege in unreachable if privilege not in potential
    ]

    # constraint-conflict
    conflicts = []
    for constraint in sorted(constraints, key=lambda c: c.name):
        separation = sorted(constraint.roles, key=str)
        for subject in users + roles:
            hit = [
                role for role in separation
                if role in graph and policy.reaches(subject, role)
            ]
            if len(hit) >= constraint.cardinality:
                conflicts.append(
                    (str(subject), tuple(str(role) for role in hit))
                )
    out["constraint-conflict"] = conflicts

    # irrevocable-authority
    revocable = {
        privilege.edge
        for privilege in privileges
        if isinstance(privilege, Revoke)
        and isinstance(privilege.target, (User, Role))
        and reached_by_someone(privilege)
    }
    irrevocable = []
    for grant in privileges:
        if (
            not isinstance(grant, Grant)
            or not isinstance(grant.target, (User, Role))
            or not reached_by_someone(grant)
        ):
            continue
        sources, targets = rectangle(grant)
        if not sources or not targets:
            continue
        witness = next(
            (
                (source, target)
                for source in sources for target in targets
                if (source, target) not in revocable
            ),
            None,
        )
        if witness is None:
            continue
        irrevocable.append(
            (str(grant), (str(witness[0]), str(witness[1])))
        )
    out["irrevocable-authority"] = irrevocable

    # self-escalation
    escalations = []
    priv_target_grants = sorted(
        (
            privilege
            for privilege in policy.admin_privileges()
            if isinstance(privilege, Grant)
            and is_privilege(privilege.target)
        ),
        key=str,
    )
    for user in users:
        reach = policy.descendants(user)
        for grant in privileges:
            if (
                not isinstance(grant, Grant)
                or not isinstance(grant.target, (User, Role))
                or grant not in reach
            ):
                continue
            sources, targets = rectangle(grant)
            routable = [
                source for source in sources if source in reach
            ]
            if not routable:
                continue
            witness = None
            for target in targets:
                if target not in graph or target in reach:
                    continue
                gained = next(
                    (
                        privilege for privilege in privileges
                        if policy.reaches(target, privilege)
                        and privilege not in reach
                    ),
                    None,
                )
                if gained is not None:
                    witness = (routable[0], target, gained)
                    break
            if witness:
                escalations.append(
                    (str(user), tuple(str(item) for item in witness))
                )
        for grant in priv_target_grants:
            if grant not in reach or grant.source not in reach:
                continue
            if grant.target in reach:
                continue
            escalations.append(
                (
                    str(user),
                    (str(grant.source), str(grant.target),
                     str(grant.target)),
                )
            )
    out["self-escalation"] = escalations

    # redundant-delegation: copy + from-scratch index rebuild per probe
    redundant = []
    edges = sorted(
        policy.edge_set(), key=lambda edge: (str(edge[0]), str(edge[1]))
    )
    for source, target in edges:
        if is_privilege(target) and graph.in_degree(target) == 1:
            continue
        if not any(
            policy.reaches(successor, target)
            for successor in graph.successors(source)
            if successor != target
        ):
            continue
        upstream = [
            user for user in users if policy.reaches(user, source)
        ]
        before = built_reference(policy.copy())
        before_held = {
            user: before.held_privileges(user) for user in upstream
        }
        before_authority = {
            user: before.effective_authority(user)
            for user in upstream[:8]
        }
        probe = policy.copy()
        probe.remove_edge(source, target)
        if not probe.reaches(source, target):
            continue
        after = built_reference(probe)
        preserved = all(
            after.held_privileges(user) == before_held[user]
            for user in upstream
        ) and all(
            after.effective_authority(user) == before_authority[user]
            for user in before_authority
        )
        if not preserved:
            continue
        reroute = next(
            successor
            for successor in sorted(probe.graph.successors(source), key=str)
            if probe.reaches(successor, target)
        )
        redundant.append(
            (str(source), (str(source), str(target), str(reroute)))
        )
    out["redundant-delegation"] = redundant

    return {
        rule: sorted(pairs) for rule, pairs in out.items() if pairs
    }


def report_signatures(report):
    signatures: dict[str, list] = {}
    for finding in report.findings:
        signatures.setdefault(finding.rule, []).append(
            (
                str(finding.subject),
                tuple(str(item) for item in finding.witness),
            )
        )
    return {rule: sorted(pairs) for rule, pairs in signatures.items()}


def collect_metrics() -> dict:
    """The benchmark's headline numbers (memoized; consumed by the
    report tests below and by tools/bench_report.py)."""
    if _metrics_cache:
        return _metrics_cache
    policy, constraints = build_workload()

    # One loaded sweep must not decide the floor: each side is the
    # median of SWEEPS runs, alternating sides, each on a fresh copy.
    sides = {
        "compiled": lambda work: lint_policy(work, constraints=constraints),
        "oracle": lambda work: reference_lint_policy(
            work, constraints=constraints
        ),
        "baseline": lambda work: baseline_signatures(work, constraints),
    }
    times: dict[str, list[float]] = {name: [] for name in sides}
    results = {}
    for _ in range(SWEEPS):
        for name, run in sides.items():
            work = policy.copy()
            started = time.perf_counter()
            results[name] = run(work)
            times[name].append(time.perf_counter() - started)
    compiled_report = results["compiled"]
    oracle_report = results["oracle"]
    baseline = results["baseline"]
    compiled_s, oracle_s, baseline_s = (
        statistics.median(times[name])
        for name in ("compiled", "oracle", "baseline")
    )

    assert compiled_report.findings == oracle_report.findings, (
        "compiled and frozenset lint findings diverge on the bench "
        "workload"
    )
    assert compiled_report.stats == oracle_report.stats, (
        "compiled and frozenset lint statistics diverge on the bench "
        "workload"
    )
    assert report_signatures(compiled_report) == baseline, (
        "per-subject probing baseline disagrees with the rule sweep"
    )
    assert compiled_report.findings, "bench workload produced no findings"

    _metrics_cache.update({
        "departments": SHAPE.departments,
        "users": len(list(policy.users())),
        "vertices": len(policy.vertex_set()),
        "findings": len(compiled_report.findings),
        "redundancy_candidates": compiled_report.stats.get(
            "redundant-delegation", {}
        ).get("candidates", 0),
        "sweeps": SWEEPS,
        "baseline_s": round(baseline_s, 4),
        "oracle_s": round(oracle_s, 4),
        "compiled_s": round(compiled_s, 4),
        **{
            f"{name}_{bound}_s": round(pick(times[name]), 4)
            for name in sides
            for bound, pick in (("min", min), ("max", max))
        },
        "compiled_speedup": round(baseline_s / compiled_s, 2),
        "oracle_speedup": round(baseline_s / oracle_s, 2),
        "speedup_target": SPEEDUP_TARGET,
    })
    return _metrics_cache


def test_report_lint_speedup():
    metrics = collect_metrics()
    print_table(
        f"Lint rule sweep vs per-subject probing "
        f"(enterprise, {metrics['users']} users, "
        f"{metrics['vertices']} vertices, "
        f"{metrics['findings']} findings)",
        ["implementation", "time", "speedup"],
        [
            (
                "per-subject frozenset probing",
                f"{metrics['baseline_s'] * 1000:.0f}ms",
                "1.0x",
            ),
            (
                "frozenset lint sweep (oracle)",
                f"{metrics['oracle_s'] * 1000:.0f}ms",
                f"{metrics['oracle_speedup']:.1f}x",
            ),
            (
                "compiled lint sweep",
                f"{metrics['compiled_s'] * 1000:.0f}ms",
                f"{metrics['compiled_speedup']:.1f}x",
            ),
        ],
    )
    assert metrics["compiled_speedup"] >= SPEEDUP_TARGET, (
        f"compiled lint sweep only {metrics['compiled_speedup']:.1f}x faster "
        f"than per-subject probing (target >={SPEEDUP_TARGET}x)"
    )


def test_report_lint_identity():
    """Invariant 11 on a reduced campaign: compiled and frozenset lint
    findings identical under ID-recycling churn."""
    from repro.workloads.fuzz import fuzz_lint
    from repro.workloads.generators import PolicyShape

    report = fuzz_lint(
        SEED, steps=16,
        shape=PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4),
    )
    assert report.ok, report.violations[:5]


if __name__ == "__main__":
    test_report_lint_identity()
    test_report_lint_speedup()
    metrics_out = os.environ.get("LINT_METRICS_OUT")
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(collect_metrics(), handle, indent=2)
