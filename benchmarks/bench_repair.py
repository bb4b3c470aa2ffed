"""Lint-to-repair convergence: compiled kernel vs frozenset oracle.

The claim under test: driving repair plans to the re-lint fixed point
on the compiled kernel (``repair_policy``) beats the same driver over
the frozenset reference session (``repro.oracle.reference_repair_policy``)
by >=2x at enterprise scale.  Repair is lint in a
loop — one full lint, then, per applied plan, a re-lint in the
driver's :class:`~repro.analysis.lint.LintSession` (the three rules
scoped to the plan's dirty region, the other five in full) plus a
refinement check — so the sweep speedup compounds across iterations
and the gap is the honest cost of running ``--fix`` without the
bitset kernel.

Two runs over the same seeded-defect workload (enterprise policy plus
closure-implied shortcut edges and a cross-department SSD set, so
several rules have repairs to plan):

* **compiled** — ``repair_policy``;
* **oracle** — ``reference_repair_policy``: plan sequences,
  outcomes and the repaired policy must be *identical* (fuzz
  invariant 13 pins this under churn; the bench pins it at scale).

Both runs must converge (``fixpoint=True``) with zero findings
remaining, and the repaired policy must be a Definition-6 refinement
of the workload.

Run under pytest (``pytest benchmarks/bench_repair.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_repair.py``).
``REPAIR_BENCH_DEPARTMENTS`` / ``REPAIR_BENCH_LEVELS`` /
``REPAIR_BENCH_EMPLOYEES`` shrink the workload; 3 / 3 / 120, the size
``tools/bench_report.py`` runs, is the smallest supported shrink (below
it a run takes a few milliseconds, too short for the >=2x ratio:
2 / 2 / 4 reads 1.3-1.8x and fails the gate);
``REPAIR_SPEEDUP_TARGET`` adjusts the assertion bar;
``tools/bench_report.py`` sets ``REPAIR_METRICS_OUT`` to collect the
numbers into the ``BENCH_kernel.json`` trajectory.
"""

import json
import os
import time

from conftest import print_table

from repro.analysis.constraints import SsdConstraint
from repro.analysis.repair import repair_policy
from repro.core.entities import Role
from repro.core.refinement import is_refinement
from repro.oracle import reference_repair_policy
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy

DEPARTMENTS = int(os.environ.get("REPAIR_BENCH_DEPARTMENTS", "5"))
LEVELS = int(os.environ.get("REPAIR_BENCH_LEVELS", "4"))
EMPLOYEES = int(os.environ.get("REPAIR_BENCH_EMPLOYEES", "1000"))
SPEEDUP_TARGET = float(os.environ.get("REPAIR_SPEEDUP_TARGET", "2"))
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
    """The enterprise policy, seeded with repairable defects beyond
    the ones it ships with: closure-implied shortcut edges feed the
    redundant-delegation planner, and a cross-department SSD set
    feeds the constraint planner."""
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


def collect_metrics() -> dict:
    """The benchmark's headline numbers (memoized; consumed by the
    report tests below and by tools/bench_report.py)."""
    if _metrics_cache:
        return _metrics_cache
    policy, constraints = build_workload()

    started = time.perf_counter()
    compiled_report = repair_policy(policy, constraints=constraints)
    compiled_s = time.perf_counter() - started

    started = time.perf_counter()
    oracle_report = reference_repair_policy(policy, constraints=constraints)
    oracle_s = time.perf_counter() - started

    assert [o.signature() for o in compiled_report.outcomes] == [
        o.signature() for o in oracle_report.outcomes
    ], "compiled and frozenset repair outcomes diverge on the bench"
    assert compiled_report.policy == oracle_report.policy, (
        "compiled and frozenset repaired policies diverge on the bench"
    )
    assert compiled_report.fixpoint and oracle_report.fixpoint, (
        "repair did not converge on the bench workload"
    )
    assert compiled_report.remaining == (), (
        "findings survived repair on the bench workload"
    )
    assert compiled_report.applied, (
        "bench workload produced no applied plans"
    )
    assert is_refinement(policy, compiled_report.policy), (
        "repaired policy is not a refinement of the workload"
    )

    _metrics_cache.update({
        "departments": SHAPE.departments,
        "users": len(list(policy.users())),
        "vertices": len(policy.vertex_set()),
        "initial_findings": len(compiled_report.initial.findings),
        "plans_applied": len(compiled_report.applied),
        "plans_rejected": len(compiled_report.rejected),
        "iterations": compiled_report.iterations,
        "oracle_s": round(oracle_s, 4),
        "compiled_s": round(compiled_s, 4),
        "compiled_speedup": round(oracle_s / compiled_s, 2),
        "speedup_target": SPEEDUP_TARGET,
    })
    return _metrics_cache


def test_report_repair_speedup():
    metrics = collect_metrics()
    print_table(
        f"Repair convergence, compiled vs frozenset "
        f"(enterprise, {metrics['users']} users, "
        f"{metrics['vertices']} vertices, "
        f"{metrics['initial_findings']} findings, "
        f"{metrics['plans_applied']} plans applied)",
        ["implementation", "time", "speedup"],
        [
            (
                "frozenset repair (oracle)",
                f"{metrics['oracle_s'] * 1000:.0f}ms",
                "1.0x",
            ),
            (
                "compiled repair",
                f"{metrics['compiled_s'] * 1000:.0f}ms",
                f"{metrics['compiled_speedup']:.1f}x",
            ),
        ],
    )
    assert metrics["compiled_speedup"] >= SPEEDUP_TARGET, (
        f"compiled repair only {metrics['compiled_speedup']:.1f}x faster "
        f"than the frozenset oracle (target >={SPEEDUP_TARGET}x)"
    )


def test_report_repair_identity():
    """Invariant 13 on a reduced campaign: plan sequences, outcomes
    and repaired policies identical across kernels under churn."""
    from repro.workloads.fuzz import fuzz_repair
    from repro.workloads.generators import PolicyShape

    report = fuzz_repair(
        SEED, steps=14,
        shape=PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4),
    )
    assert report.ok, report.violations[:5]


if __name__ == "__main__":
    test_report_repair_identity()
    test_report_repair_speedup()
    metrics_out = os.environ.get("REPAIR_METRICS_OUT")
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(collect_metrics(), handle, indent=2)
