"""Compiled analysis explorers vs. their frozenset reference twins.

The claim under test: rebuilding the analysis layer's state-space
exploration on the bitset kernel — one mutable policy driven by an
apply/undo log, candidate pruning and ``reaches`` probes as bit tests,
canonical-fingerprint deduplication — beats the copy-per-candidate
frozenset explorers of ``repro.oracle`` by >=5x on the enterprise workload at depth 3, for
both

* **safety** — ``can_obtain`` against ``reference_can_obtain``,
  a witness search (one query per
  department's newcomer against its bottom-level document privilege),
  and
* **admin reachability** — ``reachable_policies`` against
  ``reference_reachable_policies``, each materializing every
  distinct policy state within the bound.

A third report pins differential identity on the bench workload itself
(state counts, witness lengths, ``states_explored``), and a reduced
invariant-10 campaign must come back clean.

Run under pytest (``pytest benchmarks/bench_analysis_kernel.py -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_analysis_kernel.py``).
``ANALYSIS_BENCH_DEPARTMENTS`` / ``ANALYSIS_BENCH_LEVELS`` /
``ANALYSIS_BENCH_EMPLOYEES`` shrink the workload for CI smoke runs;
``ANALYSIS_SPEEDUP_TARGET`` adjusts the assertion bar;
``tools/bench_report.py`` sets ``ANALYSIS_METRICS_OUT`` to collect the
numbers into the ``BENCH_kernel.json`` trajectory.
"""

import json
import os
import time

from conftest import print_table

from repro.analysis.reachability import reachable_policies
from repro.analysis.safety import can_obtain
from repro.core.commands import Mode, candidate_commands
from repro.core.entities import User
from repro.core.privileges import perm
from repro.oracle import reference_can_obtain, reference_reachable_policies
from repro.workloads.enterprise import EnterpriseShape, enterprise_policy

DEPARTMENTS = int(os.environ.get("ANALYSIS_BENCH_DEPARTMENTS", "3"))
LEVELS = int(os.environ.get("ANALYSIS_BENCH_LEVELS", "3"))
EMPLOYEES = int(os.environ.get("ANALYSIS_BENCH_EMPLOYEES", "6"))
DEPTH = int(os.environ.get("ANALYSIS_BENCH_DEPTH", "3"))
SPEEDUP_TARGET = float(os.environ.get("ANALYSIS_SPEEDUP_TARGET", "5"))
MAX_STATES = 500
SHAPE = EnterpriseShape(
    departments=DEPARTMENTS,
    levels_per_department=LEVELS,
    roles_per_level=3,
    employees_per_department=EMPLOYEES,
    delegation_depth=2,
)
SEED = 0

_metrics_cache: dict = {}


def _safety_queries(policy):
    """One witness search per department: can the newcomer obtain the
    department's first bottom-level document privilege within DEPTH
    administrative steps?  (Yes — via the delegation chain; the witness
    exercises real exploration before the early exit.)"""
    return [
        (User(f"dept{dept}_newcomer"), perm("read", f"dept{dept}_doc0"))
        for dept in range(SHAPE.departments)
    ]


def _safety_seconds(policy, explore) -> tuple[float, list]:
    verdicts = []
    started = time.perf_counter()
    for subject, privilege in _safety_queries(policy):
        verdicts.append(explore(policy, subject, privilege, DEPTH))
    return time.perf_counter() - started, verdicts


def _reachable_seconds(policy, explore) -> tuple[float, list]:
    started = time.perf_counter()
    states = explore(policy, DEPTH, Mode.STRICT, max_states=MAX_STATES)
    return time.perf_counter() - started, states


def collect_metrics() -> dict:
    """The benchmark's headline numbers (memoized; consumed by the
    report tests below and by tools/bench_report.py)."""
    if _metrics_cache:
        return _metrics_cache
    policy = enterprise_policy(SHAPE, SEED)
    universe = len(candidate_commands(policy, Mode.STRICT))

    safety_compiled_s, verdicts_compiled = _safety_seconds(
        policy, can_obtain
    )
    safety_frozenset_s, verdicts_frozenset = _safety_seconds(
        policy, reference_can_obtain
    )
    reachable_compiled_s, states_compiled = _reachable_seconds(
        policy, reachable_policies
    )
    reachable_frozenset_s, states_frozenset = _reachable_seconds(
        policy, reference_reachable_policies
    )

    # Identity on the bench workload itself: equal answers, equal work.
    assert [
        (v.reachable, v.states_explored,
         None if v.witness is None else len(v.witness))
        for v in verdicts_compiled
    ] == [
        (v.reachable, v.states_explored,
         None if v.witness is None else len(v.witness))
        for v in verdicts_frozenset
    ], "safety verdicts diverge between kernels"
    assert len(states_compiled) == len(states_frozenset), (
        "reachable state counts diverge between kernels"
    )
    assert [len(s.witness) for s in states_compiled] == [
        len(s.witness) for s in states_frozenset
    ], "reachable witness lengths diverge between kernels"

    _metrics_cache.update({
        "departments": SHAPE.departments,
        "universe": universe,
        "depth": DEPTH,
        "safety_frozenset_s": round(safety_frozenset_s, 4),
        "safety_compiled_s": round(safety_compiled_s, 4),
        "safety_speedup": round(safety_frozenset_s / safety_compiled_s, 2),
        "reachable_states": len(states_compiled),
        "reachable_frozenset_s": round(reachable_frozenset_s, 4),
        "reachable_compiled_s": round(reachable_compiled_s, 4),
        "reachable_speedup": round(
            reachable_frozenset_s / reachable_compiled_s, 2
        ),
        "speedup_target": SPEEDUP_TARGET,
    })
    return _metrics_cache


def test_report_analysis_speedup():
    metrics = collect_metrics()
    print_table(
        f"Compiled analysis explorers vs frozenset oracle "
        f"(enterprise, {metrics['departments']} departments, "
        f"universe {metrics['universe']}, depth {metrics['depth']})",
        ["surface", "frozenset", "compiled", "speedup"],
        [
            (
                "safety (can_obtain)",
                f"{metrics['safety_frozenset_s'] * 1000:.0f}ms",
                f"{metrics['safety_compiled_s'] * 1000:.0f}ms",
                f"{metrics['safety_speedup']:.1f}x",
            ),
            (
                f"reachable_policies ({metrics['reachable_states']} states)",
                f"{metrics['reachable_frozenset_s'] * 1000:.0f}ms",
                f"{metrics['reachable_compiled_s'] * 1000:.0f}ms",
                f"{metrics['reachable_speedup']:.1f}x",
            ),
        ],
    )
    assert metrics["safety_speedup"] >= SPEEDUP_TARGET, (
        f"compiled safety exploration only {metrics['safety_speedup']:.1f}x "
        f"faster than the frozenset oracle (target >={SPEEDUP_TARGET}x)"
    )
    assert metrics["reachable_speedup"] >= SPEEDUP_TARGET, (
        f"compiled reachability exploration only "
        f"{metrics['reachable_speedup']:.1f}x faster than the frozenset "
        f"oracle (target >={SPEEDUP_TARGET}x)"
    )


def test_report_differential_identity():
    """Invariant 10 on a reduced campaign: compiled explorer answers
    are differentially identical to the frozenset oracle, including
    interner ID recycling from deprovision/re-provision churn."""
    from repro.workloads.fuzz import fuzz_compiled_analysis
    from repro.workloads.generators import PolicyShape

    report = fuzz_compiled_analysis(
        SEED, steps=15,
        shape=PolicyShape(n_users=3, n_roles=4, n_admin_privileges=3),
    )
    assert report.ok, report.violations[:5]


if __name__ == "__main__":
    test_report_differential_identity()
    test_report_analysis_speedup()
    metrics_out = os.environ.get("ANALYSIS_METRICS_OUT")
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(collect_metrics(), handle, indent=2)
