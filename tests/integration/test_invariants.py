"""Tier-1 wiring for the codebase invariant checker.

``tools/check_invariants.py`` machine-enforces the repo's two standing
disciplines: Digraph internals are mutated only inside ``repro.graph``,
and the ``compiled`` dual-kernel knob — which now lives only in the
analysis layer — is always a real, greppable escape hatch.  The first test keeps the live tree clean; the rest pin
the checker itself against synthetic violations so a silent regression
of the checker cannot hide a regression of the tree.
"""

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_invariants import (  # noqa: E402
    check_lint_registry,
    check_source,
    check_tree,
)


def violations_of(code: str, relpath: str = "analysis/example.py"):
    return check_source(textwrap.dedent(code), relpath)


class TestLiveTree:
    def test_repository_is_clean(self):
        assert check_tree() == []

    def test_lint_registry_fully_wired(self):
        assert check_lint_registry() == []


class TestLintRegistry:
    def test_half_wired_rule_flagged(self, monkeypatch):
        from repro.analysis import lint

        bogus = lint.LintRule(
            name="bogus-rule",
            severity=lint.Severity.INFO,
            summary="synthetic half-wired rule",
            check=lambda ctx: iter(()),
            differential="tests/does/not/exist.py",
        )
        monkeypatch.setitem(lint.RULES, "bogus-rule", bogus)
        found = check_lint_registry()
        assert any(
            "bogus-rule" in v and "does not exist" in v for v in found
        )
        assert any(
            "bogus-rule" in v and "no repair planner" in v for v in found
        )

    def test_no_repair_marker_satisfies_checker(self, monkeypatch):
        from repro.analysis import lint

        waived = lint.LintRule(
            name="waived-rule",
            severity=lint.Severity.INFO,
            summary="synthetic unrepairable rule",
            check=lambda ctx: iter(()),
            differential="tests/workloads/test_compiled_lint.py",
            no_repair="repair would require user input",
        )
        monkeypatch.setitem(lint.RULES, "waived-rule", waived)
        assert check_lint_registry() == []

    def test_planner_and_marker_conflict_flagged(self, monkeypatch):
        from repro.analysis import lint
        from repro.analysis import repair

        conflicted = lint.LintRule(
            name="conflicted-rule",
            severity=lint.Severity.INFO,
            summary="synthetic doubly-wired rule",
            check=lambda ctx: iter(()),
            differential="tests/workloads/test_compiled_lint.py",
            no_repair="but a planner exists too",
        )
        monkeypatch.setitem(lint.RULES, "conflicted-rule", conflicted)
        monkeypatch.setitem(
            repair.PLANNERS, "conflicted-rule", lambda ctx, finding: None
        )
        found = check_lint_registry()
        assert any(
            "conflicted-rule" in v and "pick one" in v for v in found
        )

    def test_orphan_planner_flagged(self, monkeypatch):
        from repro.analysis import repair

        monkeypatch.setitem(
            repair.PLANNERS, "orphan-rule", lambda ctx, finding: None
        )
        found = check_lint_registry()
        assert any(
            "orphan-rule" in v and "no matching lint rule" in v
            for v in found
        )


class TestGraphEncapsulation:
    def test_assignment_to_internal_flagged(self):
        found = violations_of("""
            def poke(graph):
                graph._succ[1] = set()
        """)
        assert len(found) == 1
        assert "_succ" in found[0] and "example.py:3" in found[0]

    def test_augmented_assignment_flagged(self):
        found = violations_of("""
            def poke(graph):
                graph._edge_count += 1
        """)
        assert found and "_edge_count" in found[0]

    def test_delete_flagged(self):
        found = violations_of("""
            def poke(graph, v):
                del graph._vid[v]
        """)
        assert found and "_vid" in found[0]

    def test_mutator_call_flagged(self):
        found = violations_of("""
            def poke(graph):
                graph._journal.append(("edge", 1, 2))
        """)
        assert found and "_journal" in found[0] and "append" in found[0]

    def test_nested_access_mutator_flagged(self):
        found = violations_of("""
            def poke(policy, a, b):
                policy.graph._succ[a].add(b)
        """)
        assert found and "_succ" in found[0]

    def test_read_access_allowed(self):
        assert violations_of("""
            def peek(graph, v):
                row = graph._succ[v]
                return graph._vertex_of[3], len(row)
        """) == []

    def test_graph_module_may_mutate(self):
        assert violations_of("""
            def mutate(self, v):
                self._succ[v] = set()
                self._journal.append(("vertex", v))
        """, relpath="graph/digraph.py") == []


class TestCompiledKnob:
    def test_non_literal_default_flagged(self):
        found = violations_of("""
            DEFAULT = True
            def query(policy, compiled=DEFAULT):
                return bool(compiled)
        """)
        assert found and "literal bool" in found[0]

    def test_required_parameter_allowed(self):
        assert violations_of("""
            def query(policy, compiled):
                return bool(compiled)
        """) == []

    def test_unused_compiled_parameter_flagged(self):
        found = violations_of("""
            def query(policy, compiled=True):
                return policy.edge_set()
        """)
        assert found and "never consults" in found[0]

    def test_consulted_parameter_allowed(self):
        assert violations_of("""
            def query(policy, compiled=True):
                if compiled:
                    return fast(policy)
                return slow(policy)
        """) == []

    def test_threading_through_self_allowed(self):
        assert violations_of("""
            class Index:
                def __init__(self, compiled=True):
                    self.compiled = compiled
        """) == []

    def test_hardwired_literal_flagged(self):
        found = violations_of("""
            def report(policy):
                return build_index(policy, compiled=False)
        """)
        assert found and "hardwires compiled=False" in found[0]

    def test_literal_inside_compiled_function_allowed(self):
        assert violations_of("""
            def query(policy, compiled=True):
                if not compiled:
                    return build_index(policy, compiled=False)
                return fast(policy)
        """) == []

    def test_literal_in_differential_module_allowed(self):
        assert violations_of("""
            def campaign(policy):
                fast = run(policy, compiled=True)
                slow = run(policy, compiled=False)
                return fast == slow
        """, relpath="workloads/fuzz.py") == []

    @pytest.mark.parametrize(
        "relpath", ["workloads/churn.py", "workloads/faults.py"]
    )
    def test_literal_in_serving_harness_flagged(self, relpath):
        """The serving-stack harnesses check against ReferenceIndex,
        not a second kernel, so they get no literal exemption."""
        found = violations_of("""
            def campaign(policy):
                return run(policy, compiled=False)
        """, relpath=relpath)
        assert found and "hardwires compiled=False" in found[0]

    def test_non_literal_call_argument_allowed(self):
        assert violations_of("""
            def report(policy, frozenset_flag):
                return build_index(policy, compiled=not frozenset_flag)
        """) == []
