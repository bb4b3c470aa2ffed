"""Tier-1 wiring for the codebase invariant checker.

``tools/check_invariants.py`` machine-enforces the repo's standing
disciplines: Digraph internals are mutated only inside ``repro.graph``,
no production signature offers a ``compiled`` kernel choice and only
the differential harnesses import ``repro.oracle``, production code
reads the policy's own authorization index instead of building its
own, every lint rule is fully wired (including its reference
twin), the change journal is read outside ``repro.graph`` only
through ``dirty_region``, and lint calls no policy mutator.  The
first test keeps the live tree clean; the rest pin the checker
itself against synthetic violations so a silent regression of the
checker cannot hide a regression of the tree.
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
        from repro import oracle
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
        monkeypatch.setitem(oracle.REFERENCE_RULES, "waived-rule", waived)
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

    def test_missing_reference_twin_flagged(self, monkeypatch):
        from repro import oracle

        monkeypatch.delitem(oracle.REFERENCE_RULES, "dead-role")
        found = check_lint_registry()
        assert found == [
            "lint rule 'dead-role': no reference twin in "
            "repro.oracle.REFERENCE_RULES"
        ]

    def test_orphan_reference_twin_flagged(self, monkeypatch):
        from repro import oracle

        monkeypatch.setitem(
            oracle.REFERENCE_RULES, "orphan-twin",
            oracle.REFERENCE_RULES["dead-role"],
        )
        found = check_lint_registry()
        assert any(
            "orphan-twin" in v and "no matching lint rule" in v
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
    """Rule 2: no ``compiled`` parameter or field anywhere in
    ``src/repro``, and ``repro.oracle`` imported only by the
    differential harnesses."""

    def test_non_literal_default_flagged(self):
        found = violations_of("""
            DEFAULT = True
            def query(policy, compiled=DEFAULT):
                return bool(compiled)
        """)
        assert found and "'compiled' parameter" in found[0]

    def test_required_parameter_flagged(self):
        found = violations_of("""
            def query(policy, compiled):
                return bool(compiled)
        """)
        assert found and "'compiled' parameter" in found[0]

    def test_unused_compiled_parameter_flagged(self):
        found = violations_of("""
            def query(policy, compiled=True):
                return policy.edge_set()
        """)
        assert found and "'compiled' parameter" in found[0]

    def test_keyword_only_and_lambda_parameters_flagged(self):
        found = violations_of("""
            def query(policy, *, compiled=False):
                return policy
            pick = lambda compiled: compiled
        """)
        assert len(found) == 2
        assert all("'compiled' parameter" in v for v in found)

    def test_method_parameter_flagged(self):
        found = violations_of("""
            class Index:
                def __init__(self, compiled=True):
                    self.compiled = compiled
        """)
        assert found and "example.py:3" in found[0]

    def test_dataclass_field_flagged(self):
        found = violations_of("""
            @dataclass(frozen=True)
            class Report:
                findings: tuple
                compiled: bool = True
        """)
        assert len(found) == 1
        assert "'compiled' field" in found[0] and "example.py:5" in found[0]

    def test_other_names_allowed(self):
        assert violations_of("""
            def rows(self, schema, conditions, frozenset_flag=False):
                compiled = self._compile(schema, conditions)
                return run(compiled, flag=frozenset_flag)
        """) == []

    @pytest.mark.parametrize("statement", [
        "from ..oracle import ReferenceIndex",
        "from .. import oracle",
        "from ..oracle.lint import ReferenceLintSession",
        "import repro.oracle",
        "from repro.oracle import reference_can_obtain",
    ])
    def test_oracle_import_flagged(self, statement):
        found = violations_of(statement, relpath="analysis/lint.py")
        assert found and "imports repro.oracle" in found[0]

    @pytest.mark.parametrize(
        "relpath",
        ["workloads/fuzz.py", "workloads/churn.py", "oracle/lint.py"],
    )
    def test_oracle_import_allowed_in_harnesses(self, relpath):
        assert violations_of("""
            from ..oracle import ReferenceIndex
            from .index import ReferenceIndex as Twin
        """, relpath=relpath) == []


class TestOneIndexPerPolicy:
    def test_private_index_flagged(self):
        found = violations_of("""
            from repro.core.authz_index import AuthorizationIndex

            def audit(policy):
                return AuthorizationIndex(policy).held_privileges_bulk([])
        """)
        assert len(found) == 1
        assert "AuthorizationIndex" in found[0] and "example.py:5" in found[0]

    def test_qualified_construction_flagged(self):
        found = violations_of("""
            def monitor(policy):
                return authz_index.AuthorizationIndex(policy)
        """, relpath="core/monitor.py")
        assert found and "policy.index" in found[0]

    def test_reading_the_policy_index_allowed(self):
        assert violations_of("""
            def audit(policy):
                return policy.index.held_privileges_bulk([])
        """) == []

    @pytest.mark.parametrize(
        "relpath", ["core/policy.py", "workloads/fuzz.py", "workloads/churn.py"]
    )
    def test_owner_and_differential_modules_may_build(self, relpath):
        assert violations_of("""
            def fresh(policy):
                return AuthorizationIndex(policy)
        """, relpath=relpath) == []

    @pytest.mark.parametrize(
        "relpath", ["core/authz_index.py", "serve/pdp.py", "workloads/fuzz.py"]
    )
    def test_fork_outside_the_policy_flagged(self, relpath):
        found = violations_of("""
            def snapshot(policy, clone):
                return policy.index._fork(clone)
        """, relpath=relpath)
        assert len(found) == 1
        assert "_fork" in found[0] and ":3" in found[0]

    def test_policy_may_fork(self):
        assert violations_of("""
            def index(self, source, owner):
                return source._index._fork(owner)
        """, relpath="core/policy.py") == []


class TestOneJournalReadPath:
    @pytest.mark.parametrize("call", [
        "policy.graph.changes_since(since)",
        "summarize_deltas(deltas)",
        "_sweep_bits(graph._pred_bits, seeds, [0])",
    ])
    def test_private_journal_read_flagged(self, call):
        found = violations_of(f"""
            def repair(policy, since, deltas, graph, seeds):
                return {call}
        """, relpath="serve/cache.py")
        assert len(found) == 1
        assert "dirty_region" in found[0] and "cache.py:3" in found[0]

    def test_reading_the_window_allowed(self):
        assert violations_of("""
            from repro.graph import dirty_region

            def repair(policy, since):
                window = dirty_region(policy.graph, since)
                return window.upstream, window.removed_vertices
        """, relpath="core/authz_index.py") == []

    def test_graph_module_may_read_the_journal(self):
        assert violations_of("""
            def dirty_region(graph, since):
                deltas = graph.changes_since(since)
                return _sweep_bits(graph._succ_bits, 1, [0]), deltas
        """, relpath="graph/digraph.py") == []


class TestLintReadsOnly:
    @pytest.mark.parametrize("call", [
        "policy.remove_edge(source, target)",
        "policy.add_edge(source, target)",
        "policy.graph.add_vertex(source)",
        "policy.assign_privilege(source, target)",
        "policy.remove_role(source)",
    ])
    def test_mutator_call_in_lint_flagged(self, call):
        found = violations_of(f"""
            def probe(policy, source, target):
                {call}
        """, relpath="analysis/lint.py")
        assert len(found) == 1
        assert "read-only module" in found[0] and "lint.py:3" in found[0]

    def test_reads_in_lint_allowed(self):
        assert violations_of("""
            def probe(policy, source, target, found):
                found.append(policy.has_edge(source, target))
                found.remove(source)
                return policy.descendants_bits(source), policy.graph.successors(source)
        """, relpath="analysis/lint.py") == []

    def test_other_modules_may_mutate(self):
        assert violations_of("""
            def probe(policy, source, target):
                policy.remove_edge(source, target)
                policy.add_edge(source, target)
        """, relpath="oracle/lint.py") == []
