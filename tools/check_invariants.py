#!/usr/bin/env python
"""Codebase static analysis: machine-enforced repo discipline.

The bitset kernels rest on six conventions that review alone cannot
be trusted to hold:

1. **Graph encapsulation** — ``Digraph``'s private structures
   (``_succ``/``_pred`` adjacency and its copy-on-write ownership
   sets, the change journal, the vertex interner and its bitset
   adjacency rows) are mutated only inside
   :mod:`repro.graph`.  Everyone else may *read* them (the compiled
   kernels decode masks via ``_vertex_of``) but must route mutations
   through the public API, or the journal the incremental indexes
   depend on silently goes stale.

2. **No kernel choice** — every question has one production kernel,
   and its frozenset twin lives in :mod:`repro.oracle`.  So (a) no
   function, method, lambda or dataclass field in ``src/repro`` has a
   parameter or field named ``compiled``, and (b) ``repro.oracle`` is
   imported in ``src/repro`` only by the oracle package itself and by
   the differential harnesses (``workloads/fuzz.py``,
   ``workloads/churn.py``) — production code never reaches for a twin.

3. **One authorization index per policy** — production code reads the
   policy's own index (``Policy.index``), built once and repaired from
   the journal.  ``AuthorizationIndex(...)`` is constructed only by
   ``Policy.index`` itself and by the differential modules that build
   fresh indexes as oracles against it; any other construction is a
   private rebuild of state the policy already maintains.  Likewise
   ``._fork(`` is called only in ``core/policy.py``: a copy's first
   ``index`` read is the one way to fork an index, so there is one
   copy idiom (``policy.copy()``, of which a ``ReviewSnapshot`` is a
   frozen instance).

4. **Lint registry fully wired** — every lint rule names an existing
   differential test module, has exactly one of a repair planner or a
   ``no_repair`` marker, and has a reference twin in
   :data:`repro.oracle.REFERENCE_RULES` (and every twin a rule).

5. **One journal read path** — outside :mod:`repro.graph`, the change
   journal is read only through ``dirty_region(graph, since)``, whose
   memoized window carries the burst classification and the swept
   region.  A call to ``changes_since``, ``summarize_deltas`` or
   ``_sweep_bits`` elsewhere in ``src/repro`` is a private journal
   read or region sweep that the consumers of one write would no
   longer share.

6. **Lint reads, never writes** — ``analysis/lint.py`` calls no policy
   or graph mutator (``add_edge``, ``remove_edge``, ``add_vertex``,
   ``assign_*``, ``remove_*``, ...).  A lint leaves its policy's
   version, journal and index as it found them; a check that needs to
   mutate, such as the redundancy probe, belongs to the reference twin
   in :mod:`repro.oracle.lint`.

Run as a script (``python tools/check_invariants.py``) or through
``tests/integration/test_invariants.py``; exits non-zero with one line
per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Digraph internals whose mutation is confined to repro.graph.
GRAPH_INTERNALS = frozenset({
    "_succ", "_pred", "_own_succ", "_own_pred", "_succ_bits", "_pred_bits",
    "_journal", "_edge_count",
    "_vid", "_vertex_of", "_free_vids",
})

#: Method names that mutate the container they are called on.
MUTATOR_METHODS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})

#: Modules (relative to src/repro) allowed to mutate graph internals.
GRAPH_MODULES = ("graph/",)

#: Journal reads and region sweeps confined to repro.graph: everyone
#: else reads the journal through ``dirty_region``.
JOURNAL_READS = frozenset({"changes_since", "summarize_deltas", "_sweep_bits"})

#: Modules (relative to src/repro) allowed to import ``repro.oracle``:
#: the differential harnesses that pin production kernels against it.
ORACLE_IMPORTERS = frozenset({
    "workloads/fuzz.py",
    "workloads/churn.py",
})

#: The oracle package, whose modules import each other.
ORACLE_PACKAGE = "oracle/"

#: Modules (relative to src/repro) allowed to construct an
#: ``AuthorizationIndex``: the policy, which owns one, and the
#: differential modules, whose fresh builds are the oracle the owned
#: index is checked against.
INDEX_BUILDERS = frozenset({
    "core/policy.py",
    "workloads/fuzz.py",
    "workloads/churn.py",
})

#: The module allowed to call ``AuthorizationIndex._fork``: the policy,
#: whose copies fork the source's index on their first ``index`` read.
FORK_CALLERS = frozenset({"core/policy.py"})

#: Modules (relative to src/repro) that only read the policy they get.
READ_ONLY_MODULES = frozenset({"analysis/lint.py"})

#: Policy and Digraph methods that change the policy graph, besides
#: every ``assign_*`` and ``remove_*`` method.
POLICY_MUTATORS = frozenset({
    "add_edge", "add_inheritance", "add_role", "add_user", "add_vertex",
    "fast_forward_version",
})


def _mentions_internal(node: ast.AST) -> str | None:
    """The first Digraph-internal attribute name mentioned anywhere
    inside ``node``, or None."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and child.attr in GRAPH_INTERNALS
        ):
            return child.attr
    return None


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath: str):
        self.relpath = relpath
        self.violations: list[str] = []

    # -- helpers -------------------------------------------------------
    def _report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            f"{self.relpath}:{node.lineno}: {message}"
        )

    def _in_graph_module(self) -> bool:
        return self.relpath.startswith(GRAPH_MODULES)

    # -- rule 1: graph-internal mutation -------------------------------
    def _check_mutation_target(self, target: ast.AST) -> None:
        if self._in_graph_module():
            return
        internal = _mentions_internal(target)
        if internal is not None:
            self._report(
                target,
                f"mutates Digraph internal {internal!r} outside "
                "repro.graph (use the public Digraph API)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutation_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_mutation_target(node.target)
        self.generic_visit(node)

    # -- rule 2: no kernel choice --------------------------------------
    def _check_parameters(self, node) -> None:
        arguments = node.args
        for arg in (
            arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        ):
            if arg.arg == "compiled":
                self._report(
                    node,
                    "takes a 'compiled' parameter: production has one "
                    "kernel (its frozenset twin belongs in repro.oracle)",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_parameters(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == "compiled"
            ):
                self._report(
                    statement,
                    f"class {node.name!r} declares a 'compiled' field: "
                    "production has one kernel",
                )
        self.generic_visit(node)

    def _may_import_oracle(self) -> bool:
        return (
            self.relpath in ORACLE_IMPORTERS
            or self.relpath.startswith(ORACLE_PACKAGE)
        )

    def _report_oracle_import(self, node: ast.AST) -> None:
        self._report(
            node,
            "imports repro.oracle outside the differential harnesses "
            f"({', '.join(sorted(ORACLE_IMPORTERS))})",
        )

    def visit_Import(self, node: ast.Import) -> None:
        if not self._may_import_oracle() and any(
            alias.name == "repro.oracle"
            or alias.name.startswith("repro.oracle.")
            for alias in node.names
        ):
            self._report_oracle_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self._may_import_oracle() and _imports_oracle(
            node, self.relpath
        ):
            self._report_oracle_import(node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_mutation_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            not self._in_graph_module()
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            internal = _mentions_internal(node.func.value)
            if internal is not None:
                self._report(
                    node,
                    f"calls mutator .{node.func.attr}() on Digraph "
                    f"internal {internal!r} outside repro.graph",
                )
        self._check_index_construction(node)
        self._check_journal_read(node)
        self._check_policy_mutation(node)
        self.generic_visit(node)

    # -- rule 3: one authorization index per policy --------------------
    def _check_index_construction(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name == "AuthorizationIndex" and self.relpath not in INDEX_BUILDERS:
            self._report(
                node,
                "constructs AuthorizationIndex outside Policy.index and "
                "the differential modules (read policy.index instead)",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "_fork"
            and self.relpath not in FORK_CALLERS
        ):
            self._report(
                node,
                "calls ._fork() outside Policy.index (fork an index by "
                "copying its policy and reading the copy's index)",
            )


    # -- rule 5: one journal read path ----------------------------------
    def _check_journal_read(self, node: ast.Call) -> None:
        if self._in_graph_module():
            return
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name in JOURNAL_READS:
            self._report(
                node,
                f"calls {name}() outside repro.graph (read the journal "
                "through dirty_region(graph, since))",
            )


    # -- rule 6: lint reads, never writes -------------------------------
    def _check_policy_mutation(self, node: ast.Call) -> None:
        if self.relpath not in READ_ONLY_MODULES:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        name = func.attr
        if name in POLICY_MUTATORS or name.startswith(("assign_", "remove_")):
            self._report(
                node,
                f"calls policy mutator .{name}() in a read-only module "
                "(lint never mutates its policy; a mutating check "
                "belongs to the reference twin in repro.oracle)",
            )


def _imports_oracle(node: ast.ImportFrom, relpath: str) -> bool:
    """Whether ``from ... import ...`` in module ``relpath`` (relative
    to src/repro) names ``repro.oracle`` or one of its modules."""
    module = node.module or ""
    if node.level == 0:
        target = module.split(".")
    else:
        package = ["repro"] + relpath.split("/")[:-1]
        if node.level > 1:
            package = package[: -(node.level - 1)]
        target = package + (module.split(".") if module else [])
    if target[:2] == ["repro", "oracle"]:
        return True
    return target == ["repro"] and any(
        alias.name == "oracle" for alias in node.names
    )


def check_source(source: str, relpath: str) -> list[str]:
    """Violations in one module; ``relpath`` is relative to
    ``src/repro`` with forward slashes."""
    checker = _Checker(relpath)
    checker.visit(ast.parse(source, filename=relpath))
    return checker.violations


def check_tree(root: Path = SRC_ROOT) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        violations.extend(check_source(path.read_text(), relpath))
    return violations


def check_lint_registry() -> list[str]:
    """Every lint rule must land fully wired: a ``differential`` test
    module that exists on disk, exactly one of a repair planner in
    ``repro.analysis.repair`` or an explicit ``no_repair`` marker
    explaining why none ships, and a frozenset twin of the same name
    in ``repro.oracle.REFERENCE_RULES`` — and every twin a rule."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis.lint import RULES
        from repro.analysis.repair import PLANNERS
        from repro.oracle import REFERENCE_RULES
    finally:
        sys.path.pop(0)
    violations: list[str] = []
    for name, rule in RULES.items():
        differential = getattr(rule, "differential", "")
        if not differential:
            violations.append(
                f"lint rule {name!r}: no differential test module "
                "reference (LintRule.differential)"
            )
        elif not (REPO_ROOT / differential).is_file():
            violations.append(
                f"lint rule {name!r}: differential test module "
                f"{differential!r} does not exist"
            )
        planned = name in PLANNERS
        marker = getattr(rule, "no_repair", None)
        if planned and marker:
            violations.append(
                f"lint rule {name!r}: has both a repair planner and a "
                f"no_repair marker ({marker!r}) — pick one"
            )
        elif not planned and not marker:
            violations.append(
                f"lint rule {name!r}: no repair planner registered in "
                "repro.analysis.repair and no no_repair marker"
            )
        if name not in REFERENCE_RULES:
            violations.append(
                f"lint rule {name!r}: no reference twin in "
                "repro.oracle.REFERENCE_RULES"
            )
    for name in REFERENCE_RULES:
        if name not in RULES:
            violations.append(
                f"reference twin {name!r} has no matching lint rule"
            )
    for name in PLANNERS:
        if name not in RULES:
            violations.append(
                f"repair planner {name!r} has no matching lint rule"
            )
    return violations


def main() -> int:
    violations = check_tree() + check_lint_registry()
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("repo invariants hold: graph encapsulation, no kernel choice, "
          "one authorization index per policy, lint registry fully "
          "wired, one journal read path, lint reads only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
