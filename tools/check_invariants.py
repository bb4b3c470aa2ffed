#!/usr/bin/env python
"""Codebase static analysis: machine-enforced repo discipline.

The bitset kernels rest on two conventions that review alone cannot
be trusted to hold:

1. **Graph encapsulation** — ``Digraph``'s private structures
   (``_succ``/``_pred`` adjacency and its copy-on-write ownership
   sets, the change journal, the vertex interner and its bitset
   adjacency rows) are mutated only inside
   :mod:`repro.graph`.  Everyone else may *read* them (the compiled
   kernels decode masks via ``_vertex_of``) but must route mutations
   through the public API, or the journal the incremental indexes
   depend on silently goes stale.

2. **Compiled-knob discipline** — the ``compiled`` knob now lives only
   in the analysis layer (safety, reachability, HRU, administrative
   refinement, lint and repair explorers); the serving stack has one
   authorization kernel, pinned against
   :class:`repro.oracle.ReferenceIndex`.  Every function taking a
   ``compiled`` parameter defaults it to a literal bool and actually
   consults it (so the frozenset escape hatch is real, not
   decorative), and no production call site hardwires
   ``compiled=True``/``compiled=False`` as a literal unless it is
   itself inside a function with a ``compiled`` parameter (threading
   a kernel choice) or in the differential-harness module whose whole
   point is running both analysis kernels side by side.

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

#: Modules (relative to src/repro) whose purpose is differential
#: kernel comparison: literal ``compiled=`` call arguments are their
#: bread and butter.
DIFFERENTIAL_MODULES = frozenset({
    "workloads/fuzz.py",
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
        self._function_stack: list[ast.AST] = []

    # -- helpers -------------------------------------------------------
    def _report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            f"{self.relpath}:{node.lineno}: {message}"
        )

    def _in_graph_module(self) -> bool:
        return self.relpath.startswith(GRAPH_MODULES)

    def _enclosing_has_compiled_param(self) -> bool:
        for function in reversed(self._function_stack):
            arguments = function.args
            names = [
                arg.arg
                for arg in (
                    arguments.posonlyargs
                    + arguments.args
                    + arguments.kwonlyargs
                )
            ]
            if "compiled" in names:
                return True
        return False

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
        self._check_compiled_literal(node)
        self.generic_visit(node)

    # -- rule 2: compiled-knob discipline ------------------------------
    def _check_compiled_literal(self, node: ast.Call) -> None:
        if self.relpath in DIFFERENTIAL_MODULES:
            return
        for keyword in node.keywords:
            if (
                keyword.arg == "compiled"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, bool)
                and not self._enclosing_has_compiled_param()
            ):
                self._report(
                    node,
                    f"hardwires compiled={keyword.value.value} outside "
                    "a compiled-parameterized function or differential "
                    "module (thread a compiled parameter instead)",
                )

    def _check_function(self, node) -> None:
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        defaults = [None] * (
            len(positional) - len(arguments.defaults)
        ) + list(arguments.defaults)
        pairs = list(zip(positional, defaults)) + list(
            zip(arguments.kwonlyargs, arguments.kw_defaults)
        )
        for arg, default in pairs:
            if arg.arg != "compiled":
                continue
            # A required ``compiled`` argument is an explicit knob;
            # a *defaulted* one must default to a literal bool so the
            # escape hatch is greppable and documented by the source.
            if default is not None and not (
                isinstance(default, ast.Constant)
                and isinstance(default.value, bool)
            ):
                self._report(
                    node,
                    f"function {node.name!r} must default its "
                    "'compiled' parameter to a literal bool",
                )
            used = any(
                isinstance(child, ast.Name)
                and child.id == "compiled"
                and isinstance(child.ctx, ast.Load)
                for statement in node.body
                for child in ast.walk(statement)
            ) or any(
                isinstance(child, ast.Attribute)
                and child.attr == "compiled"
                for statement in node.body
                for child in ast.walk(statement)
            )
            if not used:
                self._report(
                    node,
                    f"function {node.name!r} takes a 'compiled' "
                    "parameter but never consults it — the frozenset "
                    "escape hatch is decorative",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()


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
    module that exists on disk (the compiled-vs-frozenset pin), and
    exactly one of a repair planner in ``repro.analysis.repair`` or an
    explicit ``no_repair`` marker explaining why none ships."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis.lint import RULES
        from repro.analysis.repair import PLANNERS
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
    print("repo invariants hold: graph encapsulation, compiled-knob "
          "discipline, lint registry fully wired")
    return 0


if __name__ == "__main__":
    sys.exit(main())
