"""The HRU protection model (Harrison, Ruzzo & Ullman [7]).

Footnote 5 of the paper contrasts Definition 7 with the HRU model:
HRU's safety analysis assumes a set of untrusted subjects who may
collude *in any order*, which cannot distinguish the policy
``lowrole → ¤(r, p)`` from ``highrole → ¤(r, p)`` — the paper's
order- and subject-sensitive refinement can.  This module implements:

* the access matrix with generic rights;
* HRU commands (condition part + primitive operations);
* a bounded safety checker ("can right x leak into cell (s, o)?")
  by breadth-first exploration of matrix states; and
* :func:`encode_rbac_grants`, a translation of an RBAC policy's
  top-level grant privileges into HRU commands, used by the
  footnote-5 demonstration in the tests and the SAFE benchmark.

HRU safety is undecidable in general; the checker is explicitly
bounded (``max_steps``) and does not model subject/object creation —
the fragment needed for the comparison.

The checker mutates one matrix per frontier state in place with an
apply/undo log and deduplicates states by a
:class:`~repro.graph.fingerprint.StateFingerprint` bitmask over
``(subject, object, right)`` cell atoms — one XOR per primitive
operation, an int hash per ``seen`` test, and a matrix copy only per
*distinct* state.  Its copy-per-successor, frozenset-signature twin is
:func:`repro.oracle.reference_check_safety`; both produce identical
results (``leaks``/``steps``/``states_explored``), pinned by fuzz
invariant 10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import AnalysisError
from ..graph.fingerprint import StateFingerprint


class AccessMatrix:
    """A finite access matrix: (subject, object) cells holding rights.

    For simplicity every name is both a row and a column; the ``self``
    marker right on the diagonal lets commands pin parameters to
    constants while staying inside the plain HRU command form.
    """

    __slots__ = ("names", "_rights")

    def __init__(
        self,
        names: Iterable[str],
        rights: Iterable[tuple[str, str, str]] = (),
    ):
        self.names = frozenset(names)
        self._rights: dict[tuple[str, str], frozenset[str]] = {}
        for subject, obj, right in rights:
            self.enter(subject, obj, right)

    def enter(self, subject: str, obj: str, right: str) -> None:
        if subject not in self.names or obj not in self.names:
            raise AnalysisError(f"unknown matrix cell ({subject!r}, {obj!r})")
        key = (subject, obj)
        self._rights[key] = self._rights.get(key, frozenset()) | {right}

    def delete(self, subject: str, obj: str, right: str) -> None:
        key = (subject, obj)
        existing = self._rights.get(key, frozenset())
        self._rights[key] = existing - {right}

    def has(self, subject: str, obj: str, right: str) -> bool:
        return right in self._rights.get((subject, obj), frozenset())

    def signature(self) -> frozenset[tuple[str, str, str]]:
        """Canonical immutable snapshot of the matrix contents."""
        return frozenset(
            (subject, obj, right)
            for (subject, obj), rights in self._rights.items()
            for right in rights
        )

    def copy(self) -> "AccessMatrix":
        clone = AccessMatrix(self.names)
        clone._rights = dict(self._rights)
        return clone


@dataclass(frozen=True)
class HruOp:
    """A primitive operation: ``enter`` or ``delete`` a right."""

    kind: str  # "enter" | "delete"
    right: str
    subject_param: str
    object_param: str

    def __post_init__(self):
        if self.kind not in ("enter", "delete"):
            raise AnalysisError(f"unknown primitive op {self.kind!r}")


@dataclass(frozen=True)
class HruCommand:
    """``command name(params) if conditions then ops end``.

    ``conditions`` are triples ``(right, subject_param, object_name)``
    where the object position may name either a parameter or a
    constant (constants are cell names; parameters are looked up in
    the binding first).
    """

    name: str
    params: tuple[str, ...]
    conditions: tuple[tuple[str, str, str], ...]
    ops: tuple[HruOp, ...]

    def _resolve(self, token: str, binding: dict[str, str]) -> str:
        return binding.get(token, token)

    def applicable(self, matrix: AccessMatrix, binding: dict[str, str]) -> bool:
        return all(
            matrix.has(
                self._resolve(subject, binding),
                self._resolve(obj, binding),
                right,
            )
            for right, subject, obj in self.conditions
        )

    def apply(self, matrix: AccessMatrix, binding: dict[str, str]) -> AccessMatrix:
        result = matrix.copy()
        for op in self.ops:
            subject = self._resolve(op.subject_param, binding)
            obj = self._resolve(op.object_param, binding)
            if op.kind == "enter":
                result.enter(subject, obj, op.right)
            else:
                result.delete(subject, obj, op.right)
        return result

    def bindings(self, matrix: AccessMatrix) -> Iterator[dict[str, str]]:
        """Applicable parameter bindings, in deterministic order.

        Yields one shared dict, mutated between yields — consume each
        binding before advancing the iterator (both exploration paths
        do).  Applicability is evaluated lazily against ``matrix`` at
        yield time, so a caller that mutates the matrix mid-iteration
        must restore it before resuming (the undo-log explorer's
        discipline).
        """
        universe = sorted(matrix.names)

        def extend(index: int, binding: dict[str, str]):
            if index == len(self.params):
                if self.applicable(matrix, binding):
                    yield binding
                return
            for value in universe:
                binding[self.params[index]] = value
                yield from extend(index + 1, binding)
            binding.pop(self.params[index], None)

        yield from extend(0, {})

    def successors(self, matrix: AccessMatrix):
        for binding in self.bindings(matrix):
            yield self.apply(matrix, binding)


@dataclass(frozen=True)
class SafetyResult:
    leaks: bool
    steps: int | None
    states_explored: int


def check_safety(
    matrix: AccessMatrix,
    commands: Iterable[HruCommand],
    right: str,
    subject: str,
    obj: str,
    max_steps: int = 6,
) -> SafetyResult:
    """Bounded HRU safety: can ``right`` appear in cell (subject, obj)
    within ``max_steps`` command executions (any subjects, any order)?

    Undo-log BFS over matrix states: each frontier state is expanded
    by mutating it in place per applicable binding and undoing before
    the next binding; the matrix is copied only when a genuinely new
    state joins the frontier.  The caller's matrix is never mutated
    (the root is copied up front).
    """
    command_list = list(commands)
    if matrix.has(subject, obj, right):
        return SafetyResult(True, 0, 1)
    slots = StateFingerprint()
    root = matrix.copy()
    fingerprint = 0
    for atom in root.signature():
        fingerprint ^= slots.bit(atom)
    seen = {fingerprint}
    frontier: deque[tuple[AccessMatrix, int, int]] = deque(
        [(root, 0, fingerprint)]
    )
    explored = 1
    while frontier:
        state, depth, value = frontier.popleft()
        if depth == max_steps:
            continue
        for command in command_list:
            for binding in command.bindings(state):
                undo, delta = _apply_in_place(state, command, binding, slots)
                successor = value ^ delta
                if successor in seen:
                    _undo_in_place(state, undo)
                    continue
                seen.add(successor)
                explored += 1
                if state.has(subject, obj, right):
                    return SafetyResult(True, depth + 1, explored)
                frontier.append((state.copy(), depth + 1, successor))
                _undo_in_place(state, undo)
    return SafetyResult(False, None, explored)


def _apply_in_place(
    matrix: AccessMatrix,
    command: HruCommand,
    binding: dict[str, str],
    slots: StateFingerprint,
) -> tuple[list[tuple[str, str, str, str]], int]:
    """Run ``command``'s primitive operations on ``matrix`` itself.

    Returns ``(undo, delta)``: the inverse operations in application
    order (replay them reversed to restore the matrix) and the XOR
    delta the net cell changes contribute to the state fingerprint.
    Name validation matches :meth:`HruCommand.apply` — ``enter`` is
    called for every enter op, present or not.
    """
    undo: list[tuple[str, str, str, str]] = []
    delta = 0
    for op in command.ops:
        cell_subject = command._resolve(op.subject_param, binding)
        cell_object = command._resolve(op.object_param, binding)
        present = matrix.has(cell_subject, cell_object, op.right)
        if op.kind == "enter":
            matrix.enter(cell_subject, cell_object, op.right)
            if not present:
                undo.append(("delete", cell_subject, cell_object, op.right))
                delta ^= slots.bit((cell_subject, cell_object, op.right))
        else:
            matrix.delete(cell_subject, cell_object, op.right)
            if present:
                undo.append(("enter", cell_subject, cell_object, op.right))
                delta ^= slots.bit((cell_subject, cell_object, op.right))
    return undo, delta


def _undo_in_place(
    matrix: AccessMatrix, undo: list[tuple[str, str, str, str]]
) -> None:
    for kind, cell_subject, cell_object, cell_right in reversed(undo):
        if kind == "enter":
            matrix.enter(cell_subject, cell_object, cell_right)
        else:
            matrix.delete(cell_subject, cell_object, cell_right)


def encode_rbac_grants(policy) -> tuple[AccessMatrix, list[HruCommand]]:
    """Translate an RBAC policy's membership structure and *top-level*
    grant privileges into an HRU system.

    Every policy vertex becomes a matrix name.  The right ``m`` in cell
    (x, y) encodes "x reaches y" (reachability is flattened at encoding
    time — the standard HRU weakening); the diagonal carries the
    ``self`` marker used to pin command parameters to constants.  Each
    assigned grant privilege ``¤(v, v')`` held by role ``h`` becomes a
    command firable by *any* subject with ``m`` over ``h``.

    The translation deliberately loses the who-acts-when structure —
    footnote 5's point: the encodings of ``lowrole → ¤(r, p)`` and
    ``highrole → ¤(r, p)`` yield identical leak verdicts, while
    Definition 7 distinguishes the policies (see the tests).
    """
    from ..core.entities import Role, User
    from ..core.privileges import Grant, UserPrivilege

    names = {str(vertex) for vertex in policy.vertex_set()}
    # Grant targets/sources may mention entities or user privileges
    # that are not policy vertices yet; they need matrix cells too.
    for term in policy.subterm_closure():
        if isinstance(term, Grant):
            names.add(str(term.source))
            names.add(str(term.target))
    matrix = AccessMatrix(names)
    enter_self_markers(matrix)

    # Flattened reachability as the membership right `m`.
    for vertex in policy.vertex_set():
        if not isinstance(vertex, (User, Role)):
            continue
        for reachable in policy.descendants(vertex):
            if reachable != vertex:
                matrix.enter(str(vertex), str(reachable), "m")

    commands: list[HruCommand] = []
    for index, (holder, privilege) in enumerate(
        sorted(policy.admin_privileges_assigned(), key=lambda pair: str(pair))
    ):
        if not isinstance(privilege, Grant):
            continue
        target = privilege.target
        if not isinstance(target, (User, Role, UserPrivilege)):
            continue  # nested admin targets exceed the plain-cell encoding
        commands.append(
            HruCommand(
                name=f"grant_{index}",
                params=("actor",),
                conditions=(("m", "actor", str(holder)),),
                ops=(HruOp("enter", "m", str(privilege.source), str(target)),),
            )
        )
    return matrix, commands


def enter_self_markers(matrix: AccessMatrix) -> None:
    """Enter the ``self`` marker right into every diagonal cell."""
    for name in matrix.names:
        matrix.enter(name, name, "self")
