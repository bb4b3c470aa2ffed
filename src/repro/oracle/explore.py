"""Reference explorers: the twins of the engine-backed explorers
(``reference_X`` answers as production ``X`` does) by copying a policy
per probed command and identifying states by ``(edge_set,
vertex_set)`` (HRU: by the matrix's cell signature).  They expand
candidates in production order, so verdicts, witnesses and every
counter are identical; fuzz invariant 10 pins that.
"""

from __future__ import annotations

from collections import deque

from ..analysis.hru import AccessMatrix, HruCommand, SafetyResult
from ..analysis.reachability import ReachableState
from ..analysis.safety import SafetyVerdict
from ..core.admin_refinement import (
    AdminRefinementResult,
    _check_admin_refinement,
    _Obligation,
)
from ..core.commands import Command, Mode, candidate_commands, step
from ..core.entities import User
from ..core.ordering import OrderingOracle
from ..core.policy import Policy
from ..core.privileges import UserPrivilege
from ..core.refinement import is_refinement


def _successor(state: Policy, command: Command, mode: Mode) -> Policy | None:
    """A copy of ``state`` after ``command``, or None when the monitor
    does not execute it."""
    probe = state.copy()
    record = step(probe, command, mode, OrderingOracle(probe))
    return probe if record.executed else None


def _copying_bfs(policy: Policy, depth: int, mode: Mode, users):
    """Breadth-first over the distinct states within ``depth`` commands
    of ``policy``, deduplicated by ``(edge_set, vertex_set)``: yields
    each new state, a policy copy with its witness, as found."""
    universe = candidate_commands(policy, mode, users)
    seen = {(policy.edge_set(), policy.vertex_set())}
    frontier = deque([ReachableState(policy.copy(), ())])
    while frontier:
        current = frontier.popleft()
        if current.depth == depth:
            continue
        for command in universe:
            probe = _successor(current.policy, command, mode)
            if probe is None:
                continue
            signature = (probe.edge_set(), probe.vertex_set())
            if signature in seen:
                continue
            seen.add(signature)
            state = ReachableState(probe, current.witness + (command,))
            yield state
            frontier.append(state)


def reference_can_obtain(
    policy: Policy,
    subject: object,
    privilege: UserPrivilege,
    depth: int = 3,
    mode: Mode = Mode.STRICT,
    acting_users: list[User] | None = None,
) -> SafetyVerdict:
    if policy.reaches(subject, privilege):
        return SafetyVerdict(True, (), 1)
    explored = 1
    for state in _copying_bfs(policy, depth, mode, acting_users):
        explored += 1
        if state.policy.reaches(subject, privilege):
            return SafetyVerdict(True, state.witness, explored)
    return SafetyVerdict(False, None, explored)


def reference_reachable_policies(
    policy: Policy,
    depth: int,
    mode: Mode = Mode.STRICT,
    users: list[User] | None = None,
    max_states: int = 100_000,
) -> list[ReachableState]:
    states = [ReachableState(policy.copy(), ())]
    for state in _copying_bfs(policy, depth, mode, users):
        states.append(state)
        if len(states) >= max_states:
            break
    return states


def reference_check_safety(
    matrix: AccessMatrix,
    commands,
    right: str,
    subject: str,
    obj: str,
    max_steps: int = 6,
) -> SafetyResult:
    command_list: list[HruCommand] = list(commands)
    if matrix.has(subject, obj, right):
        return SafetyResult(True, 0, 1)
    seen = {matrix.signature()}
    frontier: deque[tuple[AccessMatrix, int]] = deque([(matrix, 0)])
    explored = 1
    while frontier:
        state, depth = frontier.popleft()
        if depth == max_steps:
            continue
        for command in command_list:
            for successor in command.successors(state):
                signature = successor.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                explored += 1
                if successor.has(subject, obj, right):
                    return SafetyResult(True, depth + 1, explored)
                frontier.append((successor, depth + 1))
    return SafetyResult(False, None, explored)


def _reference_universal_runs(
    policy: Policy, depth: int, mode: Mode
) -> list[_Obligation]:
    """All distinct (queue, final-policy) obligations of length <=
    ``depth``, deduplicated by (user sequence, final edge set)."""
    universe = candidate_commands(policy, mode)
    seen = {((), policy.edge_set())}
    obligations = [_Obligation((), policy.copy())]
    frontier = deque([((), policy.copy())])
    while frontier:
        queue, state = frontier.popleft()
        if len(queue) == depth:
            continue
        for command in universe:
            probe = _successor(state, command, mode)
            if probe is None or probe.edge_set() == state.edge_set():
                continue  # not executed, or executed but vacuous
            new_queue = queue + (command,)
            key = (tuple(cmd.user for cmd in new_queue), probe.edge_set())
            if key not in seen:
                seen.add(key)
                obligations.append(_Obligation(new_queue, probe.copy()))
                frontier.append((new_queue, probe))
    return obligations


def _reference_responder(responder: Policy, mode: Mode):
    """A matcher searching responder runs by copying the policy per
    probed candidate (with no-ops allowed): exactly one of
    ``dominated_final`` / ``dominating_final`` is None, the responder's
    result fills the hole, and the search asks
    ``is_refinement(dominating, dominated)``."""
    universe = candidate_commands(responder, mode)

    def match(users, dominated_final, dominating_final, counters) -> bool:
        visited: set[tuple[int, frozenset]] = set()

        def satisfied(state: Policy) -> bool:
            if dominating_final is None:
                return is_refinement(state, dominated_final)
            return is_refinement(dominating_final, state)

        def search(index: int, state: Policy) -> bool:
            key = (index, state.edge_set())
            if key in visited:
                return False
            visited.add(key)
            counters["responder_states"] += 1
            if satisfied(state):
                # Remaining positions can all be no-ops by the right users.
                return True
            if index == len(users):
                return False
            user = users[index]
            # No-op by `user`: same state, next index.
            if search(index + 1, state):
                return True
            for command in universe:
                if command.user != user:
                    continue
                probe = _successor(state, command, mode)
                if probe is None or probe.edge_set() == state.edge_set():
                    continue
                if search(index + 1, probe):
                    return True
            return False

        return search(0, responder.copy())

    return match


def reference_check_admin_refinement(
    phi: Policy,
    psi: Policy,
    depth: int = 2,
    direction: str = "psi-universal",
    phi_mode: Mode = Mode.STRICT,
    psi_mode: Mode = Mode.STRICT,
) -> AdminRefinementResult:
    """:func:`~repro.core.admin_refinement.check_admin_refinement` with
    copy-per-probe universal runs and responder search; the decision
    loop over obligations is the production one."""
    return _check_admin_refinement(
        phi, psi, depth, direction, phi_mode, psi_mode,
        _reference_universal_runs, _reference_responder,
    )

