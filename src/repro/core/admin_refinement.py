"""Bounded checking of administrative refinement (Definition 7).

Definition 7 quantifies over *all* command queues — an infinite set —
so it cannot be decided outright; the paper itself never decides it,
proving refinement only constructively via Theorem 1.  This module
implements a **bounded model checker** over the finite candidate
command universe (see :mod:`repro.core.commands`).

Direction of the quantifiers
----------------------------

The definition as printed reads: for every queue ``cq`` run on **φ**
there is a user-matched queue ``cq'`` run on **ψ** with ``φ' º ψ'``.
Because the existential player may always answer with disallowed
commands (no-ops), this direction is nearly vacuous: any ψ whose
*initial* user-privilege grants are contained in φ's satisfies it
regardless of how permissive ψ's administrative privileges are —
strengthening an admin privilege goes undetected.  The prose intuition
("if ψ allows a certain policy change then either the same policy
change is also allowed by φ, or it results in a safer policy") is the
**converse**: the universal quantifier must range over ψ's runs.  We
therefore implement both:

* ``direction="psi-universal"`` (default, the intended reading): every
  ψ-run must be dominated by some user-matched φ-run;
* ``direction="phi-universal"`` (the formula as printed): every φ-run
  must dominate some user-matched ψ-run.

Theorem-1 weakenings pass under **both** directions (the tests check
this); strengthenings are refuted under ``psi-universal`` and pass
vacuously under ``phi-universal``.  That discrepancy is a finding of
this reproduction: the formula as printed cannot see an
administrative strengthening, and ``tests/core/test_admin_refinement.py``
pins both verdicts.

Soundness of exploring only *effective* commands on the universal
side: a queue containing disallowed (no-op) commands reaches the same
final policy as the queue with the no-ops dropped, while only *adding*
response options for the existential side (which may answer any
position with a no-op by the same user).  Hence if every no-op-free
obligation is matched, every padded obligation is matched as well.

Cross-mode checks
-----------------

The two sides may run under different authorization modes.  In
particular ``check_mode_safety`` asks: is every REFINED-mode run of a
policy dominated by some user-matched STRICT-mode run of the *same*
policy?  This is the operational safety content of §4.1 ("giving
administrative users also the weaker administrative privileges allows
them to perform also safer administrative operations") and is verified
on the paper's policies and on random policies in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import AnalysisError
from .commands import Command, Mode, run_queue
from .entities import User
from .explore import ExplorationEngine
from .policy import Policy
from .refinement import is_refinement


@dataclass(frozen=True)
class AdminRefinementResult:
    """Outcome of a bounded Definition-7 check."""

    holds: bool
    depth: int
    direction: str
    #: a universal-side queue with no user-matched dominating response.
    counterexample: tuple[Command, ...] | None
    obligations_checked: int
    obligations_matched_trivially: int
    responder_states_explored: int

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class _Obligation:
    queue: tuple[Command, ...]
    final: Policy


def _universal_runs(
    policy: Policy, depth: int, mode: Mode
) -> list[_Obligation]:
    """All distinct (queue, final-policy) obligations of length <= depth.

    Distinctness is up to (user sequence, final edge set): two
    interleavings with the same issuing users and the same final policy
    impose the same proof obligation.  Runs on the exploration engine:
    one mutable state navigated by witness path, commands pruned by bit
    tests, and a ``policy.copy()`` only per *kept* obligation
    (``effective_commands`` is precisely the executed-and-non-vacuous
    filter, in candidate-universe order).
    """
    engine = ExplorationEngine(policy, mode)
    seen: set[tuple[tuple[User, ...], frozenset]] = {
        ((), policy.edge_set())
    }
    obligations: list[_Obligation] = [_Obligation((), engine.snapshot())]
    frontier: deque[tuple[Command, ...]] = deque([()])
    while frontier:
        path = frontier.popleft()
        if len(path) == depth:
            continue
        engine.goto(path)
        for command in engine.effective_commands():
            engine.push(command)
            new_queue = path + (command,)
            key = (
                tuple(cmd.user for cmd in new_queue),
                engine.policy.edge_set(),
            )
            if key in seen:
                engine.pop()
                continue
            seen.add(key)
            obligations.append(_Obligation(new_queue, engine.snapshot()))
            frontier.append(new_queue)
            engine.pop()
    return obligations


def _exists_dominating_run(
    engine: ExplorationEngine,
    users: tuple[User, ...],
    dominated_final: Policy | None,
    dominating_final: Policy | None,
    counters: dict[str, int],
) -> bool:
    """Search responder-runs issuing ``users`` (with no-ops allowed)
    on a shared responder engine.

    Exactly one of ``dominated_final`` / ``dominating_final`` is None:
    the responder's result fills the hole and we ask
    ``is_refinement(dominating, dominated)``.  The recursion pushes a
    candidate, descends, and pops on unwind (``finally``), so the
    engine is back at the responder's initial state when the search
    returns — ready for the next obligation without rebuilding the
    universe or the ordering oracle.
    """
    engine.goto(())
    visited: set[tuple[int, frozenset]] = set()

    def satisfied() -> bool:
        if dominating_final is None:
            return is_refinement(engine.policy, dominated_final)
        return is_refinement(dominating_final, engine.policy)

    def search(index: int) -> bool:
        key = (index, engine.policy.edge_set())
        if key in visited:
            return False
        visited.add(key)
        counters["responder_states"] += 1
        if satisfied():
            # Remaining positions can all be no-ops by the right users.
            return True
        if index == len(users):
            return False
        user = users[index]
        # No-op by `user`: same state, next index.
        if search(index + 1):
            return True
        for command in engine.effective_commands():
            if command.user != user:
                continue
            engine.push(command)
            try:
                if search(index + 1):
                    return True
            finally:
                engine.pop()
        return False

    return search(0)


def _responder_on_engine(responder: Policy, mode: Mode):
    """A matcher over one responder engine shared by every obligation,
    built on the first obligation that is not matched trivially."""
    engine: ExplorationEngine | None = None

    def match(users, dominated_final, dominating_final, counters) -> bool:
        nonlocal engine
        if engine is None:
            engine = ExplorationEngine(responder, mode)
        return _exists_dominating_run(
            engine, users, dominated_final, dominating_final, counters
        )

    return match


def check_admin_refinement(
    phi: Policy,
    psi: Policy,
    depth: int = 2,
    direction: str = "psi-universal",
    phi_mode: Mode = Mode.STRICT,
    psi_mode: Mode = Mode.STRICT,
) -> AdminRefinementResult:
    """Bounded Definition-7 check: is ψ an administrative refinement of
    φ, as far as runs of length ≤ ``depth`` over the candidate command
    universe can tell?

    ``holds=True`` is a certificate for the explored fragment, not a
    full proof; ``holds=False`` comes with a concrete counterexample
    queue on the universal side.

    Both the universal-side enumeration and the responder search run
    on :class:`~repro.core.explore.ExplorationEngine` undo logs — one
    shared responder engine across all obligations instead of a
    ``policy.copy()`` per probed candidate.  The copy-per-probe twin is
    :func:`repro.oracle.reference_check_admin_refinement`; results
    (including the counterexample and all counters) are identical.
    """
    return _check_admin_refinement(
        phi, psi, depth, direction, phi_mode, psi_mode,
        _universal_runs, _responder_on_engine,
    )


def _check_admin_refinement(
    phi: Policy,
    psi: Policy,
    depth: int,
    direction: str,
    phi_mode: Mode,
    psi_mode: Mode,
    universal_runs,
    responder,
) -> AdminRefinementResult:
    """The decision loop over the universal side's obligations:
    ``universal_runs(policy, depth, mode)`` enumerates them and
    ``responder(policy, mode)`` returns the matcher asked for a
    dominating run per obligation.  The reference oracle supplies its
    copy-per-probe pair; :func:`check_admin_refinement` the engine's."""
    if direction not in ("psi-universal", "phi-universal"):
        raise AnalysisError(f"unknown direction {direction!r}")
    counters = {"responder_states": 0}
    trivial = 0
    if direction == "psi-universal":
        obligations = universal_runs(psi, depth, psi_mode)
        match = responder(phi, phi_mode)
    else:
        obligations = universal_runs(phi, depth, phi_mode)
        match = responder(psi, psi_mode)

    for obligation in obligations:
        if direction == "psi-universal":
            # ψ produced obligation.final; φ must dominate it.
            if is_refinement(phi, obligation.final):
                trivial += 1
                continue
            dominated, dominating = obligation.final, None
        else:
            # φ produced obligation.final; ψ must produce a dominated state.
            if is_refinement(obligation.final, psi):
                trivial += 1
                continue
            dominated, dominating = None, obligation.final
        users = tuple(cmd.user for cmd in obligation.queue)
        if not match(users, dominated, dominating, counters):
            return AdminRefinementResult(
                holds=False,
                depth=depth,
                direction=direction,
                counterexample=obligation.queue,
                obligations_checked=len(obligations),
                obligations_matched_trivially=trivial,
                responder_states_explored=counters["responder_states"],
            )
    return AdminRefinementResult(
        holds=True,
        depth=depth,
        direction=direction,
        counterexample=None,
        obligations_checked=len(obligations),
        obligations_matched_trivially=trivial,
        responder_states_explored=counters["responder_states"],
    )


def check_mode_safety(
    policy: Policy, depth: int = 2
) -> AdminRefinementResult:
    """Is the refined monitor safe?  Every REFINED-mode run of
    ``policy`` must be dominated by a user-matched STRICT-mode run of
    the same policy (§4.1's safety claim, operationalized)."""
    return check_admin_refinement(
        policy,
        policy,
        depth=depth,
        direction="psi-universal",
        phi_mode=Mode.STRICT,
        psi_mode=Mode.REFINED,
    )


def theorem1_step_obligation(
    phi: Policy,
    psi: Policy,
    phi_command: Command,
    psi_command: Command,
    mode: Mode = Mode.STRICT,
) -> bool:
    """The core step of the Theorem-1 proof: execute the matched
    command pair and check ``φ' º ψ'``.

    The proof sketch in the paper matches the stronger command on φ
    against the weaker command on ψ and shows the results are related;
    this helper lets tests replay that argument on arbitrary instances.
    """
    phi_after, _ = run_queue(phi, [phi_command], mode)
    psi_after, _ = run_queue(psi, [psi_command], mode)
    return is_refinement(phi_after, psi_after)
