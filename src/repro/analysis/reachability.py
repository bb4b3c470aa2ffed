"""Administrative reachability: what can a policy evolve into?

Explores the policy-state space induced by Definition 5's transition
function over the finite candidate command universe, up to a depth
bound.  On top of the raw exploration two questions are answered:

* :func:`reachable_policies` — every distinct policy state reachable
  within the bound (with a shortest witness queue each);
* :func:`obtainable_pairs` — the union, over reachable states, of the
  (subject, user-privilege) pairs granted — i.e. everything anyone
  could *ever* be allowed to do if administrators act within the bound.

These are the primitives behind the safety checker
(:mod:`repro.analysis.safety`), the Remark-2 conjecture tests, and the
strict-vs-refined safety comparison (:mod:`repro.analysis.compare`).

Exploration runs on the :class:`~repro.core.explore.ExplorationEngine`
— apply/undo log, bitmask candidate pruning, canonical fingerprint
deduplication — and copies a policy only per *distinct* reachable
state (the returned :class:`ReachableState` needs one), never per
candidate probe.  The copy-per-probe twin is
:func:`repro.oracle.reference_reachable_policies`.  State identity
covers the vertex set as well as the edge set in both, matching
``Policy.__eq__`` (two states that differ only in an isolated
vertex — a user deprovisioned and re-added with no memberships — are
distinct policies).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import Command, Mode
from ..core.entities import User
from ..core.explore import ExplorationEngine
from ..core.policy import Policy
from ..core.privileges import UserPrivilege
from ..core.refinement import granted_pairs


@dataclass(frozen=True)
class ReachableState:
    """One reachable policy state with a shortest witness queue."""

    policy: Policy
    witness: tuple[Command, ...]

    @property
    def depth(self) -> int:
        return len(self.witness)


def reachable_policies(
    policy: Policy,
    depth: int,
    mode: Mode = Mode.STRICT,
    users: list[User] | None = None,
    max_states: int = 100_000,
) -> list[ReachableState]:
    """BFS over policy states via effective commands, up to ``depth``.

    States are deduplicated by (vertex set, edge set) identity; each is
    returned with a shortest queue reaching it.  ``max_states`` is a
    hard cap guarding against exponential blow-ups on large inputs.
    Frontier nodes are witness paths on one undo-log engine; snapshots
    are taken only for the distinct states actually returned.
    """
    engine = ExplorationEngine(policy, mode, users)
    states: list[ReachableState] = [ReachableState(engine.snapshot(), ())]
    for path in engine.bfs(depth):
        states.append(ReachableState(engine.snapshot(), path))
        if len(states) >= max_states:
            break
    return states


def obtainable_pairs(
    policy: Policy,
    depth: int,
    mode: Mode = Mode.STRICT,
    users: list[User] | None = None,
) -> frozenset[tuple[object, UserPrivilege]]:
    """All (subject, user-privilege) pairs granted in *some* policy
    state reachable within ``depth`` administrative steps."""
    pairs: set[tuple[object, UserPrivilege]] = set()
    for state in reachable_policies(policy, depth, mode, users):
        pairs |= granted_pairs(state.policy)
    return frozenset(pairs)


def newly_obtainable_pairs(
    policy: Policy,
    depth: int,
    mode: Mode = Mode.STRICT,
) -> frozenset[tuple[object, UserPrivilege]]:
    """Pairs obtainable through administration but not granted by the
    initial policy — the "administrative surface" of the policy."""
    return obtainable_pairs(policy, depth, mode) - granted_pairs(policy)
