"""Safety queries over administrative RBAC policies.

The classical safety question (HRU [7], recast for RBAC): *can subject
``v`` ever obtain user privilege ``p``, given that administrators act
according to the policy?*  The checker explores Definition 5 runs over
the candidate command universe and returns a concrete witness queue
when the answer is yes.

Unlike HRU's analysis, runs here are subject- and order-sensitive:
the witness shows *who* has to act, which is exactly the distinction
footnote 5 of the paper draws.

The BFS runs on the :class:`~repro.core.explore.ExplorationEngine`:
one mutable policy driven by an apply/undo log, candidate pruning and
``reaches`` probes answered by kernel bitmasks, and state
deduplication by canonical fingerprint.  Its definitional twin,
:func:`repro.oracle.reference_can_obtain` (``policy.copy()`` per
candidate, ``(edge_set, vertex_set)`` signatures), is pinned
observationally identical (same verdicts, same witnesses, same
``states_explored``) by fuzz invariant 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import Command, Mode
from ..core.entities import User
from ..core.explore import ExplorationEngine, reaches_bits
from ..core.policy import Policy
from ..core.privileges import UserPrivilege


@dataclass(frozen=True)
class SafetyVerdict:
    """Answer to a safety query."""

    reachable: bool
    witness: tuple[Command, ...] | None
    states_explored: int

    def __bool__(self) -> bool:
        return self.reachable


def can_obtain(
    policy: Policy,
    subject: object,
    privilege: UserPrivilege,
    depth: int = 3,
    mode: Mode = Mode.STRICT,
    acting_users: list[User] | None = None,
) -> SafetyVerdict:
    """Can ``subject`` reach ``privilege`` in some policy reachable
    within ``depth`` administrative steps?

    ``acting_users`` restricts who issues commands (the "trusted users
    don't act" refinement of the classical safety question: pass only
    the untrusted users to model their collusion); the restriction is
    threaded into the candidate command universe, so the engine's
    per-state issuer masks never touch excluded users.  Frontier nodes
    are witness paths; the engine replays/undoes along them, so no
    state is ever copied.
    """
    if reaches_bits(policy, subject, privilege):
        return SafetyVerdict(True, (), 1)
    engine = ExplorationEngine(policy, mode, acting_users)
    return _can_obtain_on_engine(engine, subject, privilege, depth)


def _can_obtain_on_engine(
    engine: ExplorationEngine,
    subject: object,
    privilege: UserPrivilege,
    depth: int,
) -> SafetyVerdict:
    """One safety BFS over a (possibly shared) engine.

    :meth:`ExplorationEngine.bfs` keeps its ``seen`` set per query and
    starts by rewinding whatever state a previous query on the same
    engine left behind, so this is observationally identical to a
    fresh-engine run: same verdict, witness, and ``states_explored``.
    """
    explored = 1
    for path in engine.bfs(depth):
        explored += 1
        if engine.reaches(subject, privilege):
            return SafetyVerdict(True, path, explored)
    return SafetyVerdict(False, None, explored)


def safety_matrix(
    policy: Policy,
    depth: int = 2,
    mode: Mode = Mode.STRICT,
) -> dict[tuple[User, UserPrivilege], SafetyVerdict]:
    """The full user × user-privilege safety table for a policy.

    Contrasts strict and refined modes: refined mode must not make
    any *unsafe* cell reachable that strict mode keeps safe beyond
    what Theorem 1 predicts (it cannot — the tests assert equality of
    the obtainable sets on the paper's policies).

    The whole table shares one :class:`ExplorationEngine` — the candidate universe, issuer masks,
    and undo log are built once and every cell runs its own BFS with a
    per-query ``seen`` set, instead of rebuilding the engine per cell.
    Verdicts (including witnesses and ``states_explored``) are
    identical to per-cell :func:`can_obtain` calls.
    """
    verdicts: dict[tuple[User, UserPrivilege], SafetyVerdict] = {}
    users = sorted(policy.users(), key=str)
    privileges = sorted(policy.user_privileges(), key=str)
    # Depth-0 prefilter, vectorized: one descendants mask per user and
    # one interner lookup per privilege replace the per-cell
    # ``reaches_bits`` probes — U + P graph consultations instead of
    # U × P.  Verdicts are unchanged (``reaches_bits`` is exactly a
    # bit-test of the same mask; user == privilege never holds across
    # the sorts, so its reflexive branch is unreachable here).
    already_true = SafetyVerdict(True, (), 1)
    vid = policy.graph._vid
    privilege_ids = [
        (privilege, vid.get(privilege)) for privilege in privileges
    ]
    engine: ExplorationEngine | None = None
    for user in users:
        held = policy.descendants_bits(user)
        for privilege, privilege_id in privilege_ids:
            if privilege_id is not None and held >> privilege_id & 1:
                verdicts[(user, privilege)] = already_true
                continue
            if engine is None:
                engine = ExplorationEngine(policy, mode)
            verdicts[(user, privilege)] = _can_obtain_on_engine(
                engine, user, privilege, depth
            )
    return verdicts
