"""Experimental revocation orderings (the paper's future work, §6).

The paper: "Revocation privileges are included in our model, but we
have not identified (yet) a separate ordering for revocation
privileges.  We believe that this is an interesting possibility for
further research."

This module explores that direction, clearly marked experimental:

* :func:`revoke_always_weaker` — the candidate suggested by the
  paper's own safety notion.  Under Definition 6, *removing* edges can
  only shrink what subjects reach, so exercising any revocation
  privilege yields a refinement of the pre-state.  Conjecture: any
  privilege assignment may be replaced by a revocation privilege over
  an arbitrary (well-sorted) edge without breaking administrative
  refinement (``psi-universal`` direction).
* :func:`dual_grant_ordering` — the naive structural dual of rule (2)
  (revoking from a *more senior* role removes at least as much), which
  is plausible but needs checking.
* :func:`cross_connective_unsafe` — a deliberately wrong candidate
  (treat a grant as weaker than a revoke) used to validate that the
  falsifier actually finds counterexamples.

:func:`falsify_candidate` hunts for counterexamples with the bounded
Definition-7 checker over a pool of policies;
``tests/analysis/test_revocation.py`` records the verdicts: the first
two survive the explored bounds, the third is refuted.  Surviving a
bounded search is evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.admin_refinement import AdminRefinementResult, check_admin_refinement
from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant, Privilege, Revoke

CandidateOrdering = Callable[[Policy, Privilege, Privilege], bool]
"""``candidate(policy, stronger, weaker) -> bool`` — proposed Ã extension."""


def revoke_always_weaker(
    policy: Policy, stronger: Privilege, weaker: Privilege
) -> bool:
    """Candidate: every revocation privilege is weaker than every
    privilege (exercising it can only shrink the policy)."""
    return isinstance(weaker, Revoke)


def dual_grant_ordering(
    policy: Policy, stronger: Privilege, weaker: Privilege
) -> bool:
    """Candidate: the structural dual of rule (2) for revocations —
    ``♦(v2, v3) Ã ♦(v1, v4)`` if ``v2 →φ v1`` and ``v4 →φ v3``
    (the "weaker" revocation removes a more senior membership, hence
    at least as much authority)."""
    if not (isinstance(stronger, Revoke) and isinstance(weaker, Revoke)):
        return False
    s_src, s_tgt = stronger.source, stronger.target
    w_src, w_tgt = weaker.source, weaker.target
    if not (isinstance(s_tgt, (User, Role)) and isinstance(w_tgt, (User, Role))):
        return False
    return policy.reaches(s_src, w_src) and policy.reaches(w_tgt, s_tgt)


def cross_connective_unsafe(
    policy: Policy, stronger: Privilege, weaker: Privilege
) -> bool:
    """Deliberately unsound candidate (grant "weaker than" revoke) —
    a positive control for the falsifier."""
    return isinstance(stronger, Revoke) and isinstance(weaker, Grant)


@dataclass(frozen=True)
class FalsificationOutcome:
    """Result of hunting counterexamples for one candidate ordering."""

    candidate_name: str
    substitutions_tried: int
    counterexamples: tuple[tuple[Policy, Role, Privilege, Privilege,
                                 AdminRefinementResult], ...]

    @property
    def survived(self) -> bool:
        return not self.counterexamples


def candidate_substitutions(
    policy: Policy,
    candidate: CandidateOrdering,
) -> Iterable[tuple[Role, Privilege, Privilege]]:
    """All (role, stronger, weaker) substitutions the candidate claims
    are safe, with weaker terms drawn from revoke/grant terms over the
    policy's vertices (top-level pairs only — the falsifier's search
    space, kept finite)."""
    entities = sorted(
        (v for v in policy.vertex_set() if isinstance(v, (User, Role))), key=str
    )
    pool: list[Privilege] = []
    for source in entities:
        for target in entities:
            if isinstance(target, Role):
                if isinstance(source, (User, Role)):
                    pool.append(Revoke(source, target))
                    pool.append(Grant(source, target))
    for role, stronger in sorted(
        policy.admin_privileges_assigned(), key=lambda pair: str(pair)
    ):
        for weaker in pool:
            if weaker != stronger and candidate(policy, stronger, weaker):
                yield (role, stronger, weaker)


def falsify_candidate(
    candidate: CandidateOrdering,
    policies: Iterable[Policy],
    depth: int = 2,
    name: str = "candidate",
    max_substitutions_per_policy: int = 12,
) -> FalsificationOutcome:
    """Try to refute a candidate ordering: for each claimed-safe
    substitution, run the bounded Definition-7 checker and collect
    counterexamples."""
    tried = 0
    counterexamples = []
    for policy in policies:
        for index, (role, stronger, weaker) in enumerate(
            candidate_substitutions(policy, candidate)
        ):
            if index >= max_substitutions_per_policy:
                break
            substituted = policy.copy()
            substituted.remove_edge(role, stronger)
            substituted.assign_privilege(role, weaker)
            tried += 1
            result = check_admin_refinement(policy, substituted, depth=depth)
            if not result.holds:
                counterexamples.append(
                    (policy, role, stronger, weaker, result)
                )
    return FalsificationOutcome(
        candidate_name=name,
        substitutions_tried=tried,
        counterexamples=tuple(counterexamples),
    )
