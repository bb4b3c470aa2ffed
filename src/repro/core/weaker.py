"""Forward enumeration of weaker privileges (§4.2, Example 6, Remark 2).

The decision procedure of Lemma 1 answers "is this particular q weaker
than p?" without ever enumerating the (possibly infinite) set of weaker
privileges.  This module implements the *forward* direction — "find all
q with p Ã q" — which the paper discusses in §4.2:

* the set can be **infinite** (Example 6: a policy with the assignment
  ``(r2, ¤(r1,r2))`` produces the chain ``¤(r1, ¤(r1,r2))``,
  ``¤(r1, ¤(r1, ¤(r1,r2)))``, …), so enumeration is exposed both as a
  lazy generator and as a depth-bounded set; and
* Remark 2 conjectures that for practical purposes one may stop after
  ``n`` nesting steps, where ``n`` is the length of the longest chain
  in RH — :func:`remark2_bound` computes that bound and
  :mod:`repro.analysis.conjecture` tests the conjecture empirically.

``naive forward search does not necessarily terminate`` (§4.2) — the
Example-6 tests contrast :func:`enumerate_weaker` (diverging, must be
truncated) against the Lemma-1 backward decision (always terminating).
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .entities import Role, User
from .policy import Policy
from .privileges import (
    AdminPrivilege,
    Grant,
    Privilege,
    is_privilege,
)

_Entity = (User, Role)


def _grant_sources(policy: Policy, original_source, target_is_privilege: bool):
    """Legal replacement sources ``sq`` with ``sq ->phi sp``.

    These are the entities that reach the original source; when the new
    target is a privilege term the source must be a role (grammar sorts).
    """
    for vertex in policy.vertex_set():
        if target_is_privilege:
            if not isinstance(vertex, Role):
                continue
        elif not isinstance(vertex, _Entity):
            continue
        if policy.reaches(vertex, original_source):
            yield vertex


def weaker_set(
    policy: Policy,
    privilege: Privilege,
    depth: int,
    strict_rules: bool = False,
    _memo: dict | None = None,
) -> frozenset[Privilege]:
    """All privileges weaker than ``privilege`` derivable with at most
    ``depth`` nested recursions into privilege targets.

    ``depth=0`` permits only reflexivity and the narrow rule (2);
    each extra unit of depth allows one more descent through a nested
    privilege target (rule (3) or the generalized rule (2) hop).
    The full weaker set is the union over all depths — finite policies
    may still have an infinite union (Example 6).
    """
    if _memo is None:
        _memo = {}
    key = (privilege, depth)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    # Seed the memo to cut cycles: a term may transitively depend on
    # its own weaker set (Example 6); the fixpoint is reached by the
    # depth stratification, so within one depth the seed is sound.
    _memo[key] = frozenset({privilege})

    results: set[Privilege] = {privilege}
    if isinstance(privilege, Grant):
        source, target = privilege.source, privilege.target
        if isinstance(target, _Entity):
            # Narrow rule (2): both targets entities.
            entity_targets = [
                vertex
                for vertex in policy.descendants(target)
                if isinstance(vertex, Role)
            ]
            for new_source in _grant_sources(policy, source, False):
                for new_target in entity_targets:
                    results.add(Grant(new_source, new_target))
            if not strict_rules and depth > 0:
                # Generalized rule (2) + transitivity: hop through a
                # privilege vertex reachable from the entity target.
                privilege_vertices = [
                    vertex
                    for vertex in policy.descendants(target)
                    if is_privilege(vertex)
                ]
                role_sources = list(_grant_sources(policy, source, True))
                for w in privilege_vertices:
                    for new_target in weaker_set(
                        policy, w, depth - 1, strict_rules, _memo
                    ):
                        for new_source in role_sources:
                            results.add(Grant(new_source, new_target))
        elif isinstance(target, (AdminPrivilege,)) or is_privilege(target):
            # Rule (3): weaken the nested privilege.
            if depth > 0:
                role_sources = list(_grant_sources(policy, source, True))
                for new_target in weaker_set(
                    policy, target, depth - 1, strict_rules, _memo
                ):
                    for new_source in role_sources:
                        results.add(Grant(new_source, new_target))
    frozen = frozenset(results)
    _memo[key] = frozen
    return frozen


def enumerate_weaker(
    policy: Policy,
    privilege: Privilege,
    max_depth: int | None = None,
    strict_rules: bool = False,
) -> Iterator[Privilege]:
    """Lazily enumerate privileges weaker than ``privilege``.

    Terms are produced stratified by derivation depth and deduplicated;
    within a stratum the order is deterministic (by term size, then
    text).  If the weaker set is finite the generator terminates at the
    first depth that adds nothing new; for Example-6-style policies it
    is infinite — bound it with ``max_depth`` or ``itertools.islice``.
    """
    seen: set[Privilege] = set()
    depths = range(max_depth + 1) if max_depth is not None else count()
    memo: dict = {}
    for depth in depths:
        stratum = weaker_set(policy, privilege, depth, strict_rules, memo)
        fresh = stratum - seen
        if not fresh and depth > 0:
            return
        for term in sorted(
            fresh,
            key=lambda t: (
                t.size() if isinstance(t, AdminPrivilege) else 1,
                str(t),
            ),
        ):
            yield term
        seen |= stratum


def frontier_sizes(
    policy: Policy,
    privilege: Privilege,
    max_depth: int,
    strict_rules: bool = False,
) -> list[int]:
    """``|weaker_set(depth d)|`` for d = 0..max_depth.

    Exhibits the unbounded growth of the weaker set on Example 6
    (``tests/core/test_weaker.py::TestExample6``).
    """
    memo: dict = {}
    return [
        len(weaker_set(policy, privilege, depth, strict_rules, memo))
        for depth in range(max_depth + 1)
    ]


def remark2_bound(policy: Policy) -> int:
    """The paper's Remark-2 cutoff: the length of the longest chain in
    the role hierarchy."""
    return policy.longest_role_chain()
