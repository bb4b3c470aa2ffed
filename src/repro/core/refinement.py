"""Non-administrative refinement (Definition 6) and the Theorem-1
weakening transformation.

``φ º ψ`` ("ψ is a non-administrative refinement of φ") holds iff every
user privilege any user or role can reach in ψ is already reachable by
the same subject in φ — ψ grants *less*.  The relation is a preorder;
removing edges always refines (Example 3), and rearranging edges
refines exactly when the rearrangement does not create new
subject-to-privilege paths.

Theorem 1 states that replacing an assigned administrative privilege by
a Ã-weaker one yields an *administrative* refinement (Definition 7);
:func:`weaken_assignment` performs that substitution, and the tests
machine-check the theorem by running the bounded Definition-7 checker
over the substituted policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import PolicyError, PrivilegeError
from ..graph import ancestors, ancestors_bits, descendants_bits, iter_bits
from .entities import Role, User
from .ordering import OrderingOracle
from .policy import Policy
from .privileges import Privilege, UserPrivilege

_Entity = (User, Role)


@dataclass(frozen=True)
class RefinementWitness:
    """A counterexample to ``φ º ψ``: subject ``v`` reaches user
    privilege ``p`` in ψ but not in φ."""

    subject: object
    privilege: UserPrivilege

    def __str__(self) -> str:
        return (
            f"{self.subject} reaches {self.privilege} in the candidate "
            "refinement but not in the original policy"
        )


def refinement_counterexample(
    phi: Policy, psi: Policy
) -> RefinementWitness | None:
    """The least witness violating ``φ º ψ``, or None if ψ refines φ.

    The check runs over the *edge difference* — ψ's edges absent from
    φ (:meth:`repro.graph.Digraph.edges_absent_from`).  If subject
    ``s`` reaches user privilege ``p`` in ψ but not in φ, some edge of
    the ψ-path from ``s`` to ``p`` is missing from φ (a path made of
    φ's edges would reach in φ).  Let ``(u, v)`` be the first such
    edge: ``s`` reaches ``u`` in ψ and ``v`` reaches ``p`` in ψ.  So
    ψ refines φ when the difference is empty, and otherwise only the
    entity ancestors in ψ of the new edges' sources can be subjects of
    a witness, and only the user privileges below the new edges'
    targets its privileges.  Each candidate pair is checked in φ by
    vertex value, since the two graphs may intern their vertices
    differently.

    Deterministic: the witness is the least violating pair by
    ``(str(privilege), str(subject))``.
    """
    graph = psi.graph
    upstream = downstream = 0
    for source, target in graph.edges_absent_from(phi.graph):
        upstream |= ancestors_bits(graph, source)
        downstream |= descendants_bits(graph, target)
    vertex_of = graph.vertex_of
    witnesses = (
        RefinementWitness(subject, privilege)
        for subject in map(vertex_of, iter_bits(upstream))
        if isinstance(subject, _Entity)
        for privilege in map(
            vertex_of, iter_bits(psi.descendants_bits(subject) & downstream)
        )
        if isinstance(privilege, UserPrivilege)
        and not phi.reaches(subject, privilege)
    )
    return min(
        witnesses,
        key=lambda witness: (str(witness.privilege), str(witness.subject)),
        default=None,
    )


def is_refinement(phi: Policy, psi: Policy) -> bool:
    """Definition 6: True iff ``φ º ψ``."""
    return refinement_counterexample(phi, psi) is None


def refines_strictly(phi: Policy, psi: Policy) -> bool:
    """True iff ``φ º ψ`` but not ``ψ º φ`` (ψ grants strictly less)."""
    return is_refinement(phi, psi) and not is_refinement(psi, phi)


def granted_pairs(policy: Policy) -> frozenset[tuple[object, UserPrivilege]]:
    """All ``(subject, user privilege)`` pairs the policy authorizes.

    ``φ º ψ`` is equivalent to ``granted_pairs(ψ) ⊆ granted_pairs(φ)``;
    the pair view is what the baseline-comparison metrics report.
    """
    pairs: set[tuple[object, UserPrivilege]] = set()
    for privilege in policy.user_privileges():
        for subject in ancestors(policy.graph, privilege):
            if isinstance(subject, _Entity):
                pairs.add((subject, privilege))
    return frozenset(pairs)


# ----------------------------------------------------------------------
# Example 3 helpers: refinement by edge surgery
# ----------------------------------------------------------------------
def without_edge(policy: Policy, source: object, target: object) -> Policy:
    """Remove one edge; always a refinement of ``policy`` (Example 3)."""
    clone = policy.copy()
    if not clone.remove_edge(source, target):
        raise PolicyError(f"edge ({source!r}, {target!r}) not in policy")
    return clone


def with_replaced_edge(
    policy: Policy,
    old_edge: tuple[object, object],
    new_edge: tuple[object, object],
) -> Policy:
    """Replace one edge with another (Example 3's rearrangement).

    The result may or may not be a refinement — check with
    :func:`is_refinement` (the Example 3 tests exercise both outcomes).
    """
    clone = policy.copy()
    if not clone.remove_edge(*old_edge):
        raise PolicyError(f"edge {old_edge!r} not in policy")
    clone.add_edge(*new_edge)
    return clone


# ----------------------------------------------------------------------
# Theorem 1: weakening an assigned administrative privilege
# ----------------------------------------------------------------------
def weaken_assignment(
    policy: Policy,
    role: Role,
    stronger: Privilege,
    weaker: Privilege,
    check_ordering: bool = True,
) -> Policy:
    """``ψ = (φ \\ (role, stronger)) ∪ (role, weaker)`` — the Theorem-1
    substitution.

    With ``check_ordering=True`` (default) the substitution is refused
    unless ``stronger Ãφ weaker`` actually holds, so every policy this
    function returns is an administrative refinement of the input by
    Theorem 1.
    """
    if not policy.has_edge(role, stronger):
        raise PolicyError(
            f"({role!r}, {stronger!r}) is not a privilege assignment of the policy"
        )
    if check_ordering:
        oracle = OrderingOracle(policy)
        if not oracle.is_weaker(stronger, weaker):
            raise PrivilegeError(
                f"{weaker} is not weaker than {stronger} under this policy; "
                "the substitution would not be a refinement"
            )
    clone = policy.copy()
    clone.remove_edge(role, stronger)
    clone.assign_privilege(role, weaker)
    return clone


def enumerate_weakenings(
    policy: Policy,
    max_depth: int = 1,
) -> Iterator[tuple[Role, Privilege, Privilege, Policy]]:
    """All single-assignment weakenings of a policy, up to a nesting
    depth bound.

    Yields ``(role, stronger, weaker, weakened_policy)`` for every
    assigned administrative privilege and every strictly weaker
    privilege enumerable within ``max_depth`` (see
    :func:`repro.core.weaker.weaker_set`).  Used by the Theorem-1
    property tests and the refinement benchmarks.
    """
    from .weaker import weaker_set

    for role, stronger in sorted(
        policy.admin_privileges_assigned(), key=lambda pair: str(pair)
    ):
        for weaker in sorted(
            weaker_set(policy, stronger, max_depth) - {stronger}, key=str
        ):
            yield (
                role,
                stronger,
                weaker,
                weaken_assignment(policy, role, stronger, weaker,
                                  check_ordering=False),
            )
