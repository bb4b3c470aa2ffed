"""Empirical testing of the Remark-2 conjecture.

Remark 2: deeper nestings of a weaker privilege are "in a sense
redundant" — instead of assigning ``¤(r1, r2)`` to ``r1``, the deeper
term assigns to ``r1`` the privilege to do so, which only costs the
members of ``r1`` an extra administrative step.  The paper conjectures
that enumeration may stop after ``n`` applications of rule (3), where
``n`` is the length of the longest chain in RH, and leaves the claim
informal.

We operationalize "redundant" via admin-reachability: assigning a
weaker term ``q`` to a role ``r`` is *useful* only insofar as it
changes what is ultimately obtainable (the set of
(subject, user-privilege) pairs granted in some reachable policy,
given enough administrative steps).  The conjecture then reads:

    for every weaker term q of nesting depth beyond the Remark-2
    bound, the policy extended with (r, q) makes nothing obtainable
    that the policy extended with the bound-depth weaker terms does
    not already make obtainable.

:func:`check_conjecture_instance` checks one (policy, role, seed
privilege) instance and reports any violating deep terms; the tests
and the RMK2 benchmark sweep random policies.  Caveat: reachability
itself must be explored deep enough to
"unroll" the extra administrative steps, so the reachability depth
grows with the term depth examined.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import Mode
from ..core.entities import Role
from ..core.policy import Policy
from ..core.privileges import Privilege, privilege_depth
from ..core.weaker import remark2_bound, weaker_set
from .reachability import obtainable_pairs


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one Remark-2 conjecture instance."""

    bound: int
    terms_within_bound: int
    terms_beyond_bound: int
    violations: tuple[Privilege, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def check_conjecture_instance(
    policy: Policy,
    role: Role,
    seed: Privilege,
    extra_depth: int = 2,
    mode: Mode = Mode.STRICT,
) -> ConjectureReport:
    """Check the Remark-2 conjecture for one seed privilege.

    ``extra_depth`` controls how far beyond the bound the enumeration
    probes.  For each deep term ``q``, the obtainable pairs of
    ``policy + (role, q)`` (explored deep enough to execute the extra
    indirection steps) are compared against the obtainable pairs of
    the policy extended with *all* bound-depth weaker terms.  One
    admin-reachability exploration per deep term is the dominant cost
    of an instance.
    """
    bound = remark2_bound(policy)
    shallow_terms = weaker_set(policy, seed, bound)
    deep_terms = weaker_set(policy, seed, bound + extra_depth) - shallow_terms

    # Baseline capability: the policy with every shallow weakening
    # assigned, explored to the bound's worth of steps.
    baseline = policy.copy()
    for term in shallow_terms:
        baseline.assign_privilege(role, term)
    baseline_pairs = obtainable_pairs(baseline, depth=bound + 1, mode=mode)

    violations: list[Privilege] = []
    for term in sorted(deep_terms, key=str):
        probe = policy.copy()
        probe.assign_privilege(role, term)
        # Deep terms need extra steps to unroll their indirections.
        steps = privilege_depth(term) + 1
        probe_pairs = obtainable_pairs(probe, depth=steps, mode=mode)
        if not probe_pairs <= baseline_pairs:
            violations.append(term)
    return ConjectureReport(
        bound=bound,
        terms_within_bound=len(shallow_terms),
        terms_beyond_bound=len(deep_terms),
        violations=tuple(violations),
    )
