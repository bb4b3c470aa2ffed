"""Cross-model comparison harness (§5 of the paper, quantified).

The paper argues its ordering-based model is *more flexible and at the
same time safe*.  This module turns that claim into numbers:

* **Flexibility** — how many administrative operations are permitted
  right now?  Counted for the paper's model in strict and refined
  modes, and for the ARBAC97 / administrative-scope baselines over
  the same policy.
* **Safety** — does the extra flexibility change what is ultimately
  obtainable?  Compared via the admin-reachability analysis and the
  bounded mode-safety check.

The harness is policy-generic; the tests run it over Figure 2 and
the hospital policy (``tests/analysis/test_compare.py``,
``tests/integration/test_end_to_end.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import CommandAction, Mode, effective_commands
from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant
from .arbac import ArbacSystem, CanAssign, CanRevoke, Condition, RoleRange
from .reachability import obtainable_pairs
from .scope import may_assign_under_scope


@dataclass(frozen=True)
class FlexibilityReport:
    """Permitted-operation counts for one policy under each model."""

    strict_operations: int
    refined_operations: int
    implicit_operations: int          # refined-only (authorized via Ã)
    arbac_operations: int | None      # None when no translation exists
    scope_operations: int
    refined_over_strict: float

    def as_rows(self) -> list[tuple[str, int | float | None]]:
        return [
            ("strict (Def. 5, exact match)", self.strict_operations),
            ("refined (§4.1, ordering)", self.refined_operations),
            ("  of which implicit", self.implicit_operations),
            ("ARBAC97 baseline", self.arbac_operations),
            ("admin-scope baseline", self.scope_operations),
            ("refined / strict", round(self.refined_over_strict, 3)),
        ]


def count_model_operations(policy: Policy, mode: Mode) -> tuple[int, int]:
    """(total effective commands, implicitly authorized commands)."""
    total = 0
    implicit = 0
    for _command, _privilege, was_implicit in effective_commands(policy, mode):
        total += 1
        if was_implicit:
            implicit += 1
    return total, implicit


def count_scope_operations(policy: Policy) -> int:
    """User-role assignments permitted by the strict-scope model."""
    count = 0
    for admin in policy.users():
        for target in policy.users():
            for role in policy.roles():
                if may_assign_under_scope(policy, admin, target, role):
                    count += 1
    return count


def arbac_from_grants(policy: Policy) -> ArbacSystem:
    """Translate a policy's top-level user-assignment grants into
    URA97 rules.

    Each assigned ``¤(u, r)`` held by role ``h`` becomes
    ``can_assign(h, true, [r, r])``; each ``♦(u, r)`` becomes
    ``can_revoke(h, [r, r])``.  The translation is lossy on purpose:
    ARBAC ranges cannot mention the target user, so the user component
    is dropped — this widens ARBAC's permissions relative to the
    source policy (any user becomes assignable to ``r``), which is the
    expressiveness gap the comparison reports.
    """
    system = ArbacSystem(policy.copy())
    for holder, privilege in policy.admin_privileges_assigned():
        target = privilege.target
        if not (isinstance(target, Role) and isinstance(privilege.source, User)):
            continue
        role_range = RoleRange(target, target)
        if isinstance(privilege, Grant):
            system.can_assign_rules.append(
                CanAssign(holder, Condition.true(), role_range)
            )
        else:
            system.can_revoke_rules.append(CanRevoke(holder, role_range))
    return system


def count_arbac_operations(policy: Policy) -> int | None:
    """Assignments permitted by the URA97 translation (None if the
    policy has no translatable rules)."""
    system = arbac_from_grants(policy)
    if not system.can_assign_rules and not system.can_revoke_rules:
        return None
    return sum(1 for _ in system.permitted_assignments())


def flexibility_report(policy: Policy) -> FlexibilityReport:
    strict_total, _ = count_model_operations(policy, Mode.STRICT)
    refined_total, implicit = count_model_operations(policy, Mode.REFINED)
    return FlexibilityReport(
        strict_operations=strict_total,
        refined_operations=refined_total,
        implicit_operations=implicit,
        arbac_operations=count_arbac_operations(policy),
        scope_operations=count_scope_operations(policy),
        refined_over_strict=(
            refined_total / strict_total if strict_total else float("inf")
        ),
    )


@dataclass(frozen=True)
class SafetyComparison:
    """Obtainable-pair sets under strict vs refined administration."""

    strict_pairs: int
    refined_pairs: int
    refined_only_pairs: frozenset

    @property
    def refined_is_safe(self) -> bool:
        """True iff refined administration makes nothing obtainable
        that strict administration could not already produce."""
        return not self.refined_only_pairs


def safety_comparison(policy: Policy, depth: int = 2) -> SafetyComparison:
    strict = obtainable_pairs(policy, depth, Mode.STRICT)
    refined = obtainable_pairs(policy, depth, Mode.REFINED)
    return SafetyComparison(
        strict_pairs=len(strict),
        refined_pairs=len(refined),
        refined_only_pairs=frozenset(refined - strict),
    )


def count_grant_commands(policy: Policy, mode: Mode) -> int:
    """Grant-only effective-command count (assignment flexibility)."""
    return sum(
        1
        for command, _priv, _implicit in effective_commands(policy, mode)
        if command.action is CommandAction.GRANT
    )
