"""Analyses and related-work baselines.

Implements the models the paper compares against (§5 and footnote 5)
— ARBAC97, administrative scope, administrative domains, HRU — plus
safety/reachability analysis, the cross-model comparison harness, the
Remark-2 conjecture tester, and the experimental revocation orderings
of the paper's future-work section.
"""

from .arbac import (
    ArbacSystem,
    CanAssign,
    CanRevoke,
    Condition,
    Literal,
    RoleRange,
)
from .scope import (
    administrative_scope,
    is_within_scope,
    juniors,
    may_assign_under_scope,
    scope_administrators,
    seniors,
    strict_administrative_scope,
)
from .domains import Domain, DomainPartition
from .hru import (
    AccessMatrix,
    HruCommand,
    HruOp,
    SafetyResult,
    check_safety,
    encode_rbac_grants,
    enter_self_markers,
)
from .reachability import (
    ReachableState,
    newly_obtainable_pairs,
    obtainable_pairs,
    reachable_policies,
)
from .audit import AuditReport, audit_matrix
from .safety import SafetyVerdict, can_obtain, safety_matrix
from .compare import (
    FlexibilityReport,
    SafetyComparison,
    arbac_from_grants,
    count_arbac_operations,
    count_grant_commands,
    count_model_operations,
    count_scope_operations,
    flexibility_report,
    safety_comparison,
)
from .conjecture import ConjectureReport, check_conjecture_instance
from .constraints import (
    ConstrainedMonitor,
    DsdConstraint,
    SsdConstraint,
    weakening_preserves_ssd,
)
from .lint import (
    Finding,
    LintReport,
    LintRule,
    RULES,
    Severity,
    lint_policy,
)
from .repair import (
    PLANNERS,
    RepairAction,
    RepairOutcome,
    RepairPlan,
    RepairReport,
    apply_plan,
    plan_repair,
    repair_policy,
)
from .expressiveness import (
    CascadedDelegation,
    EncodingCost,
    encode_as_nested_grant,
    encode_as_pbdm_roles,
    encoding_cost,
    encodings_equi_obtainable,
    run_nested_cascade,
    run_pbdm_cascade,
)
from .revocation import (
    CandidateOrdering,
    FalsificationOutcome,
    candidate_substitutions,
    cross_connective_unsafe,
    dual_grant_ordering,
    falsify_candidate,
    revoke_always_weaker,
)

__all__ = [
    # arbac
    "ArbacSystem", "CanAssign", "CanRevoke", "Condition", "Literal", "RoleRange",
    # scope
    "administrative_scope", "is_within_scope", "juniors",
    "may_assign_under_scope", "scope_administrators", "seniors",
    "strict_administrative_scope",
    # domains
    "Domain", "DomainPartition",
    # hru
    "AccessMatrix", "HruCommand", "HruOp", "SafetyResult",
    "check_safety", "encode_rbac_grants", "enter_self_markers",
    # reachability & safety
    "ReachableState", "newly_obtainable_pairs", "obtainable_pairs",
    "reachable_policies", "SafetyVerdict", "can_obtain", "safety_matrix",
    # audit
    "AuditReport", "audit_matrix",
    # compare
    "FlexibilityReport", "SafetyComparison", "arbac_from_grants",
    "count_arbac_operations", "count_grant_commands",
    "count_model_operations", "count_scope_operations",
    "flexibility_report", "safety_comparison",
    # constraints extension
    "ConstrainedMonitor", "DsdConstraint", "SsdConstraint",
    "weakening_preserves_ssd",
    # lint
    "Finding", "LintReport", "LintRule", "RULES", "Severity", "lint_policy",
    # repair
    "PLANNERS", "RepairAction", "RepairOutcome", "RepairPlan",
    "RepairReport", "apply_plan", "plan_repair", "repair_policy",
    # expressiveness
    "CascadedDelegation", "EncodingCost", "encode_as_nested_grant",
    "encode_as_pbdm_roles", "encoding_cost", "encodings_equi_obtainable",
    "run_nested_cascade", "run_pbdm_cascade",
    # conjecture & revocation
    "ConjectureReport", "check_conjecture_instance",
    "CandidateOrdering", "FalsificationOutcome", "candidate_substitutions",
    "cross_connective_unsafe", "dual_grant_ordering", "falsify_candidate",
    "revoke_always_weaker",
]
