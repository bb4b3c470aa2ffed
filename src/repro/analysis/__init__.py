"""Analyses and related-work baselines.

Implements the models the paper compares against (§5 and footnote 5)
— ARBAC97, administrative scope, HRU and the PBDM encoding — plus
safety/reachability analysis, the cross-model comparison harness and
the Remark-2 conjecture tester.
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

__all__ = [
    # arbac
    "ArbacSystem", "CanAssign", "CanRevoke", "Condition", "Literal", "RoleRange",
    # scope
    "administrative_scope", "is_within_scope", "juniors",
    "may_assign_under_scope", "scope_administrators", "seniors",
    "strict_administrative_scope",
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
    # conjecture
    "ConjectureReport", "check_conjecture_instance",
]
