"""Core of the reproduction: the paper's formal system.

Exports the model (entities, privileges, policies), the transition
system (commands, monitor), and the paper's contribution (the privilege
ordering, refinement, and the bounded administrative-refinement
checker).
"""

from .entities import Action, Obj, Role, Subject, User, role, roles, user, users
from .privileges import (
    AdminPrivilege,
    Grant,
    Privilege,
    Revoke,
    UserPrivilege,
    grant,
    is_privilege,
    perm,
    privilege_depth,
    revoke,
)
from .grammar import (
    Vocabulary,
    format_policy_source,
    format_privilege,
    parse_policy_source,
    parse_privilege,
)
from .policy import Policy, check_edge_sorts, minus_edge, union_with_edge
from .ordering import (
    OrderingOracle,
    explain_weaker,
    implicitly_authorized,
    is_weaker,
)
from .weaker import (
    enumerate_weaker,
    frontier_sizes,
    remark2_bound,
    weaker_set,
)
from .refinement import (
    RefinementWitness,
    enumerate_weakenings,
    granted_pairs,
    is_refinement,
    refinement_counterexample,
    refines_strictly,
    weaken_assignment,
    with_replaced_edge,
    without_edge,
)
from .admin_refinement import (
    AdminRefinementResult,
    check_admin_refinement,
    theorem1_step_obligation,
)
from .commands import (
    Command,
    CommandAction,
    ExecutionRecord,
    Mode,
    candidate_commands,
    candidate_edges,
    effective_commands,
    grant_cmd,
    revoke_cmd,
    run_queue,
    step,
)
from .authz_index import AuthorizationIndex, GrantRectangle
from .explore import ExplorationEngine
from .diff import PolicyDiff, apply_diff, diff_policies
from .monitor import AccessDecision, ReferenceMonitor
from .sessions import Session
from .trace import Derivation, OrderingStatistics, ReachPremise

__all__ = [
    # entities
    "Action", "Obj", "Role", "Subject", "User",
    "role", "roles", "user", "users",
    # privileges
    "AdminPrivilege", "Grant", "Privilege", "Revoke", "UserPrivilege",
    "grant", "is_privilege", "perm", "privilege_depth", "revoke",
    # grammar
    "Vocabulary", "format_policy_source", "format_privilege",
    "parse_policy_source", "parse_privilege",
    # policy
    "Policy", "check_edge_sorts", "minus_edge", "union_with_edge",
    # ordering
    "OrderingOracle", "explain_weaker", "implicitly_authorized", "is_weaker",
    # weaker enumeration
    "enumerate_weaker", "frontier_sizes", "remark2_bound", "weaker_set",
    # refinement
    "RefinementWitness", "enumerate_weakenings", "granted_pairs",
    "is_refinement", "refinement_counterexample", "refines_strictly",
    "weaken_assignment", "with_replaced_edge", "without_edge",
    # admin refinement
    "AdminRefinementResult", "check_admin_refinement",
    "theorem1_step_obligation",
    # commands
    "Command", "CommandAction", "ExecutionRecord", "Mode",
    "candidate_commands", "candidate_edges", "effective_commands",
    "grant_cmd", "revoke_cmd", "run_queue", "step",
    # authorization index & diff
    "AuthorizationIndex", "GrantRectangle",
    "ExplorationEngine",
    "PolicyDiff", "apply_diff", "diff_policies",
    # monitor & sessions
    "AccessDecision", "ReferenceMonitor", "Session",
    # traces
    "Derivation", "OrderingStatistics", "ReachPremise",
]
