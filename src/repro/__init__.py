"""repro — a reproduction of "Refinement for Administrative Policies"
(Dekker & Etalle, 2007).

The library implements:

* the General Hierarchical RBAC model with administrative privileges
  (the paper's Definitions 1–5) and an ANSI-style reference monitor;
* the privilege ordering Ã and its tractable decision procedure
  (Definition 8, Lemma 1) with derivation traces;
* non-administrative and administrative refinement (Definitions 6–7),
  the Theorem-1 weakening transformation, and a bounded Definition-7
  model checker;
* baselines from the paper's related-work section (ARBAC97,
  administrative scope, HRU, the PBDM encoding) and analysis tooling
  (safety/reachability, the Remark-2 conjecture);
* a small RBAC-guarded in-memory DBMS matching the paper's hospital
  scenario, workload generators, and the paper's figures/examples as
  executable artifacts.

Quickstart::

    from repro import Mode, ReferenceMonitor, grant_cmd
    from repro.papercases import figures

    policy = figures.figure2()
    monitor = ReferenceMonitor(policy, mode=Mode.REFINED)
    record = monitor.submit(grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2))
    assert record.executed and record.implicit   # Example 4's punchline
"""

from .core import (
    AccessDecision,
    Action,
    AdminPrivilege,
    AdminRefinementResult,
    Command,
    CommandAction,
    Derivation,
    ExecutionRecord,
    Grant,
    Mode,
    Obj,
    OrderingOracle,
    Policy,
    Privilege,
    ReferenceMonitor,
    RefinementWitness,
    Revoke,
    Role,
    Session,
    Subject,
    User,
    UserPrivilege,
    Vocabulary,
    candidate_commands,
    check_admin_refinement,
    effective_commands,
    enumerate_weaker,
    enumerate_weakenings,
    explain_weaker,
    format_policy_source,
    format_privilege,
    grant,
    grant_cmd,
    granted_pairs,
    implicitly_authorized,
    is_privilege,
    is_refinement,
    is_weaker,
    parse_policy_source,
    parse_privilege,
    perm,
    privilege_depth,
    refinement_counterexample,
    refines_strictly,
    remark2_bound,
    revoke,
    revoke_cmd,
    role,
    roles,
    run_queue,
    step,
    theorem1_step_obligation,
    user,
    users,
    weaken_assignment,
    weaker_set,
    without_edge,
    with_replaced_edge,
)
from .errors import (
    AccessDenied,
    AnalysisError,
    CommandError,
    EntityError,
    GrammarError,
    PolicyError,
    PrivilegeError,
    ReproError,
    SerializationError,
    SessionError,
    TableError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Action", "Obj", "Role", "Subject", "User",
    "role", "roles", "user", "users",
    "AdminPrivilege", "Grant", "Privilege", "Revoke", "UserPrivilege",
    "grant", "is_privilege", "perm", "privilege_depth", "revoke",
    "Policy", "Vocabulary",
    "format_policy_source", "format_privilege",
    "parse_policy_source", "parse_privilege",
    # ordering & refinement
    "OrderingOracle", "Derivation",
    "explain_weaker", "implicitly_authorized", "is_weaker",
    "enumerate_weaker", "remark2_bound", "weaker_set",
    "RefinementWitness", "enumerate_weakenings", "granted_pairs",
    "is_refinement", "refinement_counterexample", "refines_strictly",
    "weaken_assignment", "without_edge", "with_replaced_edge",
    "AdminRefinementResult", "check_admin_refinement",
    "theorem1_step_obligation",
    # transition system & monitor
    "Command", "CommandAction", "ExecutionRecord", "Mode",
    "candidate_commands", "effective_commands",
    "grant_cmd", "revoke_cmd", "run_queue", "step",
    "AccessDecision", "ReferenceMonitor", "Session",
    # errors
    "AccessDenied", "AnalysisError", "CommandError", "EntityError",
    "GrammarError", "PolicyError", "PrivilegeError", "ReproError",
    "SerializationError", "SessionError", "TableError",
]
