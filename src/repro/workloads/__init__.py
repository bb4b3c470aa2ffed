"""Workload generators: random, hospital-shaped, enterprise-shaped,
and churn policies/traces for the tests and benchmarks."""

from .churn import (
    ChurnShape,
    churn_policy,
    churn_trace,
    differential_churn,
    run_churn,
)
from .generators import (
    PolicyShape,
    layered_hierarchy,
    nested_grant,
    random_policy,
)
from .dbms import Operation, TraceResult, run_trace
from .hospital import (
    HospitalShape,
    guarded_hospital_database,
    hospital_policy,
    hospital_query_trace,
)
from .faults import (
    FAULTS,
    FAIL_POINTS,
    CrashInjected,
    Fault,
    FaultInjector,
    INJECTION_POINTS,
    InjectedFailure,
    differential_append_failure,
    differential_crash_recovery,
    wal_tamper_campaign,
)
from .fuzz import (
    FuzzReport,
    fuzz_crash_recovery,
    fuzz_index_churn,
    fuzz_many,
    fuzz_monitor,
)
from .enterprise import (
    EnterpriseShape,
    delegation_targets,
    enterprise_policy,
    enterprise_query_trace,
    guarded_enterprise_database,
)

__all__ = [
    "ChurnShape",
    "churn_policy",
    "churn_trace",
    "differential_churn",
    "run_churn",
    "PolicyShape",
    "layered_hierarchy",
    "nested_grant",
    "random_policy",
    "HospitalShape",
    "guarded_hospital_database",
    "hospital_policy",
    "hospital_query_trace",
    "Operation", "TraceResult", "run_trace",
    "FAULTS", "FAIL_POINTS", "CrashInjected", "Fault", "FaultInjector",
    "INJECTION_POINTS", "InjectedFailure",
    "differential_append_failure",
    "differential_crash_recovery", "wal_tamper_campaign",
    "FuzzReport", "fuzz_crash_recovery", "fuzz_index_churn",
    "fuzz_many", "fuzz_monitor",
    "EnterpriseShape",
    "delegation_targets",
    "enterprise_policy",
    "enterprise_query_trace",
    "guarded_enterprise_database",
]
