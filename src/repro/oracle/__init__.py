"""Reference oracles: the frozenset twin of every production kernel
— the authorization index (:mod:`.index`), the exploration engine's
explorers (:mod:`.explore`), and the lint rules and repair driver
(:mod:`.lint`).  In ``src/repro`` only the differential harnesses
(:mod:`repro.workloads.fuzz`, :mod:`repro.workloads.churn`) import
this package; the tests and the benchmark baselines call it by name.
"""

from .explore import (
    reference_can_obtain,
    reference_check_admin_refinement,
    reference_check_safety,
    reference_reachable_policies,
)
from .index import ReferenceIndex
from .lint import (
    REFERENCE_RULES,
    ReferenceLintContext,
    ReferenceLintSession,
    reference_lint_policy,
    reference_plan_repair,
    reference_repair_policy,
)

__all__ = [
    "REFERENCE_RULES",
    "ReferenceIndex",
    "ReferenceLintContext",
    "ReferenceLintSession",
    "reference_can_obtain",
    "reference_check_admin_refinement",
    "reference_check_safety",
    "reference_lint_policy",
    "reference_plan_repair",
    "reference_reachable_policies",
    "reference_repair_policy",
]
