"""Hospital workloads: the paper's scenario, parameterized.

:mod:`repro.papercases.figures` holds the exact figures; this module
scales the same shape up — multiple wards, nurses, flexworkers, and an
HR department with delegation privileges — for the tests, the
storage-backend bench and the examples.  :func:`guarded_hospital_database` and
:func:`hospital_query_trace` make the same shape runnable as a guarded
DBMS workload against any storage backend (the differential suite's
primary trace).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import Mode
from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant, Revoke, perm
from ..dbms.engine import GuardedDatabase
from .dbms import Operation


@dataclass(frozen=True)
class HospitalShape:
    wards: int = 3
    nurses_per_ward: int = 4
    flexworkers: int = 2
    hr_members: int = 2
    tables_per_ward: int = 2


def hospital_policy(shape: HospitalShape = HospitalShape()) -> Policy:
    """A multi-ward hospital in the paper's style.

    Per ward ``w``: roles ``nurse_w`` < ``staff_w``, database roles
    ``dbusr_w`` guarding the ward's EHR tables; an HR role holding
    grant privileges over the staff roles (so the Example-4 flexworker
    pattern is available in every ward); a security-officer role above
    HR.
    """
    policy = Policy()
    so = Role("SO")
    hr = Role("HR")
    alice = User("alice")
    policy.assign_user(alice, so)
    policy.add_inheritance(so, hr)

    for member in range(shape.hr_members):
        policy.assign_user(User(f"hr{member}"), hr)

    flexworkers = [User(f"flex{index}") for index in range(shape.flexworkers)]
    for worker in flexworkers:
        policy.add_user(worker)

    for ward in range(shape.wards):
        staff = Role(f"staff_w{ward}")
        nurse = Role(f"nurse_w{ward}")
        dbusr = Role(f"dbusr_w{ward}")
        policy.add_inheritance(staff, nurse)
        policy.add_inheritance(staff, dbusr)
        policy.add_inheritance(nurse, dbusr)
        for table in range(shape.tables_per_ward):
            policy.assign_privilege(dbusr, perm("read", f"ehr_w{ward}_t{table}"))
        policy.assign_privilege(staff, perm("write", f"ehr_w{ward}_t0"))
        policy.assign_privilege(nurse, perm("print", f"ward{ward}_printer"))
        for index in range(shape.nurses_per_ward):
            policy.assign_user(User(f"nurse_w{ward}_{index}"), nurse)
        # HR can appoint flexworkers to the ward's staff role (and
        # hence, via the ordering, to any junior role).
        for worker in flexworkers:
            policy.assign_privilege(hr, Grant(worker, staff))
            policy.assign_privilege(hr, Revoke(worker, staff))
    return policy


def guarded_hospital_database(
    shape: HospitalShape = HospitalShape(),
    backend="memory",
    mode: Mode = Mode.STRICT,
    rows_per_table: int = 8,
    **backend_options,
) -> GuardedDatabase:
    """The multi-ward hospital as a guarded DBMS over any backend.

    One EHR table per ``(ward, table)`` slot — named ``ehr_w{w}_t{t}``
    to match the policy's ``(read, ...)`` objects — seeded with
    deterministic synthetic records (no RNG, so every backend starts
    from the same bytes).
    """
    database = GuardedDatabase.create(
        hospital_policy(shape), mode=mode,
        backend=backend, **backend_options,
    )
    for ward in range(shape.wards):
        for table in range(shape.tables_per_ward):
            name = f"ehr_w{ward}_t{table}"
            database.store.create_table(
                name, ["patient", "ward", "status", "visits"]
            )
            for index in range(rows_per_table):
                database.store.insert(name, {
                    "patient": f"p{ward}-{table}-{index:03d}",
                    "ward": f"w{ward}",
                    "status": "stable" if index % 3 else "critical",
                    "visits": index,
                })
    return database


def hospital_query_trace(
    shape: HospitalShape = HospitalShape(), operations: int = 120
) -> list[Operation]:
    """A deterministic mixed workload over the multi-ward hospital.

    HR first appoints flexworker 0 to every ward's staff role (the
    Example-4 pattern at scale); then the trace cycles through nurse
    reads (pushdown-friendly ``WHERE`` clauses), flexworker writes to
    the ward's ``t0``, denied nurse writes, denied HR reads, and a
    nurse print-less SELECT projection; it closes by revoking the
    flexworker from ward 0 and probing that the write is now denied.
    Replaying it yields identical results on every backend.
    """
    trace: list[Operation] = []
    for ward in range(shape.wards):
        trace.append(Operation.grant("hr0", "flex0", f"staff_w{ward}"))
    for step in range(operations):
        ward = step % shape.wards
        nurse = f"nurse_w{ward}_{step % shape.nurses_per_ward}"
        nurse_roles = (f"nurse_w{ward}",)
        flex_roles = (f"staff_w{ward}",)
        kind = step % 6
        if kind == 0:
            trace.append(Operation.query(
                nurse, nurse_roles,
                f"SELECT * FROM ehr_w{ward}_t0 WHERE status = 'stable'",
            ))
        elif kind == 1:
            last = shape.tables_per_ward - 1
            trace.append(Operation.query(
                nurse, nurse_roles,
                f"SELECT patient, visits FROM ehr_w{ward}_t{last} "
                f"WHERE visits >= {step % 8}",
            ))
        elif kind == 2:
            trace.append(Operation.query(
                "flex0", flex_roles,
                f"INSERT INTO ehr_w{ward}_t0 "
                f"(patient, ward, status, visits) "
                f"VALUES ('p{ward}-new-{step:03d}', 'w{ward}', 'admitted', 0)",
            ))
        elif kind == 3:
            trace.append(Operation.query(
                "flex0", flex_roles,
                f"UPDATE ehr_w{ward}_t0 SET status = 'reviewed' "
                f"WHERE visits > {step % 5} AND status != 'admitted'",
            ))
        elif kind == 4:
            # Nurses hold (read, ·) but not (write, ·): denied.
            trace.append(Operation.query(
                nurse, nurse_roles,
                f"DELETE FROM ehr_w{ward}_t0 WHERE status = 'stable'",
            ))
        else:
            # HR reaches no EHR privileges at all: denied.
            trace.append(Operation.query(
                "hr1", ("HR",),
                f"SELECT * FROM ehr_w{ward}_t0",
            ))
    trace.append(Operation.revoke("hr0", "flex0", "staff_w0"))
    trace.append(Operation.query(
        "flex0", ("staff_w0",),
        "INSERT INTO ehr_w0_t0 (patient, ward, status, visits) "
        "VALUES ('p-late', 'w0', 'admitted', 0)",
    ))
    return trace
