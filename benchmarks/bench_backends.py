"""BACKENDS — the three storage engines under the Fig-1 monitor workload.

The paper's Example 1 is a DBMS whose every access pays one
``check_access`` against the live policy; this benchmark replays that
workload (Diana's nurse/staff query mix over the Figure-2 hospital,
scaled to a few hundred EHR rows) over each pluggable storage backend
and reports per-statement cost side by side, so the mediation overhead
and the storage overhead are separately visible.  All three engines
must produce identical row counts — the timing comparison is only
meaningful over equal work (the differential suite pins full equality).

Run directly (``PYTHONPATH=src python benchmarks/bench_backends.py``),
as CI does; a divergent engine fails the run.
"""

import time

from conftest import print_table

from repro.core.commands import Mode, grant_cmd
from repro.dbms.backends import BACKENDS
from repro.dbms.engine import hospital_database
from repro.dbms.sql import execute_sql
from repro.errors import AccessDenied
from repro.papercases import figures

SCALE_ROWS = 300          # extra synthetic EHR rows in t1
WORKLOAD_ROUNDS = 200     # repetitions of the Example-1 statement mix


def build_database(backend: str):
    """The Figure-2 hospital over ``backend``, scaled, with Bob
    appointed to dbusr2 (the Example-4 refined grant) so the workload
    has a writing session too."""
    database = hospital_database(mode=Mode.REFINED, backend=backend)
    for index in range(SCALE_ROWS):
        database.store.insert("t1", {
            "patient": f"p-{index:04d}",
            "ward": "cardiology" if index % 2 else "oncology",
            "status": "stable" if index % 3 else "critical",
        })
    database.administer(grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2))
    nurse = database.login(figures.DIANA, figures.NURSE)
    writer = database.login(figures.BOB, figures.DBUSR2)
    return database, nurse, writer


def run_workload(database, nurse, writer) -> dict:
    """One pass of the Example-1 mix; returns observable totals."""
    totals = {"rows": 0, "affected": 0, "denied": 0}
    for round_index in range(WORKLOAD_ROUNDS):
        result = execute_sql(
            database, nurse,
            "SELECT patient FROM t1 WHERE status = 'critical'",
        )
        totals["rows"] += len(result.rows)
        result = execute_sql(
            database, nurse,
            "SELECT * FROM t2 WHERE dose != '75mg'",
        )
        totals["rows"] += len(result.rows)
        result = execute_sql(
            database, writer,
            "INSERT INTO t3 (patient, note, author) "
            f"VALUES ('p-{round_index:04d}', 'rounds', 'bob')",
        )
        totals["affected"] += result.affected
        result = execute_sql(
            database, writer,
            f"UPDATE t3 SET note = 'checked' WHERE patient = 'p-{round_index:04d}'",
        )
        totals["affected"] += result.affected
        try:  # nurses cannot write t3 (Figure 1): the denial is part of the mix
            execute_sql(database, nurse, "DELETE FROM t3")
        except AccessDenied:
            totals["denied"] += 1
    return totals


def test_report_backend_comparison():
    """The acceptance gate: every registered engine runs the workload
    without error and observes the same row/denial totals."""
    rows = []
    observed = {}
    for backend in sorted(BACKENDS):
        database, nurse, writer = build_database(backend)
        statements = WORKLOAD_ROUNDS * 5
        started = time.perf_counter()
        totals = run_workload(database, nurse, writer)
        elapsed = time.perf_counter() - started
        observed[backend] = totals
        pushed = getattr(database.store, "pushed_statements", "-")
        rows.append((
            backend,
            f"{elapsed / statements * 1e6:.1f}",
            totals["rows"],
            totals["affected"],
            totals["denied"],
            pushed,
        ))
        database.close()
    print_table(
        f"Fig-1 monitor workload over each backend "
        f"({SCALE_ROWS + 2}-row t1, {WORKLOAD_ROUNDS} rounds)",
        ["backend", "us/stmt", "rows", "affected", "denied", "pushed"],
        rows,
    )
    assert set(observed) == set(BACKENDS)
    baseline = observed["memory"]
    for backend, totals in observed.items():
        assert totals == baseline, (
            f"backend {backend!r} diverged from the in-memory oracle: "
            f"{totals} != {baseline}"
        )
    assert baseline["denied"] == WORKLOAD_ROUNDS


if __name__ == "__main__":
    test_report_backend_comparison()
