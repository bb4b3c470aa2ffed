#!/usr/bin/env python3
"""Run the reduced-config perf benches and append a trajectory record
to ``BENCH_kernel.json``.

Each invocation runs the perf-asserting benchmarks (the same reduced
configurations the CI ``bench-smoke`` job uses), collects wall time
and pass/fail per bench plus the bitset-kernel speedup metrics, and
appends one timestamped record to the trajectory file.  The file is a
running history — committing a record per landed optimization gives
future sessions a perf trajectory to compare against instead of a
single point.

Usage::

    python tools/bench_report.py [--output BENCH_kernel.json]
        [--benches bitset_kernel index_churn batch_authz] [--full]
        [--print] [--list]

``--full`` drops the reduced-config environment (runs the benches at
their local defaults — slower, higher assertion bars).  ``--list``
runs nothing: it prints the recorded trajectory grouped per bench —
timestamp, status, wall time and the speedup/latency highlights of
every run on file.  Exit code is non-zero if any bench failed.

The trajectory file is history, never clobbered: unknown top-level
keys and metric families written by newer benches are preserved
verbatim, a legacy bare run list is wrapped in place, and an
unparseable file is moved aside to a ``.corrupt`` sibling instead of
being overwritten.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: bench name -> (script, reduced-config environment overrides,
#:                metrics-output env var or None)
BENCHES: dict[str, tuple[str, dict[str, str], str | None]] = {
    "bitset_kernel": (
        "benchmarks/bench_bitset_kernel.py",
        {"BITSET_BENCH_USERS": "1500", "BITSET_SPEEDUP_TARGET": "2"},
        "BITSET_METRICS_OUT",
    ),
    "index_churn": (
        "benchmarks/bench_index_churn.py",
        {"CHURN_SPEEDUP_TARGET": "2"},
        None,
    ),
    "analysis_kernel": (
        "benchmarks/bench_analysis_kernel.py",
        # The reduced enterprise keeps the frozenset-oracle side to a
        # couple of seconds; the >=5x floor must hold even there.
        {
            "ANALYSIS_BENCH_DEPARTMENTS": "2",
            "ANALYSIS_BENCH_LEVELS": "2",
            "ANALYSIS_BENCH_EMPLOYEES": "4",
            "ANALYSIS_SPEEDUP_TARGET": "5",
        },
        "ANALYSIS_METRICS_OUT",
    ),
    "batch_authz": (
        "benchmarks/bench_batch_authz.py",
        # Reduced scale shrinks the per-query scalar cost (smaller
        # rectangle rows), so the batch amortization bar drops with it.
        {
            "BATCH_BENCH_USERS": "1500",
            "BATCH_BENCH_QUERIES": "4000",
            "BATCH_SPEEDUP_TARGET": "4",
        },
        "BATCH_METRICS_OUT",
    ),
    "lint": (
        "benchmarks/bench_lint.py",
        # The reduced enterprise is small enough that fixed overheads
        # eat into the sweep's advantage; the bar drops accordingly
        # (the full-scale run holds >=5x with a wide margin).
        {
            "LINT_BENCH_DEPARTMENTS": "2",
            "LINT_BENCH_LEVELS": "3",
            "LINT_BENCH_EMPLOYEES": "40",
            "LINT_SPEEDUP_TARGET": "2",
        },
        "LINT_METRICS_OUT",
    ),
    "repair": (
        "benchmarks/bench_repair.py",
        # Repair is lint in a loop, so the reduced-scale overhead story
        # matches the lint bench; the bar drops to 1.5x there (the
        # full-scale run holds >=2x with a wide margin — measured ~4.5x
        # on a 2-vCPU Xeon).
        {
            "REPAIR_BENCH_DEPARTMENTS": "3",
            "REPAIR_BENCH_LEVELS": "3",
            "REPAIR_BENCH_EMPLOYEES": "120",
            "REPAIR_SPEEDUP_TARGET": "1.5",
        },
        "REPAIR_METRICS_OUT",
    ),
    "pdp": (
        "benchmarks/bench_pdp.py",
        # Reduced concurrency and population; the serving claim's 3x
        # p50 floor holds there too (measured ~5x at both scales), judged
        # on each side's median of five alternating runs (min and max
        # are recorded).  The p99 speedup is recorded but not asserted:
        # too few samples at this scale (it swung 1.1x / 0.4x across two
        # runs), while the full-scale run asserts its >=1x floor.
        {
            "PDP_BENCH_PRINCIPALS": "64",
            "PDP_BENCH_ROUNDS": "3",
            "PDP_BENCH_USERS": "800",
            "PDP_SPEEDUP_TARGET": "3",
            "PDP_P99_TARGET": "0",
        },
        "PDP_METRICS_OUT",
    ),
    "recovery": (
        "benchmarks/bench_recovery.py",
        # Reduced batches/population.  The durability tax is gated as
        # the per-batch WAL append cost beyond an fsync floor timed in
        # the same run and directory (ceiling 0.6 ms at both scales; a
        # reduced run's batch record is smaller, not larger).  The old
        # gate, a 25% ceiling on WAL-vs-no-WAL write time, is still
        # reported as wal_overhead_pct: its no-WAL denominator shrank
        # with every publication speedup while the fsync did not.
        {
            "RECOVERY_BENCH_USERS": "400",
            "RECOVERY_BENCH_BATCHES": "12",
            "RECOVERY_BENCH_BATCH_SIZE": "16",
        },
        "RECOVERY_METRICS_OUT",
    ),
}


def run_bench(
    name: str, full: bool = False, echo: bool = False
) -> dict:
    """Run one bench as a subprocess; returns its trajectory entry."""
    script, reduced_env, metrics_var = BENCHES[name]
    env = dict(__import__("os").environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if not full:
        env.update(reduced_env)
    metrics_path = None
    if metrics_var:
        handle = tempfile.NamedTemporaryFile(
            mode="r", suffix=".json", delete=False
        )
        metrics_path = handle.name
        handle.close()
        env[metrics_var] = metrics_path
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    if echo:
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
    entry: dict = {
        "bench": name,
        "ok": completed.returncode == 0,
        "seconds": round(elapsed, 2),
        "config": "full" if full else "reduced",
    }
    if metrics_path:
        try:
            with open(metrics_path) as handle:
                entry["metrics"] = json.load(handle)
        except (OSError, ValueError):
            pass
        Path(metrics_path).unlink(missing_ok=True)
    if completed.returncode != 0:
        entry["tail"] = completed.stdout[-400:] + completed.stderr[-400:]
    return entry


def load_document(path: Path) -> dict:
    """The trajectory document at ``path``, read without ever
    clobbering history: a document carrying unknown top-level keys or
    metric families from a newer bench is returned verbatim, a legacy
    bare run list is wrapped, and an unparseable or wrong-shaped file
    is moved aside to a ``.corrupt`` sibling (the bytes survive on
    disk) before a fresh document is started."""
    if not path.exists():
        return {"schema": 1, "runs": []}
    try:
        loaded = json.loads(path.read_text())
    except ValueError:
        loaded = None
    if isinstance(loaded, list):
        return {"schema": 1, "runs": loaded}
    if isinstance(loaded, dict):
        if not isinstance(loaded.get("runs"), list):
            loaded["runs"] = []
        loaded.setdefault("schema", 1)
        return loaded
    backup = path.with_suffix(path.suffix + ".corrupt")
    path.replace(backup)
    print(
        f"warning: {path} was not a trajectory document; "
        f"preserved as {backup}",
        file=sys.stderr,
    )
    return {"schema": 1, "runs": []}


def append_record(path: Path, record: dict) -> dict:
    """Append ``record`` to the trajectory file at ``path`` (created
    with an empty run list if missing); returns the full document."""
    document = load_document(path)
    document["runs"].append(record)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


def _highlights(metrics: dict) -> str:
    """The metric keys worth a one-line summary: every ``*_speedup``
    ratio plus any ``*_p50_us`` / ``*_p99_us`` latency and
    ``*_us_per_decision`` cost a bench emits.
    Unknown keys are simply ignored, so a bench growing new metric
    families never breaks the report."""
    parts = [
        f"{key.removesuffix('_speedup')} {value}x"
        for key, value in metrics.items()
        if key.endswith("_speedup")
    ]
    parts += [
        f"{key.removesuffix('_us')} {value}us"
        for key, value in metrics.items()
        if key.endswith("_p50_us") or key.endswith("_p99_us")
    ]
    parts += [
        f"{key.removesuffix('_us_per_decision')} {value}us/decision"
        for key, value in metrics.items()
        if key.endswith("_us_per_decision")
    ]
    return "  " + ", ".join(parts) if parts else ""


def list_trajectory(path: Path) -> int:
    """Print the recorded trajectory grouped per bench."""
    runs = load_document(path).get("runs", [])
    if not runs:
        print(f"no recorded runs in {path}")
        return 0
    per_bench: dict[str, list[tuple[str, dict]]] = {}
    for run in runs:
        timestamp = run.get("timestamp", "?")
        for entry in run.get("benches", []):
            per_bench.setdefault(str(entry.get("bench", "?")), []).append(
                (timestamp, entry)
            )
    for bench in sorted(per_bench):
        print(bench)
        for timestamp, entry in per_bench[bench]:
            status = "ok" if entry.get("ok") else "FAILED"
            config = str(entry.get("config", "?"))
            seconds = entry.get("seconds", "?")
            extra = _highlights(entry.get("metrics") or {})
            print(
                f"  {timestamp}  {status:6} {config:7} {seconds}s{extra}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run reduced-config perf benches, append a "
                    "BENCH_kernel.json trajectory record"
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_kernel.json"),
        help="trajectory file to append to (default: repo root)",
    )
    parser.add_argument(
        "--benches", nargs="*", choices=sorted(BENCHES),
        default=sorted(BENCHES),
        help="subset of benches to run",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run at local full configuration instead of the reduced "
             "CI-smoke one",
    )
    parser.add_argument(
        "--print", action="store_true", dest="echo",
        help="echo each bench's stdout/stderr",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="print the recorded trajectory per bench and exit "
             "(runs nothing)",
    )
    args = parser.parse_args(argv)

    if args.list_runs:
        return list_trajectory(Path(args.output))

    entries = [
        run_bench(name, full=args.full, echo=args.echo)
        for name in args.benches
    ]
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "benches": entries,
    }
    append_record(Path(args.output), record)
    for entry in entries:
        status = "ok" if entry["ok"] else "FAILED"
        extra = _highlights(entry.get("metrics") or {})
        print(f"{entry['bench']:14} {status:6} {entry['seconds']}s{extra}")
    print(f"trajectory: {args.output}")
    return 0 if all(entry["ok"] for entry in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
