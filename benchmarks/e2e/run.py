"""The repository benchmark: four PDP and audit workloads, end to end.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT]
    python3 benchmarks/e2e/run.py --compare BASE.json HEAD.json

Each workload runs in its own process, one after another (see
``e2e_workloads.py`` for what each one does and why).  Every metric is
printed with its unit; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(``workload.metric`` keys when several workloads ran).  ``--trace``
runs each workload a second time with spans recorded around the
program's public calls and reports the per-layer metrics instead of
the end-to-end ones; the spans are written under ``.e2e_work/``.
The exit status is non-zero when a correctness check fails or a
workload process does not produce a result.  A terminated run
(SIGTERM) kills its workload process and waits for it first.

``--json OUT`` appends the run (metrics plus metadata: commit, CPU
count, Python version, the WAL directory's filesystem, seed, whether
the traffic generator kept up) to ``OUT``.  ``--compare`` reads two
such files, pairs their runs in order, and prints a verdict per
workload and metric: better, worse, unchanged or unresolved (see
``e2e_stats.verdict``).  Alternate which side runs first when
collecting the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKDIR = os.path.join(ROOT, ".e2e_work")
WORKER = os.path.join(HERE, "e2e_workloads.py")
DEFAULT_SECONDS = 9
#: a workload process that has not finished by then is killed.
WORKER_TIMEOUT_S = 170

sys.path.insert(0, HERE)

import e2e_stats  # noqa: E402


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (so nothing outside the checkout is consulted)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem(path: str) -> str:
    try:
        completed = subprocess.run(
            ["stat", "-f", "-c", "%T", path],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def run_worker(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in its own process; returns its result
    document, or None when the process failed."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--workdir", WORKDIR,
    ]
    if trace:
        command += ["--trace-out",
                    os.path.join(WORKDIR, f"trace-{workload}-{seed}.json")]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {WORKER_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"{workload}: worker exited with status "
              f"{completed.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"{workload}: unreadable result line", file=sys.stderr)
        return None


def report(result: dict) -> None:
    name = result["workload"]
    status = "ok" if result["correct"] else "INCORRECT"
    validity = "" if result["valid"] else (
        f" INVALID (generator issued "
        f"{result['achieved_rate_ratio']:.3f} of the schedule)"
    )
    print(f"{name}: {status}, {result['checks']} checks, "
          f"{result['attempted']} requests, {result['failed']} failed, "
          f"{result['elapsed_s']:.1f}s{validity}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    for metric, entry in result["metrics"].items():
        print(f"  {name:14} {metric:38} {entry['value']:>14.6g} {entry['unit']}")


def append_run(path: str, record: dict) -> None:
    document = {"runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["runs"].append(record)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def load_bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json's end-to-end list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return {
        entry["name"]: (entry["better"], entry["bound"])
        for entry in benchmark["end_to_end"]
    }


def compare(base_path: str, head_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)["runs"]
    with open(head_path) as handle:
        head = json.load(handle)["runs"]
    pairs = min(len(base), len(head))
    base, head = base[:pairs], head[:pairs]
    head_first = sum(
        1 for b, h in zip(base, head) if h["started"] < b["started"]
    )
    print(f"{pairs} pairs; head ran first in {head_first}")
    bounds = load_bounds()
    print(f"{'workload':14} {'metric':16} {'base q1/median/q3':>30} "
          f"{'head q1/median/q3':>30} {'wins':>6} {'change':>8}  verdict")
    workloads = [w for w in base[0]["workloads"] if w in head[0]["workloads"]]
    for workload in workloads:
        for metric, (better, bound) in bounds.items():
            sides = [
                [run["workloads"][workload]["metrics"][metric]["value"]
                 for run in runs]
                for runs in (base, head)
            ]
            outcome = e2e_stats.verdict(sides[0], sides[1], better, bound)
            cells = [
                "/".join(f"{value:.4g}" for value in e2e_stats.quartiles(side))
                for side in sides
            ]
            print(f"{workload:14} {metric:16} {cells[0]:>30} {cells[1]:>30} "
                  f"{outcome['win_share']:>6.0%} {outcome['change']:>+8.1%}  "
                  f"{outcome['verdict']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the end-to-end benchmark workloads."
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", action="append",
        help="workload name (repeatable, or comma-separated); default all",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps its worker when the wait raises.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from e2e_workloads import WORKLOADS

    names = []
    for item in args.workloads or [",".join(WORKLOADS)]:
        names += [name for name in item.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(WORKDIR, exist_ok=True)
    started = time.time()
    results = {}
    for name in names:
        result = run_worker(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        report(result)
        results[name] = result
    correct = all(result["correct"] for result in results.values())
    if args.json:
        append_run(args.json, {
            "started": started,
            "meta": {
                "commit": git_commit(ROOT),
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "wal_filesystem": filesystem(WORKDIR),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "valid": all(r["valid"] for r in results.values()),
            },
            "workloads": results,
        })
    if len(results) == 1:
        [result] = results.values()
        metrics = result["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
