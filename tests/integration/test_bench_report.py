"""The perf-trajectory reporter (``tools/bench_report.py``).

The trajectory file is append-only history shared across sessions, so
the loader's no-clobber contract gets pinned here: new metric families
and unknown top-level keys pass through verbatim, legacy shapes are
wrapped in place, and a corrupted file is moved aside — never
overwritten.  The ``--list`` mode is exercised against a synthetic
trajectory (running real benches belongs to the bench-smoke CI job,
not tier-1).
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from bench_report import (  # noqa: E402
    BENCHES,
    _highlights,
    append_record,
    list_trajectory,
    load_document,
    main,
)


def run_entry(bench="pdp", ok=True, metrics=None):
    entry = {"bench": bench, "ok": ok, "seconds": 1.5, "config": "reduced"}
    if metrics is not None:
        entry["metrics"] = metrics
    return entry


def record(timestamp="2026-08-08T00:00:00+00:00", benches=()):
    return {"timestamp": timestamp, "benches": list(benches)}


class TestLoadDocument:
    def test_missing_file_starts_fresh(self, tmp_path):
        document = load_document(tmp_path / "BENCH_kernel.json")
        assert document == {"schema": 1, "runs": []}

    def test_unknown_top_level_keys_survive(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text(json.dumps({
            "schema": 2,
            "runs": [record()],
            "baselines": {"pdp_p50_us": 2200.0},
        }))
        document = load_document(path)
        assert document["schema"] == 2
        assert document["baselines"] == {"pdp_p50_us": 2200.0}
        assert len(document["runs"]) == 1

    def test_legacy_bare_list_is_wrapped(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text(json.dumps([record(), record()]))
        document = load_document(path)
        assert document["schema"] == 1
        assert len(document["runs"]) == 2

    def test_corrupt_file_is_moved_aside_not_overwritten(
        self, tmp_path, capsys
    ):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text('{"runs": [truncated')
        with_corrupt = tmp_path / "BENCH_kernel.json.corrupt"
        document = load_document(path)
        assert document == {"schema": 1, "runs": []}
        assert not path.exists()
        assert with_corrupt.read_text() == '{"runs": [truncated'
        assert "preserved as" in capsys.readouterr().err

    def test_scalar_document_is_moved_aside(self, tmp_path, capsys):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text('"not a trajectory"')
        assert load_document(path) == {"schema": 1, "runs": []}
        assert (tmp_path / "BENCH_kernel.json.corrupt").exists()
        capsys.readouterr()


class TestAppendRecord:
    def test_appends_without_losing_older_entries(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        first = record("2026-08-01T00:00:00+00:00")
        append_record(path, first)
        append_record(path, record("2026-08-08T00:00:00+00:00"))
        document = json.loads(path.read_text())
        assert [run["timestamp"] for run in document["runs"]] == [
            "2026-08-01T00:00:00+00:00", "2026-08-08T00:00:00+00:00",
        ]

    def test_new_metric_keys_do_not_clobber_history(self, tmp_path):
        """A bench growing a new metric family (here the PDP's latency
        keys) appends alongside records that have never heard of it."""
        path = tmp_path / "BENCH_kernel.json"
        append_record(path, record(benches=[
            run_entry("batch_authz", metrics={"batch_speedup": 12.1}),
        ]))
        append_record(path, record(benches=[
            run_entry("pdp", metrics={
                "p50_speedup": 5.9, "pdp_p50_us": 2209.2,
                "pdp_p99_us": 82364.0, "brand_new_key": True,
            }),
        ]))
        document = json.loads(path.read_text())
        assert len(document["runs"]) == 2
        assert document["runs"][0]["benches"][0]["metrics"] == {
            "batch_speedup": 12.1
        }
        assert (
            document["runs"][1]["benches"][0]["metrics"]["brand_new_key"]
            is True
        )

    def test_corrupt_history_survives_an_append(self, tmp_path, capsys):
        path = tmp_path / "BENCH_kernel.json"
        path.write_text("not json at all")
        append_record(path, record())
        assert (tmp_path / "BENCH_kernel.json.corrupt").read_text() == (
            "not json at all"
        )
        assert len(json.loads(path.read_text())["runs"]) == 1
        capsys.readouterr()


class TestHighlights:
    def test_speedups_and_latencies_surface(self):
        text = _highlights({
            "p50_speedup": 5.9, "pdp_p50_us": 2209.2,
            "baseline_p99_us": 26407.5, "principals": 128,
        })
        assert "p50 5.9x" in text
        assert "pdp_p50 2209.2us" in text
        assert "baseline_p99 26407.5us" in text
        assert "principals" not in text  # unknown families are ignored

    def test_per_decision_costs_surface(self):
        text = _highlights({
            "batch_us_per_decision": 0.412, "batch_per_s": 2427184,
        })
        assert "batch 0.412us/decision" in text
        assert "batch_per_s" not in text

    def test_no_highlights_is_empty(self):
        assert _highlights({"users": 2000}) == ""


class TestListMode:
    def fixture_path(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        append_record(path, record("2026-08-01T00:00:00+00:00", benches=[
            run_entry("batch_authz", metrics={"batch_speedup": 12.1}),
            run_entry("pdp", ok=False),
        ]))
        append_record(path, record("2026-08-08T00:00:00+00:00", benches=[
            run_entry("pdp", metrics={
                "p50_speedup": 5.9, "pdp_p50_us": 2209.2,
            }),
        ]))
        return path

    def test_groups_runs_per_bench(self, tmp_path, capsys):
        assert list_trajectory(self.fixture_path(tmp_path)) == 0
        out = capsys.readouterr().out
        benches = [
            line for line in out.splitlines() if not line.startswith(" ")
        ]
        assert benches == ["batch_authz", "pdp"]
        pdp_lines = out.split("pdp\n", 1)[1].splitlines()
        assert "FAILED" in pdp_lines[0]
        assert "p50 5.9x" in pdp_lines[1]
        assert "pdp_p50 2209.2us" in pdp_lines[1]

    def test_cli_list_flag_runs_nothing(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        assert main(["--list", "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert "batch_authz" in out
        assert "trajectory:" not in out  # the run path never executed

    def test_empty_trajectory(self, tmp_path, capsys):
        assert list_trajectory(tmp_path / "BENCH_kernel.json") == 0
        assert "no recorded runs" in capsys.readouterr().out


def ci_run_steps() -> str:
    """The text of every ``run:`` step in the CI workflow, block
    scalars included (the lines indented deeper than their key)."""
    steps = []
    block_indent = None
    for line in (REPO_ROOT / ".github/workflows/ci.yml").read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if block_indent is not None and (not line.strip() or indent > block_indent):
            steps.append(line)
            continue
        block_indent = None
        key = line.strip().removeprefix("- ")
        if key.startswith("run:"):
            steps.append(key.removeprefix("run:"))
            block_indent = indent
    return "\n".join(steps)


class TestRegistry:
    def test_every_registered_script_exists(self):
        for name, (script, _, _) in BENCHES.items():
            assert (REPO_ROOT / script).is_file(), (name, script)

    def test_every_script_is_registered_or_run_by_ci(self):
        """The converse: a bench script nothing runs gates nothing."""
        registered = {script for script, _, _ in BENCHES.values()}
        steps = ci_run_steps()
        orphans = sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
            if path.relative_to(REPO_ROOT).as_posix() not in registered
            and path.name not in steps
        )
        assert not orphans, (
            "no tools/bench_report.py entry or CI step runs "
            + ", ".join(orphans)
        )

    def test_pdp_bench_is_registered_reduced(self):
        script, reduced, metrics_var = BENCHES["pdp"]
        assert script == "benchmarks/bench_pdp.py"
        assert metrics_var == "PDP_METRICS_OUT"
        assert int(reduced["PDP_BENCH_PRINCIPALS"]) >= 64
        assert float(reduced["PDP_SPEEDUP_TARGET"]) >= 3
