"""Tests of the end-to-end benchmark harness itself.

Tiny organizations stand in for the benchmark's shapes, so the whole
module runs in a few seconds: the schedules, the order statistics,
the metric names against ``BENCHMARK.json``, the correctness checks'
ability to reject a doctored answer, and the span arithmetic.
"""

import asyncio
import dataclasses
import json
import os
import random
import re
import signal
import time

import pytest

import e2e_clock
import e2e_stats
import e2e_trace
import e2e_workloads
from repro.core.commands import grant_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.serve.cache import DecisionCache
from repro.workloads.churn import ChurnShape
from repro.workloads.enterprise import EnterpriseShape

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(e2e_workloads, "SERVE_SHAPE", ChurnShape(
        n_users=60, n_roles=12, n_admins=2, layers=3, roles_per_user=2,
        privileges_per_role=2, delegations_per_top_role=6,
    ))
    monkeypatch.setattr(e2e_workloads, "AUDIT_SHAPE", EnterpriseShape(
        departments=2, levels_per_department=3, roles_per_level=2,
        employees_per_department=6, delegation_depth=2,
    ))
    monkeypatch.setattr(e2e_workloads, "AUDIT_CALLS", 2)
    monkeypatch.setattr(e2e_workloads, "SETUPS", 2)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _schedule(seed):
    inputs = e2e_workloads.serve_inputs(seed)
    reads_and_writes = dataclasses.replace(
        e2e_workloads.SERVE_SPECS["mixed_rw"], write_rate=2
    )
    run = e2e_workloads.ServeRun(
        reads_and_writes, inputs, 4.0, "", None, e2e_clock.ReferenceClock()
    )
    return inputs.document, run._events(3.0)


def test_seeded_schedule_is_deterministic(tiny):
    document, events = _schedule(5)
    assert _schedule(5) == (document, events)
    other_document, other_events = _schedule(6)
    assert other_events != events
    assert other_document != document
    assert {kind for _, kind, _ in events} == {"read", "write"}


def test_arrivals_are_periodic_at_a_seeded_phase():
    offsets = e2e_workloads.arrivals(random.Random(1), 2.0, 3.2)
    assert len(offsets) == 6
    assert all(0 <= offset < 3.0 for offset in offsets)
    assert all(
        b - a == pytest.approx(0.5) for a, b in zip(offsets, offsets[1:])
    )
    assert e2e_workloads.arrivals(random.Random(2), 2.0, 3.2)[0] != offsets[0]


def test_exact_percentile():
    samples = [5, 1, 4, 2, 3]
    assert e2e_stats.percentile(samples, 0.5) == 3
    assert e2e_stats.percentile(samples, 0.2) == 1
    assert e2e_stats.percentile(samples, 0.21) == 2
    assert e2e_stats.percentile(samples, 1.0) == 5
    assert e2e_stats.percentile(list(range(1, 101)), 0.99) == 99
    assert e2e_stats.percentile([7.5], 0.99) == 7.5
    with pytest.raises(ValueError):
        e2e_stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        e2e_stats.percentile([1], 0)


def test_reference_clock_scales_wall_time_and_stops_while_probing():
    clock = e2e_clock.ReferenceClock()
    for _ in range(3):
        clock.calibrate()
    assert clock.slowdown == pytest.approx(
        sorted(clock.probes)[1] / e2e_clock.NOMINAL_S
    )
    before = clock()
    clock.calibrate()
    assert clock() - before < 0.2 * clock.probes[-1] / clock.slowdown
    wall = time.perf_counter()
    start = clock()
    time.sleep(0.02)
    ratio = (clock() - start) * clock.slowdown / (time.perf_counter() - wall)
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_reference_clock_probes_while_ticking_only():
    clock = e2e_clock.ReferenceClock()
    handler = signal.getsignal(signal.SIGPROF)
    with clock.ticking():
        ticking = signal.getsignal(signal.SIGPROF)
        stop = time.process_time() + 4 * e2e_clock.PERIOD_S
        while time.process_time() < stop:
            e2e_clock.probe()
    probes = len(clock.probes)
    assert ticking != handler and signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # A full window up front, then about one probe per period.
    assert probes >= e2e_clock.WINDOW + 2
    stop = time.process_time() + 2 * e2e_clock.PERIOD_S
    while time.process_time() < stop:
        e2e_clock.probe()
    assert len(clock.probes) == probes


def test_spread_and_verdict():
    assert e2e_stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert e2e_stats.relative_spread([10, 10, 10]) == 0.0
    base = [100 + i % 3 for i in range(10)]
    faster = [80 + i % 3 for i in range(10)]
    slower = [130 + i % 3 for i in range(10)]
    assert e2e_stats.verdict(base, faster, "lower", 0.1)["verdict"] == "better"
    assert e2e_stats.verdict(base, slower, "lower", 0.1)["verdict"] == "worse"
    assert e2e_stats.verdict(base, base, "lower", 0.1)["verdict"] == "unchanged"
    assert e2e_stats.verdict(base, faster, "higher", 0.1)["verdict"] == "worse"
    noisy = [50, 150, 70, 130, 100, 60, 140, 90, 110, 100]
    assert e2e_stats.verdict(base, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_benchmark_json_matches_the_harness():
    benchmark = _benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in benchmark["workloads"]] == list(
        e2e_workloads.WORKLOADS
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]
    ] == list(e2e_workloads.E2E_METRICS)
    assert [
        (m["name"], m["unit"]) for m in benchmark["per_layer"]
    ] == list(e2e_workloads.LAYER_METRICS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert any(
        m["name"] == "setup_s" and m["bound"] == max(
            n["bound"] for n in benchmark["end_to_end"]
        )
        for m in benchmark["end_to_end"]
    )


@pytest.mark.parametrize("workload", e2e_workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(tiny, tmp_path, workload):
    benchmark = _benchmark()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = e2e_workloads.run_workload(
            workload, 3, 0.3, trace, str(tmp_path)
        )
        assert result["correct"], result["errors"]
        assert result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in benchmark[key]}
        emitted = {
            name: entry["unit"] for name, entry in result["metrics"].items()
        }
        assert emitted == expected
        assert all(
            isinstance(entry["value"], float)
            for entry in result["metrics"].values()
        )
    assert os.listdir(tmp_path) == []


def _served(workload, tmp_path):
    inputs = e2e_workloads.serve_inputs(2)
    run = e2e_workloads.ServeRun(
        e2e_workloads.SERVE_SPECS[workload], inputs, 0.6,
        str(tmp_path), None, e2e_clock.ReferenceClock(),
    )
    result = asyncio.run(run.run())
    assert result.errors == [] and (run.answered or run.applied)
    return run


def _doctor_one_verdict(run):
    page, verdicts = run.answered[0]
    (allowed, version), *others = verdicts
    run.answered[0] = (page, ((not allowed, version), *others))
    run.result.errors.clear()


def test_read_check_rejects_a_doctored_verdict(tiny, tmp_path):
    run = _served("read_cold", tmp_path)
    _doctor_one_verdict(run)
    run.check()
    assert run.result.errors and "scalar index" in run.result.errors[0]


def test_wal_replay_rejects_a_doctored_verdict(tiny, tmp_path, monkeypatch):
    run = _served("mixed_rw", tmp_path)
    assert run.applied
    # Re-decide every read, so the doctored one is among them.
    monkeypatch.setattr(e2e_workloads, "READ_SAMPLE", 10**9)
    monkeypatch.setattr(e2e_workloads, "REPLAY_VERSIONS", 10**9)
    _doctor_one_verdict(run)
    run.check()
    assert run.result.errors and "replay says" in run.result.errors[0]


def test_wal_check_rejects_a_tampered_log(tiny, tmp_path):
    run = _served("provision", tmp_path)
    with open(run.wal_path) as handle:
        lines = handle.readlines()
    assert '"seq":1' in lines[1]
    lines[1] = lines[1].replace('"seq":1', '"seq":7')
    with open(run.wal_path, "w") as handle:
        handle.writelines(lines)
    run.result.errors.clear()
    run.check()
    assert run.result.errors and "WAL chain" in run.result.errors[0]


def _span(sid, start, end, parent=None, child_ns=0):
    span = e2e_trace.Span(sid, f"s{sid}", start, parent, None, None)
    span.end = end
    span.child_ns = child_ns
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, 100, child_ns=5),
        _span(2, 10, 30, parent=1),
        _span(3, 20, 50, parent=1),   # overlaps span 2
        _span(4, 90, 120, parent=1),  # runs past its parent's end
        _span(5, 12, 18, parent=2),
    ]
    own = e2e_trace.self_times(spans)
    # children of 1 cover [10, 50) and [90, 100): 50 ns, plus 5 ns
    # of aggregated children.
    assert own[1] == 100 - 50 - 5
    assert own[2] == 20 - 6
    assert own[3] == 30
    assert own[4] == 30
    assert own[5] == 6


def test_tracer_links_parents_and_restores_patches():
    original_copy = Policy.copy
    original_get = DecisionCache.get
    tracer = e2e_trace.Tracer()
    tracer.install()
    try:
        assert Policy.copy is not original_copy
        policy = Policy()
        cache = DecisionCache(policy)
        admin = User("admin")
        command = grant_cmd(admin, User("u"), Role("r"))
        policy.copy()  # not recording: no span
        tracer.recording = True
        with tracer.request("request.test") as request:
            policy.copy()
            assert cache.get(admin, command) is None
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert Policy.copy is original_copy
    assert DecisionCache.get is original_get
    names = {span.name: span for span in tracer.spans}
    assert set(names) == {"request.test", "policy.copy"}
    assert names["policy.copy"].parent == request.sid
    assert names["policy.copy"].request == request.sid
    gets = tracer.aggregates["cache.get"]
    assert (gets.calls, gets.hits) == (1, 0)
    assert request.child_ns == gets.total_ns > 0
    own = e2e_trace.self_times(tracer.spans)[request.sid]
    assert own == (
        request.duration - names["policy.copy"].duration - gets.total_ns
    )
