"""Integration tests for the ``serve-bench`` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.core.grammar import format_policy_source
from repro.papercases import figures

REDUCED = [
    "--principals", "8", "--probes", "2", "--bursts", "2",
    "--rounds", "2", "--writers", "2",
]


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.policy"
    path.write_text(format_policy_source(figures.figure2()))
    return str(path)


def test_serve_bench_fixture(capsys):
    assert main(["serve-bench", "--fixture", "figure2", *REDUCED]) == 0
    out = capsys.readouterr().out
    assert "served 64 decisions for 8 principals" in out
    assert "(policy version " in out
    assert "micro-batch(es)" in out
    assert "hit ratio" in out
    assert "decision latency: p50" in out
    assert "mutation latency: p50" in out
    assert "queue wait latency: p50" in out


def test_serve_bench_policy_file(fig2_file, capsys):
    assert main(["serve-bench", fig2_file, *REDUCED]) == 0
    assert "served 64 decisions" in capsys.readouterr().out


def test_serve_bench_json_is_the_metrics_surface(capsys):
    assert main([
        "serve-bench", "--fixture", "figure2", "--json", *REDUCED,
    ]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["decisions"] == 64
    assert stats["batches"] >= 1
    assert stats["cache"]["hits"] + stats["cache"]["misses"] == 64
    for key in ("decision_latency", "mutation_latency"):
        assert set(stats[key]) == {"count", "mean", "p50", "p99", "max"}
    assert stats["version"] >= 0


def test_serve_bench_rate_limited_path(capsys):
    assert main([
        "serve-bench", "--fixture", "figure2",
        "--rate-limit", "2:0.5", *REDUCED,
    ]) == 0
    out = capsys.readouterr().out
    assert "rate limited:" in out
    # 8 principals x 2-probe pages against a 2-token bucket: the
    # surface must show real rejections, not a disabled limiter.
    assert "rate limited: 0" not in out


def test_serve_bench_bad_rate_limit_is_usage_error(capsys):
    assert main([
        "serve-bench", "--fixture", "figure2", "--rate-limit", "bogus",
    ]) == 2
    assert "CAPACITY:RATE" in capsys.readouterr().err


def test_serve_bench_needs_exactly_one_target(fig2_file, capsys):
    assert main(["serve-bench"]) == 2
    assert main([
        "serve-bench", fig2_file, "--fixture", "figure2",
    ]) == 2
    capsys.readouterr()
