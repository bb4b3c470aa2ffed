"""Integration tests for the WAL-facing CLI surface: ``serve-bench
--wal`` / ``--inject``, ``repro wal verify``, and ``repro fuzz
--crash-diff``."""

import json

import pytest

from repro.cli import main

REDUCED = [
    "--principals", "8", "--probes", "2", "--bursts", "2",
    "--rounds", "2", "--writers", "2",
]


@pytest.fixture
def wal_file(tmp_path, capsys):
    """A WAL produced by a real serve-bench run."""
    path = tmp_path / "bench.wal"
    assert main([
        "serve-bench", "--fixture", "figure2", "--wal", str(path),
        *REDUCED,
    ]) == 0
    capsys.readouterr()  # drop the bench output
    return path


def test_serve_bench_wal_reports_the_log(tmp_path, capsys):
    path = tmp_path / "bench.wal"
    assert main([
        "serve-bench", "--fixture", "figure2", "--wal", str(path),
        *REDUCED,
    ]) == 0
    out = capsys.readouterr().out
    assert "wal:" in out
    assert "head " in out
    assert path.exists()


def test_wal_verify_healthy(wal_file, capsys):
    assert main(["wal", "verify", str(wal_file)]) == 0
    out = capsys.readouterr().out
    assert "WAL OK" in out
    assert "head: " in out


def test_wal_verify_json_surface(wal_file, capsys):
    assert main(["wal", "verify", str(wal_file), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"ok", "records", "batches", "head", "version"}
    assert document["ok"] is True
    assert document["records"] >= 2
    assert len(document["head"]) == 64


def test_wal_verify_rejects_a_tampered_record(wal_file, capsys):
    lines = wal_file.read_bytes().splitlines()
    mutated = json.loads(lines[1])
    mutated["payload"]["version"] = 999
    lines[1] = json.dumps(
        mutated, sort_keys=True, separators=(",", ":")
    ).encode()
    wal_file.write_bytes(b"".join(line + b"\n" for line in lines))
    assert main(["wal", "verify", str(wal_file)]) == 1
    assert "WAL CORRUPT" in capsys.readouterr().out


def test_wal_verify_json_reports_corruption(wal_file, capsys):
    lines = wal_file.read_bytes().splitlines()
    wal_file.write_bytes(b"".join(line + b"\n" for line in lines[1:]))
    assert main(["wal", "verify", str(wal_file), "--json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert document["error"]


def test_wal_verify_truncation_needs_the_head_anchor(wal_file, capsys):
    assert main(["wal", "verify", str(wal_file), "--json"]) == 0
    head = json.loads(capsys.readouterr().out)["head"]
    lines = wal_file.read_bytes().splitlines()
    wal_file.write_bytes(b"".join(line + b"\n" for line in lines[:-1]))
    # internally consistent: passes without the anchor...
    assert main(["wal", "verify", str(wal_file)]) == 0
    capsys.readouterr()
    # ...and is caught with it
    assert main(["wal", "verify", str(wal_file), "--head", head]) == 1
    assert "WAL CORRUPT" in capsys.readouterr().out


def test_wal_verify_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["wal", "verify", str(tmp_path / "absent.wal")]) == 2


def test_serve_bench_inject_surfaces_writer_health(tmp_path, capsys):
    assert main([
        "serve-bench", "--fixture", "figure2",
        "--inject", "writer.before_apply:fail:2",
        *REDUCED,
    ]) == 0
    out = capsys.readouterr().out
    assert "writer: " in out
    assert "2 failures" in out
    # reads kept serving through the failures
    assert "served 64 decisions" in out


def test_fuzz_crash_diff(capsys):
    assert main([
        "fuzz", "--seeds", "1", "--steps", "10", "--crash-diff",
    ]) == 0
    out = capsys.readouterr().out
    assert "crash-recovery agreement: 1 campaigns" in out
    assert "invariants: all hold" in out
