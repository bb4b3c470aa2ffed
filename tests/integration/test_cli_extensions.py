"""Integration tests for the diff/flexibility/fuzz CLI subcommands."""

import pytest

from repro.cli import main
from repro.core.grammar import format_policy_source
from repro.core.privileges import Grant
from repro.core.refinement import weaken_assignment
from repro.papercases import figures


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.policy"
    path.write_text(format_policy_source(figures.figure2()))
    return str(path)


@pytest.fixture
def weakened_file(tmp_path):
    psi = weaken_assignment(
        figures.figure2(), figures.HR,
        Grant(figures.BOB, figures.STAFF),
        Grant(figures.BOB, figures.DBUSR2),
    )
    path = tmp_path / "psi.policy"
    path.write_text(format_policy_source(psi))
    return str(path)


def test_diff_refinement_direction(fig2_file, weakened_file, capsys):
    code = main(["diff", fig2_file, weakened_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "direction: equivalent" in out or "direction: refinement" in out
    assert "removed pa-admin: HR -> grant(bob, staff)" in out
    assert "added pa-admin: HR -> grant(bob, dbusr2)" in out


def test_diff_coarsening_exits_nonzero(fig2_file, tmp_path, capsys):
    policy = figures.figure2()
    policy.assign_user(figures.BOB, figures.STAFF)
    grown = tmp_path / "grown.policy"
    grown.write_text(format_policy_source(policy))
    code = main(["diff", fig2_file, str(grown)])
    assert code == 1
    out = capsys.readouterr().out
    assert "direction: coarsening" in out
    assert "gained: bob may" in out


def test_flexibility(fig2_file, capsys):
    assert main(["flexibility", fig2_file]) == 0
    out = capsys.readouterr().out
    assert "strict (Def. 5, exact match)" in out
    assert "refined / strict" in out


def test_fuzz_clean_run(capsys):
    assert main(["fuzz", "--seeds", "3", "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert "invariants: all hold" in out


def test_fuzz_steps_reach_lint_and_repair_campaigns(monkeypatch, capsys):
    """``--steps`` sets the churn length of invariants 11 and 13 too."""
    from repro.workloads import fuzz
    from repro.workloads.fuzz import FuzzReport

    calls = []

    def campaign(name):
        def run(seed, steps):
            calls.append((name, seed, steps))
            return FuzzReport(seed=seed, steps=steps)
        return run

    monkeypatch.setattr(fuzz, "fuzz_lint", campaign("lint"))
    monkeypatch.setattr(fuzz, "fuzz_repair", campaign("repair"))
    assert main(["fuzz", "--seeds", "2", "--steps", "7",
                 "--lint-diff", "--repair-diff"]) == 0
    assert calls == [
        ("lint", 0, 7), ("lint", 1, 7), ("repair", 0, 7), ("repair", 1, 7),
    ]


@pytest.mark.parametrize("argv", [
    ["fuzz", "--seeds", "2", "--steps", "15", "--shards", "3"],
    ["audit-matrix", "--fixture", "figure2", "--shards", "2"],
], ids=["fuzz", "audit-matrix"])
def test_shards_flag_is_a_usage_error(argv, capsys):
    """The sharded index is gone, so ``--shards`` is an unknown option:
    argparse rejects it with its usage error instead of ignoring it."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--seeds", "2", "--steps", "15"],
    ["audit-matrix", "--fixture", "figure2"],
    ["serve-bench", "--fixture", "figure2"],
    ["lint", "--fixture", "figure2"],
    ["analyze", "policy.txt", "bob", "(write, t3)"],
], ids=["fuzz", "audit-matrix", "serve-bench", "lint", "analyze"])
def test_frozenset_flag_is_a_usage_error(argv, capsys):
    """Every question has one production kernel (the frozenset twins
    live in ``repro.oracle``), so these subcommands reject
    ``--frozenset`` as an unknown option."""
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--frozenset"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --frozenset" in capsys.readouterr().err


def test_audit_matrix_figure2_output(capsys):
    assert main(["audit-matrix", "--fixture", "figure2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "audit matrix at policy version 45 (5 users x 5 privileges)",
        "alice                    -  [admin: 3G/1R]",
        "bob                      -",
        "diana                    (print, black), (print, color), "
        "(read, t1), (read, t2), (write, t3)",
        "jane                     -  [admin: 2G/1R]",
        "joe                      -",
    ]


def test_fuzz_kernel_differential(capsys):
    assert main(
        ["fuzz", "--seeds", "1", "--steps", "12", "--kernel-diff"]
    ) == 0
    out = capsys.readouterr().out
    assert "reference agreement: 1 campaigns" in out
    assert "invariants: all hold" in out


def test_fuzz_pdp_differential(capsys):
    assert main(
        ["fuzz", "--seeds", "1", "--steps", "12", "--pdp-diff"]
    ) == 0
    out = capsys.readouterr().out
    assert "pdp agreement: 1 campaigns" in out
    assert "invariants: all hold" in out


def test_fuzz_lint_differential(capsys):
    assert main(
        ["fuzz", "--seeds", "2", "--steps", "12", "--lint-diff"]
    ) == 0
    out = capsys.readouterr().out
    assert "lint agreement: 2 campaigns" in out
    assert "depth-k-escalation in re-lints: " in out
    assert "invariants: all hold" in out


def test_explain_access_allowed(fig2_file, capsys):
    assert main(["explain-access", fig2_file, "diana", "(read, t1)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ALLOWED: diana -> ")
    assert "(read, t1)" in out


def test_explain_access_denied(fig2_file, capsys):
    assert main(["explain-access", fig2_file, "bob", "(read, t1)"]) == 1
    out = capsys.readouterr().out
    assert "DENIED" in out
    assert "authorized roles" in out


def test_analyze_reachable_with_witness(fig2_file, capsys):
    assert main(
        ["analyze", fig2_file, "bob", "(write, t3)", "--depth", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "compiled explorer" in out
    assert "REACHABLE in 1 step(s):" in out
    assert "cmd(alice, grant, bob, staff)" in out


def test_analyze_safe_exits_nonzero(fig2_file, capsys):
    assert main(
        ["analyze", fig2_file, "jane", "(read, t1)", "--depth", "2"]
    ) == 1
    out = capsys.readouterr().out
    assert "SAFE: jane cannot obtain (read, t1)" in out


def test_analyze_acting_users_restriction(fig2_file, capsys):
    """With only bob acting (no administrator), nothing is obtainable."""
    assert main(
        ["analyze", fig2_file, "bob", "(write, t3)", "--depth", "2",
         "--acting", "bob"]
    ) == 1
    out = capsys.readouterr().out
    assert "SAFE" in out


def test_analyze_empty_acting_set_means_nobody_acts(fig2_file, capsys):
    """`--acting` with zero names is an explicit empty collusion set —
    nothing is obtainable — not "everyone may act"."""
    assert main(
        ["analyze", fig2_file, "bob", "(write, t3)", "--depth", "2",
         "--acting"]
    ) == 1
    out = capsys.readouterr().out
    assert "SAFE" in out
    assert "explored 1 states" in out
