"""Integration tests for ``repro lint --fix`` and the lint error paths.

The repair engine's CLI contract: exit 0 when every remaining finding
is fixed (or there was nothing to fix), exit 1 when findings survive
the repair pass, exit 2 for usage errors — and ``--fix`` never touches
the policy file unless at least one plan was applied and ``--dry-run``
is off.
"""

import json

import pytest

from repro.cli import main
from repro.core.grammar import format_policy_source, parse_policy_source
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import perm
from repro.papercases import figures


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.policy"
    path.write_text(format_policy_source(figures.figure1()))
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    policy = Policy(
        ua=[(User("u"), Role("r"))],
        pa=[(Role("r"), perm("read", "doc"))],
    )
    path = tmp_path / "clean.policy"
    path.write_text(format_policy_source(policy))
    return str(path)


class TestLintErrorPaths:
    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--fixture", "figure1",
                     "--rules", "no-such-rule"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_unknown_severity_exits_two(self, capsys):
        assert main(["lint", "--fixture", "figure1",
                     "--severity", "catastrophic"]) == 2
        err = capsys.readouterr().err
        assert "catastrophic" in err

    def test_dry_run_without_fix_exits_two(self, capsys):
        assert main(["lint", "--fixture", "figure1",
                     "--dry-run"]) == 2
        assert "--dry-run" in capsys.readouterr().err


class TestLintFix:
    def test_fix_clean_policy_no_mutation(self, clean_file, capsys):
        before = open(clean_file).read()
        assert main(["lint", clean_file, "--fix"]) == 0
        out = capsys.readouterr().out
        assert "0 plan(s) applied" in out
        assert open(clean_file).read() == before

    def test_fix_figure1_converges(self, capsys):
        assert main(["lint", "--fixture", "figure1", "--fix"]) == 0
        out = capsys.readouterr().out
        assert "redundant-delegation: revoke(diana, nurse)" in out
        assert "1 plan(s) applied" in out
        assert "0 finding(s) remaining" in out

    def test_fix_writes_repaired_policy_file(self, fig1_file, capsys):
        assert main(["lint", fig1_file, "--fix"]) == 0
        out = capsys.readouterr().out
        assert f"wrote repaired policy to {fig1_file}" in out
        repaired = parse_policy_source(open(fig1_file).read())
        # The repaired file re-lints clean: round-trip and re-run.
        assert (User("diana"), Role("nurse")) not in repaired.edge_set()
        assert main(["lint", fig1_file]) == 0
        capsys.readouterr()

    def test_fix_dry_run_leaves_file_untouched(self, fig1_file, capsys):
        before = open(fig1_file).read()
        assert main(["lint", fig1_file, "--fix", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "1 plan(s) applied" in out
        assert open(fig1_file).read() == before

    def test_fix_json_payload(self, capsys):
        assert main(["lint", "--fixture", "figure2", "--fix",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixpoint"] is True
        assert payload["remaining_findings"] == []
        statuses = [o["status"] for o in payload["outcomes"]]
        assert statuses and all(s == "applied" for s in statuses)

    def test_fix_kernels_agree(self, capsys):
        """``--fix`` plans and converges as the reference repair run
        (``repro.oracle``) does."""
        from repro.oracle import reference_repair_policy
        from repro.workloads.hospital import hospital_policy

        assert main(["lint", "--fixture", "hospital", "--fix",
                     "--json"]) == 0
        fast = json.loads(capsys.readouterr().out)
        slow = reference_repair_policy(hospital_policy()).as_dict()
        assert [
            (o["rule"], o["status"], o["actions"])
            for o in fast["outcomes"]
        ] == [
            (o["rule"], o["status"], o["actions"])
            for o in slow["outcomes"]
        ]
        assert fast["remaining_findings"] == slow["remaining_findings"]

    def test_fix_fixture_applied_counts(self, capsys):
        # The convergence pins the CI fixture job also asserts.
        expected = {"figure1": 1, "figure2": 4, "figure3": 4,
                    "hospital": 6, "enterprise": 5}
        for fixture, count in expected.items():
            assert main(["lint", "--fixture", fixture, "--fix",
                         "--dry-run"]) == 0
            out = capsys.readouterr().out
            assert f"{count} plan(s) applied" in out, fixture
            assert "0 finding(s) remaining" in out, fixture
