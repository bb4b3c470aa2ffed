"""Fuzz invariant 15: differential crash recovery.

The fault-injector unit surface, plus the reduced campaigns the CI
chaos-smoke job runs: kill a PDP at every named injection point,
recover from the WAL alone, pin the result byte-identical to an
uninterrupted oracle — and reject every single-record tamper of the
log.
"""

import random

import pytest

from repro.core.authz_index import AuthorizationIndex
from repro.errors import ReproError
from repro.oracle import ReferenceIndex
from repro.serve import PolicyDecisionPoint
from repro.workloads.faults import (
    FAULTS,
    CrashInjected,
    FaultInjector,
    InjectedFailure,
    differential_append_failure,
    differential_crash_recovery,
    wal_tamper_campaign,
)
from repro.workloads.faults import _DURABLE_OFFSET, FAIL_POINTS, INJECTION_POINTS
from repro.workloads.fuzz import _random_command, fuzz_crash_recovery
from repro.workloads.generators import PolicyShape

#: small enough that the full every-point campaign stays in CI-smoke
#: territory, large enough that every batch mutates something.
SHAPE = PolicyShape(n_users=4, n_roles=5, n_admin_privileges=4)


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.clear()
    yield
    FAULTS.clear()


class TestFaultInjector:
    def test_disarmed_is_inert(self):
        injector = FaultInjector()
        assert not injector.active
        injector.hit("anything")  # no registry entry: returns
        assert injector.fired("anything") == 0

    def test_crash_and_fail_actions_are_typed(self):
        injector = FaultInjector()
        injector.arm("p", "crash")
        with pytest.raises(CrashInjected):
            injector.hit("p")
        injector.clear()
        injector.arm("p", "fail")
        with pytest.raises(InjectedFailure):
            injector.hit("p")

    def test_times_budget(self):
        injector = FaultInjector()
        fault = injector.arm("p", "fail", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFailure):
                injector.hit("p")
        injector.hit("p")  # budget spent: inert
        assert fault.fired == 2

    def test_after_skips_leading_hits(self):
        injector = FaultInjector()
        fault = injector.arm("p", "fail", times=1, after=2)
        injector.hit("p")
        injector.hit("p")
        with pytest.raises(InjectedFailure):
            injector.hit("p")
        assert fault.hits == 3
        assert fault.fired == 1

    def test_arm_disarm_clear_track_active(self):
        injector = FaultInjector()
        injector.arm("a", "fail")
        injector.arm("b", "crash")
        assert injector.active
        assert injector.armed() == ["a", "b"]
        injector.disarm("a")
        assert injector.active
        injector.disarm("b")
        assert not injector.active
        injector.arm("c", "fail")
        injector.clear()
        assert not injector.active and injector.armed() == []

    def test_unknown_action_rejected(self):
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultInjector().arm("p", "explode")

    def test_torn_prefix_bounds(self):
        injector = FaultInjector()
        injector.arm("p", "torn", torn_bytes=4)
        # never the full record, never empty
        assert injector.torn_prefix("p", b"0123456789") == b"0123"
        injector.clear()
        injector.arm("p", "torn", torn_bytes=99)
        assert injector.torn_prefix("p", b"abcdef") == b"abcde"
        injector.clear()
        injector.arm("p", "torn", torn_bytes=0)
        assert injector.torn_prefix("p", b"xy") == b"x"

    def test_torn_prefix_only_for_torn_faults(self):
        injector = FaultInjector()
        injector.arm("p", "crash")
        assert injector.torn_prefix("p", b"data") is None

    def test_load_env_spec(self):
        injector = FaultInjector()
        assert injector.load_env(
            "wal.before_fsync:crash, writer.before_apply:fail:3:1"
        ) == 2
        assert injector.armed() == [
            "wal.before_fsync", "writer.before_apply"
        ]
        fault = injector._faults["writer.before_apply"]
        assert (fault.action, fault.times, fault.after) == ("fail", 3, 1)

    def test_load_env_malformed_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            FaultInjector().load_env("justapoint")
        with pytest.raises(ReproError, match="malformed"):
            FaultInjector().load_env("p:fail:notanint")


class TestCampaigns:
    def test_every_injection_point_has_a_durability_offset(self):
        assert set(INJECTION_POINTS) == set(_DURABLE_OFFSET)

    def test_differential_crash_recovery_is_clean(self):
        violations = differential_crash_recovery(
            seed=5, batches=4, batch_size=5, shape=SHAPE
        )
        assert violations == []

    def test_wal_tamper_campaign_is_clean(self):
        violations = wal_tamper_campaign(
            seed=5, batches=3, batch_size=4, shape=SHAPE
        )
        assert violations == []

    def test_fail_points_cover_the_fsync_stage(self):
        """The recoverable-failure sweep must include the append path
        around the fsync — the stage where a half-landed line plus a
        retry/rebase could duplicate a seq."""
        assert "wal.before_fsync" in FAIL_POINTS
        assert "wal.before_append" in FAIL_POINTS
        assert "wal.after_append" in FAIL_POINTS

    def test_differential_append_failure_is_clean(self):
        violations = differential_append_failure(
            seed=5, batches=4, batch_size=5, shape=SHAPE
        )
        assert violations == []

    def test_append_failure_campaign_leaves_the_injector_clean(self):
        differential_append_failure(
            seed=5, batches=3, batch_size=4, shape=SHAPE,
            points=("wal.before_fsync",),
        )
        assert not FAULTS.active
        assert FAULTS.armed() == []

    @pytest.mark.parametrize(
        "oracle", [AuthorizationIndex, ReferenceIndex],
        ids=["compiled", "frozenset"],
    )
    def test_invariant_15_both_kernels(self, oracle, tmp_path):
        """Invariant 15, then every crash-recovered service decides like
        an oracle built over its recovered policy: a fresh bitset
        ``AuthorizationIndex`` (``compiled``) or the frozenset-backed
        ``ReferenceIndex`` of the definitions (``frozenset``)."""
        report = fuzz_crash_recovery(
            7, batches=4, batch_size=5, shape=SHAPE
        )
        assert report.ok, report.violations[:5]
        assert report.steps == 20
        assert differential_crash_recovery(
            seed=7, batches=4, batch_size=5, shape=SHAPE,
            workdir=str(tmp_path),
        ) == []
        wals = sorted(tmp_path.glob("*.wal"))
        assert len(wals) == len(INJECTION_POINTS)
        rng = random.Random(7)
        granted = 0
        for wal in wals:
            recovered = PolicyDecisionPoint.recover(str(wal))
            recovered.wal.close()
            snapshot = recovered.last_snapshot
            reference = oracle(snapshot.policy_copy())
            for _ in range(20):
                command = _random_command(rng, reference.policy)
                verdict = snapshot.authorizes(command.user, command)
                want = reference.authorizes(command.user, command)
                assert (verdict is None) == (want is None), (wal, command)
                granted += verdict is not None
        assert granted > 0

    def test_campaign_leaves_the_injector_clean(self):
        differential_crash_recovery(
            seed=5, batches=3, batch_size=4, shape=SHAPE,
            points=("wal.before_fsync",),
        )
        assert not FAULTS.active
        assert FAULTS.armed() == []
