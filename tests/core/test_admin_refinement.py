"""Unit tests for the bounded Definition-7 checker."""

import pytest

from repro.core.admin_refinement import (
    check_admin_refinement,
    check_mode_safety,
    theorem1_step_obligation,
)
from repro.core.commands import Mode, grant_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.core.refinement import weaken_assignment
from repro.errors import AnalysisError
from repro.oracle import reference_check_admin_refinement
from repro.papercases import figures

JANE, BOB = User("jane"), User("bob")
STAFF, NURSE, DB, HR = Role("staff"), Role("nurse"), Role("db"), Role("HR")


def base_components():
    return dict(
        ua=[(JANE, HR)],
        rh=[(STAFF, NURSE), (STAFF, DB)],
        pa=[(NURSE, perm("print", "black")), (DB, perm("write", "t3"))],
    )


@pytest.fixture
def phi():
    policy = Policy(**base_components())
    policy.add_user(BOB)
    policy.assign_privilege(HR, Grant(BOB, STAFF))
    return policy


class TestBasics:
    def test_reflexive(self, phi):
        assert check_admin_refinement(phi, phi, depth=1).holds

    def test_identical_policies_both_directions(self, phi):
        for direction in ("psi-universal", "phi-universal"):
            assert check_admin_refinement(
                phi, phi, depth=1, direction=direction
            ).holds

    def test_unknown_direction_rejected(self, phi):
        with pytest.raises(AnalysisError):
            check_admin_refinement(phi, phi, direction="sideways")

    def test_result_truthiness(self, phi):
        assert bool(check_admin_refinement(phi, phi, depth=0))


class TestTheorem1Instances:
    def test_weakening_is_refinement(self, phi):
        psi = weaken_assignment(phi, HR, Grant(BOB, STAFF), Grant(BOB, DB))
        result = check_admin_refinement(phi, psi, depth=2)
        assert result.holds

    def test_weakening_passes_printed_direction_too(self, phi):
        psi = weaken_assignment(phi, HR, Grant(BOB, STAFF), Grant(BOB, DB))
        assert check_admin_refinement(
            phi, psi, depth=2, direction="phi-universal"
        ).holds

    def test_figure2_weakening(self, fig2):
        psi = weaken_assignment(
            fig2, figures.HR,
            Grant(figures.BOB, figures.STAFF),
            Grant(figures.BOB, figures.DBUSR2),
        )
        assert check_admin_refinement(fig2, psi, depth=1).holds


class TestStrengthenings:
    def test_strengthening_refuted(self):
        phi = Policy(**base_components())
        phi.add_user(BOB)
        phi.assign_privilege(HR, Grant(BOB, DB))     # weak authority
        psi = Policy(**base_components())
        psi.add_user(BOB)
        psi.assign_privilege(HR, Grant(BOB, STAFF))  # strengthened
        result = check_admin_refinement(phi, psi, depth=1)
        assert not result.holds
        assert result.counterexample
        cex = result.counterexample[0]
        assert cex.user == JANE
        assert (cex.source, cex.target) == (BOB, STAFF)

    def test_strengthening_passes_printed_direction(self):
        """The Definition-7 formula as printed cannot see admin-only
        strengthenings (recorded in EXPERIMENTS.md)."""
        phi = Policy(**base_components())
        phi.add_user(BOB)
        phi.assign_privilege(HR, Grant(BOB, DB))
        psi = Policy(**base_components())
        psi.add_user(BOB)
        psi.assign_privilege(HR, Grant(BOB, STAFF))
        assert check_admin_refinement(
            phi, psi, depth=1, direction="phi-universal"
        ).holds

    def test_added_user_privilege_refuted_at_depth_zero(self):
        phi = Policy(**base_components())
        psi = Policy(**base_components())
        psi.assign_privilege(HR, perm("read", "secret"))
        result = check_admin_refinement(phi, psi, depth=0)
        assert not result.holds
        assert result.counterexample == ()


class TestDepthSensitivity:
    def test_two_step_escalation_needs_depth_two(self):
        """ψ grants via an intermediate admin privilege: the violation
        appears only after two commands."""
        mid = Role("mid")
        phi = Policy(**base_components())
        phi.add_user(BOB)
        phi.add_role(mid)
        psi = phi.copy()
        # jane can give bob the mid role; mid holds grant(bob, staff).
        psi.assign_privilege(HR, Grant(BOB, mid))
        psi.assign_privilege(mid, Grant(BOB, STAFF))
        shallow = check_admin_refinement(phi, psi, depth=1)
        assert shallow.holds  # one step only reaches (bob, mid): no new user privs
        deep = check_admin_refinement(phi, psi, depth=2)
        assert not deep.holds
        assert len(deep.counterexample) == 2

    def test_obligation_counters(self, phi):
        result = check_admin_refinement(phi, phi, depth=1)
        assert result.obligations_checked >= 1
        assert result.obligations_matched_trivially >= 1


class TestRevocationInteraction:
    def test_extra_revocation_privilege_is_refinement(self, phi):
        """Adding a revocation privilege cannot break refinement: its
        exercise only shrinks ψ (future-work candidate, §6)."""
        psi = phi.copy()
        psi.assign_privilege(HR, Revoke(BOB, STAFF))
        assert check_admin_refinement(phi, psi, depth=2).holds

    def test_phi_revocations_do_not_break_reflexivity(self, phi):
        phi.assign_privilege(HR, Revoke(BOB, STAFF))
        assert check_admin_refinement(phi, phi, depth=2).holds


class TestModeSafety:
    def test_figure2_refined_mode_is_safe(self):
        result = check_mode_safety(figures.figure2(), depth=1)
        assert result.holds

    def test_small_policy_depth_two(self, phi):
        assert check_mode_safety(phi, depth=2).holds


class TestTheorem1StepObligation:
    def test_matched_pair(self, phi):
        psi = weaken_assignment(phi, HR, Grant(BOB, STAFF), Grant(BOB, DB))
        stronger_cmd = grant_cmd(JANE, BOB, STAFF)
        weaker_cmd = grant_cmd(JANE, BOB, DB)
        assert theorem1_step_obligation(phi, psi, stronger_cmd, weaker_cmd)

    def test_mismatched_pair_fails(self, phi):
        psi = phi.copy()
        psi.assign_privilege(HR, Grant(BOB, STAFF))
        # ψ runs the *stronger* command while φ no-ops an unauthorized one.
        assert not theorem1_step_obligation(
            phi, psi, grant_cmd(BOB, BOB, STAFF), grant_cmd(JANE, BOB, STAFF)
        )


class TestCompiledChecker:
    """The undo-log enumeration must be observationally identical to
    the copy-per-probe oracle (:mod:`repro.oracle`): same verdict, same
    counterexample, same obligation and responder-state counters."""

    def _assert_identical(self, phi, psi, depth=2, **kwargs):
        fast = check_admin_refinement(phi, psi, depth=depth, **kwargs)
        slow = reference_check_admin_refinement(
            phi, psi, depth=depth, **kwargs
        )
        assert fast == slow
        return fast

    def test_reflexive_holds(self, phi):
        result = self._assert_identical(phi, phi)
        assert result.holds

    def test_weakened_policy_holds(self, phi):
        psi = weaken_assignment(phi, HR, Grant(BOB, STAFF), Grant(BOB, DB))
        result = self._assert_identical(phi, psi)
        assert result.holds

    def test_counterexample_identical(self, phi):
        psi = phi.copy()
        vault = Role("vault")
        psi.add_role(vault)
        psi.assign_privilege(vault, perm("open", "safe"))
        psi.assign_privilege(HR, Grant(BOB, vault))
        # ψ grants authority incomparable to anything φ holds:
        # refinement fails with the same witness run under both
        # checkers.
        result = self._assert_identical(phi, psi)
        assert not result.holds
        assert result.counterexample is not None

    def test_random_policies_identical(self):
        from repro.workloads.generators import PolicyShape, random_policy

        shape = PolicyShape(
            n_users=2, n_roles=3, n_admin_privileges=2, max_nesting=1,
            ua_edges=3, rh_edges=3, pa_edges=4,
        )
        for seed in range(4):
            phi = random_policy(seed, shape)
            psi = random_policy(seed + 100, shape)
            self._assert_identical(phi, phi, depth=1)
            self._assert_identical(phi, psi, depth=1)

    def test_mode_safety_compiled_matches(self):
        fast = check_mode_safety(figures.figure2(), depth=1)
        slow = reference_check_admin_refinement(
            figures.figure2(), figures.figure2(), depth=1,
            phi_mode=Mode.STRICT, psi_mode=Mode.REFINED,
        )
        assert fast == slow
        assert fast.holds
