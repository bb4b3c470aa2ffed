"""Tests pinning the figure reconstructions to the paper's prose."""

from repro.core.privileges import Grant, Revoke, perm
from repro.papercases import figures


class TestFigure1:
    def test_example1_nurse_session(self, fig1):
        # "she can read the tables t1 and t2"
        assert fig1.reaches(figures.NURSE, perm("read", "t1"))
        assert fig1.reaches(figures.NURSE, perm("read", "t2"))
        assert not fig1.reaches(figures.NURSE, perm("write", "t3"))

    def test_example1_staff_session(self, fig1):
        # "in the latter case she can also write the table t3"
        assert fig1.reaches(figures.STAFF, perm("read", "t1"))
        assert fig1.reaches(figures.STAFF, perm("read", "t2"))
        assert fig1.reaches(figures.STAFF, perm("write", "t3"))

    def test_diana_can_activate_both(self, fig1):
        assert fig1.reaches(figures.DIANA, figures.NURSE)
        assert fig1.reaches(figures.DIANA, figures.STAFF)

    def test_staff_session_privileges(self, fig1):
        from repro.core.monitor import ReferenceMonitor

        monitor = ReferenceMonitor(fig1)
        session = monitor.create_session(figures.DIANA)
        monitor.add_active_role(session, figures.STAFF)
        assert monitor.session_privileges(session) == {
            perm("read", "t1"), perm("read", "t2"), perm("write", "t3"),
            perm("print", "black"), perm("print", "color"),
        }

    def test_printing_privileges(self, fig1):
        assert fig1.reaches(figures.NURSE, perm("print", "black"))
        assert not fig1.reaches(figures.NURSE, perm("print", "color"))
        assert fig1.reaches(figures.STAFF, perm("print", "color"))

    def test_example4_dbusr2_suffices_for_db_work(self, fig1):
        # Bob's job needs dbusr2 privileges: read t1/t2, write t3.
        for privilege in [perm("read", "t1"), perm("read", "t2"),
                          perm("write", "t3")]:
            assert fig1.reaches(figures.DBUSR2, privilege)

    def test_example4_dbusr2_below_staff(self, fig1):
        assert fig1.reaches(figures.STAFF, figures.DBUSR2)

    def test_dbusr2_has_no_medical_privileges(self, fig1):
        assert not fig1.reaches(figures.DBUSR2, perm("print", "black"))

    def test_non_administrative(self, fig1):
        assert fig1.is_non_administrative()


class TestFigure2:
    def test_extends_figure1(self, fig1, fig2):
        assert fig1.edge_set() <= fig2.edge_set()

    def test_hr_privileges(self, fig2):
        assert fig2.has_edge(figures.HR, Grant(figures.BOB, figures.STAFF))
        assert fig2.has_edge(figures.HR, Grant(figures.JOE, figures.NURSE))
        assert fig2.has_edge(figures.HR, Revoke(figures.JOE, figures.NURSE))

    def test_dbusr3_revocation_privileges(self, fig2):
        assert fig2.has_edge(figures.DBUSR3, Revoke(figures.BOB, figures.DBUSR2))

    def test_so_above_hr(self, fig2):
        assert fig2.reaches(figures.ALICE, figures.HR)

    def test_example5_nested_privilege(self, fig2):
        nested = Grant(figures.STAFF, Grant(figures.BOB, figures.STAFF))
        assert fig2.has_edge(figures.SO, nested)

    def test_administrative(self, fig2):
        assert not fig2.is_non_administrative()


class TestFigure3:
    def test_same_policy_as_figure2(self, fig2):
        assert figures.figure3() == fig2

    def test_strict_assignment_adds_staff_edge(self):
        policy = figures.figure3_after_strict_assignment()
        assert policy.has_edge(figures.BOB, figures.STAFF)
        # Over-granting: Bob reaches medical privileges.
        assert policy.reaches(figures.BOB, perm("print", "black"))

    def test_refined_assignment_is_least_privilege(self):
        policy = figures.figure3_after_refined_assignment()
        assert policy.has_edge(figures.BOB, figures.DBUSR2)
        assert policy.reaches(figures.BOB, perm("write", "t3"))
        assert not policy.reaches(figures.BOB, perm("print", "black"))

    def test_refined_refines_strict(self):
        from repro.core.refinement import is_refinement

        strict = figures.figure3_after_strict_assignment()
        refined = figures.figure3_after_refined_assignment()
        assert is_refinement(strict, refined)
        assert not is_refinement(refined, strict)


class TestWildcardHelper:
    def test_expands_over_users(self, fig2):
        before = sum(1 for _ in fig2.admin_privileges_assigned())
        figures.revocation_wildcard(fig2, figures.DBUSR3, figures.NURSE)
        revokes = [
            privilege
            for role, privilege in fig2.admin_privileges_assigned()
            if role == figures.DBUSR3 and isinstance(privilege, Revoke)
            and privilege.target == figures.NURSE
        ]
        user_count = sum(1 for _ in fig2.users())
        assert len(revokes) == user_count
        assert sum(1 for _ in fig2.admin_privileges_assigned()) > before
