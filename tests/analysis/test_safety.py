"""Unit tests for safety queries."""

import pytest

from repro.analysis.safety import can_obtain, safety_matrix
from repro.core.commands import Mode
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.oracle import reference_can_obtain

U, ADMIN, OUTSIDER = User("u"), User("admin"), User("outsider")
R, ADM = Role("r"), Role("adm")
P = perm("read", "doc")
SECRET = perm("read", "secret")


@pytest.fixture
def policy():
    policy = Policy(
        ua=[(ADMIN, ADM)],
        pa=[(R, P), (ADM, Grant(U, R))],
    )
    policy.add_user(U)
    policy.add_user(OUTSIDER)
    return policy


class TestCanObtain:
    def test_already_granted(self, policy):
        policy.assign_user(U, R)
        verdict = can_obtain(policy, U, P, depth=0)
        assert verdict.reachable
        assert verdict.witness == ()

    def test_obtainable_via_admin(self, policy):
        verdict = can_obtain(policy, U, P, depth=1)
        assert verdict.reachable
        assert len(verdict.witness) == 1
        assert verdict.witness[0].user == ADMIN

    def test_not_obtainable_without_admin_action(self, policy):
        verdict = can_obtain(policy, U, P, depth=1, acting_users=[U, OUTSIDER])
        assert not verdict.reachable

    def test_unreachable_privilege(self, policy):
        policy.graph.add_vertex(SECRET)  # privilege exists but unassigned
        verdict = can_obtain(policy, U, SECRET, depth=2)
        assert not verdict.reachable
        assert verdict.witness is None

    def test_outsider_never_obtains(self, policy):
        verdict = can_obtain(policy, OUTSIDER, P, depth=2)
        assert not verdict.reachable

    def test_bool_protocol(self, policy):
        assert can_obtain(policy, U, P, depth=1)
        assert not can_obtain(policy, OUTSIDER, P, depth=1)


class TestSafetyMatrix:
    def test_matrix_covers_all_cells(self, policy):
        matrix = safety_matrix(policy, depth=1)
        users = set(policy.users())
        privileges = set(policy.user_privileges())
        assert set(matrix) == {(u, p) for u in users for p in privileges}

    def test_matrix_verdicts(self, policy):
        matrix = safety_matrix(policy, depth=1)
        assert matrix[(U, P)].reachable
        assert not matrix[(OUTSIDER, P)].reachable

    def test_strict_vs_refined_on_hierarchy(self):
        high, low = Role("high"), Role("low")
        policy = Policy(
            ua=[(ADMIN, ADM)],
            rh=[(high, low)],
            pa=[(low, P), (ADM, Grant(U, high))],
        )
        policy.add_user(U)
        strict = safety_matrix(policy, depth=1, mode=Mode.STRICT)
        refined = safety_matrix(policy, depth=1, mode=Mode.REFINED)
        # Refined mode allows assigning u lower, but u could already
        # obtain P via the high role in strict mode: same verdicts.
        assert strict[(U, P)].reachable
        assert refined[(U, P)].reachable


class TestSharedEngineMatrix:
    """The matrix shares one exploration engine across all cells; the
    verdicts must be indistinguishable from per-cell runs and from the
    reference explorer's."""

    @pytest.mark.parametrize("mode", [Mode.STRICT, Mode.REFINED])
    def test_matrix_matches_per_cell_and_oracle(self, mode):
        from repro.papercases import figures

        policy = figures.figure2()
        shared = safety_matrix(policy, depth=2, mode=mode)
        oracle = {
            (user, privilege): reference_can_obtain(
                policy, user, privilege, depth=2, mode=mode
            )
            for user in sorted(policy.users(), key=str)
            for privilege in sorted(policy.user_privileges(), key=str)
        }
        assert set(shared) == set(oracle)
        for cell, verdict in shared.items():
            per_cell = can_obtain(
                policy, cell[0], cell[1], depth=2, mode=mode
            )
            assert verdict == per_cell, cell
            assert verdict == oracle[cell], cell

    def test_shared_engine_leaves_policy_untouched(self, policy):
        edges, vertices = policy.edge_set(), policy.vertex_set()
        safety_matrix(policy, depth=2)
        assert policy.edge_set() == edges
        assert policy.vertex_set() == vertices
