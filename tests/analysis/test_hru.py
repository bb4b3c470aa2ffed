"""Unit tests for the HRU model and the footnote-5 demonstration."""

import pytest

from repro.analysis.hru import (
    AccessMatrix,
    HruCommand,
    HruOp,
    check_safety,
    encode_rbac_grants,
    enter_self_markers,
)
from repro.core.admin_refinement import check_admin_refinement, check_mode_safety
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.errors import AnalysisError


class TestAccessMatrix:
    def test_enter_and_has(self):
        matrix = AccessMatrix(["s", "o"])
        matrix.enter("s", "o", "read")
        assert matrix.has("s", "o", "read")
        assert not matrix.has("o", "s", "read")

    def test_unknown_cell_rejected(self):
        matrix = AccessMatrix(["s"])
        with pytest.raises(AnalysisError):
            matrix.enter("s", "ghost", "read")

    def test_delete(self):
        matrix = AccessMatrix(["s", "o"], [("s", "o", "read")])
        matrix.delete("s", "o", "read")
        assert not matrix.has("s", "o", "read")

    def test_signature_and_copy(self):
        matrix = AccessMatrix(["s", "o"], [("s", "o", "read")])
        clone = matrix.copy()
        clone.enter("o", "s", "write")
        assert matrix.signature() == frozenset({("s", "o", "read")})
        assert ("o", "s", "write") in clone.signature()


class TestCommands:
    def test_bad_op_kind(self):
        with pytest.raises(AnalysisError):
            HruOp("replace", "r", "a", "b")

    def test_successors_bind_parameters(self):
        matrix = AccessMatrix(["alice", "bob", "file"])
        matrix.enter("alice", "file", "own")
        share = HruCommand(
            name="share",
            params=("owner", "friend"),
            conditions=(("own", "owner", "file"),),
            ops=(HruOp("enter", "read", "friend", "file"),),
        )
        results = list(share.successors(matrix))
        # owner binds to alice only; friend binds to all three names.
        assert len(results) == 3
        assert any(r.has("bob", "file", "read") for r in results)

    def test_constant_conditions(self):
        matrix = AccessMatrix(["a", "b"])
        enter_self_markers(matrix)
        pinned = HruCommand(
            name="pin",
            params=("x",),
            conditions=(("self", "x", "a"),),
            ops=(HruOp("enter", "r", "x", "b"),),
        )
        results = list(pinned.successors(matrix))
        assert len(results) == 1
        assert results[0].has("a", "b", "r")


class TestSafety:
    def test_immediate_leak(self):
        matrix = AccessMatrix(["s", "o"], [("s", "o", "read")])
        result = check_safety(matrix, [], "read", "s", "o")
        assert result.leaks and result.steps == 0

    def test_no_commands_no_leak(self):
        matrix = AccessMatrix(["s", "o"])
        result = check_safety(matrix, [], "read", "s", "o")
        assert not result.leaks

    def test_one_step_leak(self):
        matrix = AccessMatrix(["alice", "bob", "file"])
        matrix.enter("alice", "file", "own")
        share = HruCommand(
            "share", ("owner", "friend"),
            (("own", "owner", "file"),),
            (HruOp("enter", "read", "friend", "file"),),
        )
        result = check_safety(matrix, [share], "read", "bob", "file")
        assert result.leaks and result.steps == 1

    def test_two_step_leak(self):
        matrix = AccessMatrix(["a", "b", "c", "f"])
        matrix.enter("a", "f", "own")
        pass_own = HruCommand(
            "pass", ("x", "y"),
            (("own", "x", "f"),),
            (HruOp("enter", "own", "y", "f"), HruOp("delete", "own", "x", "f")),
        )
        grant_read = HruCommand(
            "read", ("x",),
            (("own", "x", "f"),),
            (HruOp("enter", "read", "x", "f"),),
        )
        result = check_safety(matrix, [pass_own, grant_read], "read", "c", "f")
        assert result.leaks
        assert result.steps == 2

    def test_bounded_exploration_respects_max_steps(self):
        matrix = AccessMatrix(["a", "b", "c", "f"])
        matrix.enter("a", "f", "own")
        pass_own = HruCommand(
            "pass", ("x", "y"),
            (("own", "x", "f"),),
            (HruOp("enter", "own", "y", "f"), HruOp("delete", "own", "x", "f")),
        )
        grant_read = HruCommand(
            "read", ("x",),
            (("own", "x", "f"),),
            (HruOp("enter", "read", "x", "f"),),
        )
        shallow = check_safety(
            matrix, [pass_own, grant_read], "read", "c", "f", max_steps=1
        )
        assert not shallow.leaks


class TestFootnote5:
    """HRU's unordered-collusion analysis cannot distinguish
    ``lowrole → ¤(r, p)`` from ``highrole → ¤(r, p)``; Definition 7
    can."""

    P = perm("read", "secret")
    LOWUSER, HIGHUSER = User("lowuser"), User("highuser")
    LOWROLE, HIGHROLE, R = Role("lowrole"), Role("highrole"), Role("r")

    def _policy(self, holder: Role) -> Policy:
        policy = Policy(
            ua=[(self.LOWUSER, self.LOWROLE), (self.HIGHUSER, self.HIGHROLE)],
            rh=[(self.HIGHROLE, self.LOWROLE)],
            pa=[(holder, Grant(self.R, self.P))],
        )
        policy.add_role(self.R)
        return policy

    def test_hru_encodings_agree(self):
        low_matrix, low_commands = encode_rbac_grants(self._policy(self.LOWROLE))
        high_matrix, high_commands = encode_rbac_grants(self._policy(self.HIGHROLE))
        low = check_safety(
            low_matrix, low_commands, "m", "r", "(read, secret)", max_steps=2
        )
        high = check_safety(
            high_matrix, high_commands, "m", "r", "(read, secret)", max_steps=2
        )
        # Both leak: HRU sees no difference between the two policies.
        assert low.leaks and high.leaks

    def test_definition7_distinguishes(self):
        low_policy = self._policy(self.LOWROLE)
        high_policy = self._policy(self.HIGHROLE)
        # The high-role policy is a refinement of the low-role policy
        # (everything the high policy's runs do, the low policy's can):
        assert check_admin_refinement(low_policy, high_policy, depth=1).holds
        # ... but not conversely: lowuser can fire the grant under the
        # low policy and the high policy cannot match it with lowuser.
        assert not check_admin_refinement(high_policy, low_policy, depth=1).holds

    def test_refined_mode_adds_nothing_to_the_high_policy(self):
        assert check_mode_safety(self._policy(self.HIGHROLE), depth=1).holds
