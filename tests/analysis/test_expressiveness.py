"""Tests for the §5 expressibility claims (PBDM cascaded delegation)."""

import pytest

from repro.analysis.expressiveness import (
    CascadedDelegation,
    cascade_policy,
    encode_as_nested_grant,
    encode_as_pbdm_roles,
    encoding_cost,
    run_nested_cascade,
    run_pbdm_cascade,
)
from repro.analysis.reachability import obtainable_pairs
from repro.core.entities import Role, User
from repro.core.refinement import granted_pairs
from repro.oracle import reference_reachable_policies


def make_cascade(depth: int) -> CascadedDelegation:
    return CascadedDelegation(
        Role("target"),
        tuple(User(f"d{i}") for i in range(depth)),
        User("final"),
    )


class TestEncodings:
    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            CascadedDelegation(Role("t"), (), User("f"))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_nested_encoding_executes(self, depth):
        ok, final = run_nested_cascade(make_cascade(depth))
        assert ok
        assert final.reaches(User("final"), Role("target"))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_pbdm_encoding_executes(self, depth):
        ok, final = run_pbdm_cascade(make_cascade(depth))
        assert ok

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_encodings_agree_on_outcome(self, depth):
        cascade = make_cascade(depth)
        nested_ok, nested_final = run_nested_cascade(cascade)
        pbdm_ok, pbdm_final = run_pbdm_cascade(cascade)
        assert nested_ok == pbdm_ok == True  # noqa: E712
        # Both give the recipient the target role's authority.
        assert nested_final.reaches(cascade.final_recipient, cascade.target_role)
        assert pbdm_final.reaches(cascade.final_recipient, cascade.target_role)

    def test_cascading_is_enforced_in_pbdm(self):
        """Step 2 must not be executable before step 1."""
        from repro.core.commands import Mode, grant_cmd, run_queue

        cascade = make_cascade(2)
        policy, new_roles = encode_as_pbdm_roles(
            cascade_policy(cascade), cascade
        )
        # d1 tries to act before d0 delegated to it.
        premature = grant_cmd(User("d1"), User("final"), new_roles[1])
        _final, records = run_queue(policy, [premature], Mode.STRICT)
        assert not records[0].executed

    def test_cascading_is_enforced_in_nested(self):
        from repro.core.commands import Mode, grant_cmd, run_queue

        cascade = make_cascade(2)
        base = cascade_policy(cascade)
        policy = encode_as_nested_grant(base, cascade, Role("home_d0"))
        premature = grant_cmd(User("d1"), User("final"), Role("target"))
        _final, records = run_queue(policy, [premature], Mode.STRICT)
        assert not records[0].executed


class TestEncodingCost:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_nested_needs_no_roles(self, depth):
        cost = encoding_cost(depth)
        assert cost.nested_new_roles == 0
        assert cost.nested_new_privileges == 1

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_pbdm_needs_one_role_per_step(self, depth):
        cost = encoding_cost(depth)
        assert cost.pbdm_new_roles == depth
        assert cost.pbdm_new_privileges == depth

    def test_the_papers_claim(self):
        """'each delegation requires the addition of a separate role
        ... In our model the administrative privileges are assigned to
        roles just like the ordinary privileges.'"""
        for depth in range(1, 6):
            cost = encoding_cost(depth)
            assert cost.pbdm_new_roles > cost.nested_new_roles


def reference_obtainable_pairs(policy, depth, mode, users=None):
    """``obtainable_pairs`` over the reference explorer."""
    return frozenset().union(*(
        granted_pairs(state.policy)
        for state in reference_reachable_policies(policy, depth, mode, users)
    ))


def equi_obtainable(cascade, explorer, monkeypatch) -> bool:
    """``encodings_equi_obtainable`` with its obtainable-pairs explorer
    swapped for ``explorer``."""
    from repro.analysis import reachability
    from repro.analysis.expressiveness import encodings_equi_obtainable

    with monkeypatch.context() as patch:
        patch.setattr(reachability, "obtainable_pairs", explorer)
        return encodings_equi_obtainable(cascade)


class TestEquiObtainable:
    """The explorer-backed §5 check: both encodings agree on whether
    the delegation chain can be driven end to end — under the engine
    and under the reference explorer of :mod:`repro.oracle`."""

    @pytest.mark.parametrize(
        "explorer", [obtainable_pairs, reference_obtainable_pairs],
        ids=["True", "False"],
    )
    def test_encodings_equi_obtainable(self, explorer, monkeypatch):
        assert equi_obtainable(make_cascade(1), explorer, monkeypatch)

    def test_kernels_agree(self, monkeypatch):
        cascade = make_cascade(2)
        assert equi_obtainable(
            cascade, obtainable_pairs, monkeypatch
        ) == equi_obtainable(cascade, reference_obtainable_pairs, monkeypatch)

    def test_marker_pair_is_actually_obtainable(self):
        """The check must not pass vacuously (False == False): the
        marker pair is genuinely obtainable under the nested encoding."""
        from repro.analysis.expressiveness import (
            _home_role,
            encode_as_nested_grant,
        )
        from repro.analysis.reachability import obtainable_pairs
        from repro.core.commands import Mode
        from repro.core.privileges import perm

        cascade = make_cascade(1)
        marker = perm("use", cascade.target_role.name)
        base = cascade_policy(cascade)
        base.assign_privilege(cascade.target_role, marker)
        nested = encode_as_nested_grant(
            base, cascade, _home_role(cascade.delegators[0])
        )
        pairs = obtainable_pairs(nested, cascade.depth + 1, Mode.STRICT)
        assert (cascade.final_recipient, marker) in pairs
