"""Unit tests for :class:`repro.oracle.ReferenceIndex`, anchored to the
paper rather than to the index it verifies: on the paper's figures its
verdicts are the refined monitor's Lemma-1 decisions."""

import pytest

from repro.core.authz_index import GrantRectangle
from repro.core.commands import Mode, candidate_commands, grant_cmd
from repro.core.entities import Role, User
from repro.core.monitor import ReferenceMonitor
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.oracle import ReferenceIndex
from repro.papercases import figures

U, ADMIN = User("u"), User("admin")
HIGH, LOW, ADM = Role("high"), Role("low"), Role("adm")


@pytest.mark.parametrize("figure", [
    figures.figure1, figures.figure2, figures.figure3,
], ids=["figure1", "figure2", "figure3"])
def test_verdicts_equal_the_unindexed_refined_monitor(figure):
    policy = figure()
    reference = ReferenceIndex(policy)
    commands = candidate_commands(policy, Mode.REFINED)
    assert commands
    for command in commands:
        monitor = ReferenceMonitor(policy.copy(), mode=Mode.REFINED)
        record = monitor.submit(command)
        verdict = reference.authorizes(command.user, command)
        assert record.executed == (verdict is not None), command
        if verdict is not None:
            assert verdict in reference.held_privileges(command.user)


def test_example4_implicit_grant():
    """Example 4: Jane may assign Bob to dbusr2 only implicitly, through
    the stronger ¤(bob, staff) she holds."""
    policy = figures.figure2()
    reference = ReferenceIndex(policy)
    command = grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)
    verdict = reference.authorizes(figures.JANE, command)
    assert verdict is not None
    assert verdict != command.requested_privilege()


def test_rectangles_are_the_definitional_regions():
    policy = Policy(
        ua=[(ADMIN, ADM)],
        rh=[(HIGH, LOW)],
        pa=[(ADM, Grant(U, HIGH)), (ADM, Revoke(U, HIGH))],
    )
    policy.add_user(U)
    reference = ReferenceIndex(policy)
    assert reference.rectangles(ADMIN) == (
        GrantRectangle(Grant(U, HIGH), frozenset({U}),
                       frozenset({HIGH, LOW})),
    )
    assert reference.revocable_pairs(ADMIN) == frozenset({(U, HIGH)})
    assert reference.grantable_pairs(ADMIN) == frozenset(
        {(U, HIGH), (U, LOW)}
    )
    assert reference.held_privileges(User("ghost")) == frozenset()


def test_memo_follows_the_policy_version():
    policy = Policy(ua=[(ADMIN, ADM)], pa=[(ADM, Grant(U, HIGH))])
    policy.add_user(U)
    reference = ReferenceIndex(policy)
    command = grant_cmd(ADMIN, U, HIGH)
    assert reference.authorizes(ADMIN, command) == Grant(U, HIGH)
    policy.remove_edge(ADMIN, ADM)
    assert reference.authorizes(ADMIN, command) is None
    assert reference.held_privileges(ADMIN) == frozenset()
