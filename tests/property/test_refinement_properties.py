"""Property-based tests for non-administrative refinement (Def. 6)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import perm
from repro.core.refinement import (
    RefinementWitness,
    granted_pairs,
    is_refinement,
    refinement_counterexample,
    without_edge,
)
from repro.core.serialization import policy_from_json, policy_to_json

from .strategies import USERS, policies, roles, user_privileges

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(policy=policies())
def test_reflexive(policy):
    assert is_refinement(policy, policy)


@SETTINGS
@given(policy=policies(), data=st.data())
def test_edge_removal_always_refines(policy, data):
    edges = sorted(policy.edge_set(), key=str)
    if not edges:
        return
    edge = data.draw(st.sampled_from(edges))
    smaller = without_edge(policy, *edge)
    assert is_refinement(policy, smaller)


@SETTINGS
@given(policy=policies(), data=st.data())
def test_refinement_iff_granted_pairs_subset(policy, data):
    edges = sorted(policy.edge_set(), key=str)
    if not edges:
        return
    edge = data.draw(st.sampled_from(edges))
    other = without_edge(policy, *edge)
    for phi, psi in [(policy, other), (other, policy)]:
        assert is_refinement(phi, psi) == (
            granted_pairs(psi) <= granted_pairs(phi)
        )


@SETTINGS
@given(a=policies(), b=policies())
def test_witness_is_genuine(a, b):
    witness = refinement_counterexample(a, b)
    if witness is None:
        assert granted_pairs(b) <= granted_pairs(a)
    else:
        assert b.reaches(witness.subject, witness.privilege)
        assert not a.reaches(witness.subject, witness.privilege)


@SETTINGS
@given(a=policies(), b=policies(), c=policies())
def test_transitive(a, b, c):
    if is_refinement(a, b) and is_refinement(b, c):
        assert is_refinement(a, c)


@SETTINGS
@given(a=policies(), b=policies())
def test_antisymmetry_up_to_granted_pairs(a, b):
    if is_refinement(a, b) and is_refinement(b, a):
        assert granted_pairs(a) == granted_pairs(b)


# ----------------------------------------------------------------------
# The edge-difference check returns exactly the least new pair
# ----------------------------------------------------------------------
EXTRA_USERS = [User("x0"), User("x1")]


def _least_new_pair(phi, psi):
    return min(
        (
            (str(privilege), str(subject))
            for subject, privilege in granted_pairs(psi) - granted_pairs(phi)
        ),
        default=None,
    )


def _assert_least_witness(phi, psi):
    witness = refinement_counterexample(phi, psi)
    expected = _least_new_pair(phi, psi)
    if witness is None:
        assert expected is None
        return
    pair = (witness.subject, witness.privilege)
    assert pair in granted_pairs(psi) - granted_pairs(phi)
    assert (str(witness.privilege), str(witness.subject)) == expected


_edit = st.one_of(
    st.tuples(st.just("remove-edge"), st.integers(0, 63)),
    st.tuples(st.just("assign-user"), st.sampled_from(USERS + EXTRA_USERS),
              roles),
    st.tuples(st.just("inherit"), roles, roles),
    st.tuples(st.just("assign-privilege"), roles, user_privileges),
    st.tuples(st.just("remove-user"), st.sampled_from(USERS + EXTRA_USERS)),
    st.tuples(st.just("remove-role"), roles),
)


def _apply_edits(policy, edits):
    for kind, *args in edits:
        if kind == "remove-edge":
            edges = sorted(policy.edge_set(), key=str)
            if edges:
                policy.remove_edge(*edges[args[0] % len(edges)])
        elif kind == "assign-user":
            policy.assign_user(*args)
        elif kind == "inherit":
            policy.add_inheritance(*args)
        elif kind == "assign-privilege":
            policy.assign_privilege(*args)
        elif kind == "remove-user":
            policy.remove_user(args[0])
        else:
            policy.remove_role(args[0])
    return policy


@SETTINGS
@given(policy=policies(), edits=st.lists(_edit, min_size=1, max_size=6))
def test_least_witness_on_an_edited_copy(policy, edits):
    # The copy shares every adjacency set it was not edited in.
    edited = _apply_edits(policy.copy(), edits)
    _assert_least_witness(policy, edited)
    _assert_least_witness(edited, policy)


@SETTINGS
@given(policy=policies(), edits=st.lists(_edit, min_size=0, max_size=6))
def test_least_witness_on_an_independent_load(policy, edits):
    # Reloaded from JSON: no adjacency is shared, and the edits make
    # the interner layouts differ.
    loaded = policy_from_json(policy_to_json(_apply_edits(policy.copy(), edits)))
    _assert_least_witness(policy, loaded)
    _assert_least_witness(loaded, policy)


def test_least_witness_after_a_recycled_privilege_id():
    u0, u1, u2 = (User(f"u{i}") for i in range(3))
    r0, r1 = Role("r0"), Role("r1")
    read, write = perm("read", "a"), perm("write", "c")
    phi = Policy(ua=[(u0, r0), (u1, r1), (u2, r1)],
                 pa=[(r0, read), (r1, write)])
    psi = phi.copy()
    psi.remove_edge(r0, read)  # sole assignment: read is collected
    assert read not in psi.graph
    newcomer = User("newcomer")
    psi.add_user(newcomer)  # takes read's old ID off the free-list
    assert psi.graph.vid(newcomer) == phi.graph.vid(read)
    psi.assign_privilege(r1, read)  # re-granted under a fresh ID
    assert psi.graph.vid(read) != phi.graph.vid(read)
    witness = refinement_counterexample(phi, psi)
    assert (witness.privilege, witness.subject) == (read, r1)
    _assert_least_witness(phi, psi)
    _assert_least_witness(psi, phi)


def test_least_witness_over_vertices_in_one_policy_only():
    u0, stranger = User("u0"), User("stranger")
    r0, r1 = Role("r0"), Role("r1")
    read = perm("read", "a")
    phi = Policy(ua=[(u0, r0)], pa=[(r0, read), (r1, read)])
    psi = phi.copy()
    psi.remove_user(u0)  # u0 is a vertex of phi only
    psi.assign_user(stranger, r1)  # stranger is a vertex of psi only
    witness = refinement_counterexample(phi, psi)
    assert (witness.subject, witness.privilege) == (stranger, read)
    assert refinement_counterexample(psi, phi) == RefinementWitness(u0, read)
    _assert_least_witness(phi, psi)
    _assert_least_witness(psi, phi)
