"""Unit tests for the compiled exploration engine and the state-identity
fix it carries (fingerprints cover the vertex set, in the engine and in
the reference explorers of :mod:`repro.oracle`)."""

import pytest

from repro.analysis.reachability import reachable_policies
from repro.analysis.safety import can_obtain
from repro.core.commands import (
    Mode,
    grant_cmd,
    revoke_cmd,
    step,
)
from repro.core.entities import Role, User
from repro.core.explore import ExplorationEngine
from repro.core.ordering import OrderingOracle
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.graph import StateFingerprint
from repro.oracle import reference_can_obtain, reference_reachable_policies
from repro.workloads.generators import PolicyShape, random_policy

U, ADMIN = User("u"), User("admin")
R, ADM = Role("r"), Role("adm")
P = perm("read", "doc")

#: the engine-backed explorer and its copy-per-probe reference twin,
#: under the ids of the boolean kernel switch they replace.
BOTH_EXPLORERS = pytest.mark.parametrize(
    "explore", [reachable_policies, reference_reachable_policies],
    ids=["True", "False"],
)


@pytest.fixture
def policy():
    # U is mentioned inside the admin terms but is *not* a vertex:
    # granting (U, R) introduces it, revoking leaves it isolated.
    return Policy(
        ua=[(ADMIN, ADM)],
        pa=[(R, P), (ADM, Grant(U, R)), (ADM, Revoke(U, R))],
    )


class TestStateFingerprint:
    def test_equal_states_equal_fingerprints(self, policy):
        # The engine's fingerprint is relative to its initial state:
        # two command orders reaching one state agree, and popping
        # back to the start returns to 0.  The revoke garbage-collects
        # P and the grant introduces U, so vertex atoms move too.
        grant = grant_cmd(ADMIN, U, R)
        revoke = revoke_cmd(ADMIN, R, P)
        engine = ExplorationEngine(policy, Mode.STRICT)
        assert engine.fingerprint == 0
        values = []
        for order in ((grant, revoke), (revoke, grant)):
            for command in order:
                engine.push(command)
                assert engine.fingerprint != 0
            values.append((engine.fingerprint, engine.snapshot()))
            engine.pop()
            engine.pop()
            assert engine.fingerprint == 0
        (first, first_state), (second, second_state) = values
        assert first_state == second_state
        assert first == second

    def test_toggle_roundtrip(self):
        fingerprint = StateFingerprint()
        fingerprint.toggle("x")
        value = fingerprint.value
        fingerprint.toggle("y")
        fingerprint.toggle("y")
        assert fingerprint.value == value
        fingerprint.toggle("x")
        assert fingerprint.value == 0

    def test_slots_are_stable(self):
        fingerprint = StateFingerprint()
        first = fingerprint.bit("atom")
        fingerprint.bit("other")
        assert fingerprint.bit("atom") == first
        assert fingerprint.atoms_interned == 2


class TestPushPopExactness:
    def test_pop_restores_state_and_ids(self, policy):
        engine = ExplorationEngine(policy, Mode.STRICT)
        graph = engine.policy.graph
        before_edges = engine.policy.edge_set()
        before_vertices = engine.policy.vertex_set()
        before_vids = dict(graph._vid)
        before_fingerprint = engine.fingerprint

        for command in engine.effective_commands():
            engine.push(command)
            engine.pop()
            assert engine.policy.edge_set() == before_edges
            assert engine.policy.vertex_set() == before_vertices
            assert dict(graph._vid) == before_vids
            assert engine.fingerprint == before_fingerprint

    def test_pop_restores_after_gc_roundtrip(self, policy):
        # Revoking the only assignment of a privilege garbage-collects
        # its vertex; pop must re-introduce it under its old ID.
        engine = ExplorationEngine(policy, Mode.STRICT)
        graph = engine.policy.graph
        old_vid = graph.vid(P)
        before_vids = dict(graph._vid)
        # ADMIN revokes (R, P)?  ADMIN holds Revoke(U, R) only, so push
        # the mutation directly through the undo log (push does not
        # re-authorize; that is effective_commands' job).
        engine.push(revoke_cmd(ADMIN, R, P))
        assert P not in graph
        engine.pop()
        assert graph.vid(P) == old_vid
        assert dict(graph._vid) == before_vids

    def test_goto_navigates_between_branches(self, policy):
        engine = ExplorationEngine(policy, Mode.STRICT)
        grant = grant_cmd(ADMIN, U, R)
        revoke = revoke_cmd(ADMIN, U, R)
        engine.goto((grant,))
        assert engine.policy.has_edge(U, R)
        fp_granted = engine.fingerprint
        engine.goto((grant, revoke))
        assert not engine.policy.has_edge(U, R)
        assert U in engine.policy.graph  # isolated vertex left behind
        engine.goto((grant,))
        assert engine.fingerprint == fp_granted
        engine.goto(())
        assert engine.depth == 0
        assert U not in engine.policy.graph

    def test_push_does_not_touch_input_policy(self, policy):
        version = policy.version
        engine = ExplorationEngine(policy, Mode.STRICT)
        for command in engine.effective_commands():
            engine.push(command)
        assert policy.version == version
        assert U not in policy.graph


class TestPrivilegesMask:
    def test_mirrors_policy_bits(self, policy):
        engine = ExplorationEngine(policy, Mode.STRICT)
        assert engine.privileges_mask == engine.policy.bits.privileges_mask

    def test_tracks_privilege_gc_across_push_pop(self, policy):
        # Granting (U, R) introduces no privilege, but the revoke that
        # follows garbage-collects nothing either — the mask only moves
        # when a privilege vertex appears or disappears.
        engine = ExplorationEngine(policy, Mode.STRICT)
        before = engine.privileges_mask
        (command,) = [
            c for c in engine.effective_commands()
            if c.action.name == "GRANT" and c.target == R
        ]
        engine.push(command)
        assert engine.privileges_mask == engine.policy.bits.privileges_mask
        engine.pop()
        assert engine.privileges_mask == before


class TestEffectiveCommands:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mode", [Mode.STRICT, Mode.REFINED])
    def test_matches_step_oracle(self, seed, mode):
        """The pruned candidate list equals the commands that the
        Definition-5 ``step`` both executes and applies a real change
        with, on the same state."""
        shape = PolicyShape(n_users=3, n_roles=4, n_admin_privileges=3)
        policy = random_policy(seed, shape)
        engine = ExplorationEngine(policy, mode)
        expected = []
        for command in engine.universe:
            probe = engine.policy.copy()
            record = step(probe, command, mode, OrderingOracle(probe))
            if record.executed and not record.noop:
                expected.append(command)
        assert engine.effective_commands() == expected

    def test_acting_users_restrict_universe(self, policy):
        engine = ExplorationEngine(policy, Mode.STRICT, acting_users=[U])
        assert all(command.user == U for command in engine.universe)
        assert engine.effective_commands() == []


class TestIsolatedVertexStateIdentity:
    """Regression for the latent state-identity bug: states that
    differ only in isolated vertices were collapsed by edge-set
    deduplication.  Both kernels must now keep them apart."""

    @BOTH_EXPLORERS
    def test_grant_revoke_roundtrip_is_new_state(self, policy, explore):
        states = explore(policy, depth=2)
        roundtrips = [
            state for state in states
            if state.policy.edge_set() == policy.edge_set()
            and state.policy.vertex_set() != policy.vertex_set()
        ]
        assert roundtrips, "grant+revoke round trip state was collapsed"
        assert all(U in s.policy.vertex_set() for s in roundtrips)

    @BOTH_EXPLORERS
    def test_both_kernels_agree_on_counts(self, policy, explore):
        reference = reference_reachable_policies(policy, depth=3)
        states = explore(policy, depth=3)
        assert len(states) == len(reference)

    def test_offgraph_role_self_edge_fingerprint(self):
        """A grant of the role self-edge (r, r) with r off-graph
        introduces exactly one vertex; the fingerprint must credit it
        once (a double toggle would cancel out and alias the state
        with its parent)."""
        ghost = Role("ghost")
        policy = Policy(
            ua=[(ADMIN, ADM)],
            pa=[(ADM, Grant(ghost, ghost))],
        )
        assert ghost not in policy.graph
        engine = ExplorationEngine(policy, Mode.STRICT)
        before = engine.fingerprint
        command = grant_cmd(ADMIN, ghost, ghost)
        assert command in engine.effective_commands()
        engine.push(command)
        assert engine.fingerprint != before
        assert ghost in engine.policy.graph
        engine.pop()
        assert engine.fingerprint == before
        assert ghost not in engine.policy.graph
        # And end to end: both kernels count the same states.
        fast = reachable_policies(policy, depth=2)
        oracle = reference_reachable_policies(policy, depth=2)
        assert len(fast) == len(oracle)
        assert {
            (s.policy.edge_set(), s.policy.vertex_set()) for s in fast
        } == {
            (s.policy.edge_set(), s.policy.vertex_set()) for s in oracle
        }


class TestWitnessMinimality:
    """BFS must return a *shortest* witness under undo-log exploration:
    property test against the frozenset oracle over seeded policies."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mode", [Mode.STRICT, Mode.REFINED])
    def test_witness_length_matches_oracle(self, seed, mode):
        shape = PolicyShape(n_users=3, n_roles=4, n_admin_privileges=3)
        policy = random_policy(seed, shape)
        users = sorted(policy.users(), key=str)
        privileges = sorted(policy.user_privileges(), key=str)
        for user in users[:2]:
            for privilege in privileges[:2]:
                fast = can_obtain(
                    policy, user, privilege, depth=2, mode=mode
                )
                oracle = reference_can_obtain(
                    policy, user, privilege, depth=2, mode=mode
                )
                assert fast.reachable == oracle.reachable
                assert fast.states_explored == oracle.states_explored
                if fast.reachable:
                    assert len(fast.witness) == len(oracle.witness)
                    # The witness must actually drive the policy there.
                    replay = policy.copy()
                    for command in fast.witness:
                        record = step(replay, command, mode)
                        assert record.executed
                    assert replay.reaches(user, privilege)

    def test_depth_zero_fast_path(self, policy):
        policy.assign_user(U, R)
        verdict = can_obtain(policy, U, P, depth=0)
        assert verdict.reachable
        assert verdict.witness == ()
        assert verdict.states_explored == 1
