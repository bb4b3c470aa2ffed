"""Unit tests for Policy (Definitions 1 and 3)."""

import gc
import weakref

import pytest

from repro.core.authz_index import AuthorizationIndex, ReviewSnapshot
from repro.core.commands import grant_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy, check_edge_sorts, minus_edge, union_with_edge
from repro.core.privileges import Grant, perm
from repro.errors import PolicyError

U, V = User("u"), User("v")
R, S, T = Role("r"), Role("s"), Role("t")
P = perm("read", "doc")


class TestConstruction:
    def test_empty(self):
        policy = Policy()
        assert list(policy.users()) == []
        assert list(policy.roles()) == []

    def test_from_components(self):
        policy = Policy(ua=[(U, R)], rh=[(R, S)], pa=[(S, P)])
        assert policy.has_edge(U, R)
        assert policy.has_edge(R, S)
        assert policy.has_edge(S, P)

    def test_sort_validation_ua(self):
        with pytest.raises(PolicyError):
            Policy(ua=[(R, S)])  # role in user position

    def test_sort_validation_rh(self):
        with pytest.raises(PolicyError):
            Policy(rh=[(U, R)])

    def test_sort_validation_pa(self):
        with pytest.raises(PolicyError):
            Policy(pa=[(U, P)])

    def test_add_user_and_role_isolated(self):
        policy = Policy()
        policy.add_user(U)
        policy.add_role(R)
        assert U in policy.vertex_set()
        assert R in policy.vertex_set()

    def test_add_user_rejects_role(self):
        policy = Policy()
        with pytest.raises(PolicyError):
            policy.add_user(R)
        with pytest.raises(PolicyError):
            policy.add_role(U)


class TestEdgeSorts:
    def test_classification(self):
        assert check_edge_sorts(U, R) == "ua"
        assert check_edge_sorts(R, S) == "rh"
        assert check_edge_sorts(R, P) == "pa"
        assert check_edge_sorts(R, Grant(U, R)) == "pa"

    def test_rejects_user_user(self):
        with pytest.raises(PolicyError):
            check_edge_sorts(U, V)

    def test_rejects_privilege_source(self):
        with pytest.raises(PolicyError):
            check_edge_sorts(P, R)

    def test_rejects_user_privilege_edge(self):
        with pytest.raises(PolicyError):
            check_edge_sorts(U, P)


class TestReachability:
    def test_reflexive(self):
        policy = Policy()
        assert policy.reaches(U, U)

    def test_user_role_privilege_path(self):
        policy = Policy(ua=[(U, R)], rh=[(R, S)], pa=[(S, P)])
        assert policy.reaches(U, P)
        assert policy.reaches(R, P)
        assert not policy.reaches(S, R)

    def test_cycles_allowed_in_rh(self):
        # Footnote 3: RH is not assumed to be a partial order.
        policy = Policy(rh=[(R, S), (S, R)], pa=[(S, P)])
        assert policy.reaches(R, P)
        assert policy.reaches(S, R)

    def test_authorized_roles(self):
        policy = Policy(ua=[(U, R)], rh=[(R, S)])
        assert policy.authorized_roles(U) == {R, S}

    def test_authorized_privileges(self):
        policy = Policy(ua=[(U, R)], rh=[(R, S)], pa=[(S, P)])
        assert policy.authorized_privileges(U) == {P}

    def test_reachable_admin_privileges(self):
        g = Grant(U, R)
        policy = Policy(ua=[(U, R)], pa=[(R, g)])
        assert policy.reachable_admin_privileges(U) == {g}

    def test_cache_tracks_mutation(self):
        policy = Policy(ua=[(U, R)])
        assert not policy.reaches(U, S)
        policy.add_inheritance(R, S)
        assert policy.reaches(U, S)
        policy.remove_edge(R, S)
        assert not policy.reaches(U, S)


class TestViews:
    def test_edge_views(self):
        g = Grant(U, R)
        policy = Policy(ua=[(U, R)], rh=[(R, S)], pa=[(S, P), (S, g)])
        assert set(policy.ua_edges()) == {(U, R)}
        assert set(policy.rh_edges()) == {(R, S)}
        assert set(policy.pa_edges()) == {(S, P), (S, g)}
        assert set(policy.admin_privileges_assigned()) == {(S, g)}

    def test_is_non_administrative(self):
        assert Policy(pa=[(R, P)]).is_non_administrative()
        assert not Policy(pa=[(R, Grant(U, R))]).is_non_administrative()

    def test_privilege_iterators(self):
        g = Grant(U, R)
        policy = Policy(pa=[(R, P), (R, g)])
        assert set(policy.user_privileges()) == {P}
        assert set(policy.admin_privileges()) == {g}
        assert set(policy.privileges()) == {P, g}


class TestDerivedStructure:
    def test_longest_role_chain(self):
        policy = Policy(rh=[(R, S), (S, T)])
        assert policy.longest_role_chain() == 2

    def test_longest_role_chain_ignores_ua_pa(self):
        policy = Policy(ua=[(U, R)], pa=[(R, P)])
        assert policy.longest_role_chain() == 0

    def test_subterm_closure(self):
        inner = Grant(U, R)
        outer = Grant(S, inner)
        policy = Policy(pa=[(R, outer), (R, P)])
        assert policy.subterm_closure() == {outer, inner, P}

    def test_subterm_closure_with_user_privilege_leaf(self):
        term = Grant(R, P)
        policy = Policy(pa=[(S, term)])
        assert policy.subterm_closure() == {term, P}


class TestDeprovisionRole:
    def test_remove_role_drops_vertex_and_edges(self):
        policy = Policy(ua=[(U, R)], rh=[(R, S)], pa=[(S, P)])
        assert policy.remove_role(R)
        assert R not in policy.graph
        assert (U, R) not in policy.edge_set()
        assert (R, S) not in policy.edge_set()
        # S keeps its assignment: only R's own edges go.
        assert (S, P) in policy.edge_set()

    def test_remove_role_garbage_collects_sole_privileges(self):
        g = Grant(U, S)
        policy = Policy(ua=[(U, R)], pa=[(R, g), (R, P), (S, P)])
        assert policy.remove_role(R)
        # g was assigned only by R: gone with it.  P survives via S.
        assert g not in policy.graph
        assert P in policy.graph

    def test_remove_role_unknown_returns_false(self):
        assert Policy().remove_role(R) is False

    def test_remove_role_rejects_non_role(self):
        with pytest.raises(PolicyError, match="not a role"):
            Policy().remove_role(U)


class TestValueSemantics:
    def test_copy_independent(self):
        policy = Policy(ua=[(U, R)])
        clone = policy.copy()
        clone.add_inheritance(R, S)
        assert not policy.has_edge(R, S)
        assert clone == clone.copy()

    @staticmethod
    def _churned():
        """A policy whose interner has a free-list: revoking ``(S, P)``
        garbage-collects the privilege vertex."""
        policy = Policy(ua=[(U, R), (V, S)], rh=[(R, S)], pa=[(S, P)])
        policy.remove_edge(S, P)
        assert P not in policy.graph
        return policy

    @staticmethod
    def _layout(policy):
        graph = policy.graph
        return (
            dict(graph._vid), list(graph._vertex_of),
            list(graph._free_vids), list(graph._succ_bits),
            list(graph._pred_bits),
        )

    def test_copy_keeps_layout_version_and_masks(self):
        policy = self._churned()
        bits = policy.bits
        clone = policy.copy()
        assert policy.graph._free_vids
        assert self._layout(clone) == self._layout(policy)
        assert clone.version == policy.version
        assert clone.graph.changes_since(policy.version - 1) is None
        assert clone.graph.changes_since(clone.version) == ()
        # Same layout, so the clone's sort masks are the same ints.
        assert clone.bits.privileges_mask == bits.privileges_mask
        assert clone.bits.users_mask == bits.users_mask

    @pytest.mark.parametrize("side", ["source", "clone"])
    def test_copy_mutations_stay_on_their_side(self, side):
        policy = self._churned()
        clone = policy.copy()
        mutated, untouched = (
            (policy, clone) if side == "source" else (clone, policy)
        )
        before = (
            untouched.edge_set(), untouched.vertex_set(), untouched.version,
            self._layout(untouched), untouched.bits.privileges_mask,
            untouched.descendants(U),
        )
        freed = list(mutated.graph._free_vids)
        # Re-granting recycles the collected privilege's ID; deleting
        # a user frees another.
        mutated.assign_privilege(R, Grant(V, R))
        assert mutated.graph.vid(Grant(V, R)) in freed
        mutated.remove_user(V)
        mutated.remove_edge(U, R)
        assert (
            untouched.edge_set(), untouched.vertex_set(), untouched.version,
            self._layout(untouched), untouched.bits.privileges_mask,
            untouched.descendants(U),
        ) == before
        assert mutated.bits.privileges_mask != before[4]

    def test_copy_does_not_share_journal_cursors(self):
        policy = self._churned()
        cursor = policy.journal_cursor()
        clone = policy.copy()
        clone.add_role(T)
        assert not cursor.pending
        clone_cursor = clone.journal_cursor()
        policy.add_role(T)
        assert cursor.pending
        assert not clone_cursor.pending

    def test_equality(self):
        one = Policy(ua=[(U, R)])
        two = Policy(ua=[(U, R)])
        assert one == two
        two.add_role(S)
        assert one != two  # vertex sets differ

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Policy())

    def test_union_and_minus_edge(self):
        policy = Policy(ua=[(U, R)])
        bigger = union_with_edge(policy, (R, S))
        assert bigger.has_edge(R, S) and not policy.has_edge(R, S)
        smaller = minus_edge(bigger, (U, R))
        assert not smaller.has_edge(U, R) and bigger.has_edge(U, R)

    def test_repr(self):
        policy = Policy(ua=[(U, R)], pa=[(R, P)])
        text = repr(policy)
        assert "users=1" in text and "roles=1" in text


def _delegating_policy() -> Policy:
    """U holds ¤(V, T) through R: one rectangle-bearing grant."""
    return Policy(
        ua=[(U, R), (V, S)], rh=[(R, S)], pa=[(S, P), (R, Grant(V, T))]
    )


class TestCopyForksTheIndex:
    """``Policy.copy()`` hands a built index over as a lazy fork: the
    clone's first ``index`` read forks the source's index (no build,
    every table shared) unless either policy moved since the copy."""

    def test_first_read_forks(self):
        policy = _delegating_policy()
        index = policy.index
        clone = policy.copy()
        assert clone._index is None
        assert clone.index.full_rebuilds == 0
        assert clone.index._rect_memo is index._rect_memo
        command = grant_cmd(U, V, T)
        assert clone.index.authorizes(U, command) == Grant(V, T)

    @pytest.mark.parametrize("moved", ["source", "clone"])
    def test_a_moved_side_builds(self, moved):
        policy = _delegating_policy()
        index = policy.index
        clone = policy.copy()
        (policy if moved == "source" else clone).assign_user(V, R)
        assert clone.index.full_rebuilds == 1
        assert clone.index._rect_memo is not index._rect_memo
        assert clone.index.held_privileges(V) == (
            AuthorizationIndex(clone).held_privileges(V)
        )

    def test_an_unbuilt_source_hands_nothing_over(self):
        policy = _delegating_policy()
        clone = policy.copy()
        assert clone._index_source is None
        assert clone.index.full_rebuilds == 1
        assert policy._index is None


@pytest.fixture
def gc_off():
    """Leave freeing to reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestFreedByRefcount:
    """A policy and its index form no reference cycle — the index
    refers back weakly — so with the cyclic collector off, dropping the
    owner frees the index at once: a weak reference to the index's
    journal cursor dies with it."""

    def test_dropping_a_policy_frees_its_index(self, gc_off):
        policy = _delegating_policy()
        cursor = weakref.ref(policy.index._cursor)
        del policy
        assert cursor() is None

    def test_dropping_a_snapshot_frees_its_fork(self, gc_off):
        policy = _delegating_policy()
        index = policy.index
        snapshot = ReviewSnapshot(policy)
        assert snapshot._index._rect_memo is index._rect_memo  # a fork
        cursor = weakref.ref(snapshot._index._cursor)
        del snapshot
        assert cursor() is None
        assert index.authorizes(U, grant_cmd(U, V, T)) == Grant(V, T)

    def test_a_copy_does_not_keep_its_source_alive(self, gc_off):
        policy = _delegating_policy()
        cursor = weakref.ref(policy.index._cursor)
        clone = policy.copy()
        del policy
        assert cursor() is None
        assert clone.index.full_rebuilds == 1  # nothing left to fork

    def test_free_standing_index_keeps_its_policy(self, gc_off):
        index = AuthorizationIndex(_delegating_policy())
        assert index.authorizes(U, grant_cmd(U, V, T)) == Grant(V, T)


class TestChurnSeam:
    """Policy-level view of the graph change journal."""

    def test_version_tracks_mutations(self):
        policy = Policy()
        u, r = User("u"), Role("r")
        before = policy.version
        policy.add_user(u)
        policy.add_role(r)
        policy.assign_user(u, r)
        assert policy.version > before
        unchanged = policy.version
        policy.assign_user(u, r)  # no-op
        assert policy.version == unchanged

    def test_changes_since_exposes_edge_deltas(self):
        policy = Policy()
        u, r = User("u"), Role("r")
        policy.add_user(u)
        policy.add_role(r)
        before = policy.version
        policy.assign_user(u, r)
        (delta,) = policy.graph.changes_since(before)
        assert delta.kind == "add-edge"
        assert delta.source == u and delta.target == r

    def test_privilege_gc_appears_in_journal(self):
        u, r = User("u"), Role("r")
        privilege = Grant(u, r)
        policy = Policy(ua=[(u, r)], pa=[(r, privilege)])
        before = policy.version
        policy.remove_edge(r, privilege)
        kinds = [d.kind for d in policy.graph.changes_since(before)]
        assert kinds == ["remove-edge", "remove-vertex"]
