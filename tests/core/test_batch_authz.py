"""Unit tests for batch authorization (``authorizes_batch`` /
``held_privileges_bulk``) on the authorization index.

The contract under test: batch verdicts are positionally aligned with
the input pairs and element-for-element identical to scalar
``authorizes`` — same covering privilege object, including the scalar
path's first-match rectangle order.  Each test runs on the bitset
index and on :class:`~repro.oracle.ReferenceIndex` (the frozenset
reference), so every pinned verdict is also the definitional one.  The
randomized campaigns live in ``repro.workloads.fuzz.fuzz_batch_authz``
(invariant 12); these tests pin each decision path deliberately.
"""

import pytest

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Command, CommandAction, grant_cmd, revoke_cmd
from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke
from repro.oracle import ReferenceIndex
from repro.workloads.churn import cover_table_problems

ADMIN, OTHER = User("admin"), User("other")
GHOST = User("ghost")
ADM = Role("adm")
R, S, T = Role("r"), Role("s"), Role("t")
U = User("u")

#: The ids name each implementation's representation: the bitset
#: index and the frozenset reference.
BOTH_INDEXES = pytest.mark.parametrize(
    "make_index", [AuthorizationIndex, ReferenceIndex],
    ids=["compiled", "frozenset"],
)


def build_policy() -> Policy:
    # ADM holds Grant(U, R) (a rectangle: ancestors(U) x descendants(R)),
    # an exact Revoke, and a nested grant target; R -> S gives the
    # rectangle depth.
    policy = Policy(
        ua=[(ADMIN, ADM)],
        rh=[(R, S)],
        pa=[
            (ADM, Grant(U, R)),
            (ADM, Revoke(U, R)),
            (ADM, Grant(ADM, Grant(U, S))),
        ],
    )
    policy.add_user(U)
    policy.add_user(OTHER)
    policy.add_role(T)
    return policy


def assert_batch_matches_scalar(index, pairs):
    batch = index.authorizes_batch(pairs)
    scalar = [index.authorizes(user, command) for user, command in pairs]
    assert batch == scalar
    return batch


class TestAuthorizesBatch:
    @BOTH_INDEXES
    def test_all_decision_paths(self, make_index):
        policy = build_policy()
        index = make_index(policy)
        pairs = [
            (ADMIN, grant_cmd(ADMIN, U, R)),     # exact match
            (ADMIN, grant_cmd(ADMIN, U, S)),     # rectangle (implicit)
            (ADMIN, revoke_cmd(ADMIN, U, R)),    # exact revoke
            (ADMIN, revoke_cmd(ADMIN, U, S)),    # revoke: exact only -> None
            (ADMIN, grant_cmd(ADMIN, ADM, Grant(U, S))),  # nested, exact
            (ADMIN, grant_cmd(ADMIN, U, T)),     # uncovered -> None
            (OTHER, grant_cmd(OTHER, U, R)),     # holds nothing -> None
            (GHOST, grant_cmd(GHOST, U, R)),     # unknown subject -> None
        ]
        verdicts = assert_batch_matches_scalar(index, pairs)
        assert verdicts[0] == Grant(U, R)
        assert verdicts[1] == Grant(U, R)       # implicit via rectangle
        assert verdicts[2] == Revoke(U, R)
        assert verdicts[3] is None
        assert verdicts[4] == Grant(ADM, Grant(U, S))
        assert verdicts[5:] == [None, None, None]

    @BOTH_INDEXES
    def test_nested_target_falls_back_to_oracle(self, make_index):
        # Grant(ADM, Grant(U, S)) covers the weaker nested request
        # Grant(ADM, Grant(U, S))-descendant terms via the ordering;
        # the batch path must delegate exactly like the scalar one.
        policy = build_policy()
        index = make_index(policy)
        nested = Command(
            ADMIN, CommandAction.GRANT, ADM, Grant(U, S)
        )
        pairs = [(ADMIN, nested), (OTHER, nested), (ADMIN, nested)]
        assert_batch_matches_scalar(index, pairs)

    @BOTH_INDEXES
    def test_off_graph_endpoints_use_extras_path(self, make_index):
        # Deprovision U: ADM's Grant(U, R) rectangle keeps U as an
        # off-graph extra source; a batch query naming U must authorize
        # through the extras slow path, identically to scalar.
        policy = build_policy()
        policy.remove_user(U)
        index = make_index(policy)
        pairs = [
            (ADMIN, grant_cmd(ADMIN, U, R)),   # extras source hit
            (ADMIN, grant_cmd(ADMIN, U, S)),   # extras source, deeper
            (ADMIN, grant_cmd(ADMIN, OTHER, Role("nowhere"))),  # off-graph t
        ]
        verdicts = assert_batch_matches_scalar(index, pairs)
        assert verdicts[0] == Grant(U, R)
        assert verdicts[1] == Grant(U, R)
        assert verdicts[2] is None

    @BOTH_INDEXES
    def test_first_match_order_is_scalar_order(self, make_index):
        # Two rectangles both cover (U, S); the batch verdict must be
        # the same held privilege the scalar first-match scan returns.
        policy = Policy(
            ua=[(ADMIN, ADM)],
            rh=[(R, S)],
            pa=[(ADM, Grant(U, R)), (ADM, Grant(U, S))],
        )
        policy.add_user(U)
        index = make_index(policy)
        command = grant_cmd(ADMIN, U, S)
        [batch_verdict] = index.authorizes_batch([(ADMIN, command)])
        assert batch_verdict == index.authorizes(ADMIN, command)

    @BOTH_INDEXES
    def test_duplicates_and_equal_twins(self, make_index):
        policy = build_policy()
        index = make_index(policy)
        command = grant_cmd(ADMIN, U, S)
        twin = Command(
            User("admin"), CommandAction.GRANT, User("u"), Role("s")
        )
        pairs = [(ADMIN, command)] * 3 + [
            (User("admin"), twin), (ADMIN, twin),
        ]
        verdicts = assert_batch_matches_scalar(index, pairs)
        assert len(set(map(id, verdicts))) == 1  # one shared verdict

    @BOTH_INDEXES
    def test_ill_sorted_command_is_none(self, make_index):
        policy = build_policy()
        index = make_index(policy)
        bad = Command(ADMIN, CommandAction.GRANT, R, U)  # Role -> User
        assert bad.requested_privilege() is None
        assert index.authorizes_batch([(ADMIN, bad)]) == [None]

    @BOTH_INDEXES
    def test_empty_batch_returns_without_validation(self, make_index):
        policy = build_policy()
        index = make_index(policy)
        policy.assign_user(OTHER, T)  # leave the index stale
        cursor_before = index._cursor.version if hasattr(
            index, "_cursor"
        ) else None
        assert index.authorizes_batch([]) == []
        if cursor_before is not None:
            assert index._cursor.version == cursor_before  # untouched

    @BOTH_INDEXES
    def test_batch_after_incremental_repair(self, make_index):
        policy = build_policy()
        index = make_index(policy)
        index.authorizes(ADMIN, grant_cmd(ADMIN, U, R))  # warm
        policy.assign_user(OTHER, ADM)  # OTHER becomes an admin
        pairs = [
            (OTHER, grant_cmd(OTHER, U, R)),
            (OTHER, grant_cmd(OTHER, U, S)),
            (ADMIN, grant_cmd(ADMIN, U, S)),
        ]
        verdicts = assert_batch_matches_scalar(index, pairs)
        assert verdicts[0] == Grant(U, R)

    def test_recycled_grant_id_leaves_no_stale_cover_bit(self):
        # Within one burst a grant is removed (privilege GC frees its
        # vertex ID) and a new grant takes that ID.  Eviction must clear
        # the old rectangle's cover bits at the ID it was memoized
        # under: a stale bit at U's source entry would make the new
        # grant, whose rectangle covers S as a target, authorize (U, S).
        policy = build_policy()
        index = AuthorizationIndex(policy)
        recycled = policy.graph.vid(Grant(U, R))
        policy.remove_edge(ADM, Grant(U, R))
        policy.assign_privilege(ADM, Grant(ADMIN, S))
        assert policy.graph.vid(Grant(ADMIN, S)) == recycled
        pairs = [
            (ADMIN, grant_cmd(ADMIN, U, S)),      # old rectangle: gone
            (ADMIN, grant_cmd(ADMIN, ADMIN, S)),  # new rectangle
        ]
        assert assert_batch_matches_scalar(index, pairs) == [
            None, Grant(ADMIN, S),
        ]
        assert not index._source_cover.get(policy.graph.vid(U), 0) & (
            1 << recycled
        )
        assert cover_table_problems(index, AuthorizationIndex(policy)) == []

    def test_grant_readded_under_a_new_id_moves_its_cover_bits(self):
        # Within one burst a held grant is removed, its freed ID goes to
        # a new role, and the grant comes back under another ID.  The
        # eviction must clear the bits at the ID the rectangle was
        # memoized under, not at the grant's current ID.
        policy = build_policy()
        index = AuthorizationIndex(policy)
        old_id = policy.graph.vid(Grant(U, R))
        policy.remove_edge(ADM, Grant(U, R))
        policy.add_role(Role("filler"))
        assert policy.graph.vid(Role("filler")) == old_id
        policy.assign_privilege(ADM, Grant(U, R))
        new_id = policy.graph.vid(Grant(U, R))
        assert new_id != old_id
        pairs = [
            (ADMIN, grant_cmd(ADMIN, U, S)),
            (ADMIN, grant_cmd(ADMIN, U, T)),
        ]
        assert assert_batch_matches_scalar(index, pairs) == [
            Grant(U, R), None,
        ]
        assert index._rect_pid[Grant(U, R)] == new_id
        assert cover_table_problems(index, AuthorizationIndex(policy)) == []

    def test_generator_input_accepted(self):
        policy = build_policy()
        index = AuthorizationIndex(policy)
        verdicts = index.authorizes_batch(
            (ADMIN, grant_cmd(ADMIN, U, R)) for _ in range(3)
        )
        assert verdicts == [Grant(U, R)] * 3


class TestHeldPrivilegesBulk:
    @BOTH_INDEXES
    def test_equals_per_user(self, make_index):
        policy = build_policy()
        index = make_index(policy)
        population = [ADMIN, OTHER, U, GHOST, ADMIN]  # duplicate + ghost
        bulk = index.held_privileges_bulk(population)
        assert bulk == {
            user: index.held_privileges(user) for user in population
        }
        assert bulk[GHOST] == frozenset()
        assert Grant(U, R) in bulk[ADMIN]

    @BOTH_INDEXES
    def test_shared_masks_share_decodes(self, make_index):
        # Two admins with identical authority: the index's bulk decode
        # is memoized per distinct held mask, so both entries are the
        # same frozenset object.
        policy = build_policy()
        policy.assign_user(OTHER, ADM)
        index = make_index(policy)
        bulk = index.held_privileges_bulk([ADMIN, OTHER])
        assert bulk[ADMIN] == bulk[OTHER]
        if make_index is AuthorizationIndex:
            assert bulk[ADMIN] is bulk[OTHER]

    @BOTH_INDEXES
    def test_empty_population(self, make_index):
        index = make_index(build_policy())
        assert index.held_privileges_bulk([]) == {}
        assert index.held_privileges_bulk(iter(())) == {}
