"""Unit tests for the privilege ordering (Definition 8, Lemma 1)."""

import random

import pytest

from repro.core.entities import Role, User
from repro.core.ordering import (
    OrderingOracle,
    explain_weaker,
    implicitly_authorized,
    is_weaker,
)
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.papercases import figures

U, V = User("u"), User("v")
HIGH, MID, LOW, OTHER = Role("high"), Role("mid"), Role("low"), Role("other")
P = perm("read", "doc")


@pytest.fixture
def chain():
    """high -> mid -> low, with `other` disconnected; u is in high."""
    return Policy(
        ua=[(U, HIGH)],
        rh=[(HIGH, MID), (MID, LOW)],
        pa=[(LOW, P)],
    )


class TestReflexivity:
    def test_user_privilege(self, chain):
        assert is_weaker(chain, P, P)

    def test_grant(self, chain):
        g = Grant(U, MID)
        assert is_weaker(chain, g, g)

    def test_revoke(self, chain):
        r = Revoke(U, MID)
        assert is_weaker(chain, r, r)

    def test_nested(self, chain):
        g = Grant(HIGH, Grant(U, MID))
        assert is_weaker(chain, g, g)


class TestBaseCases:
    """Lemma 1's base cases: user privileges and revocations are
    ordered only by reflexivity."""

    def test_distinct_user_privileges_unrelated(self, chain):
        assert not is_weaker(chain, P, perm("read", "other"))
        assert not is_weaker(chain, perm("read", "other"), P)

    def test_user_privilege_vs_grant_unrelated(self, chain):
        assert not is_weaker(chain, P, Grant(U, LOW))
        assert not is_weaker(chain, Grant(U, LOW), P)

    def test_distinct_revokes_unrelated(self, chain):
        assert not is_weaker(chain, Revoke(U, HIGH), Revoke(U, LOW))
        assert not is_weaker(chain, Revoke(U, LOW), Revoke(U, HIGH))

    def test_grant_revoke_cross_unrelated(self, chain):
        assert not is_weaker(chain, Grant(U, HIGH), Revoke(U, HIGH))
        assert not is_weaker(chain, Revoke(U, HIGH), Grant(U, HIGH))


class TestRule2:
    def test_lower_target_is_weaker(self, chain):
        assert is_weaker(chain, Grant(U, HIGH), Grant(U, MID))
        assert is_weaker(chain, Grant(U, HIGH), Grant(U, LOW))

    def test_higher_target_is_not_weaker(self, chain):
        assert not is_weaker(chain, Grant(U, LOW), Grant(U, HIGH))

    def test_disconnected_target_unrelated(self, chain):
        assert not is_weaker(chain, Grant(U, HIGH), Grant(U, OTHER))

    def test_source_weakening(self, chain):
        # Granting to someone who already reaches the original grantee.
        # HIGH reaches MID, so grant(HIGH, x) ~> grant(... wait:
        # rule 2 premise is v1 -> v2 on the *sources*: the weaker
        # privilege's source must reach the stronger's source.
        assert is_weaker(chain, Grant(MID, LOW), Grant(HIGH, LOW))
        assert not is_weaker(chain, Grant(HIGH, LOW), Grant(MID, LOW))

    def test_role_role_grant(self, chain):
        assert is_weaker(chain, Grant(HIGH, MID), Grant(HIGH, LOW))

    def test_user_source_reflexive_path(self, chain):
        # Example 5's pattern: same user source, lower role target —
        # u ->phi u holds with no self edge present.
        assert is_weaker(chain, Grant(V, HIGH), Grant(V, MID))


class TestRule3:
    def test_nested_target_weakening(self, chain):
        stronger = Grant(HIGH, Grant(U, HIGH))
        weaker = Grant(HIGH, Grant(U, LOW))
        assert is_weaker(chain, stronger, weaker)

    def test_nested_source_weakening(self, chain):
        stronger = Grant(MID, Grant(U, LOW))
        weaker = Grant(HIGH, Grant(U, LOW))  # HIGH reaches MID
        assert is_weaker(chain, stronger, weaker)
        assert not is_weaker(chain, weaker, stronger)

    def test_nested_user_privilege_target(self, chain):
        stronger = Grant(MID, P)
        weaker = Grant(HIGH, P)
        assert is_weaker(chain, stronger, weaker)

    def test_nested_user_privilege_must_match(self, chain):
        stronger = Grant(MID, P)
        weaker = Grant(HIGH, perm("read", "other"))
        assert not is_weaker(chain, stronger, weaker)

    def test_mixed_entity_vs_privilege_targets(self, chain):
        # p has privilege target, q has entity target: only rule 1.
        assert not is_weaker(chain, Grant(HIGH, Grant(U, LOW)), Grant(HIGH, LOW))

    def test_double_nesting(self, chain):
        stronger = Grant(HIGH, Grant(HIGH, Grant(U, HIGH)))
        weaker = Grant(HIGH, Grant(HIGH, Grant(U, LOW)))
        assert is_weaker(chain, stronger, weaker)

    def test_revoke_inside_grant_needs_equality(self, chain):
        stronger = Grant(HIGH, Revoke(U, HIGH))
        assert is_weaker(chain, stronger, Grant(HIGH, Revoke(U, HIGH)))
        assert not is_weaker(chain, stronger, Grant(HIGH, Revoke(U, LOW)))


class TestGeneralizedRule2:
    """Example 6's reading: the weaker grant's target may be a
    privilege vertex reachable in the policy graph."""

    def test_hop_through_assigned_privilege(self):
        r1, r2 = Role("r1"), Role("r2")
        seed = Grant(r1, r2)
        policy = Policy(pa=[(r2, seed)])
        policy.add_role(r1)
        assert is_weaker(policy, seed, Grant(r1, seed))

    def test_transitive_chain(self):
        r1, r2 = Role("r1"), Role("r2")
        seed = Grant(r1, r2)
        policy = Policy(pa=[(r2, seed)])
        policy.add_role(r1)
        term = seed
        for _ in range(4):
            term = Grant(r1, term)
            assert is_weaker(policy, seed, term)

    def test_strict_rules_reject_example6(self):
        r1, r2 = Role("r1"), Role("r2")
        seed = Grant(r1, r2)
        policy = Policy(pa=[(r2, seed)])
        policy.add_role(r1)
        assert not is_weaker(policy, seed, Grant(r1, seed), strict_rules=True)

    def test_strict_rules_agree_on_entity_targets(self, chain):
        for stronger, weaker in [
            (Grant(U, HIGH), Grant(U, LOW)),
            (Grant(MID, LOW), Grant(HIGH, LOW)),
            (Grant(HIGH, Grant(U, HIGH)), Grant(HIGH, Grant(U, LOW))),
        ]:
            assert is_weaker(chain, stronger, weaker) == is_weaker(
                chain, stronger, weaker, strict_rules=True
            )

    def test_unreachable_privilege_vertex_not_weaker(self):
        r1, r2 = Role("r1"), Role("r2")
        seed = Grant(r1, r2)
        policy = Policy()
        policy.add_role(r1)
        policy.add_role(r2)
        policy.assign_privilege(r1, seed)  # hangs off r1, NOT below r2
        assert not is_weaker(policy, seed, Grant(r1, seed))


class TestExample5:
    def test_simple(self, fig2):
        assert is_weaker(
            fig2, Grant(figures.BOB, figures.STAFF),
            Grant(figures.BOB, figures.DBUSR2),
        )

    def test_nested(self, fig2):
        assert is_weaker(
            fig2,
            Grant(figures.STAFF, Grant(figures.BOB, figures.STAFF)),
            Grant(figures.STAFF, Grant(figures.BOB, figures.DBUSR2)),
        )

    def test_negative_after_edge_removal(self, fig2):
        fig2.remove_edge(figures.STAFF, figures.DBUSR2)
        assert not is_weaker(
            fig2,
            Grant(figures.STAFF, Grant(figures.BOB, figures.STAFF)),
            Grant(figures.STAFF, Grant(figures.BOB, figures.DBUSR2)),
        )


class TestOracle:
    def test_memoization_hits(self, chain):
        oracle = OrderingOracle(chain)
        stronger = Grant(HIGH, Grant(U, HIGH))
        weaker = Grant(HIGH, Grant(U, LOW))
        assert oracle.is_weaker(stronger, weaker)
        before = oracle.stats.memo_hits
        assert oracle.is_weaker(stronger, weaker)
        assert oracle.stats.memo_hits > before

    def test_memo_invalidated_on_policy_change(self, chain):
        oracle = OrderingOracle(chain)
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        chain.remove_edge(MID, LOW)
        chain.remove_edge(HIGH, MID)
        assert not oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))

    def test_query_counter(self, chain):
        oracle = OrderingOracle(chain)
        oracle.is_weaker(P, P)
        oracle.is_weaker(P, P)
        assert oracle.stats.queries == 2


class TestChurnAwareMemoEviction:
    """Version bumps no longer clear the memo wholesale: only entries
    whose vertices fall in the journaled dirty region are evicted."""

    def test_unrelated_churn_preserves_entries(self, chain):
        chain.add_role(OTHER)
        oracle = OrderingOracle(chain)
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        entries = len(oracle._memo)
        assert entries > 0
        # UA churn in a disconnected corner: footprints are untouched.
        chain.assign_user(V, OTHER)
        before = oracle.stats.memo_hits
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        assert oracle.stats.memo_hits > before
        assert oracle.stats.memo_full_clears == 0
        assert oracle.stats.memo_evictions == 0
        assert len(oracle._memo) == entries

    def test_dirty_region_entries_evicted(self, chain):
        oracle = OrderingOracle(chain)
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        chain.remove_edge(MID, LOW)
        # The mutated edge's region covers LOW/HIGH: entry evicted,
        # and the re-derived answer reflects the new graph.
        assert not oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        assert oracle.stats.memo_evictions > 0
        assert oracle.stats.memo_full_clears == 0

    def test_oversized_burst_clears_wholesale(self, chain):
        oracle = OrderingOracle(chain)
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        for i in range(OrderingOracle.MEMO_DELTA_LIMIT + 2):
            chain.add_inheritance(Role(f"bulk{i}"), Role(f"bulk{i + 1}"))
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        assert oracle.stats.memo_full_clears == 1

    def test_vertex_only_churn_is_free(self, chain):
        oracle = OrderingOracle(chain)
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        entries = len(oracle._memo)
        for i in range(OrderingOracle.MEMO_DELTA_LIMIT + 5):
            chain.add_role(Role(f"isolated{i}"))
        assert oracle.is_weaker(Grant(U, HIGH), Grant(U, LOW))
        assert oracle.stats.memo_full_clears == 0
        assert len(oracle._memo) == entries

    def test_hop_entries_evicted_when_hierarchy_churns(self, chain):
        """A nested decision via the generalized rule-(2) hop depends
        on which privilege vertices the target reaches — hierarchy
        churn that moves a privilege vertex into a descendant set must
        invalidate it (the refined hop-safety test: a role upstream
        AND a privilege downstream)."""
        inner = Grant(U, MID)
        chain.assign_privilege(LOW, inner)
        oracle = OrderingOracle(chain)
        nested = Grant(HIGH, inner)
        assert oracle.is_weaker(Grant(HIGH, LOW), nested)  # hop via LOW
        chain.remove_edge(LOW, inner)
        assert not oracle.is_weaker(Grant(HIGH, LOW), nested)

    @pytest.mark.parametrize("seed", range(8))
    def test_surviving_entries_match_a_fresh_oracle(self, seed):
        """Seeded bursts of edge adds and removes, role→privilege edges
        and user removal plus re-add (interner-ID reuse): after each
        burst, every entry the eviction kept must equal a fresh
        oracle's decision.

        Each policy carries a hop ladder under random names:
        ``¤(x, a) Ã ¤(x, ¤(x, ¤(u, c)))`` holds once some role ``b``
        below ``¤(x, b)`` (assigned to ``a``) reaches ``¤(u, d)`` with
        ``d → c``.  A burst that assigns ``¤(u, d)`` to ``b`` leaves
        both terms' footprints clean — only the hop-unsafe branch
        evicts the stale False."""
        rng = random.Random(seed)
        users = [User(f"u{i}") for i in range(2)]
        roles = [Role(f"r{i}") for i in range(6)]
        a, b, c, d, x = rng.sample(roles, 5)
        u = rng.choice(users)
        ladder = [
            Grant(x, a), Grant(x, b), Grant(u, d),
            Grant(x, Grant(x, Grant(u, c))),
        ]
        policy = Policy(rh=[(d, c)], pa=[(a, Grant(x, b))])
        for user in users:
            policy.add_user(user)
        for role in roles:
            policy.add_role(role)
        for _ in range(4):
            policy.assign_user(rng.choice(users), rng.choice(roles))
        terms = sorted(
            {
                term
                for top in ladder + [Grant(rng.choice(roles), rng.choice(
                    ladder)) for _ in range(3)]
                for term in top.subterms()
                if isinstance(term, Grant)
            },
            key=str,
        )
        oracle = OrderingOracle(policy)

        def query():
            for stronger in terms:
                for weaker in terms:
                    oracle.is_weaker(stronger, weaker)

        rung = (b, Grant(u, d))
        skeleton = {(d, c), (a, Grant(x, b))}

        def mutate():
            draw = rng.random()
            if draw < 0.25:
                # Toggle the ladder's rung: moves ¤(u, d) into or out of
                # the hop set below b.
                if not policy.add_edge(*rung):
                    policy.remove_edge(*rung)
            elif draw < 0.4:
                policy.assign_privilege(rng.choice(roles), rng.choice(terms))
            elif draw < 0.6:
                edges = sorted(policy.edge_set() - skeleton, key=str)
                if edges:
                    policy.remove_edge(*rng.choice(edges))
            elif draw < 0.75:
                senior, junior = rng.sample(roles, 2)
                policy.add_inheritance(senior, junior)
            elif draw < 0.9:
                policy.assign_user(rng.choice(users), rng.choice(roles))
            else:
                victim = rng.choice(users)
                policy.remove_user(victim)
                policy.add_user(victim)
                policy.assign_user(victim, rng.choice(roles))

        query()
        for _ in range(40):
            for _ in range(rng.randint(1, 3)):
                mutate()
            oracle._validate_memo()
            fresh = OrderingOracle(policy)
            for (stronger, weaker), verdict in oracle._memo.items():
                assert verdict == fresh.is_weaker(stronger, weaker), (
                    stronger, weaker,
                )
            query()


class TestExplain:
    def test_explain_matches_decision(self, chain):
        cases = [
            (P, P, True),
            (Grant(U, HIGH), Grant(U, LOW), True),
            (Grant(U, LOW), Grant(U, HIGH), False),
            (Grant(HIGH, Grant(U, HIGH)), Grant(HIGH, Grant(U, LOW)), True),
        ]
        for stronger, weaker, expected in cases:
            derivation = explain_weaker(chain, stronger, weaker)
            assert (derivation is not None) == expected
            assert is_weaker(chain, stronger, weaker) == expected

    def test_derivation_rules(self, chain):
        assert explain_weaker(chain, P, P).rule == "reflexivity"
        assert explain_weaker(
            chain, Grant(U, HIGH), Grant(U, LOW)
        ).rule == "rule2"
        nested = explain_weaker(
            chain, Grant(HIGH, Grant(U, HIGH)), Grant(HIGH, Grant(U, LOW))
        )
        assert nested.rule == "rule3"
        assert nested.sub.rule == "rule2"

    def test_derivation_depth(self, chain):
        nested = explain_weaker(
            chain,
            Grant(HIGH, Grant(HIGH, Grant(U, HIGH))),
            Grant(HIGH, Grant(HIGH, Grant(U, LOW))),
        )
        assert nested.depth() == 3
        assert list(nested.rules_used()) == ["rule3", "rule3", "rule2"]

    def test_example6_derivation_uses_via(self):
        r1, r2 = Role("r1"), Role("r2")
        seed = Grant(r1, r2)
        policy = Policy(pa=[(r2, seed)])
        policy.add_role(r1)
        derivation = explain_weaker(policy, seed, Grant(r1, seed))
        assert derivation.rule == "rule2+transitivity"
        assert derivation.via == seed

    def test_format_contains_premises(self, chain):
        text = explain_weaker(chain, Grant(U, HIGH), Grant(U, LOW)).format()
        assert "premise" in text and "rule2" in text


class TestImplicitAuthorization:
    def test_exact_match_preferred(self, chain):
        g = Grant(U, MID)
        chain.assign_privilege(HIGH, g)
        assert implicitly_authorized(chain, U, g) == g

    def test_weaker_privilege_found(self, chain):
        chain.assign_privilege(HIGH, Grant(U, HIGH))
        found = implicitly_authorized(chain, U, Grant(U, LOW))
        assert found == Grant(U, HIGH)

    def test_unreachable_subject_denied(self, chain):
        chain.assign_privilege(HIGH, Grant(U, HIGH))
        assert implicitly_authorized(chain, V, Grant(U, LOW)) is None

    def test_stronger_request_denied(self, chain):
        chain.assign_privilege(HIGH, Grant(U, LOW))
        assert implicitly_authorized(chain, U, Grant(U, HIGH)) is None
