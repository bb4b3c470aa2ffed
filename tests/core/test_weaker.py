"""Unit tests for forward weaker-privilege enumeration (§4.2)."""

from itertools import islice

import pytest

from repro.core.entities import Role, User
from repro.core.ordering import is_weaker
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke, perm
from repro.core.weaker import (
    enumerate_weaker,
    frontier_sizes,
    remark2_bound,
    weaker_set,
)
from repro.papercases.examples import example6_policy
from repro.workloads.generators import layered_hierarchy

U = User("u")
HIGH, MID, LOW = Role("high"), Role("mid"), Role("low")


@pytest.fixture
def chain():
    return Policy(ua=[(U, HIGH)], rh=[(HIGH, MID), (MID, LOW)])


class TestWeakerSet:
    def test_contains_self(self, chain):
        g = Grant(U, HIGH)
        assert g in weaker_set(chain, g, 0)

    def test_rule2_targets_at_depth_zero(self, chain):
        result = weaker_set(chain, Grant(U, HIGH), 0)
        assert Grant(U, MID) in result
        assert Grant(U, LOW) in result

    def test_rule2_sources(self, chain):
        result = weaker_set(chain, Grant(MID, LOW), 0)
        assert Grant(HIGH, LOW) in result

    def test_user_privilege_is_fixed_point(self, chain):
        p = perm("read", "doc")
        assert weaker_set(chain, p, 3) == {p}

    def test_revoke_is_fixed_point(self, chain):
        r = Revoke(U, HIGH)
        assert weaker_set(chain, r, 3) == {r}

    def test_rule3_needs_depth(self, chain):
        stronger = Grant(HIGH, Grant(U, HIGH))
        at_zero = weaker_set(chain, stronger, 0)
        assert at_zero == {stronger}
        at_one = weaker_set(chain, stronger, 1)
        assert Grant(HIGH, Grant(U, LOW)) in at_one

    def test_monotone_in_depth(self, chain):
        stronger = Grant(HIGH, Grant(U, HIGH))
        previous = weaker_set(chain, stronger, 0)
        for depth in range(1, 4):
            current = weaker_set(chain, stronger, depth)
            assert previous <= current
            previous = current

    def test_everything_enumerated_is_weaker(self, chain):
        chain.assign_privilege(HIGH, Grant(U, HIGH))
        stronger = Grant(HIGH, Grant(U, HIGH))
        for term in weaker_set(chain, stronger, 2):
            assert is_weaker(chain, stronger, term), term

    def test_completeness_against_oracle_small(self, chain):
        """Every grant over the chain's entities that the oracle calls
        weaker is found by the bounded enumeration (depth 0 terms)."""
        stronger = Grant(U, HIGH)
        enumerated = weaker_set(chain, stronger, 0)
        entities = [U, HIGH, MID, LOW]
        for source in entities:
            for target in [HIGH, MID, LOW]:
                try:
                    candidate = Grant(source, target)
                except Exception:
                    continue
                if is_weaker(chain, stronger, candidate):
                    assert candidate in enumerated, candidate


class TestExample6:
    def test_infinite_frontier_growth(self):
        policy, seed = example6_policy()
        sizes = frontier_sizes(policy, seed, 5)
        # Strictly growing at every depth: the weaker set is infinite.
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_strict_rules_terminate(self):
        policy, seed = example6_policy()
        sizes = frontier_sizes(policy, seed, 5, strict_rules=True)
        assert sizes[0] == sizes[-1]  # no growth without the closure

    def test_enumerate_weaker_lazy(self):
        policy, seed = example6_policy()
        first_ten = list(islice(enumerate_weaker(policy, seed), 10))
        assert len(first_ten) == 10
        assert len(set(first_ten)) == 10  # deduplicated

    def test_paper_chain_enumerated(self):
        policy, seed = example6_policy()
        r1 = Role("r1")
        expected = Grant(r1, Grant(r1, seed))
        found = list(islice(enumerate_weaker(policy, seed), 30))
        assert Grant(r1, seed) in found
        assert expected in found


class TestEnumerate:
    def test_terminates_when_finite(self, chain):
        terms = list(enumerate_weaker(chain, Grant(U, HIGH)))
        assert Grant(U, LOW) in terms
        assert len(terms) == len(set(terms))

    def test_max_depth_cuts_off(self):
        policy, seed = example6_policy()
        bounded = list(enumerate_weaker(policy, seed, max_depth=2))
        deeper = list(enumerate_weaker(policy, seed, max_depth=3))
        assert len(bounded) < len(deeper)

    def test_first_term_is_seed(self, chain):
        seed = Grant(U, HIGH)
        assert next(iter(enumerate_weaker(chain, seed))) == seed


class TestRemark2Bound:
    def test_equals_longest_chain(self, chain):
        assert remark2_bound(chain) == 2

    def test_zero_for_flat_policy(self):
        policy = Policy(ua=[(U, HIGH)])
        assert remark2_bound(policy) == 0

    def test_cycle_collapsed(self):
        policy = Policy(rh=[(HIGH, MID), (MID, HIGH), (MID, LOW)])
        assert remark2_bound(policy) == 1

    def test_layered_hierarchy(self):
        policy = layered_hierarchy(seed=3, layers=8, roles_per_layer=6)
        assert remark2_bound(policy) == 7

    def test_weaker_set_grows_past_the_bound(self):
        """A self-referential assignment at the bottom of a chain: the
        weaker set keeps growing past the bound, which is why the
        enumeration needs a cutoff at all."""
        chain = [Role(f"c{i}") for i in range(4)]
        policy = Policy(rh=list(zip(chain, chain[1:])))
        seed = Grant(chain[0], chain[-1])
        policy.assign_privilege(chain[-1], seed)
        bound = remark2_bound(policy)
        sizes = frontier_sizes(policy, seed, bound + 2)
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[bound]
