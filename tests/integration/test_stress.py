"""Adversarial and stress tests: deep nesting, cycles, scale."""

import pytest

from repro.core.admin_refinement import check_admin_refinement
from repro.core.commands import Mode, grant_cmd, run_queue
from repro.core.entities import Role, User
from repro.core.ordering import OrderingOracle, is_weaker
from repro.core.policy import Policy
from repro.core.privileges import Grant, perm
from repro.core.serialization import policy_from_json, policy_to_json
from repro.core.weaker import weaker_set
from repro.workloads.generators import layered_hierarchy, nested_grant


class TestDeepNesting:
    def test_depth_200_terms_decide_quickly(self):
        u = User("u")
        high, low = Role("high"), Role("low")
        policy = Policy(ua=[(u, high)], rh=[(high, low)])
        wrappers = [high] * 200
        stronger = nested_grant([high] + wrappers, u, 200)
        weaker = nested_grant([low] + wrappers, u, 200)
        assert is_weaker(policy, stronger, weaker)
        assert not is_weaker(policy, weaker, stronger)

    @pytest.mark.parametrize("depth", [1, 8, 32])
    def test_nested_terms_over_a_layered_hierarchy(self, depth):
        """Lemma 1 through a whole hierarchy: the terms differ only in
        the innermost target, the top role against the bottom one, so
        the decision must cross every layer at every nesting level."""
        layers = 6
        policy = layered_hierarchy(seed=1, layers=layers, roles_per_layer=6)
        wrappers = [Role(f"L{layer % layers}_r0") for layer in range(depth)]
        top, bottom = Role("L0_r0"), Role(f"L{layers - 1}_r0")
        stronger = nested_grant([top] + wrappers, User("user0"), depth)
        weaker = nested_grant([bottom] + wrappers, User("user0"), depth)
        assert OrderingOracle(policy).is_weaker(stronger, weaker)
        assert not OrderingOracle(policy).is_weaker(weaker, stronger)

    def test_depth_200_serialization_roundtrip(self):
        u = User("u")
        r = Role("r")
        term = Grant(u, r)
        for _ in range(200):
            term = Grant(r, term)
        policy = Policy(pa=[(r, term)])
        assert policy_from_json(policy_to_json(policy)) == policy

    def test_deep_grammar_roundtrip(self):
        from repro.core.grammar import Vocabulary, format_privilege, parse_privilege

        u, r = User("u"), Role("r")
        term = Grant(u, r)
        for _ in range(80):
            term = Grant(r, term)
        vocabulary = Vocabulary(users={"u"}, roles={"r"})
        assert parse_privilege(format_privilege(term), vocabulary) == term


class TestCyclicHierarchies:
    """Footnote 3: RH need not be a partial order."""

    @pytest.fixture
    def cyclic(self):
        a, b, c = Role("a"), Role("b"), Role("c")
        u = User("u")
        policy = Policy(
            ua=[(u, a)],
            rh=[(a, b), (b, c), (c, a)],  # a 3-cycle
            pa=[(c, perm("read", "x"))],
        )
        return policy

    def test_reachability_in_cycle(self, cyclic):
        a, b, c = Role("a"), Role("b"), Role("c")
        for source in (a, b, c):
            for target in (a, b, c):
                assert cyclic.reaches(source, target)

    def test_ordering_over_cycle(self, cyclic):
        u = User("u")
        a, c = Role("a"), Role("c")
        # Everything in the cycle is mutually substitutable.
        assert is_weaker(cyclic, Grant(u, a), Grant(u, c))
        assert is_weaker(cyclic, Grant(u, c), Grant(u, a))

    def test_weaker_set_terminates_on_cycle(self, cyclic):
        u = User("u")
        result = weaker_set(cyclic, Grant(u, Role("a")), 3)
        assert Grant(u, Role("c")) in result

    def test_remark2_bound_on_cycle(self, cyclic):
        assert cyclic.longest_role_chain() == 0

    def test_admin_refinement_on_cycle(self, cyclic):
        u = User("u")
        admin = User("admin")
        adm = Role("adm")
        cyclic.assign_user(admin, adm)
        cyclic.assign_privilege(adm, Grant(u, Role("a")))
        psi = cyclic.copy()
        psi.remove_edge(adm, Grant(u, Role("a")))
        psi.assign_privilege(adm, Grant(u, Role("c")))  # cycle: equivalent
        assert check_admin_refinement(cyclic, psi, depth=1).holds
        assert check_admin_refinement(psi, cyclic, depth=1).holds


class TestScale:
    def test_thousand_role_hierarchy(self):
        # §1: "consisting of thousands of roles".
        policy = layered_hierarchy(
            seed=0, layers=25, roles_per_layer=40, users=50
        )
        assert sum(1 for _ in policy.roles()) == 1000
        top = Role("L0_r0")
        bottom = Role("L24_r0")
        assert policy.reaches(top, bottom)
        u = User("user0")
        oracle = OrderingOracle(policy)
        assert oracle.is_weaker(Grant(u, top), Grant(u, bottom))
        assert policy.longest_role_chain() == 24

    def test_long_command_queue(self):
        admin = User("admin")
        adm = Role("adm")
        users = [User(f"u{i}") for i in range(50)]
        role = Role("r")
        policy = Policy(ua=[(admin, adm)], pa=[(role, perm("read", "x"))])
        for user in users:
            policy.add_user(user)
            policy.assign_privilege(adm, Grant(user, role))
        queue = [grant_cmd(admin, user, role) for user in users] * 2
        final, records = run_queue(policy, queue, Mode.STRICT)
        assert all(record.executed for record in records)
        assert all(final.reaches(user, role) for user in users)


class TestExportFiguresScript:
    def test_writes_artifacts(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[2]
            / "examples" / "export_figures.py"
        )
        result = subprocess.run(
            [sys.executable, str(script), str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        for name in ["figure1", "figure2", "figure3_strict", "figure3_refined"]:
            for suffix in [".dot", ".policy", ".json"]:
                assert (tmp_path / f"{name}{suffix}").exists()
        # The exported documents parse back.
        from repro.core.grammar import parse_policy_source
        from repro.papercases import figures

        restored = parse_policy_source(
            (tmp_path / "figure2.policy").read_text()
        )
        assert restored == figures.figure2()
