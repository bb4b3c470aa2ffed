"""The paper's Examples 1–6 as executable scenarios.

Each ``exampleN`` function runs the example on the reconstructed
figures and returns a small result record; the test suite asserts every
claim the paper makes about them, and the examples/ scripts print them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import Mode, grant_cmd, revoke_cmd, run_queue
from ..core.entities import Role
from ..core.monitor import ReferenceMonitor
from ..core.ordering import OrderingOracle, explain_weaker
from ..core.policy import Policy
from ..core.privileges import Grant, Privilege, perm
from ..core.refinement import is_refinement, with_replaced_edge, without_edge
from ..core.trace import Derivation
from ..core.weaker import enumerate_weaker
from . import figures


@dataclass(frozen=True)
class Example1Result:
    """Diana's accesses in the two sessions of Example 1."""

    nurse_reads_t1: bool
    nurse_reads_t2: bool
    nurse_writes_t3: bool
    staff_writes_t3: bool


def example1() -> Example1Result:
    """Basic RBAC: as nurse Diana reads t1/t2; as staff she also
    writes t3."""
    monitor = ReferenceMonitor(figures.figure1())
    nurse_session = monitor.create_session(figures.DIANA)
    monitor.add_active_role(nurse_session, figures.NURSE)
    staff_session = monitor.create_session(figures.DIANA)
    monitor.add_active_role(staff_session, figures.STAFF)
    return Example1Result(
        nurse_reads_t1=monitor.check_access(nurse_session, "read", "t1"),
        nurse_reads_t2=monitor.check_access(nurse_session, "read", "t2"),
        nurse_writes_t3=monitor.check_access(nurse_session, "write", "t3"),
        staff_writes_t3=monitor.check_access(staff_session, "write", "t3"),
    )


@dataclass(frozen=True)
class Example2Result:
    """HR's delegated administration from Example 2."""

    jane_appoints_bob_staff: bool
    jane_appoints_joe_nurse: bool
    jane_revokes_joe_nurse: bool
    jane_cannot_appoint_bob_nurse_strict: bool
    diana_cannot_appoint: bool


def example2() -> Example2Result:
    """Members of HR can appoint new staff members or nurses without
    recurring to Alice; others cannot."""
    policy = figures.figure2()
    final, records = run_queue(
        policy,
        [
            grant_cmd(figures.JANE, figures.BOB, figures.STAFF),
            grant_cmd(figures.JANE, figures.JOE, figures.NURSE),
            revoke_cmd(figures.JANE, figures.JOE, figures.NURSE),
            grant_cmd(figures.JANE, figures.BOB, figures.NURSE),
            grant_cmd(figures.DIANA, figures.BOB, figures.STAFF),
        ],
        Mode.STRICT,
    )
    return Example2Result(
        jane_appoints_bob_staff=records[0].executed,
        jane_appoints_joe_nurse=records[1].executed,
        jane_revokes_joe_nurse=records[2].executed,
        jane_cannot_appoint_bob_nurse_strict=not records[3].executed,
        diana_cannot_appoint=not records[4].executed,
    )


@dataclass(frozen=True)
class Example3Result:
    """The three refinement claims of Example 3."""

    removing_diana_staff_refines: bool
    moving_diana_staff_to_nurse_refines: bool
    moving_nurse_dbusr1_to_dbusr2_refines: bool  # the paper: it does NOT


def example3() -> Example3Result:
    phi = figures.figure1()
    removed = without_edge(phi, figures.DIANA, figures.STAFF)
    moved_down = with_replaced_edge(
        phi,
        (figures.DIANA, figures.STAFF),
        (figures.DIANA, figures.NURSE),
    )
    moved_sideways = with_replaced_edge(
        phi,
        (figures.NURSE, figures.DBUSR1),
        (figures.NURSE, figures.DBUSR2),
    )
    return Example3Result(
        removing_diana_staff_refines=is_refinement(phi, removed),
        moving_diana_staff_to_nurse_refines=is_refinement(phi, moved_down),
        moving_nurse_dbusr1_to_dbusr2_refines=is_refinement(phi, moved_sideways),
    )


@dataclass(frozen=True)
class Example4Result:
    """The flexworker scenario (Example 4)."""

    strict_allows_direct_dbusr2: bool       # False: not explicitly held
    refined_allows_direct_dbusr2: bool      # True: via the ordering
    bob_staff_gets_medical: bool            # staff assignment over-grants
    bob_dbusr2_gets_medical: bool           # direct dbusr2 does not
    bob_dbusr2_can_maintain_db: bool        # but suffices for the job


def example4() -> Example4Result:
    policy = figures.figure3()
    direct = grant_cmd(figures.JANE, figures.BOB, figures.DBUSR2)

    _, strict_records = run_queue(policy, [direct], Mode.STRICT)
    refined_policy, refined_records = run_queue(policy, [direct], Mode.REFINED)

    over_granted = figures.figure3_after_strict_assignment()
    medical = perm("print", "black")  # a nurse-only privilege
    bob_staff_medical = over_granted.reaches(figures.BOB, medical)

    bob_dbusr2_medical = refined_policy.reaches(figures.BOB, medical)
    monitor = ReferenceMonitor(refined_policy)
    session = monitor.create_session(figures.BOB)
    monitor.add_active_role(session, figures.DBUSR2)
    can_maintain = (
        monitor.check_access(session, "read", "t1")
        and monitor.check_access(session, "read", "t2")
        and monitor.check_access(session, "write", "t3")
    )
    return Example4Result(
        strict_allows_direct_dbusr2=strict_records[0].executed,
        refined_allows_direct_dbusr2=refined_records[0].executed,
        bob_staff_gets_medical=bob_staff_medical,
        bob_dbusr2_gets_medical=bob_dbusr2_medical,
        bob_dbusr2_can_maintain_db=can_maintain,
    )


@dataclass(frozen=True)
class Example5Result:
    """The three ordering decisions walked through in Example 5."""

    simple: Derivation | None          # ¤(bob,staff) Ã ¤(bob,dbusr2): rule 2
    nested: Derivation | None          # ¤(staff,¤(bob,staff)) Ã ¤(staff,¤(bob,dbusr2)): rule 3 then 2
    nested_after_edge_removed: Derivation | None  # must be None


def example5() -> Example5Result:
    policy = figures.figure2()
    simple_strong = Grant(figures.BOB, figures.STAFF)
    simple_weak = Grant(figures.BOB, figures.DBUSR2)
    nested_strong = Grant(figures.STAFF, Grant(figures.BOB, figures.STAFF))
    nested_weak = Grant(figures.STAFF, Grant(figures.BOB, figures.DBUSR2))

    simple = explain_weaker(policy, simple_strong, simple_weak)
    nested = explain_weaker(policy, nested_strong, nested_weak)

    # "Now, for the sake of exposition, let us remove the edge between
    # the staff and the dbusr2 role" — the relation must stop holding.
    broken = policy.copy()
    broken.remove_edge(figures.STAFF, figures.DBUSR2)
    nested_after = explain_weaker(broken, nested_strong, nested_weak)
    return Example5Result(simple, nested, nested_after)


@dataclass(frozen=True)
class Example6Result:
    """The infinite weaker-privilege chain of Example 6."""

    first_terms: tuple[Privilege, ...]
    chain_confirmed: bool  # each listed deeper term is weaker than the seed


def example6(chain_length: int = 4) -> Example6Result:
    """Policy with ``(r2, ¤(r1, r2))``: members of r2 can make members
    of r1 members too; the weaker set of ``¤(r1, r2)`` is infinite."""
    r1, r2 = Role("r1"), Role("r2")
    seed = Grant(r1, r2)
    policy = Policy(rh=[], pa=[(r2, seed)])
    policy.add_role(r1)

    # The paper's chain: ¤(r1,¤(r1,r2)), ¤(r1,¤(r1,¤(r1,r2))), ...
    chain: list[Privilege] = []
    term: Privilege = seed
    for _ in range(chain_length):
        term = Grant(r1, term)
        chain.append(term)

    oracle = OrderingOracle(policy)
    confirmed = all(oracle.is_weaker(seed, deeper) for deeper in chain)
    first_terms = tuple(
        enumerate_weaker(policy, seed, max_depth=chain_length)
    )
    return Example6Result(first_terms=first_terms, chain_confirmed=confirmed)


def example6_policy() -> tuple[Policy, Grant]:
    """The Example 6 policy and its seed privilege (for the Example-6
    and Remark-2 tests)."""
    r1, r2 = Role("r1"), Role("r2")
    seed = Grant(r1, r2)
    policy = Policy(pa=[(r2, seed)])
    policy.add_role(r1)
    return policy, seed
