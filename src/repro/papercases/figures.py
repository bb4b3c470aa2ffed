"""The paper's Figures 1–3 as exact policy values.

The figure drawings in the available text are OCR-garbled; the
reconstruction below is the unique-ish reading consistent with every
statement in the prose:

* Example 1: as *nurse* Diana reads t1 and t2; as *staff* she can
  additionally write t3.
* Example 2: HR can appoint staff members and nurses; revoking
  ``dbusr2`` membership protects tables t2 and t3; role ``dbusr3``
  holds that revocation privilege.
* Example 4: ``nurse`` is below ``staff``; ``dbusr2`` is also below
  ``staff`` and suffices for database maintenance.
* Example 5: the staff role holds ``¤(bob, staff)``; Alice (security
  officer) holds ``¤(staff, ¤(bob, staff))``.

Hierarchy used (senior → junior)::

    staff → nurse        staff → dbusr2       staff → prntusr
    nurse → dbusr1       dbusr2 → dbusr1

Privileges::

    dbusr1 → (read, t1), (read, t2)
    dbusr2 → (write, t3)
    nurse  → (print, black)
    prntusr→ (print, color)
"""

from __future__ import annotations

from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant, Revoke, perm

# Entities (module-level so tests and examples can import them).
DIANA = User("diana")
BOB = User("bob")
JOE = User("joe")
JANE = User("jane")
ALICE = User("alice")

NURSE = Role("nurse")
STAFF = Role("staff")
PRNTUSR = Role("prntusr")
DBUSR1 = Role("dbusr1")
DBUSR2 = Role("dbusr2")
DBUSR3 = Role("dbusr3")
HR = Role("HR")
SO = Role("SO")

READ_T1 = perm("read", "t1")
READ_T2 = perm("read", "t2")
WRITE_T3 = perm("write", "t3")
PRINT_BLACK = perm("print", "black")
PRINT_COLOR = perm("print", "color")


def figure1() -> Policy:
    """Figure 1: the sample non-administrative RBAC policy."""
    policy = Policy(
        ua=[(DIANA, NURSE), (DIANA, STAFF)],
        rh=[
            (STAFF, NURSE),
            (STAFF, DBUSR2),
            (STAFF, PRNTUSR),
            (NURSE, DBUSR1),
            (DBUSR2, DBUSR1),
        ],
        pa=[
            (DBUSR1, READ_T1),
            (DBUSR1, READ_T2),
            (DBUSR2, WRITE_T3),
            (NURSE, PRINT_BLACK),
            (PRNTUSR, PRINT_COLOR),
        ],
    )
    return policy


def figure2() -> Policy:
    """Figure 2: Alice's administrative policy on top of Figure 1.

    Members of HR can appoint (and partly revoke) staff and nurses;
    ``dbusr3`` holds revocation privileges over ``dbusr2`` membership
    (the figure's wildcard ``♦(dbusr?, ·)``, rendered concretely over
    the users that appear in the scenario); the security-officer role
    holds the nested privilege Example 5 attributes to Alice.
    """
    policy = figure1()
    policy.add_user(BOB)
    policy.add_user(JOE)
    policy.assign_user(JANE, HR)
    policy.assign_user(ALICE, SO)
    policy.add_inheritance(SO, HR)
    policy.add_role(DBUSR3)

    # HR's administrative privileges (the figure's box labels).
    policy.assign_privilege(HR, Grant(BOB, STAFF))
    policy.assign_privilege(HR, Grant(JOE, NURSE))
    policy.assign_privilege(HR, Revoke(JOE, NURSE))

    # dbusr3's revocation privileges over dbusr2 membership (Example 2:
    # "to protect the confidentiality of health records in the tables
    # t2 and t3 Alice delegated a revocation privilege about the role
    # dbusr2 to the role dbusr3").
    policy.assign_privilege(DBUSR3, Revoke(BOB, DBUSR2))
    policy.assign_privilege(DBUSR3, Revoke(DIANA, DBUSR2))

    # The security officer's nested privilege from Example 5.
    policy.assign_privilege(SO, Grant(STAFF, Grant(BOB, STAFF)))
    return policy


def figure3() -> Policy:
    """Figure 3: the flexworker scenario — identical policy to Figure 2
    (the dashed/dotted edges are the two *possible* assignments for
    Bob, not part of the policy; see
    :func:`figure3_after_strict_assignment` and
    :func:`figure3_after_refined_assignment`).
    """
    return figure2()


def figure3_after_strict_assignment() -> Policy:
    """Figure 3's dashed edge: Jane exercised ``¤(bob, staff)``
    literally — Bob is a staff member with excessive privileges."""
    policy = figure3()
    policy.assign_user(BOB, STAFF)
    return policy


def figure3_after_refined_assignment() -> Policy:
    """Figure 3's dotted edge: Jane used the privilege ordering to
    assign Bob directly to ``dbusr2`` — least privilege applied for
    him."""
    policy = figure3()
    policy.assign_user(BOB, DBUSR2)
    return policy


def revocation_wildcard(policy: Policy, role: Role, target_role: Role) -> None:
    """Expand the figures' ``♦(·, target_role)`` wildcard: assign to
    ``role`` a revocation privilege over every currently known user's
    membership of ``target_role``.

    The paper's grammar has no wildcard privileges, so the
    reconstruction encodes one as a revocation privilege per user
    known at the time of the call; users added later are not covered.
    """
    for user in sorted(policy.users(), key=str):
        policy.assign_privilege(role, Revoke(user, target_role))
