"""Whole-population authority audits on the batch kernel.

``safety_matrix`` answers the *dynamic* question (what could a user
obtain if administrators act); the audit matrix answers the *static*
companion auditors actually run first: which users hold which
privileges **right now**, for the whole population at once.  Naively
that is ``U × P`` reachability probes; on the batch kernel it is one
:meth:`~repro.core.authz_index.AuthorizationIndex.held_privileges_bulk`
sweep — each distinct authority profile (held-mask) is decoded once,
so populations with heavy role sharing audit in close to ``O(U)``.

``audit_matrix`` is the library entry point (the ``repro audit-matrix``
CLI subcommand renders it).  It reads the policy's own index
(:attr:`Policy.index <repro.core.policy.Policy.index>`), so repeated
audits of one policy — or an audit after a monitor over it — pay for
one build plus the repairs of what changed in between, not a build
per call (lint and repair build no index: the first audit after a
repair builds the repaired policy's).  Rows are intersected once per
distinct authority profile.  The test suite pins the audit against
:class:`repro.oracle.ReferenceIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.entities import User
from ..core.policy import Policy
from ..core.privileges import Grant, Privilege, Revoke


@dataclass(frozen=True)
class AuditReport:
    """The population-wide authority table at one policy version.

    ``held`` maps every audited user to their full held privilege set;
    ``rows`` restricts it to the audited ``privileges`` columns (the
    matrix the CLI renders).  ``version`` is the policy version the
    audit saw — the whole table is consistent at that version because
    the bulk sweep validates the index exactly once.
    """

    version: int
    users: tuple[User, ...]
    privileges: tuple[Privilege, ...]
    held: dict[User, frozenset[Privilege]]
    rows: dict[User, frozenset[Privilege]]

    def holds(self, user: User, privilege: Privilege) -> bool:
        return privilege in self.held.get(user, frozenset())

    def holders(self, privilege: Privilege) -> tuple[User, ...]:
        """The audited users holding ``privilege``, in audit order."""
        return tuple(
            user for user in self.users if privilege in self.held[user]
        )

    def admin_counts(self, user: User) -> tuple[int, int]:
        """(grant, revoke) administrative privilege counts held by
        ``user`` — the audit's quick who-is-an-administrator view."""
        held = self.held.get(user, frozenset())
        grants = sum(1 for p in held if isinstance(p, Grant))
        revokes = sum(1 for p in held if isinstance(p, Revoke))
        return grants, revokes

    def as_dict(self) -> dict:
        """JSON-ready rendering (entities and privileges as strings)."""
        return {
            "version": self.version,
            "users": [user.name for user in self.users],
            "privileges": [str(p) for p in self.privileges],
            "matrix": {
                user.name: sorted(str(p) for p in self.rows[user])
                for user in self.users
            },
            "admin_counts": {
                user.name: self.admin_counts(user) for user in self.users
            },
        }


def audit_matrix(
    policy: Policy,
    privileges=None,
    users=None,
) -> AuditReport:
    """Audit the whole population's held privileges in one bulk sweep
    of the policy's own index.

    ``privileges`` defaults to the policy's user privileges (the
    permission columns an access audit cares about); pass any privilege
    collection — including administrative :class:`Grant`/:class:`Revoke`
    terms — to audit those columns instead.  ``users`` defaults to
    every user.
    """
    audited_users = tuple(
        sorted(policy.users(), key=str) if users is None else users
    )
    audited_privileges = tuple(
        sorted(policy.user_privileges(), key=str)
        if privileges is None else privileges
    )
    held = policy.index.held_privileges_bulk(audited_users)
    columns = frozenset(audited_privileges)
    # The bulk sweep hands every user of one authority profile the same
    # frozenset, so each distinct profile is intersected once (``held``
    # keeps the profiles alive, so their ids stay unique).
    by_profile: dict[int, frozenset[Privilege]] = {}
    rows = {}
    for user in audited_users:
        profile = held[user]
        row = by_profile.get(id(profile))
        if row is None:
            row = by_profile[id(profile)] = profile & columns
        rows[user] = row
    return AuditReport(
        version=policy.version,
        users=audited_users,
        privileges=audited_privileges,
        held=held,
        rows=rows,
    )
