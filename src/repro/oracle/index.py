"""The reference authorization oracle.

:class:`ReferenceIndex` answers the refined monitor's authorization
questions straight from the paper's definitions, with none of
:class:`~repro.core.authz_index.AuthorizationIndex`'s machinery — no
bitmasks, no change journal, no repair:

* a user's held set is the privileges in ``descendants(user)``;
* each held entity-target grant ``¤(s, t)`` covers the rectangle
  ``ancestors(s) × descendants(t)``, sort-filtered to entity sources
  and role targets (Definition 8, rule 2);
* ``authorizes`` is an exact match, else (grants only — revocations
  authorize by exact match) a rectangle hit, else, for a nested
  privilege target, the ordering oracle's ``is_weaker`` (Lemma 1).

The only state is a memo of per-user entries and per-grant
rectangles, dropped whenever ``policy.version`` moves.  Every
differential harness, benchmark baseline and test that pins the
production index consumes this class: fuzz invariants 9, 12 and 14
(:mod:`repro.workloads.fuzz`), the reference lint rules' redundancy
verifier (:mod:`repro.oracle.lint`), and
`benchmarks/bench_bitset_kernel.py`.
"""

from __future__ import annotations

from ..core.authz_index import GrantRectangle
from ..core.commands import Command, CommandAction
from ..core.entities import Role, User
from ..core.ordering import OrderingOracle
from ..core.policy import Policy
from ..core.privileges import Grant, Privilege, Revoke, is_privilege
from ..graph import ancestors

_Entity = (User, Role)

_NOTHING = (frozenset(), ())


class ReferenceIndex:
    """The refined-mode authorization surface, computed from the
    definitions on demand (see the module docstring)."""

    __slots__ = ("policy", "ordering", "_version", "_users", "_rectangles")

    def __init__(self, policy: Policy):
        self.policy = policy
        self.ordering = OrderingOracle(policy)
        self._version = policy.version
        #: user -> (held privileges, grant rectangles)
        self._users: dict[User, tuple] = {}
        #: held grant -> its rectangle (contents are per-privilege)
        self._rectangles: dict[Grant, GrantRectangle] = {}

    def _entry(self, user: User) -> tuple:
        if self._version != self.policy.version:
            self._users.clear()
            self._rectangles.clear()
            self._version = self.policy.version
        entry = self._users.get(user)
        if entry is None:
            entry = self._users[user] = self._build(user)
        return entry

    def _build(self, user: User) -> tuple:
        policy = self.policy
        if not isinstance(user, User) or user not in policy.graph:
            return _NOTHING
        held = frozenset(
            vertex for vertex in policy.descendants(user)
            if is_privilege(vertex)
        )
        return held, tuple(
            self._rectangle(privilege)
            for privilege in held
            if isinstance(privilege, Grant)
            and isinstance(privilege.target, _Entity)
        )

    def _rectangle(self, privilege: Grant) -> GrantRectangle:
        rectangle = self._rectangles.get(privilege)
        if rectangle is None:
            policy = self.policy
            rectangle = self._rectangles[privilege] = GrantRectangle(
                privilege,
                frozenset(
                    vertex
                    for vertex in ancestors(policy.graph, privilege.source)
                    if isinstance(vertex, _Entity)
                ),
                frozenset(
                    vertex for vertex in policy.descendants(privilege.target)
                    if isinstance(vertex, Role)
                ),
            )
        return rectangle

    # ------------------------------------------------------------------
    def authorizes(self, user: User, command: Command) -> Privilege | None:
        """A held privilege covering ``command`` under refined-mode
        semantics, or None."""
        wanted = command.requested_privilege()
        if wanted is None:
            return None
        held, rectangles = self._entry(user)
        if wanted in held:
            return wanted
        if command.action is CommandAction.REVOKE:
            return None
        source, target = command.source, command.target
        if isinstance(target, _Entity):
            for rectangle in rectangles:
                if rectangle.covers(source, target):
                    return rectangle.held
            return None
        for privilege in held:
            if self.ordering.is_weaker(privilege, wanted):
                return privilege
        return None

    def authorizes_batch(self, pairs) -> list[Privilege | None]:
        """:meth:`authorizes` per pair — the meaning every batch
        kernel must reproduce."""
        return [self.authorizes(user, command) for user, command in pairs]

    def held_privileges(self, user: User) -> frozenset[Privilege]:
        return self._entry(user)[0]

    def held_privileges_bulk(self, users) -> dict[User, frozenset]:
        return {user: self._entry(user)[0] for user in users}

    def rectangles(self, user: User) -> tuple[GrantRectangle, ...]:
        """The grant rectangles of ``user``'s held entity-target
        grants."""
        return self._entry(user)[1]

    def grantable_pairs(self, user: User) -> frozenset:
        held, rectangles = self._entry(user)
        pairs = {
            (source, target)
            for rectangle in rectangles
            for source in rectangle.sources
            for target in rectangle.targets
        }
        pairs.update(_entity_edges(held, Grant))
        return frozenset(pairs)

    def grantable_pairs_bulk(self, users) -> dict[User, frozenset]:
        return {user: self.grantable_pairs(user) for user in users}

    def revocable_pairs(self, user: User) -> frozenset:
        return frozenset(_entity_edges(self._entry(user)[0], Revoke))

    def effective_authority(self, user: User) -> dict[str, frozenset]:
        return {
            "grant": self.grantable_pairs(user),
            "revoke": self.revocable_pairs(user),
        }


def _entity_edges(held, connective) -> list:
    """Edges of the held entity-target ``connective`` privileges."""
    return [
        privilege.edge for privilege in held
        if isinstance(privilege, connective)
        and isinstance(privilege.target, _Entity)
    ]
