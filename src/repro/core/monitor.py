"""The RBAC reference monitor.

Combines the pieces of §2–§4 into the component a system (such as the
:mod:`repro.dbms` engine) actually talks to:

* **session functions** — ``create_session``, ``add_active_role``,
  ``drop_active_role``, ``delete_session`` (ANSI RBAC);
* **access checks** — ``check_access(session, action, object)``: allowed
  iff some *currently authorized* active role reaches the user
  privilege.  (If a role membership is revoked mid-session, subsequent
  checks through that role fail; the standard leaves this choice open
  and this is the conservative reading.)
* **administrative functions** — ``submit(command)`` executes
  Definition 5's transition on the live policy.  In
  :attr:`~repro.core.commands.Mode.STRICT` mode the privilege must
  match exactly (the behaviour of prior administrative models); in
  :attr:`~repro.core.commands.Mode.REFINED` mode the monitor also
  accepts commands covered by a Ã-stronger privilege — the paper's
  implicit authorization (§4.1).  With ``use_index=True`` refined
  decisions come from the precomputed
  :class:`~repro.core.authz_index.AuthorizationIndex`, which repairs
  itself *incrementally* from the policy graph's change journal under
  churn (no full rebuild on the common path — see that module's
  docstring for the dirty-region maintenance).
* **batched queues** — ``submit_queue(commands, batched=True)`` treats
  a queue as one transaction: every command is authorized against the
  policy state at batch entry, the index is validated once for the
  whole batch, and only then are the authorized mutations applied in
  order (see :meth:`ReferenceMonitor.submit_queue` for exactly when
  this agrees with the sequential Definition-5 reading).
* **review functions** — ``assigned_users``, ``authorized_users``,
  ``role_privileges`` (ANSI review API, used by the examples).

Every decision — allowed or denied — is appended to the monitor's
audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import AccessDenied
from .authz_index import AuthorizationIndex
from .commands import Command, CommandAction, ExecutionRecord, Mode, step
from .entities import Role, User
from .ordering import OrderingOracle
from .policy import Policy
from .privileges import UserPrivilege, perm
from .sessions import Session


@dataclass(frozen=True)
class AccessDecision:
    """One entry of the monitor's audit trail."""

    kind: str  # "access" | "admin" | "session"
    subject: User
    detail: str
    allowed: bool


@dataclass
class ReferenceMonitor:
    """A reference monitor over a live (mutable) policy.

    ``use_index=True`` switches administrative authorization to the
    policy's precomputed
    :class:`~repro.core.authz_index.AuthorizationIndex`
    (:attr:`Policy.index <repro.core.policy.Policy.index>`, shared with
    every other reader of the policy; faster under query bursts;
    differentially tested against the oracle path — see
    ``tests/core/test_authz_index.py`` and the monitor fuzzer).
    """

    policy: Policy
    mode: Mode = Mode.STRICT
    use_index: bool = False
    audit_trail: list[AccessDecision] = field(default_factory=list)
    _sessions: dict[int, Session] = field(default_factory=dict)
    _oracle: OrderingOracle | None = field(default=None, repr=False)
    _index: AuthorizationIndex | None = field(default=None, repr=False)

    def __post_init__(self):
        self._oracle = OrderingOracle(self.policy)
        if self.use_index:
            # The policy's own index, read now so its build (if it is
            # not built yet) is part of the monitor's set-up.
            self._index = self.policy.index

    # ------------------------------------------------------------------
    # Session functions
    # ------------------------------------------------------------------
    def create_session(self, user: User) -> Session:
        session = Session(user)
        self._sessions[session.session_id] = session
        self._audit("session", user, f"create {session}", True)
        return session

    def delete_session(self, session: Session) -> None:
        self._sessions.pop(session.session_id, None)
        session.terminate()
        self._audit("session", session.user, f"delete session#{session.session_id}", True)

    def add_active_role(self, session: Session, role: Role) -> None:
        """Activate ``role`` — allowed iff ``user →φ role`` (§2)."""
        session.require_live()
        if not self.policy.reaches(session.user, role):
            self._audit("session", session.user, f"activate {role}", False)
            raise AccessDenied(
                session.user.name, f"cannot activate role {role.name}"
            )
        session.activate(role)
        self._audit("session", session.user, f"activate {role}", True)

    def drop_active_role(self, session: Session, role: Role) -> None:
        session.deactivate(role)
        self._audit("session", session.user, f"deactivate {role}", True)

    # ------------------------------------------------------------------
    # Access checks
    # ------------------------------------------------------------------
    def check_access(
        self, session: Session, action: str, obj: str
    ) -> bool:
        """True iff some active, still-authorized role reaches
        ``(action, obj)``."""
        session.require_live()
        privilege = perm(action, obj)
        allowed = any(
            self.policy.reaches(session.user, role)
            and self.policy.reaches(role, privilege)
            for role in session.active_roles
        )
        self._audit(
            "access", session.user, f"{action} {obj}", allowed
        )
        return allowed

    def require_access(self, session: Session, action: str, obj: str) -> None:
        """Like :meth:`check_access` but raises on denial."""
        if not self.check_access(session, action, obj):
            raise AccessDenied(session.user.name, f"{action} on {obj}")

    def session_privileges(self, session: Session) -> frozenset[UserPrivilege]:
        """All user privileges of the session (§2): the union over the
        activated roles of the privileges they reach."""
        session.require_live()
        privileges: set[UserPrivilege] = set()
        for role in session.active_roles:
            if self.policy.reaches(session.user, role):
                privileges |= self.policy.authorized_privileges(role)
        return frozenset(privileges)

    # ------------------------------------------------------------------
    # Administrative functions (Definition 5)
    # ------------------------------------------------------------------
    def submit(self, command: Command) -> ExecutionRecord:
        """Execute one administrative command on the live policy.

        Disallowed commands are consumed as no-ops (the Definition 5
        semantics); the outcome is recorded in the audit trail either
        way.
        """
        if self._index is not None and self.mode is Mode.REFINED:
            record = self._submit_via_index(command)
        else:
            record = step(self.policy, command, self.mode, self._oracle)
        self._audit_admin(record)
        return record

    def submit_queue(
        self,
        queue: Iterable[Command],
        batched: bool = False,
    ) -> list[ExecutionRecord]:
        """Execute a command queue.

        With ``batched=False`` (the default) this is exactly repeated
        :meth:`submit`: Definition 5 iterated, where a command may be
        authorized by an edge a previous command in the same queue just
        granted.

        With ``batched=True`` and an index-backed refined monitor, the
        queue is treated as one *transaction*: every command is
        authorized against the policy state at batch entry (so the
        authorization index is validated once for the whole batch, not
        once per command), and only then are the authorized mutations
        applied in order.  The two modes agree whenever no command's
        authorization depends on an edge granted or revoked earlier in
        the same batch — the overwhelmingly common case for bulk
        provisioning loads — and the batched reading is the natural one
        for a monitor fronting a transactional DBMS.  Monitors without
        an index (or in strict mode) fall back to the sequential path.

        An audit that must see the batch-entry state — the state every
        command was authorized against — takes a
        :class:`~repro.core.authz_index.ReviewSnapshot` of the policy
        before the batch (the PDP's published snapshot is exactly that).
        """
        commands = list(queue)
        if not batched or self._index is None or self.mode is not Mode.REFINED:
            return [self.submit(command) for command in commands]
        # Pre-authorize the whole read set in one batch call: each
        # distinct edge is decided once from the index's cover table,
        # and its verdicts are pinned element-for-element
        # identical to per-command ``authorizes`` (fuzz invariant 12),
        # so the transaction semantics are unchanged.
        verdicts = self._index.authorizes_batch(
            [(command.user, command) for command in commands]
        )
        records = []
        for command, authorized_by in zip(commands, verdicts):
            record = self._apply_decided(command, authorized_by)
            self._audit_admin(record)
            records.append(record)
        return records

    def _submit_via_index(self, command: Command) -> ExecutionRecord:
        """Index-backed authorization, then the Definition-5 effect."""
        authorized_by = self._index.authorizes(command.user, command)
        return self._apply_decided(command, authorized_by)

    def _apply_decided(
        self, command: Command, authorized_by
    ) -> ExecutionRecord:
        """The Definition-5 effect for an already-made decision.

        The apply step must tolerate mutations that no longer change
        anything: in a batched queue the decisions were all made
        against the batch-entry state, so a duplicated grant — or a
        revoke of an edge another command in the batch already removed
        (possibly garbage-collecting its privilege vertex) — reaches
        this point authorized but with nothing left to do.  Definition
        5 is a set union/difference, so the command still *executes*;
        the record marks it a no-op, exactly as the sequential
        :func:`repro.core.commands.step` path does.
        """
        if authorized_by is None:
            return ExecutionRecord(command, False)
        if command.action is CommandAction.GRANT:
            changed = self.policy.add_edge(command.source, command.target)
        else:
            changed = self.policy.remove_edge(command.source, command.target)
        implicit = authorized_by != command.requested_privilege()
        return ExecutionRecord(
            command, True, authorized_by, implicit, noop=not changed
        )

    def _audit_admin(self, record: ExecutionRecord) -> None:
        detail = str(record.command)
        if record.executed and record.implicit:
            detail += f" [implicitly authorized by {record.authorized_by}]"
        self._audit("admin", record.command.user, detail, record.executed)

    # ------------------------------------------------------------------
    # Review functions (ANSI RBAC)
    # ------------------------------------------------------------------
    def assigned_users(self, role: Role) -> frozenset[User]:
        """Users directly assigned to ``role`` (UA edges)."""
        return frozenset(
            user for user, assigned in self.policy.ua_edges() if assigned == role
        )

    def authorized_users(self, role: Role) -> frozenset[User]:
        """Users that may activate ``role`` (directly or via hierarchy)."""
        return frozenset(
            user for user in self.policy.users() if self.policy.reaches(user, role)
        )

    def role_privileges(self, role: Role) -> frozenset[UserPrivilege]:
        return self.policy.authorized_privileges(role)

    # ------------------------------------------------------------------
    def index_statistics(self) -> dict[str, int] | None:
        """The authorization index's counters, or None for oracle-only
        monitors."""
        if self._index is None:
            return None
        return self._index.statistics()

    # ------------------------------------------------------------------
    def _audit(self, kind: str, subject: User, detail: str, allowed: bool) -> None:
        self.audit_trail.append(AccessDecision(kind, subject, detail, allowed))

    def denials(self) -> list[AccessDecision]:
        return [entry for entry in self.audit_trail if not entry.allowed]
