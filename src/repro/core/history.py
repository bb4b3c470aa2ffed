"""Versioned policy administration: command log, replay, rollback.

Real deployments of the paper's model need more than a transition
function — they need to answer "who changed what, when, and how do we
undo it".  :class:`PolicyHistory` wraps a policy with an append-only
log of executed commands plus periodic snapshots:

* every successful command is recorded with its authorizing privilege
  (including the Ã-stronger one in refined mode);
* ``state_at(version)`` reconstructs any historical policy by
  replaying from the nearest snapshot — replay is sound because
  Definition 5 is deterministic;
* ``rollback(version)`` rewinds the live policy;
* ``audit_diff(v1, v2)`` summarizes what changed between two versions
  using :mod:`repro.core.diff`, including the refinement direction —
  the review artifact a security officer signs off.

The log stores only *executed* commands: denied commands change
nothing and live in the reference monitor's audit trail instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AnalysisError
from .commands import Command, ExecutionRecord, Mode, step
from .diff import PolicyDiff, diff_policies
from .ordering import OrderingOracle
from .policy import Policy
from .privileges import Privilege


@dataclass(frozen=True)
class LogEntry:
    """One executed command at a given version."""

    version: int
    command: Command
    authorized_by: Privilege
    implicit: bool


@dataclass
class PolicyHistory:
    """A policy with an executed-command log and snapshots."""

    policy: Policy
    mode: Mode = Mode.STRICT
    snapshot_interval: int = 16
    log: list[LogEntry] = field(default_factory=list)
    _snapshots: dict[int, Policy] = field(default_factory=dict, repr=False)
    _oracle: OrderingOracle | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.snapshot_interval < 1:
            raise AnalysisError("snapshot interval must be positive")
        self._snapshots[0] = self.policy.copy()
        self._oracle = OrderingOracle(self.policy)

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Number of executed commands so far."""
        return len(self.log)

    def submit(self, command: Command) -> ExecutionRecord:
        """Execute a command against the live policy; log it if it ran."""
        record = step(self.policy, command, self.mode, self._oracle)
        if record.executed:
            self.log.append(
                LogEntry(
                    version=self.version + 1,
                    command=command,
                    authorized_by=record.authorized_by,
                    implicit=record.implicit,
                )
            )
            if self.version % self.snapshot_interval == 0:
                self._snapshots[self.version] = self.policy.copy()
        return record

    # ------------------------------------------------------------------
    def state_at(self, version: int) -> Policy:
        """The policy as of ``version`` (0 = initial), by replay."""
        if version < 0 or version > self.version:
            raise AnalysisError(
                f"version {version} out of range 0..{self.version}"
            )
        snapshot_version = max(
            v for v in self._snapshots if v <= version
        )
        state = self._snapshots[snapshot_version].copy()
        oracle = OrderingOracle(state)
        for entry in self.log[snapshot_version:version]:
            record = step(state, entry.command, self.mode, oracle)
            if not record.executed:
                raise AnalysisError(
                    f"replay divergence at version {entry.version}: "
                    f"{entry.command} no longer executes"
                )
        return state

    def rollback(self, version: int) -> Policy:
        """Rewind the live policy (and log) to ``version``."""
        target = self.state_at(version)
        self.log = self.log[:version]
        self._snapshots = {
            v: snapshot for v, snapshot in self._snapshots.items()
            if v <= version
        }
        # Mutate the live policy in place so monitors holding a
        # reference observe the rollback.
        graph = self.policy.graph
        target_edges = target.edge_set()
        for edge in self.policy.edge_set() - target_edges:
            self.policy.remove_edge(*edge)
        for edge in target_edges:
            if not self.policy.has_edge(*edge):
                self.policy.add_edge(*edge)
        target_vertices = target.vertex_set()
        for vertex in target_vertices:
            graph.add_vertex(vertex)
        # Vertices created after ``version`` (a user or role a later
        # grant introduced) have no edges left by now; drop them too.
        for vertex in self.policy.vertex_set() - target_vertices:
            graph.remove_vertex(vertex)
        return self.policy

    # ------------------------------------------------------------------
    def audit_diff(self, from_version: int, to_version: int) -> PolicyDiff:
        """What changed between two versions, with refinement direction."""
        return diff_policies(
            self.state_at(from_version), self.state_at(to_version)
        )

    def entries_by(self, user) -> list[LogEntry]:
        return [entry for entry in self.log if entry.command.user == user]

    def implicit_entries(self) -> list[LogEntry]:
        """Commands that ran on the strength of the ordering (§4.1)."""
        return [entry for entry in self.log if entry.implicit]
