"""Interleaved grant/revoke/query policy-churn workloads.

The reference monitor's hot loop in a large deployment is *policy
churn*: administrative mutations (user-role assignments come and go,
occasionally the hierarchy or an administrator's authority changes)
interleaved with bursts of authorization queries.  A full-rebuild
authorization index makes this workload quadratic — every mutation
pays a rebuild proportional to the whole user population on the next
query.  This module generates deterministic churn traces used by

* ``benchmarks/bench_index_churn.py`` — incremental vs. full-rebuild
  index maintenance, and
* the differential churn harness in :mod:`repro.workloads.fuzz` —
  incremental answers must equal a from-scratch rebuild and the
  definitional :class:`~repro.oracle.ReferenceIndex` after every
  mutation burst.

The generated organization: a layered role hierarchy, a population of
ordinary users assigned into it, and a small set of administrators
whose roles hold ¤/♦ privileges over user-role and role-role edges.
Mutations are dominated by UA churn (the realistic case — and the one
where incremental maintenance shines, because a user-role edge dirties
only that user's index entry), with occasional RH and PA churn to
exercise wide dirty regions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.commands import Command, CommandAction, grant_cmd, revoke_cmd
from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant, Revoke, perm
from ..graph import iter_bits
from .generators import PolicyShape, random_policy


@dataclass(frozen=True)
class ChurnShape:
    """Parameters of a churn workload."""

    n_users: int = 200
    n_roles: int = 24
    n_admins: int = 4
    layers: int = 4
    mutations: int = 120
    queries_per_mutation: int = 4
    #: probability split of mutation kinds (rest is RH/PA churn)
    ua_fraction: float = 0.85
    #: membership/assignment density — the defaults (1 role per user,
    #: 1 privilege per role) keep the original thin organization; the
    #: kernel benchmark raises both so per-subject reachable sets have
    #: realistic enterprise weight (tens of vertices, not a handful).
    roles_per_user: int = 1
    privileges_per_role: int = 1
    #: user-specific ¤/♦ delegations each top role's administrator
    #: entry carries — delegated administration grows with the
    #: organization, so the kernel benchmark scales it up.
    delegations_per_top_role: int = 4


@dataclass(frozen=True)
class ChurnOp:
    """One trace step: apply ``command``'s edge (kind="mutate") or probe
    the index with it (kind="query")."""

    kind: str  # "mutate" | "query"
    command: Command


@dataclass
class ChurnStats:
    """Outcome counters of one trace replay."""

    mutations: int = 0
    queries: int = 0
    permitted: int = 0
    decisions: list[bool] = field(default_factory=list)


def churn_policy(seed: int, shape: ChurnShape = ChurnShape()) -> Policy:
    """The initial organization for a churn trace (deterministic)."""
    rng = random.Random(seed)
    policy = Policy()
    roles = [Role(f"r{i}") for i in range(shape.n_roles)]
    for role in roles:
        policy.add_role(role)
    per_layer = max(1, shape.n_roles // shape.layers)
    for index, role in enumerate(roles):
        layer = index // per_layer
        juniors = roles[(layer + 1) * per_layer:(layer + 2) * per_layer]
        if juniors:
            policy.add_inheritance(role, rng.choice(juniors))
        policy.assign_privilege(role, perm("read", f"doc{index}"))
        for extra in range(1, shape.privileges_per_role):
            # Deterministic (no rng draw): keeps the default-shape
            # stream byte-identical to the original generator.
            policy.assign_privilege(
                role, perm("write" if extra % 2 else "exec",
                           f"doc{index}.{extra}")
            )

    users = [User(f"u{i}") for i in range(shape.n_users)]
    for user in users:
        policy.add_user(user)
        policy.assign_user(user, rng.choice(roles))
        for _ in range(1, shape.roles_per_user):
            policy.assign_user(user, rng.choice(roles))

    admin_role = Role("admin")
    policy.add_role(admin_role)
    top = roles[:per_layer]
    for senior in top:
        # Administrators may assign anyone into a top role (and hence,
        # by rule 2, into anything it inherits) and revoke exact edges.
        policy.assign_privilege(admin_role, Grant(senior, senior))
        for user in rng.sample(
            users, min(shape.delegations_per_top_role, len(users))
        ):
            policy.assign_privilege(admin_role, Grant(user, senior))
            policy.assign_privilege(admin_role, Revoke(user, senior))
    for i in range(shape.n_admins):
        admin = User(f"admin{i}")
        policy.add_user(admin)
        policy.assign_user(admin, admin_role)
    return policy


def churn_trace(seed: int, shape: ChurnShape = ChurnShape()) -> list[ChurnOp]:
    """A deterministic interleaved mutate/query trace for the policy
    built by :func:`churn_policy` with the same seed and shape: UA
    churn with probability ``ua_fraction``, RH churn otherwise, and
    ``queries_per_mutation`` grant probes after each mutation."""
    rng = random.Random(seed ^ 0x5EED)
    users = [User(f"u{i}") for i in range(shape.n_users)]
    admins = [User(f"admin{i}") for i in range(shape.n_admins)]
    roles = [Role(f"r{i}") for i in range(shape.n_roles)]
    ops: list[ChurnOp] = []
    for _ in range(shape.mutations):
        issuer = rng.choice(admins)
        if rng.random() < shape.ua_fraction:
            edge = (rng.choice(users), rng.choice(roles))
        else:
            senior, junior = rng.sample(roles, 2)
            edge = (senior, junior)
        maker = grant_cmd if rng.random() < 0.6 else revoke_cmd
        ops.append(ChurnOp("mutate", maker(issuer, *edge)))
        for _ in range(shape.queries_per_mutation):
            probe_user = rng.choice(admins + users[:8])
            probe_edge = (rng.choice(users), rng.choice(roles))
            ops.append(ChurnOp("query", grant_cmd(probe_user, *probe_edge)))
    return ops


def run_churn(policy: Policy, index, trace: list[ChurnOp]) -> ChurnStats:
    """Replay a trace: mutations hit the policy directly (the trace is
    the post-authorization mutation stream), queries hit the index."""
    stats = ChurnStats()
    for op in trace:
        if op.kind == "mutate":
            source, target = op.command.source, op.command.target
            if op.command.action is CommandAction.GRANT:
                policy.add_edge(source, target)
            else:
                policy.remove_edge(source, target)
            stats.mutations += 1
        else:
            decision = index.authorizes(op.command.user, op.command)
            stats.queries += 1
            allowed = decision is not None
            stats.permitted += allowed
            stats.decisions.append(allowed)
    return stats


def differential_churn(
    seed: int,
    steps: int = 50,
    shape: PolicyShape = PolicyShape(),
    probes_per_step: int = 12,
    remove_users: bool = False,
    mutation_log: list[str] | None = None,
) -> list[str]:
    """Randomized differential check: after every delta burst the
    incrementally repaired index must agree with two oracles.

    * **Invariant 7** — a fresh ``AuthorizationIndex(policy)`` pins
      incremental maintenance exactly, internal structures included:
      held masks, rectangles, the rectangle rows the scalar path reads
      (held mask, union masks, rows in ascending privilege ID), the
      memo and the cover table the batch path reads
      (:func:`cover_table_problems`), effective authority and every
      probe's covering privilege.
    * **Invariant 9** — :class:`~repro.oracle.ReferenceIndex` pins the
      bitset kernel to the definitions: held sets, decoded rectangles
      (``thaw()``), review surfaces, and probe decisions at grant/deny
      level.  The covering privilege may legitimately differ when
      several cover (scan order), so a claimed one must be genuinely
      held.

    Every fifth step, invariant 7 also covers the lazy index fork of
    :meth:`Policy.copy` (:func:`lazy_fork_problems`).

    Each step applies a burst of one to three mutations back-to-back
    and only then calls ``index.refresh()``, so every repair replays a
    multi-delta journal window — including, with ``remove_users``, a
    user removed *and re-added* inside one burst, where the repair must
    end up with a fresh entry, neither resurrecting the stale one nor
    losing it.

    ``remove_users=True`` mixes user deprovisioning (and usually
    re-provisioning) into the mutations — the interner ID-reuse case.
    ``mutation_log`` (if given) collects one label per mutation, so
    callers can assert the mix was actually exercised.  Returns the
    list of violations (empty means the property held).
    Random policies here exercise cycles, nested admin privileges and
    privilege-vertex garbage collection — the edge cases of the dirty
    region computation.
    """
    from ..core.authz_index import AuthorizationIndex
    from ..oracle import ReferenceIndex

    rng = random.Random(seed)
    policy = random_policy(seed, shape)
    index = policy.index
    reference = ReferenceIndex(policy)
    violations: list[str] = []

    users = sorted(policy.users(), key=str)
    roles = sorted(policy.roles(), key=str)
    privileges = sorted(policy.subterm_closure(), key=str)

    def mutate(target: Policy) -> str:
        return _random_mutation(rng, target, users, roles, privileges)

    for step_number in range(steps):
        burst: list[str] = []
        for _ in range(rng.randint(1, 3)):
            if remove_users and rng.random() < 0.25 and users:
                victim = rng.choice(users)
                policy.remove_user(victim)
                burst.append(f"remove-user {victim}")
                if rng.random() < 0.7:
                    # Re-added in the same burst: the freed interner ID
                    # is typically handed straight back — a surviving
                    # stale mask would now misread it.
                    policy.add_user(victim)
                    policy.assign_user(victim, rng.choice(roles))
                    burst.append(f"re-add {victim}")
            else:
                burst.append(mutate(policy))
        mutation = "; ".join(burst)
        if mutation_log is not None:
            mutation_log.extend(burst)
        index.refresh()
        fresh = AuthorizationIndex(policy)
        violations.extend(
            f"step {step_number} ({mutation}): {problem}"
            for problem in cover_table_problems(index, fresh)
        )
        for user in users:
            if index._held.get(user) != fresh._held.get(user):
                violations.append(
                    f"step {step_number} ({mutation}): held set of {user} "
                    "diverged from full rebuild"
                )
            if set(index._rectangles.get(user, ())) != set(
                fresh._rectangles.get(user, ())
            ):
                violations.append(
                    f"step {step_number} ({mutation}): rectangles of {user} "
                    "diverged from full rebuild"
                )
            authority = index.effective_authority(user)
            if authority != fresh.effective_authority(user):
                violations.append(
                    f"step {step_number} ({mutation}): effective authority "
                    f"of {user} diverged from full rebuild"
                )
            row = index._rect_rows.get(user)
            if row != fresh._rect_rows.get(user):
                violations.append(
                    f"step {step_number} ({mutation}): rectangle rows "
                    f"of {user} (held mask, union masks or rows) "
                    "diverged from full rebuild"
                )
            pids = [] if row is None else [entry[3] for entry in row[3]]
            if pids != sorted(pids):
                violations.append(
                    f"step {step_number} ({mutation}): rectangle rows "
                    f"of {user} are not in ascending privilege-ID order"
                )
            if index.held_privileges(user) != reference.held_privileges(
                user
            ):
                violations.append(
                    f"step {step_number} ({mutation}): held set of "
                    f"{user} diverged from the reference"
                )
            if {
                r.thaw(policy.graph)
                for r in index._rectangles.get(user, ())
            } != set(reference.rectangles(user)):
                violations.append(
                    f"step {step_number} ({mutation}): rectangles of "
                    f"{user} diverged from the reference"
                )
            if authority != reference.effective_authority(user):
                violations.append(
                    f"step {step_number} ({mutation}): effective "
                    f"authority of {user} diverged from the reference"
                )
        for _ in range(probes_per_step):
            issuer = rng.choice(users)
            probe = Command(
                issuer,
                rng.choice([CommandAction.GRANT, CommandAction.REVOKE]),
                rng.choice(users + roles),
                rng.choice(roles + privileges),
            )
            got = index.authorizes(issuer, probe)
            if got != fresh.authorizes(issuer, probe):
                violations.append(
                    f"step {step_number}: incremental and fresh index "
                    f"disagree on {probe}"
                )
            want = reference.authorizes(issuer, probe)
            if (got is None) != (want is None):
                violations.append(
                    f"step {step_number}: index and reference disagree "
                    f"on {probe}"
                )
            elif got is not None and got not in reference.held_privileges(
                issuer
            ):
                violations.append(
                    f"step {step_number}: index authorized {probe} by a "
                    f"privilege the reference says {issuer} does not hold"
                )
        if step_number % 5 == 0:  # last in the step: it churns on
            violations.extend(
                f"step {step_number}: {problem}"
                for problem in lazy_fork_problems(policy, mutate)
            )
    return violations


def lazy_fork_problems(policy: Policy, mutate) -> list[str]:
    """Invariant 7 for :meth:`Policy.copy`'s lazy index fork, on a
    ``policy`` whose index is built (``mutate(p)`` applies one random
    mutation to ``p``).  Copies read their index at once, after the
    source moved, or after the clone moved: only an unmoved pair may
    fork, with no ``AuthorizationIndex.__init__`` call (so no full
    rebuild counted).  Each clone's index must equal a fresh build —
    cover table and held sets — and still must, as must the source's,
    after both sides churn on."""
    from ..core.authz_index import AuthorizationIndex

    def diverged(side: str, owner: Policy) -> list[str]:
        index, fresh = owner.index, AuthorizationIndex(owner)
        held = [] if index._held == fresh._held else ["held sets diverged"]
        return [f"{side}: {problem}"
                for problem in cover_table_problems(index, fresh) + held]

    problems: list[str] = []
    for branch in ("read at once", "source moved", "clone moved"):
        clone, version = policy.copy(), policy.version
        moved = {"source moved": policy, "clone moved": clone}.get(branch)
        for _ in range(8):  # a random mutation may be a no-op
            if moved is None or moved.version != version:
                break
            mutate(moved)
        forked = clone.index.full_rebuilds == 0
        if forked != (policy.version == clone.version == version):
            problems.append(f"copy {branch}: {'forked' if forked else 'built'}")
        problems += diverged(f"copy {branch}, clone", clone)
        mutate(policy)
        mutate(clone)
        problems += diverged(f"copy {branch}, churned source", policy)
        problems += diverged(f"copy {branch}, churned clone", clone)
    return problems


def cover_table_problems(index, fresh) -> list[str]:
    """The cover-table part of invariant 7, for a repaired ``index``
    and a ``fresh`` one over the same policy: the cover table must
    equal a fresh inversion of ``index``'s own rectangle memo, keyed by
    each privilege's current vertex ID, and every memoized rectangle
    of a held grant (one ``fresh`` memoized) must equal ``fresh``'s."""
    vid = index.policy.graph._vid
    sources: dict[int, int] = {}
    targets: dict[int, int] = {}
    problems: list[str] = []
    for privilege, rectangle in index._rect_memo.items():
        pid = vid.get(privilege)
        if pid is None:
            problems.append(f"rectangle memo keeps off-graph {privilege}")
            continue
        for cover, mask in (
            (sources, rectangle.source_bits),
            (targets, rectangle.target_bits),
        ):
            for vertex_id in iter_bits(mask):
                cover[vertex_id] = cover.get(vertex_id, 0) | 1 << pid
        current = fresh._rect_memo.get(privilege)
        if current is not None and current != rectangle:
            problems.append(
                f"memoized rectangle of {privilege} diverged from full "
                "rebuild"
            )
    if index._source_cover != sources or index._target_cover != targets:
        problems.append(
            "cover table is not the inversion of the rectangle memo"
        )
    return problems


def _random_mutation(rng, policy, users, roles, privileges) -> str:
    """Apply one random legal mutation to ``policy``; returns a label."""
    kind = rng.random()
    if kind < 0.3:
        existing = sorted(policy.edge_set(), key=str)
        if existing:
            edge = rng.choice(existing)
            policy.remove_edge(*edge)
            return f"remove {edge}"
    if kind < 0.55:
        user, role = rng.choice(users), rng.choice(roles)
        policy.assign_user(user, role)
        return f"assign {user}->{role}"
    if kind < 0.8:
        senior, junior = rng.sample(roles, 2) if len(roles) > 1 else (
            roles[0], roles[0]
        )
        if senior != junior:
            policy.add_inheritance(senior, junior)
            return f"inherit {senior}->{junior}"
    role = rng.choice(roles)
    privilege = rng.choice(privileges)
    policy.assign_privilege(role, privilege)
    return f"pa {role}->{privilege}"
