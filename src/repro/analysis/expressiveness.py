"""Expressibility of related-work delegation idioms (§5).

The paper's related-work section makes two concrete expressibility
claims:

* **PBDM** (Zhang, Oh & Sandhu): "The PDBM model defines a cascaded
  delegation.  This form of delegation is also expressible in our
  grammar (by nesting the ¤ connective).  In the PDBM model, however,
  each delegation requires the addition of a separate role" — whereas
  in the paper's model no extra roles are needed.
* **Barka & Sandhu**: "each level of delegation requires the
  definition of tens of sets and functions, whereas in our model
  administrative privileges, of an arbitrary complexity, are simply
  assigned to roles".

This module operationalizes the first claim: a *cascaded delegation
spec* (delegate membership of role R to u1, who may re-delegate to u2,
… up to depth n) is translated both ways —

* :func:`encode_as_nested_grant` — one nested ¤ term, zero new roles;
* :func:`encode_as_pbdm_roles` — the PBDM-style encoding: one fresh
  *delegation role* per step, wired into the hierarchy.

Both encodings are executable against the Definition-5 semantics and
the tests verify they authorize the same end-to-end delegation chain;
:func:`encoding_cost` counts the artifacts each needs (the quantified
§5 comparison reported by the BASE benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.commands import Mode, grant_cmd, run_queue
from ..core.entities import Role, User
from ..core.policy import Policy
from ..core.privileges import Grant


@dataclass(frozen=True)
class CascadedDelegation:
    """Delegate membership of ``target_role``: ``delegators[0]`` may
    grant it to ``delegators[1]``, who may pass it on, …, ending with
    ``final_recipient``."""

    target_role: Role
    delegators: tuple[User, ...]
    final_recipient: User

    def __post_init__(self):
        if not self.delegators:
            raise ValueError("a cascade needs at least one delegator")

    @property
    def depth(self) -> int:
        return len(self.delegators)


def encode_as_nested_grant(
    policy: Policy, cascade: CascadedDelegation, anchor_role: Role
) -> Policy:
    """The paper's encoding: one nested ¤ term assigned to
    ``anchor_role`` (the role of the first delegator); no new roles.

    The term reads, inside-out: the last delegator may grant the final
    recipient membership; the one before may grant the last delegator
    the privilege to do so; and so on.
    """
    encoded = policy.copy()
    # Innermost: the final assignment privilege.
    term = Grant(cascade.final_recipient, cascade.target_role)
    # Each delegator (from the last backwards, excluding the first)
    # receives the previous term via a personal holder role — the
    # grammar assigns privileges to roles, so delegation *to a user*
    # goes through the role(s) that user activates; here we use the
    # target-role-free formulation: ¤(role_of(u_i), term).  For the
    # comparison we model "user u may ..." as a grant to a singleton
    # role the user already has; policies built by `cascade_policy`
    # provide one home role per delegator.
    for delegator in reversed(cascade.delegators[1:]):
        home = _home_role(delegator)
        term = Grant(home, term)
    encoded.assign_privilege(anchor_role, term)
    return encoded


def encode_as_pbdm_roles(
    policy: Policy, cascade: CascadedDelegation
) -> tuple[Policy, list[Role]]:
    """The PBDM-style encoding: one fresh delegation role per step.

    Step i assigns party_i (the next delegator, or finally the
    recipient) to the fresh role ``DLGT_i``.  The privilege to perform
    step 0 sits on the first delegator's home role; the privilege to
    perform step i+1 sits on ``DLGT_i`` itself — membership acquired
    in one step is what enables the next, which is the cascading.  The
    last delegation role inherits the target role.
    """
    encoded = policy.copy()
    new_roles: list[Role] = []
    parties = list(cascade.delegators[1:]) + [cascade.final_recipient]
    previous_holder: Role = _home_role(cascade.delegators[0])
    for index, party in enumerate(parties):
        delegation_role = Role(f"DLGT_{cascade.target_role.name}_{index}")
        new_roles.append(delegation_role)
        encoded.add_role(delegation_role)
        if index == len(parties) - 1:
            encoded.add_inheritance(delegation_role, cascade.target_role)
        encoded.assign_privilege(
            previous_holder, Grant(party, delegation_role)
        )
        previous_holder = delegation_role
    return encoded, new_roles


def run_pbdm_cascade(
    cascade: CascadedDelegation,
) -> tuple[bool, Policy]:
    """Execute the PBDM-role encoding end to end under strict
    Definition-5 semantics; returns (recipient reached target?, final
    policy)."""
    base = cascade_policy(cascade)
    policy, new_roles = encode_as_pbdm_roles(base, cascade)
    parties = list(cascade.delegators[1:]) + [cascade.final_recipient]
    queue = [
        grant_cmd(cascade.delegators[index], party, new_roles[index])
        for index, party in enumerate(parties)
    ]
    final, records = run_queue(policy, queue, Mode.STRICT)
    executed = all(record.executed for record in records)
    reached = final.reaches(cascade.final_recipient, cascade.target_role)
    return (executed and reached, final)


def _home_role(user: User) -> Role:
    """The singleton 'home' role convention used by cascade policies."""
    return Role(f"home_{user.name}")


def cascade_policy(cascade: CascadedDelegation) -> Policy:
    """A base policy with one home role per delegator and the target
    role present (privileges attached by the caller/tests)."""
    policy = Policy()
    policy.add_role(cascade.target_role)
    for delegator in cascade.delegators:
        policy.assign_user(delegator, _home_role(delegator))
    policy.add_user(cascade.final_recipient)
    return policy


@dataclass(frozen=True)
class EncodingCost:
    """Artifacts each encoding needs for a depth-n cascade."""

    depth: int
    nested_new_roles: int
    nested_new_privileges: int
    pbdm_new_roles: int
    pbdm_new_privileges: int


def encoding_cost(depth: int) -> EncodingCost:
    """The §5 comparison, quantified for a depth-``depth`` cascade."""
    delegators = tuple(User(f"d{i}") for i in range(depth))
    cascade = CascadedDelegation(Role("target"), delegators, User("final"))
    base = cascade_policy(cascade)
    anchor = _home_role(delegators[0])

    nested = encode_as_nested_grant(base, cascade, anchor)
    pbdm, new_roles = encode_as_pbdm_roles(base, cascade)

    def role_count(policy: Policy) -> int:
        return sum(1 for _ in policy.roles())

    def admin_count(policy: Policy) -> int:
        return sum(1 for _ in policy.admin_privileges_assigned())

    return EncodingCost(
        depth=depth,
        nested_new_roles=role_count(nested) - role_count(base),
        nested_new_privileges=admin_count(nested) - admin_count(base),
        pbdm_new_roles=role_count(pbdm) - role_count(base),
        pbdm_new_privileges=admin_count(pbdm) - admin_count(base),
    )


def encodings_equi_obtainable(cascade: CascadedDelegation) -> bool:
    """§5's expressibility claim, checked through the admin-reachability
    explorer: the nested-¤ encoding and the PBDM-role encoding of the
    same cascade agree on whether the delegation chain can be driven
    end to end, explored deep enough to unroll the whole chain.

    The cascade manipulates memberships, so the base policy is given
    one marker user privilege on the target role — the pair
    ``(final_recipient, marker)`` becomes obtainable under an encoding
    exactly when its chain can be executed; this function compares that
    single marker pair's obtainability (not the full obtainable sets,
    which legitimately differ in the PBDM delegation-role plumbing).
    """
    from ..core.privileges import perm

    marker = perm("use", cascade.target_role.name)
    base = cascade_policy(cascade)
    base.assign_privilege(cascade.target_role, marker)
    anchor = _home_role(cascade.delegators[0])
    nested = encode_as_nested_grant(base, cascade, anchor)
    pbdm, _roles = encode_as_pbdm_roles(base, cascade)
    depth = cascade.depth + 1
    from .reachability import obtainable_pairs

    nested_pairs = obtainable_pairs(nested, depth, Mode.STRICT)
    pbdm_pairs = obtainable_pairs(pbdm, depth, Mode.STRICT)
    target_pair = (cascade.final_recipient, marker)
    return (target_pair in nested_pairs) == (target_pair in pbdm_pairs)


def run_nested_cascade(
    cascade: CascadedDelegation,
) -> tuple[bool, Policy]:
    """Execute the nested-grant encoding end to end under strict
    Definition-5 semantics; returns (recipient reached target?, final
    policy)."""
    base = cascade_policy(cascade)
    anchor = _home_role(cascade.delegators[0])
    policy = encode_as_nested_grant(base, cascade, anchor)

    queue = []
    # Unroll the nesting: delegator i grants the next level's term.
    term = next(
        privilege
        for role, privilege in policy.admin_privileges_assigned()
        if role == anchor
    )
    for delegator in cascade.delegators:
        queue.append(grant_cmd(delegator, *term.edge))
        if isinstance(term.target, Grant):
            term = term.target
        else:
            break
    final, records = run_queue(policy, queue, Mode.STRICT)
    executed = all(record.executed for record in records)
    reached = final.reaches(cascade.final_recipient, cascade.target_role)
    return (executed and reached, final)
