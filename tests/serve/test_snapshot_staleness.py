"""Property tests for reader isolation and publication monotonicity.

The serving contract has two halves: a reader pinned to the snapshot
published at version V must never observe a grant/revoke applied at
V+1 (its world is frozen at capture), and the published version itself
must only ever move forward, however the writers interleave.
"""

import asyncio
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.authz_index import AuthorizationIndex
from repro.core.commands import Command, CommandAction
from repro.serve import PolicyDecisionPoint

from ..property.strategies import ROLES, USERS, policies
from .conftest import run

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def query_batch(seed: int) -> list:
    """A deterministic decision batch over the shared entity pools."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(20):
        subject = rng.choice(USERS)
        command = Command(
            subject,
            rng.choice([CommandAction.GRANT, CommandAction.REVOKE]),
            rng.choice(USERS + ROLES),
            rng.choice(ROLES),
        )
        pairs.append((subject, command))
    return pairs


def mutation_batch(seed: int, count: int = 9) -> list[Command]:
    """Random user-assignment churn issued by random principals (many
    will be denied — denials must not republish either)."""
    rng = random.Random(seed)
    return [
        Command(
            rng.choice(USERS),
            rng.choice([CommandAction.GRANT, CommandAction.REVOKE]),
            rng.choice(USERS),
            rng.choice(ROLES),
        )
        for _ in range(count)
    ]


@SETTINGS
@given(
    policy=policies(max_admin=3, admin_depth=2),
    seed=st.integers(0, 10_000),
    compiled=st.booleans(),
)
def test_pinned_reader_never_observes_later_mutations(
    policy, seed, compiled
):
    """Hold the snapshot published at V, mutate past it (queued
    writers plus a guaranteed out-of-band edge flip), and re-ask: the
    pinned snapshot answers from the frozen V state, bit for bit."""
    pairs = query_batch(seed)
    mutations = mutation_batch(seed + 1)

    async def scenario():
        async with PolicyDecisionPoint(
            policy=policy, compiled=compiled, max_batch=4
        ) as pdp:
            pinned = pdp.last_snapshot
            pinned_version = pinned.version
            frozen = pinned.policy_copy()
            before = pinned.authorizes_batch(pairs)
            bulk_before = pinned.grantable_pairs_bulk(USERS)

            chunks = [mutations[i::3] for i in range(3)]
            await asyncio.gather(*[
                pdp.submit_many(chunk) for chunk in chunks if chunk
            ])
            # Guaranteed policy change, whatever the commands did:
            # flip one UA edge out-of-band and republish.
            rng = random.Random(seed + 2)
            user, role = rng.choice(USERS), rng.choice(ROLES)
            if not pdp.monitor.policy.add_edge(user, role):
                pdp.monitor.policy.remove_edge(user, role)
            await pdp.refresh()

            return (
                pinned, pinned_version, frozen, before, bulk_before,
                pdp.version,
            )

    pinned, pinned_version, frozen, before, bulk_before, published = run(
        scenario()
    )
    # The publication moved on; the pinned snapshot did not.
    assert published > pinned_version
    assert pinned.version == pinned_version
    assert pinned.authorizes_batch(pairs) == before
    assert pinned.grantable_pairs_bulk(USERS) == bulk_before
    # And the frozen answers are exactly the V-state kernel's answers.
    oracle = AuthorizationIndex(frozen, compiled=False)
    assert before == oracle.authorizes_batch(pairs)
    assert bulk_before == oracle.grantable_pairs_bulk(USERS)


@SETTINGS
@given(
    policy=policies(max_admin=3, admin_depth=2),
    seed=st.integers(0, 10_000),
)
def test_republication_is_monotone_under_interleaved_writers(
    policy, seed
):
    """However three writers' micro-batches interleave, every observer
    — a version-polling watcher and a decision-making reader — sees a
    non-decreasing version sequence, and the final publication matches
    the policy exactly."""
    mutations = mutation_batch(seed, count=15)
    pairs = query_batch(seed + 1)

    async def scenario():
        async with PolicyDecisionPoint(
            policy=policy, max_batch=2
        ) as pdp:
            watched: list[int] = []
            decided: list[int] = []
            done = asyncio.Event()

            async def watcher():
                while not done.is_set():
                    watched.append(pdp.version)
                    assert pdp.last_snapshot.version == pdp.version
                    await asyncio.sleep(0)

            async def reader():
                for subject, command in pairs:
                    decision = await pdp.check(subject, command)
                    decided.append(decision.version)

            async def writer(chunk):
                for command in chunk:
                    await pdp.submit(command)

            watch_task = asyncio.ensure_future(watcher())
            await asyncio.gather(
                reader(),
                *[writer(mutations[i::3]) for i in range(3)],
            )
            done.set()
            await watch_task
            watched.append(pdp.version)
            return watched, decided, pdp.version, pdp.monitor.policy.version

    watched, decided, published, policy_version = run(scenario())
    assert watched == sorted(watched)
    assert decided == sorted(decided)
    assert published == policy_version  # nothing left unpublished
