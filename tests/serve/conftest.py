"""Shared fixtures for the serving-layer suite.

The suite drives coroutines with :func:`run` (a thin ``asyncio.run``)
so it needs no async test plugin locally; CI additionally installs
pytest-asyncio for the serve smoke job, which these sync-driven tests
are equally happy under.
"""

import asyncio

import pytest

from repro.core.entities import Role, User
from repro.core.policy import Policy
from repro.core.privileges import Grant, Revoke

ADMIN, PEER, OTHER = User("admin"), User("peer"), User("other")
ADM = Role("adm")
R, S, T = Role("r"), Role("s"), Role("t")
U = User("u")

BOTH_KERNELS = pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "frozenset"]
)


def run(coroutine):
    """Drive one coroutine to completion on a fresh event loop."""
    return asyncio.run(coroutine)


class ManualClock:
    """A deterministic clock for the rate limiter and latency metrics."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def gate_writer(pdp) -> asyncio.Event:
    """Stall ``pdp``'s writer before it takes its next queued item.

    The writer awaits the returned event, so submissions stay queued
    until the test sets it; unlike a synchronous fault delay, the
    event loop keeps running meanwhile."""
    gate = asyncio.Event()
    take = pdp._queue.get

    async def gated_get():
        await gate.wait()
        return await take()

    pdp._queue.get = gated_get
    return gate


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


def serve_policy() -> Policy:
    """ADMIN and PEER share delegation authority over U/R/S (one
    rectangle via R -> S, one exact revoke, one nested grant); OTHER
    and U hold nothing administrative."""
    policy = Policy(
        ua=[(ADMIN, ADM), (PEER, ADM)],
        rh=[(R, S)],
        pa=[
            (ADM, Grant(U, R)),
            (ADM, Revoke(U, R)),
            (ADM, Grant(ADM, Grant(U, S))),
        ],
    )
    policy.add_user(U)
    policy.add_user(OTHER)
    policy.add_role(T)
    return policy


@pytest.fixture
def policy() -> Policy:
    return serve_policy()
