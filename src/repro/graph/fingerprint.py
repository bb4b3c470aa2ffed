"""Canonical state fingerprints for state-space exploration.

The bounded analyses (Definition-5 safety runs, administrative
reachability, the HRU encodings) deduplicate explored policy states.
The frozenset representation hashes a full ``edge_set()`` snapshot per
candidate state — O(state) time and allocation on every probe.  The
compiled representation maintained here is a **big-int bitmask**: every
distinct state *atom* (a vertex, an edge, an access-matrix cell) is
assigned one bit on first sight, a state's fingerprint is the XOR of
the bits of the atoms it holds, and a single mutation updates the
fingerprint with one XOR.  ``seen``-set membership then costs an int
hash instead of a frozenset hash.

Relative to the start state
---------------------------

An explorer need not toggle in the atoms of its initial state: the
exploration engine starts from an empty fingerprint (value 0), so the
value encodes exactly the set of atoms in which the current state
differs from the initial one.  Two states of one exploration are equal
iff they differ from the initial state in the same atoms, i.e. iff
their values are equal.  Fingerprints are only compared within one
exploration (its ``seen`` set), so seeding every vertex and edge of
the initial state — one XOR per atom into an integer as wide as the
policy, per engine — buys nothing.

Canonicalization and interner ID recycling
------------------------------------------

The slot table is keyed by the atom **values** themselves (entities
hash by name, privilege terms structurally), *not* by the graph's
interned vertex IDs (:meth:`~repro.graph.digraph.Digraph.vid`).  The
interner recycles IDs through a free-list: a privilege vertex
garbage-collected by a revoke and re-introduced by a later grant — or a
user deprovisioned and re-provisioned — may come back under a
*different* ID, and two states that are equal as (vertex set, edge set)
pairs could then carry different ID-indexed masks.  The value-keyed
slot table is the remap that makes the fingerprint stable across such
recycling: within one exploration equal states always map to equal
fingerprints, and distinct states to distinct fingerprints (each atom
owns exactly one bit — the fingerprint is an exact encoding of the
difference from the start state, not a hash, so there are no
collisions to reason about).

Two states that differ only in an *isolated* vertex (a user
deprovisioned and re-added with no memberships) differ in their vertex
atoms, so the fingerprint distinguishes them — matching
:meth:`repro.core.policy.Policy.__eq__`, which compares vertex sets as
well as edge sets.  (The pre-compilation explorers deduplicated on
``edge_set()`` alone and collapsed such states; see the regression
tests in ``tests/analysis/test_explore.py``.)
"""

from __future__ import annotations

from typing import Hashable


class StateFingerprint:
    """An incrementally maintained exact bitmask over state atoms.

    ``value`` is the current fingerprint.  :meth:`toggle` flips one
    atom in or out (the caller toggles exactly the atoms its mutation
    changed); an undo restores a previously read ``value`` directly.
    Slots are never recycled — the table grows to the set of atoms ever
    assigned a bit, which for the exploration engine is the atoms its
    candidate commands changed.
    """

    __slots__ = ("_slots", "value")

    def __init__(self):
        self._slots: dict[Hashable, int] = {}
        self.value = 0

    def bit(self, atom: Hashable) -> int:
        """The bit owned by ``atom``, assigned on first sight."""
        slot = self._slots.get(atom)
        if slot is None:
            slot = self._slots[atom] = 1 << len(self._slots)
        return slot

    def toggle(self, atom: Hashable) -> None:
        """Flip ``atom``'s presence in the fingerprint."""
        self.value ^= self.bit(atom)

    @property
    def atoms_interned(self) -> int:
        """Number of distinct atoms ever assigned a slot (diagnostic)."""
        return len(self._slots)

    def __repr__(self) -> str:
        return (
            f"StateFingerprint(atoms={len(self._slots)}, "
            f"bits={bin(self.value).count('1')})"
        )
