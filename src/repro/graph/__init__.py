"""Directed-graph substrate for RBAC policies.

Built from scratch (no third-party graph library in the core path):
RBAC policies are small, frequently mutated graphs, and the reference
monitor and ordering decision procedure need cheap, cache-friendly
reachability.
"""

from .digraph import (
    Digraph,
    GraphDelta,
    JournalCursor,
    JournalWindow,
    Vertex,
    dirty_region,
)
from .reachability import (
    ReachabilityCache,
    ancestors,
    ancestors_bits,
    ancestors_of_mask,
    descendants,
    descendants_bits,
    descendants_of_mask,
    iter_bits,
    lowest_bit,
    pack_bits,
    reaches,
)
from .closure import (
    condensation,
    longest_chain_length,
    strongly_connected_components,
    topological_order,
    transitive_closure,
)
from .fingerprint import StateFingerprint
from .dot import digraph_to_dot, policy_to_dot
from .paths import (
    all_simple_paths,
    explain_reachability,
    format_path,
    shortest_path,
)

__all__ = [
    "Digraph",
    "GraphDelta",
    "JournalCursor",
    "JournalWindow",
    "Vertex",
    "dirty_region",
    "ReachabilityCache",
    "ancestors",
    "ancestors_bits",
    "ancestors_of_mask",
    "descendants",
    "descendants_bits",
    "descendants_of_mask",
    "iter_bits",
    "lowest_bit",
    "pack_bits",
    "reaches",
    "condensation",
    "longest_chain_length",
    "strongly_connected_components",
    "topological_order",
    "transitive_closure",
    "StateFingerprint",
    "digraph_to_dot",
    "policy_to_dot",
    "all_simple_paths",
    "explain_reachability",
    "format_path",
    "shortest_path",
]
