"""Tests for the packed-mask primitives (``pack_bits``/``lowest_bit``)
behind batch authorization."""

from repro.graph import (
    Digraph,
    descendants_of_mask,
    iter_bits,
    lowest_bit,
    pack_bits,
)
from repro.graph.digraph import _is_dense


def build_graph():
    graph = Digraph()
    for name in "abcd":
        graph.add_vertex(name)
    return graph


class TestPackBits:
    def test_roundtrip_with_iter_bits(self):
        graph = build_graph()
        mask = pack_bits(graph, ["a", "c", "d"])
        decoded = {graph._vertex_of[i] for i in iter_bits(mask)}
        assert decoded == {"a", "c", "d"}

    def test_off_graph_members_are_skipped(self):
        graph = build_graph()
        assert pack_bits(graph, ["a", "zz", "c"]) == pack_bits(
            graph, ["a", "c"]
        )
        assert pack_bits(graph, ["zz"]) == 0
        assert pack_bits(graph, []) == 0

    def test_duplicates_idempotent(self):
        graph = build_graph()
        assert pack_bits(graph, ["b", "b", "b"]) == pack_bits(graph, ["b"])

    def test_recycled_ids(self):
        graph = build_graph()
        before = pack_bits(graph, ["a"])
        graph.remove_vertex("a")
        graph.add_vertex("e")  # consumes the freed ID
        assert pack_bits(graph, ["a"]) == 0
        assert pack_bits(graph, ["e"]) == before  # same recycled slot


class TestLowestBit:
    def test_matches_iter_bits_head(self):
        for mask in (1, 0b1010, 0b100100, 1 << 63, (1 << 200) | (1 << 7)):
            assert lowest_bit(mask) == next(iter_bits(mask))

    def test_empty_mask(self):
        assert lowest_bit(0) == -1

    def test_single_bit(self):
        assert lowest_bit(1 << 97) == 97


def set_bits(mask: int) -> list[int]:
    """The set-bit indices of ``mask``, ascending, one test per bit."""
    return [index for index in range(mask.bit_length()) if mask >> index & 1]


class TestIterBits:
    """``iter_bits`` decodes dense masks by a scan of their binary
    digits and sparse ones by peeling low bits; both yield ascending
    indices."""

    def test_dense_mask(self):
        mask = (1 << 2600) - 1 ^ (1 << 7) ^ (1 << 1999)
        assert _is_dense(mask)
        assert list(iter_bits(mask)) == set_bits(mask)

    def test_sparse_mask(self):
        for mask in (0b101, (1 << 2599) | (1 << 3) | 1, 1 << 4000):
            assert not _is_dense(mask)
            assert list(iter_bits(mask)) == set_bits(mask)

    def test_empty_mask(self):
        assert list(iter_bits(0)) == []

    def test_short_full_mask_keeps_the_peel_loop(self):
        mask = (1 << 200) - 1
        assert not _is_dense(mask)
        assert list(iter_bits(mask)) == list(range(200))

    def test_recycled_ids(self):
        graph = Digraph()
        for index in range(600):
            graph.add_vertex(f"v{index}")
        for index in range(0, 600, 3):
            graph.remove_vertex(f"v{index}")
        for index in range(100):
            graph.add_vertex(f"w{index}")  # take freed IDs, highest first
        mask = pack_bits(graph, graph.vertices())
        assert _is_dense(mask)
        decoded = list(iter_bits(mask))
        assert decoded == set_bits(mask) == sorted(graph._vid.values())
        assert {graph._vertex_of[i] for i in decoded} == set(graph.vertices())

    def test_dense_sweep_frontier(self):
        """A sweep round whose new bits are dense expands every one."""
        graph = Digraph()
        for index in range(500):
            graph.add_edge("root", f"mid{index}")
            graph.add_edge(f"mid{index}", f"leaf{index}")
        seed = pack_bits(graph, ["root"])
        reached = descendants_of_mask(graph, seed)
        assert reached == pack_bits(graph, graph.vertices())
