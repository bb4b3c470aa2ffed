"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one experiment of the
reproduction; its module docstring names the claim of the paper
(abstract in ``PAPER.md``) it measures.  Two kinds of artifacts are
produced:

* pytest-benchmark timings (``pytest benchmarks/ --benchmark-only``);
* qualitative result tables printed by the ``test_report_*`` items —
  these are the "rows/series" the paper's examples and claims
  correspond to.
"""

import pytest


def built_reference(policy):
    """A from-scratch frozenset index: the reference with every user's
    held set and rectangles built, as an index build computes them."""
    from repro.oracle import ReferenceIndex

    reference = ReferenceIndex(policy)
    for user in policy.users():
        reference.rectangles(user)
    return reference


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render a small fixed-width table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n--- {title} ---")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
