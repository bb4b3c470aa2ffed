"""Shared helpers for the benchmark scripts.

Each ``bench_*.py`` file is a standalone script (``python
benchmarks/bench_NAME.py``) that times one layer of the reproduction
against a baseline and asserts a gate: the exit code is non-zero when
the gate fails.  Every script is run by ``tools/bench_report.py``
(reduced configurations, CI ``bench-smoke`` job) or by a CI step of
its own; ``tests/integration/test_bench_report.py`` keeps it so.  The
paper's claims themselves are asserted by the tier-1 tests
(``tests/papercases/`` and the tests they name), not here.
"""


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
