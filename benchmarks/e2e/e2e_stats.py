"""Exact order statistics and the two-sided comparison rule.

Percentiles are nearest-rank over the raw samples (no interpolation,
no histogram buckets): ``percentile(xs, q)`` is the smallest sample
with at least a ``q`` share of the samples at or below it.  Quartiles
follow :func:`statistics.quantiles` (``n=4``, exclusive method), the
convention the acceptance check for run-to-run spread uses.
"""

from __future__ import annotations

import math
import statistics

#: minimum number of (base, head) pairs before a gain may be claimed.
MIN_PAIRS = 10

#: share of pairs the head must win to claim a gain.
WIN_SHARE = 0.9


def percentile(samples, q: float) -> float:
    """Exact nearest-rank percentile, ``0 < q <= 1``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one
    value; infinite when the median is 0 and the values differ)."""
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    if median == 0:
        return math.inf
    return (q3 - q1) / abs(median)


def verdict(base, head, better: str, bound: float) -> dict:
    """Compare paired runs of one metric on one workload.

    ``base[i]`` and ``head[i]`` are the i-th pair (the caller
    alternates which side ran first).  Rule, in order:

    * **better** — the head wins at least ``WIN_SHARE`` of at least
      ``MIN_PAIRS`` pairs (ties count for neither side) and the
      medians differ by more than the base's own interquartile
      distance; or every head run beats every base run;
    * **unresolved** — either side's spread is wider than ``bound``;
    * **worse** — the head median is worse than the base median by
      more than ``bound`` of the base median;
    * **unchanged** — otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    base, head = list(base), list(head)
    if not base or not head:
        raise ValueError("both sides need at least one run")
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    losses = sum(1 for b, h in pairs if sign * (h - b) > 0)
    base_q1, base_median, base_q3 = quartiles(base)
    _, head_median, _ = quartiles(head)
    spread = max(relative_spread(base), relative_spread(head))
    worsening = (
        sign * (head_median - base_median) / abs(base_median)
        if base_median else 0.0
    )
    dominates = (
        max(sign * h for h in head) < min(sign * b for b in base)
    )
    if dominates or (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(head_median - base_median) > base_q3 - base_q1
    ):
        outcome = "better"
    elif spread > bound:
        outcome = "unresolved"
    elif worsening > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "verdict": outcome,
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "win_share": wins / len(pairs) if pairs else 0.0,
        #: signed relative change of the head median over the base's.
        "change": (
            (head_median - base_median) / abs(base_median)
            if base_median else 0.0
        ),
        "spread": spread,
    }
