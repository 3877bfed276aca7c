"""Arithmetic shared by the benchmark: percentiles, span self time, ratios.

Everything here is pure and has self-tests in ``test_stats.py``.
"""
from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie strictly
    above the returned rank, so a p99 is only reported from >= 1000 samples.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {min_beyond}"
        )
    return ordered[rank - 1]


def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def serial_time(window: tuple[float, float], busy: Iterable[tuple[float, float]]) -> float:
    """Part of ``window`` during which none of the ``busy`` intervals is open."""
    lo, hi = window
    clipped = [(max(s, lo), min(e, hi)) for s, e in busy if e > lo and s < hi]
    return (hi - lo) - merged_length(clipped)


def self_times(spans: Sequence[tuple[int, int, float, float]]) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    ``spans`` holds ``(span_id, parent_id, start, end)``; a parent id of 0
    marks a root span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        out[span_id] = (end - start) - merged_length(kids)
    return out


def distinct_ratio(keys: Sequence[Hashable]) -> float:
    """Distinct keys over all keys (1.0 when every key is new)."""
    if not keys:
        raise ValueError("distinct ratio of no keys")
    return len(set(keys)) / len(keys)

