"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the repository root: ``python3 -m pytest -q bench``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stats import MIN_BEYOND, percentile, self_times, serial_time  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 99) == 5.0
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 50) == 500.0
    assert percentile(values, 99, MIN_BEYOND) == 990.0  # 10 values lie beyond


def test_tail_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        percentile([float(v) for v in range(999)], 99, MIN_BEYOND)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, 0.0, 100.0),
        (2, 1, 10.0, 30.0),
        (3, 1, 20.0, 50.0),  # overlaps span 2: covered once
        (4, 1, 60.0, 70.0),
        (5, 2, 12.0, 28.0),  # grandchild: only span 2 loses it
    ]
    own = self_times(spans)
    assert own[1] == 50.0
    assert own[2] == 4.0
    assert own[3] == 30.0
    assert own[5] == 16.0


def test_serial_time_is_window_minus_busy_union():
    busy = [(10.0, 30.0), (20.0, 50.0), (90.0, 120.0), (-5.0, 0.0)]
    assert serial_time((0.0, 100.0), busy) == 50.0
    assert serial_time((0.0, 100.0), []) == 100.0


def _span(span_id, parent, name, start, end, note=None, ok=True):
    return (span_id, parent, name, "s0", start, end, ok, note)


def test_layer_metrics_distinct_steps_serial_time_and_share():
    from reflectrag.tokens import DECISION_TOKENS, RELEVANCE_TOKENS

    ms = 1_000_000
    spans = [
        _span(1, 0, "engine.run", 0, 10 * ms),
        _span(2, 1, "backend.generate", 0, 1 * ms, (DECISION_TOKENS, "a")),
        _span(3, 1, "index.search", 1 * ms, 5 * ms, 2 * ms),  # note: thread CPU
        _span(4, 1, "backend.generate", 5 * ms, 6 * ms, (RELEVANCE_TOKENS, "b")),
        _span(5, 1, "backend.generate", 6 * ms, 7 * ms, (RELEVANCE_TOKENS, "b")),
        _span(6, 1, "backend.generate", 7 * ms, 8 * ms, (None, "c"), ok=False),
        _span(7, 0, "engine.run", 12 * ms, 20 * ms),
    ]
    m = layer_metrics(spans, window_end_ns=25 * ms)
    assert m["backend.distinct_step_ratio"] == 0.75
    assert (m["backend.calls.decide"], m["backend.calls.judge"], m["backend.calls.answer"]) == (1, 2, 1)
    assert m["backend.errors"] == 1
    assert m["index.search.share"] == 4 / 18
    assert m["index.search.cpu_share"] == 2 / 18
    assert m["harness.serial_ms"] == 7.0  # 10..12 and 20..25 ms
    assert m["http.post_json.calls"] == 0 and m["http.retries"] == 0


def test_patch_replaces_every_alias_and_restores():
    from reflectrag import engine, index

    original = index.search
    tracer = Tracer()
    tracer.patch(index, "search", "index.search")
    try:
        assert engine.search is index.search is not original
    finally:
        tracer.restore()
    assert engine.search is index.search is original
