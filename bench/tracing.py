"""In-memory spans around calls into each module of ``reflectrag``.

The benchmark patches public functions and methods from outside the program:
each name is replaced wherever a ``reflectrag`` module looks it up, because
modules import functions by name (``engine`` calls ``search``, ``harness``
calls ``trace_to_dict``). A span records name, start, end, parent span and
the sample being run; spans stay in memory until the pass ends.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns, thread_time_ns
from typing import Callable

from stats import MIN_BEYOND, percentile, self_times, serial_time

# (span_id, parent_id, name, sample_id, start_ns, end_ns, ok, note); the note
# is what the wrapper's ``note`` function returned, or with ``cpu`` the
# calling thread's CPU time in the span.
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, note: Callable | None = None,
             sample_arg: int | None = None, cpu: bool = False) -> Callable:
        spans, local, next_id = self.spans, self._local, self._next_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [0])
            span_id = next_id()
            parent = stack[-1]
            if sample_arg is not None:
                local.sample = args[sample_arg].id
            extra = None if note is None else note(args, kwargs)
            stack.append(span_id)
            ok = False
            cpu_start = thread_time_ns() if cpu else 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                if cpu:
                    extra = thread_time_ns() - cpu_start
                stack.pop()
                spans.append((span_id, parent, name, getattr(local, "sample", None),
                              start, end, ok, extra))
                if sample_arg is not None:
                    local.sample = None

        return traced

    def patch(self, owner, attr: str, name: str, note: Callable | None = None,
              sample_arg: int | None = None, cpu: bool = False) -> None:
        """Trace ``owner.attr``; for a module, also every alias of it."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, note, sample_arg, cpu)
        if isinstance(owner, type):
            self._set(owner, attr, traced)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "reflectrag" and not mod_name.startswith("reflectrag."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:7]) + "\n")


def _step_note(args, kwargs):
    """Stage and identity of one backend step: (prompt, allowed, max_tokens)."""
    prompt = args[1] if len(args) > 1 else kwargs["prompt"]
    allowed = args[2] if len(args) > 2 else kwargs.get("allowed")
    max_tokens = args[3] if len(args) > 3 else kwargs.get("max_tokens")
    allowed = None if allowed is None else frozenset(allowed)
    key = hash((tuple((s.kind.value, s.payload) for s in prompt), allowed, max_tokens))
    return allowed, key


def _bytes_note(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["data"])


def install(tracer: Tracer) -> None:
    """Patch every traced boundary of the program."""
    import requests.adapters

    from reflectrag import _http, engine, harness, index, kb, prompts, samples, util
    from reflectrag import backend as backend_mod
    from reflectrag.similarity import LexicalOverlapScorer
    from reflectrag.synth import RuleBackend

    tracer.patch(kb, "load_kb", "kb.load_kb")
    tracer.patch(kb, "passages_of", "kb.passages_of")
    tracer.patch(samples, "load_samples", "samples.load_samples")
    tracer.patch(index, "load_index", "index.load_index")
    tracer.patch(index, "search", "index.search", cpu=True)
    tracer.patch(index, "candidate_passages", "index.candidate_passages")
    tracer.patch(prompts, "build_prompt", "prompts.build_prompt")
    tracer.patch(prompts, "prompt_fingerprint", "prompts.prompt_fingerprint")
    for cls in (RuleBackend, backend_mod.RemoteBackend):
        tracer.patch(cls, "constrained_generate", "backend.generate", note=_step_note)
    tracer.patch(backend_mod, "validate_generation_result", "backend.validate")
    tracer.patch(_http, "post_json", "http.post_json")
    tracer.patch(requests.adapters.HTTPAdapter, "send", "http.send")
    tracer.patch(engine.ReflectiveEngine, "run", "engine.run", sample_arg=1)
    tracer.patch(engine, "judge_passage", "engine.judge_passage")
    tracer.patch(engine, "trace_to_dict", "engine.trace_to_dict")
    tracer.patch(engine, "write_traces", "engine.write_traces")
    tracer.patch(LexicalOverlapScorer, "score", "similarity.score")
    tracer.patch(harness, "evaluate_traces", "harness.evaluate_traces")
    tracer.patch(harness, "write_report", "harness.write_report")
    tracer.patch(util, "atomic_write_bytes", "util.atomic_write", note=_bytes_note)


def layer_metrics(spans: list[Span], window_end_ns: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans alone.

    ``window_end_ns`` is when the eval command returned; the eval phase runs
    from the first ``engine.run`` start to it.
    """
    from reflectrag.tokens import DECISION_TOKENS, RELEVANCE_TOKENS

    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy_ms(name: str) -> float:
        return sum(s[5] - s[4] for s in by_name[name]) / 1e6

    def dur_ms(name: str) -> list[float]:
        return [(s[5] - s[4]) / 1e6 for s in by_name[name]]

    def pct(values: list[float], q: float) -> float:
        return percentile(values, q, MIN_BEYOND if q > 50 else 0) if values else 0.0

    run_ms = busy_ms("engine.run")
    m: dict[str, float] = {
        "kb.load_s": busy_ms("kb.load_kb") / 1e3,
        "kb.passages_of.calls": calls("kb.passages_of"),
        "kb.passages_of.busy_ms": busy_ms("kb.passages_of"),
        "samples.load_s": busy_ms("samples.load_samples") / 1e3,
        "index.load_s": busy_ms("index.load_index") / 1e3,
        "index.search.calls": calls("index.search"),
        "index.search.busy_ms": busy_ms("index.search"),
        "index.search.us_p50": pct(dur_ms("index.search"), 50) * 1e3,
        "index.search.share": busy_ms("index.search") / run_ms,
        # Wall time in search includes waiting to re-take the interpreter lock
        # that numpy drops during the product; CPU time of the thread does not.
        "index.search.cpu_share": sum(s[7] for s in by_name["index.search"]) / 1e6 / run_ms,
        "index.candidate_passages.busy_ms": busy_ms("index.candidate_passages"),
        "prompts.build_prompt.calls": calls("prompts.build_prompt"),
        "prompts.build_prompt.busy_ms": busy_ms("prompts.build_prompt"),
        "prompts.prompt_fingerprint.calls": calls("prompts.prompt_fingerprint"),
        "prompts.prompt_fingerprint.busy_ms": busy_ms("prompts.prompt_fingerprint"),
    }

    stages = {DECISION_TOKENS: "decide", RELEVANCE_TOKENS: "judge", None: "answer"}
    steps = by_name["backend.generate"]
    for stage in stages.values():
        mine = [s for s in steps if stages.get(s[7][0], "answer") == stage]
        m[f"backend.calls.{stage}"] = len(mine)
        m[f"backend.busy_ms.{stage}"] = sum(s[5] - s[4] for s in mine) / 1e6
    m["backend.distinct_step_ratio"] = (
        len({s[7][1] for s in steps}) / len(steps) if steps else 0.0
    )
    m["backend.validate.busy_ms"] = busy_ms("backend.validate")
    m["backend.errors"] = sum(1 for s in steps if not s[6])

    posts_by_parent: dict[int, int] = defaultdict(int)
    for s in by_name["http.post_json"]:
        posts_by_parent[s[1]] += s[5] - s[4]
    overhead = [(s[5] - s[4] - posts_by_parent[s[0]]) / 1e6
                for s in steps if s[0] in posts_by_parent]
    m["backend.remote.overhead_ms_p50"] = pct(overhead, 50)

    post_ms = dur_ms("http.post_json")
    m["http.post_json.calls"] = len(post_ms)
    m["http.post_json.ms_p50"] = pct(post_ms, 50)
    m["http.post_json.ms_p99"] = pct(post_ms, 99)
    m["http.post_json.share"] = busy_ms("http.post_json") / run_ms
    m["http.attempts"] = calls("http.send")
    m["http.retries"] = calls("http.send") - calls("http.post_json")

    judge_ids = {s[0] for s in by_name["engine.judge_passage"]}
    own = self_times([(s[0], s[1], s[4], s[5]) for s in spans
                      if s[0] in judge_ids or s[1] in judge_ids])
    m["engine.judge_passage.calls"] = len(judge_ids)
    m["engine.judge_passage.self_ms"] = sum(own[i] for i in judge_ids) / 1e6
    m["engine.trace_to_dict.busy_ms"] = busy_ms("engine.trace_to_dict")
    m["engine.write_traces.busy_ms"] = busy_ms("engine.write_traces")
    m["similarity.score.calls"] = calls("similarity.score")
    m["similarity.score.busy_ms"] = busy_ms("similarity.score")
    m["harness.evaluate_traces.busy_ms"] = busy_ms("harness.evaluate_traces")
    m["harness.write_report.busy_ms"] = busy_ms("harness.write_report")
    runs = [(s[4], s[5]) for s in by_name["engine.run"]]
    window = (min(s for s, _ in runs), window_end_ns)
    m["harness.serial_ms"] = serial_time(window, runs) / 1e6
    m["util.atomic_write.calls"] = calls("util.atomic_write")
    m["util.atomic_write.busy_ms"] = busy_ms("util.atomic_write")
    m["util.bytes_written"] = sum(s[7] for s in by_name["util.atomic_write"])
    return m
