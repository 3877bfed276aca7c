"""One eval command of a benchmark run, in a process of its own.

It imports ``reflectrag`` from the checkout's ``src``, wraps
``ReflectiveEngine.run`` once, and calls ``reflectrag.cli.main`` with eval
arguments on one dataset chunk. The wrapper's first start splits set-up from
the eval phase and its durations are the per-sample latencies. A set-up
probe stops the eval command at its first sample. A traced pass adds the
spans of ``tracing.py``. Each pass is a fresh process, so its peak RSS is
that of one eval command, as a user running the CLI sees it.

Usage: ``python3 bench/worker.py SPEC.json``; ``run.py`` writes the spec, and
the measurements go to ``spec["result"]``.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install, layer_metrics  # noqa: E402


class SetupProbeDone(BaseException):
    """Stops a set-up probe at its first sample (escapes ``except Exception``)."""


class RunClock:
    """The single wrapper on ``ReflectiveEngine.run``."""

    def __init__(self, probe: bool) -> None:
        self.intervals: list[tuple[float, float]] = []
        self.cpu_start: float | None = None
        self.probe = probe

    def install(self, engine_cls) -> None:
        original = engine_cls.run
        clock = self

        def run(engine, sample, config):
            if clock.cpu_start is None:
                clock.cpu_start = time.process_time()
            start = time.perf_counter()
            if clock.probe:
                clock.intervals.append((start, start))
                raise SetupProbeDone
            try:
                return original(engine, sample, config)
            finally:
                clock.intervals.append((start, time.perf_counter()))

        engine_cls.run = run


class StepCounter:
    """Counts calls that reach ``RuleBackend.constrained_generate``."""

    def __init__(self) -> None:
        self.calls: list[None] = []

    def install(self, backend_cls) -> None:
        original = backend_cls.constrained_generate
        calls = self.calls

        def constrained_generate(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        backend_cls.constrained_generate = constrained_generate


def stub_stats(endpoint: str | None) -> dict:
    if endpoint is None:
        return {"requests": 0, "connections": 0}
    with urllib.request.urlopen(f"{endpoint}/stats", timeout=10) as resp:
        return json.loads(resp.read())


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import reflectrag
    from reflectrag import cli
    from reflectrag.engine import ReflectiveEngine
    from reflectrag.synth import RuleBackend

    if not Path(reflectrag.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"reflectrag imported from {reflectrag.__file__}, not {src}")

    clock = RunClock(spec["probe"])
    clock.install(ReflectiveEngine)
    counter = StepCounter()
    counter.install(RuleBackend)
    tracer = Tracer() if spec["trace"] else None
    endpoint = spec.get("endpoint")
    argv = ["eval", "--kb", spec["kb"], "--index", spec["index"],
            "--dataset", spec["dataset"], "--backend", spec["backend"],
            "--variants", ",".join(spec["variants"]), "--out", spec["out"]]
    if endpoint:
        argv += ["--endpoint", endpoint]

    stub_before = stub_stats(endpoint)
    if tracer is not None:
        install(tracer)
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SetupProbeDone:
        code = None
    ended = time.perf_counter()
    ended_ns = time.perf_counter_ns()
    cpu_end = time.process_time()
    if tracer is not None:
        tracer.restore()
    stub_after = stub_stats(endpoint)
    if not clock.intervals:
        raise SystemExit("the eval command started no pipeline run")
    first = min(s for s, _ in clock.intervals)
    requests = stub_after["requests"] - stub_before["requests"]
    record = {"setup_s": first - started}
    if not spec["probe"]:
        record.update({
            "exit_code": code,
            "eval_s": ended - first,
            "cpu_s": cpu_end - clock.cpu_start,
            "runs": len(clock.intervals),
            "latency_ms": [(e - s) * 1e3 for s, e in clock.intervals],
            "backend_calls": len(counter.calls) + requests,
            "stub_requests": requests,
            "stub_connections": stub_after["connections"] - stub_before["connections"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, ended_ns)
        tracer.write(Path(spec["out"]) / "spans.jsonl")
    tmp = Path(spec["result"] + ".tmp")
    tmp.write_text(json.dumps(record), encoding="utf-8")
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
