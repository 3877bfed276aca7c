#!/usr/bin/env python3
"""reflectrag benchmark: ``reflectrag eval`` on seeded synthetic corpora.

    python3 bench/run.py --workload eval-ablation-500 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. Each workload is closed-loop offline
batch evaluation through ``reflectrag.cli.main`` with the CLI's default
flags (so ``--jobs`` is the CPU count). Every pass is one eval command in a
fresh worker process. The corpus is generated from ``--seed`` and cached;
every pass reads its own chunk of distinct samples. Outputs are checked
against an independent reference, and on the remote workload against a
local rule-backend run.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` one untraced and
one traced pass and the per-layer metrics (see ``BENCHMARK.json``). The last
line of standard output is one JSON object; the exit code is 1 when an
output check fails and 2 when the benchmark cannot run at all. Set-up time,
environment and the full per-layer report go to ``.bench_build/results``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from corpus import CHUNK_SIZE, VARIANTS, Corpus, ensure_corpus  # noqa: E402
from stats import MIN_BEYOND, percentile  # noqa: E402

STUB_DELAY_MS = 1.0
MIN_SETUPS = 7  # set-up measurements per untraced run (passes plus probes)
RUN_DEADLINE_S = 170  # a run stops its worker rather than overrun this
SCORES = ("vqa_accuracy", "relaxed_accuracy", "token_f1", "exact_match")
# Printed and saved, but kept out of BENCHMARK.json, whose metrics must never
# be 0, must spread less than their bound (at most 0.25) between runs, and,
# if times, must not read the same on every run. Failures are 0 today and are
# reported as "failed" of "attempted". The p99 spread 0.13 to 0.32 on a shared
# 2-vCPU host, where hand-offs of the interpreter lock make the tail. The
# per-layer times are 0 on every run of a workload that never reaches them.
EXTRA_UNITS = {
    "failed_sample_ratio": "ratio",
    "sample_ms_p99": "ms",
    "prompts.prompt_fingerprint.busy_ms": "ms",
    "backend.remote.overhead_ms_p50": "ms",
    "http.post_json.ms_p50": "ms",
    "http.post_json.ms_p99": "ms",
    "similarity.score.busy_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    docs: int
    backend: str
    variants: tuple[str, ...]
    chunks: int  # most passes a run can make before its inputs would repeat


WORKLOADS = {
    "eval-ablation-500": Workload(500, "rule", VARIANTS, 8),
    "eval-retrieval-20k": Workload(20000, "rule", ("full",), 5),
    "eval-remote-stub": Workload(500, "remote", ("full",), 8),  # ablation's corpus
}


class BenchError(Exception):
    """The benchmark itself cannot run (exit 2, no result line)."""


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
    }


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


@contextlib.contextmanager
def stub_server(src: Path, corpus: Corpus, log: Path):
    """Start the stub in its own process; yield its endpoint; stop it."""
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py"), str(src),
             str(corpus.answers), str(STUB_DELAY_MS)],
            stdout=subprocess.PIPE, stderr=err, text=True,
        )
        try:
            line = proc.stdout.readline()
            if not line.startswith("PORT "):
                raise BenchError(f"stub server did not start; see {log}")
            yield f"http://127.0.0.1:{int(line.split()[1])}"
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def run_worker(spec: dict, name: Path, deadline: float) -> dict:
    """Run one eval command in a fresh worker process; return its record."""
    spec = spec | {"out": str(name), "result": f"{name}.json"}
    spec_path = Path(f"{name}.spec.json")
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "REFLECTIVA_ENDPOINT"}
    log = Path(f"{name}.log")
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
            stdout=out, stderr=subprocess.STDOUT, env=env,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker passed the {RUN_DEADLINE_S}s deadline; see {log}")
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker exited {code}; tail of {log}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8")) | {"out": str(name)}


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def check_pass(record: dict, corpus: Corpus, variants: tuple[str, ...]) -> tuple[list[str], int]:
    """Problems found in one pass's outputs, and its failed pipeline runs."""
    out = Path(record["out"])
    chunk = record["chunk"]
    problems = []
    failed = 0
    if record["exit_code"] != 0:
        problems.append(f"pass {chunk}: eval exited {record['exit_code']}")
    if (out / "failures.json").exists():
        manifest = json.loads((out / "failures.json").read_text(encoding="utf-8"))
        failed = len(manifest["failures"])
        problems.append(f"pass {chunk}: {failed} pipeline run(s) failed")
    ids = sorted(json.loads(line)["id"] for line in read_lines(corpus.chunks[chunk]))
    report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
    if sorted(report["variants"]) != sorted(variants):
        problems.append(f"pass {chunk}: report variants {sorted(report['variants'])}")
        return problems, failed
    expected = corpus.expected[chunk]
    for variant in variants:
        traces = [json.loads(line)["sample_id"] for line in read_lines(out / f"traces_{variant}.jsonl")]
        if traces != ids:
            problems.append(f"pass {chunk}: {variant}: {len(traces)} traces for {len(ids)} samples")
        metrics = report["variants"][variant]["metrics"]
        want = expected[variant] / len(ids)
        for name in SCORES:
            got = metrics[name]
            if got["value"] != want or got["num_samples"] != len(ids):
                problems.append(
                    f"pass {chunk}: {variant}: {name} {got['value']} over "
                    f"{got['num_samples']}, reference {want} over {len(ids)}"
                )
    return problems, failed


def check_against_local(record: dict, corpus: Corpus, scratch: Path) -> list[str]:
    """A remote pass must give the bytes of a local rule-backend run."""
    from reflectrag import cli
    from reflectrag.util import json_line

    out = Path(record["out"])
    local = scratch / f"local{record['chunk']:02d}"
    shutil.rmtree(local, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--kb", str(corpus.kb), "--index", str(corpus.index),
                         "--dataset", str(corpus.chunks[record["chunk"]]),
                         "--backend", "rule", "--no-timings", "--out", str(local)])
    problems = []
    if code != 0:
        problems.append(f"local reference run exited {code}")
    if (out / "eval_report.json").read_bytes() != (local / "eval_report.json").read_bytes():
        problems.append(f"pass {record['chunk']}: eval_report.json differs from the local run")
    remote = []
    for line in read_lines(out / "traces_full.jsonl"):
        trace = json.loads(line)
        del trace["timings"]
        remote.append(json_line(trace))
    if remote != read_lines(local / "traces_full.jsonl"):
        problems.append(f"pass {record['chunk']}: traces differ from the local --no-timings run")
    shutil.rmtree(local, ignore_errors=True)
    return problems


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def end_to_end(passes: list[dict], setups: list[float], failed: int) -> dict[str, float]:
    runs = sum(p["runs"] for p in passes)
    latencies = [ms for p in passes for ms in p["latency_ms"]]
    calls = sum(p["backend_calls"] for p in passes)
    return {
        "eval_sps": runs / sum(p["eval_s"] for p in passes),
        "sample_ms_p50": percentile(latencies, 50),
        "sample_ms_p99": percentile(latencies, 99, MIN_BEYOND),
        "setup_s": statistics.median(setups),
        "cpu_ms_per_sample": sum(p["cpu_s"] for p in passes) * 1e3 / runs,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "backend_calls_per_sample": calls / runs,
        "failed_sample_ratio": failed / runs,
    }


def phase_metrics(passes: list[dict], variants: tuple[str, ...]) -> dict[str, float]:
    """Per-phase latency from the traces' own ``timings``."""
    phases: dict[str, list[float]] = {p: [] for p in ("decide", "retrieve", "judge", "answer")}
    for record in passes:
        for variant in variants:
            for line in read_lines(Path(record["out"]) / f"traces_{variant}.jsonl"):
                for phase, seconds in json.loads(line)["timings"].items():
                    if phase in phases:
                        phases[phase].append(seconds * 1e3)
    m = {}
    for phase, values in phases.items():
        m[f"engine.phase.{phase}.ms_p50"] = percentile(values, 50)
        m[f"engine.phase.{phase}.ms_p99"] = percentile(values, 99, MIN_BEYOND)
    return m


def per_layer(passes: list[dict], variants: tuple[str, ...]) -> dict[str, float]:
    untraced, traced = passes
    m = dict(traced["layers"])
    m.update(phase_metrics(passes, variants))
    fallbacks = judge_failures = 0
    for variant in variants:
        for line in read_lines(Path(traced["out"]) / f"traces_{variant}.jsonl"):
            trace = json.loads(line)
            fallbacks += trace["fallback"]
            judge_failures += trace["judge_failures"]
    m["engine.fallbacks"] = fallbacks
    m["engine.judge_failures"] = judge_failures
    m["stub.requests"] = traced["stub_requests"]
    m["stub.connections"] = traced["stub_connections"]
    sps = [p["runs"] / p["eval_s"] for p in (untraced, traced)]
    m["trace.overhead"] = 1.0 - sps[1] / sps[0]
    return m


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def run(args: argparse.Namespace, root: Path) -> tuple[bool, int, int, dict, dict]:
    src = root / "src"
    if not (src / "reflectrag" / "cli.py").is_file():
        raise BenchError(f"no reflectrag sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    work = root / ".bench_build"
    runs = work / "runs"
    for old in runs.glob(f"{args.workload}-*"):  # keep one run per workload
        shutil.rmtree(old, ignore_errors=True)
    run_dir = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True)
    corpus = ensure_corpus(work, workload.docs, args.seed, workload.chunks)
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = {
        "src": str(src),
        "kb": str(corpus.kb),
        "index": str(corpus.index),
        "backend": workload.backend,
        "variants": list(workload.variants),
        "probe": False,
        "trace": False,
    }
    passes: list[dict] = []
    setups: list[float] = []
    with contextlib.ExitStack() as stack:
        if workload.backend == "remote":
            spec["endpoint"] = stack.enter_context(
                stub_server(src, corpus, run_dir / "stub.log"))

        def one_pass(chunk: int, trace: bool = False) -> None:
            pass_spec = spec | {"dataset": str(corpus.chunks[chunk]), "trace": trace}
            record = run_worker(pass_spec, run_dir / f"pass{chunk:02d}", deadline)
            passes.append(record | {"chunk": chunk})
            setups.append(record["setup_s"])

        if args.trace:
            one_pass(0)
            one_pass(1, trace=True)
        else:
            began = time.monotonic()
            while not passes or (time.monotonic() - began < args.seconds
                                 and len(passes) < workload.chunks):
                one_pass(len(passes))
            for i in range(MIN_SETUPS - len(passes)):
                probe_spec = spec | {"dataset": str(corpus.chunks[i % len(passes)]), "probe": True}
                setups.append(run_worker(probe_spec, run_dir / f"probe{i}", deadline)["setup_s"])

    problems = []
    failed = 0
    for record in passes:
        try:
            found, n = check_pass(record, corpus, workload.variants)
            problems += found
            failed += n
            if workload.backend == "remote":
                problems += check_against_local(record, corpus, run_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"pass {record['chunk']}: unreadable output: {exc!r}")
    attempted = sum(p["runs"] for p in passes)
    if args.trace:
        metrics = per_layer(passes, workload.variants)
    else:
        metrics = end_to_end(passes, setups, failed)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples_per_pass": CHUNK_SIZE,
        "passes": len(passes),
        "pipeline_runs": attempted,
        "setups": setups,
        "stub_delay_ms": STUB_DELAY_MS if workload.backend == "remote" else None,
        "environment": environment(),
        "problems": problems,
        "metrics": metrics,
    }
    return not problems, attempted, failed, metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        correct, attempted, failed, metrics, details = run(args, root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = root / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    env = details["environment"]
    print(f"workload {args.workload} seed {args.seed}: {details['passes']} pass(es) of "
          f"{CHUNK_SIZE} samples, {attempted} pipeline runs")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for problem in details["problems"]:
        print(f"CHECK FAILED: {problem}")
    units = {m["name"]: m["unit"] for m in wanted} | EXTRA_UNITS
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
