"""Command-line entry point wiring all modules together.

Commands: ingest, index, answer, eval, mine, rerank-sweep, token-acc.
Configuration precedence: CLI flags > --config file > built-in defaults.
The ``REFLECTIVA_ENDPOINT`` environment variable overrides the remote
backend URL. Outputs are written atomically; an interrupted run never
leaves a half-written report. Exit codes: 0 ok, 2 misconfiguration or hard
error, 3 partial batch failure (a failure manifest is written).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import forge, harness
from .backend import (
    BackendError,
    GenerativeBackend,
    MockBackend,
    RemoteBackend,
    load_script_file,
)
from .engine import (
    ConfigurationError,
    ForcedDecision,
    PipelineConfig,
    PipelineError,
    RemotePassageReranker,
    RerankConfig,
    RerankerError,
    RerankStrategy,
    ReflectiveEngine,
    SelectionMode,
    write_traces,
)
from ._http import RemoteServiceError, ServiceClient, TransportError, close_idle_connections
from .harness import AblationName, variant_config
from .index import (
    DenseIndex,
    EmbedderError,
    HashEmbedder,
    RemoteTextEmbedder,
    RetrievalMode,
    build_index,
    load_index,
    save_index,
)
from .kb import KBLoadError, KnowledgeBase, load_kb, write_offset_index
from .samples import QuerySample, SampleError, load_samples
from .similarity import LexicalOverlapScorer
from .synth import RuleBackend
from .util import atomic_open, atomic_write_text, dataclass_from_dict

logger = logging.getLogger(__name__)

ENDPOINT_ENV_VAR = "REFLECTIVA_ENDPOINT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


@dataclass
class BackendSpec:
    kind: str = "mock"  # mock | remote | rule
    script_path: str | None = None
    endpoint: str = "http://localhost:8008"
    timeout: float = 60.0
    max_retries: int = 3

    @cached_property
    def client(self) -> ServiceClient:
        """The one client a run's remote backend, reranker and embedder share."""
        return ServiceClient(self.endpoint, self.timeout, self.max_retries)


@dataclass
class RunConfig:
    kb_path: str | None = None
    index_path: str | None = None
    dataset_path: str | None = None
    backend: BackendSpec = field(default_factory=BackendSpec)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    seed: int = 0
    jobs: int = 0  # 0 = logical CPU count
    output_dir: str = "out"

    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)


def load_run_config(path: str | Path | None) -> RunConfig:
    """Read a JSON run config; the top-level ``seed`` is the pipeline's seed."""
    if path is None:
        return RunConfig()
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    config = dataclass_from_dict(RunConfig, obj)
    config.pipeline = dataclasses.replace(config.pipeline, seed=config.seed)
    return config


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        config.jobs = args.jobs
    if getattr(args, "out", None) is not None:
        config.output_dir = args.out
    if getattr(args, "backend", None) is not None:
        config.backend.kind = args.backend
    if getattr(args, "scripts", None) is not None:
        config.backend.script_path = args.scripts
    if getattr(args, "endpoint", None) is not None:
        config.backend.endpoint = args.endpoint
    env_endpoint = os.environ.get(ENDPOINT_ENV_VAR)
    if env_endpoint:
        config.backend.endpoint = env_endpoint
    for attr in ("kb", "index", "dataset"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(config, f"{attr}_path", value)

    updates: dict = {"seed": config.seed}
    if getattr(args, "k", None) is not None:
        updates["top_k_docs"] = args.k
    if getattr(args, "selection", None) is not None:
        updates["selection"] = SelectionMode(args.selection.replace("-", "_"))
    if getattr(args, "max_relevant", None) is not None:
        updates["max_relevant"] = args.max_relevant
    if getattr(args, "force", None) is not None:
        mapping = {"ret": ForcedDecision.ALWAYS_RET, "noret": ForcedDecision.ALWAYS_NORET}
        updates["force_decision"] = None if args.force == "none" else mapping[args.force]
    rerank_mode = getattr(args, "rerank", None)
    if rerank_mode is not None:
        if rerank_mode == "none":
            updates["rerank"] = None
        else:
            kp = getattr(args, "kp", None)
            if kp is None:
                raise ConfigurationError("--rerank requires --kp")
            updates["rerank"] = RerankConfig(RerankStrategy(rerank_mode), kp)
    config.pipeline = dataclasses.replace(config.pipeline, **updates)
    return config


def _build_backend(
    config: RunConfig,
    samples: list[QuerySample] | None = None,
) -> GenerativeBackend:
    spec = config.backend
    if spec.kind == "remote":
        return RemoteBackend(spec.client)
    if spec.kind == "mock":
        if not spec.script_path:
            raise ConfigurationError("mock backend requires --scripts FILE")
        backend = MockBackend()
        count = load_script_file(backend, spec.script_path)
        logger.info("registered %d scripts from %s", count, spec.script_path)
        return backend
    if spec.kind == "rule":
        if samples is None:
            raise ConfigurationError("rule backend requires a dataset")
        return RuleBackend.from_samples(samples)
    raise ConfigurationError(f"unknown backend kind {spec.kind!r}")


def _check_index_in_kb(index: DenseIndex, kb: KnowledgeBase, config: RunConfig) -> None:
    """Refuse a run whose index names a document its KB does not hold."""
    missing = set(index.doc_ids).difference(kb.documents)
    if missing:
        first = next(doc_id for doc_id in index.doc_ids if doc_id in missing)
        raise ConfigurationError(f"index {config.index_path} names document {first!r}, which KB "
                                 f"{config.kb_path} does not hold ({len(missing)} such id(s))")


def _build_engine(
    config: RunConfig,
    samples: list[QuerySample] | None = None,
    rerank_strategy: RerankStrategy | None = None,
) -> ReflectiveEngine:
    """An engine for the run; it gets a remote reranker when
    ``rerank_strategy``, or else the pipeline config's, is external."""
    kb = load_kb(config.kb_path) if config.kb_path else None
    index = load_index(config.index_path) if config.index_path else None
    if kb is not None and index is not None:
        _check_index_in_kb(index, kb, config)
    backend = _build_backend(config, samples)
    if rerank_strategy is None and config.pipeline.rerank is not None:
        rerank_strategy = config.pipeline.rerank.strategy
    reranker = None
    if rerank_strategy is RerankStrategy.EXTERNAL:
        reranker = RemotePassageReranker(config.backend.client)
    return ReflectiveEngine(
        backend=backend,
        kb=kb,
        index=index,
        similarity_scorer=LexicalOverlapScorer(),
        reranker=reranker,
    )


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_failures(out_dir: Path, failures: list[tuple[str, str]]) -> int:
    """The exit code of a batch; when samples failed, it also writes their
    ``failures.json`` manifest."""
    if not failures:
        return EXIT_OK
    manifest = {"failures": [{"sample": s, "error": e} for s, e in failures]}
    atomic_write_text(out_dir / "failures.json", json.dumps(manifest, indent=2) + "\n")
    print(f"{len(failures)} sample(s) failed; see failures.json", file=sys.stderr)
    return EXIT_PARTIAL


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    kb = load_kb(args.kb_jsonl)
    missing_embeddings = sum(
        1 for d in kb.documents.values() if d.image_embedding is None
    )
    empty_summaries = sum(1 for d in kb.documents.values() if not d.summary.strip())
    stats = {
        "documents": len(kb),
        "embedding_dim": kb.embedding_dim,
        "embeddings": kb.source_manifest.embedding_storage,
        "checksum": kb.source_manifest.checksum,
        "warnings": {
            "missing_image_embedding": missing_embeddings,
            "empty_summary": empty_summaries,
        },
    }
    print(f"documents: {stats['documents']}")
    print(f"embedding_dim: {stats['embedding_dim']}")
    print(f"embeddings: {stats['embeddings']}")
    print(f"warnings: missing_image_embedding={missing_embeddings} empty_summary={empty_summaries}")
    out = _out_dir(config) / "ingest_stats.json"
    atomic_write_text(out, json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"stats written to {out}")
    try:  # a cache beside the KB: without it, each run validates every document
        if (idx := write_offset_index(kb)) is not None:
            print(f"offset index written to {idx}")
    except OSError as exc:
        logger.warning("offset index not written: %s", exc)
    return EXIT_OK


def cmd_index(args: argparse.Namespace, config: RunConfig) -> int:
    if not config.kb_path:
        raise ConfigurationError("index requires --kb")
    kb = load_kb(config.kb_path)
    mode = RetrievalMode(args.mode.replace("-", "_"))
    embedder = None
    if mode is not RetrievalMode.VISUAL:
        if args.embedder == "remote":
            embedder = RemoteTextEmbedder(config.backend.client)
        else:
            embedder = HashEmbedder(dim=kb.embedding_dim)
    index = build_index(kb, mode, embedder)
    out = _out_dir(config) / f"index_{mode.value}.jsonl"
    save_index(index, out)
    print(f"indexed {len(index)} documents (mode={mode.value}, dim={index.dim})")
    print(f"index written to {out}")
    return EXIT_OK


def cmd_answer(args: argparse.Namespace, config: RunConfig) -> int:
    if not config.dataset_path:
        raise ConfigurationError("answer requires --dataset")
    samples = load_samples(config.dataset_path)
    by_id = {s.id: s for s in samples}
    if args.sample_id not in by_id:
        raise ConfigurationError(f"sample id {args.sample_id!r} not in dataset")
    sample = by_id[args.sample_id]
    engine = _build_engine(config, samples)
    if args.oracle:
        if sample.gold_doc_id is None:
            raise ConfigurationError("oracle mode requires the sample's gold_doc_id")
        trace = engine.run_oracle(sample, sample.gold_doc_id, config.pipeline)
    else:
        trace = engine.run(sample, config.pipeline)
    print(trace.answer)
    out = _out_dir(config) / f"trace_{sample.id}.jsonl"
    write_traces([trace], out)
    print(f"trace written to {out}", file=sys.stderr)
    return EXIT_OK


def _parse_variants(raw: str | None) -> list[AblationName]:
    if not raw:
        return [AblationName.FULL]
    return [AblationName(v.strip()) for v in raw.split(",") if v.strip()]


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    if not config.dataset_path:
        raise ConfigurationError("eval requires --dataset")
    samples = load_samples(config.dataset_path)
    engine = _build_engine(config, samples)
    out_dir = _out_dir(config)

    variants = _parse_variants(args.variants)
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context(atomic_open(out_dir / f"traces_{name.value}.jsonl"))
            for name in variants
        ]
        runs = harness.evaluate_configs(
            engine, samples, [variant_config(name, config.pipeline) for name in variants],
            jobs=config.effective_jobs(), rel_tol=args.rel_tol,
            include_timings=not args.no_timings, sinks=[f.write for f in files],
        )
    reports = {name.value: run.report for name, run in zip(variants, runs)}
    failures = [
        (f"{name.value}:{sid}", err)
        for name, run in zip(variants, runs)
        for sid, err in run.failures
    ]
    harness.write_report(out_dir / "eval_report.json", reports, seed=config.seed)
    if args.csv:
        atomic_write_text(out_dir / "eval_report.csv", harness.reports_to_csv(reports))
    print(f"evaluated {len(samples)} samples over {len(variants)} variant(s)")
    print(f"report written to {out_dir / 'eval_report.json'}")
    return _write_failures(out_dir, failures)


def cmd_mine(args: argparse.Namespace, config: RunConfig) -> int:
    if not config.dataset_path or not config.kb_path:
        raise ConfigurationError("mine requires --dataset and --kb")
    samples = load_samples(config.dataset_path)
    kb = load_kb(config.kb_path)
    out_dir = _out_dir(config)
    if args.stage == 1:
        result = forge.build_stage1_dataset(samples, kb)
    else:
        if not config.index_path:
            raise ConfigurationError("mine --stage 2 requires --index")
        index = load_index(config.index_path)
        _check_index_in_kb(index, kb, config)
        backend = _build_backend(config, samples)
        noret = (
            load_samples(args.noret_dataset)
            if args.noret_dataset
            else [s for s in samples if s.gold_doc_id is None]
        )
        retrieval_samples = [s for s in samples if s.gold_doc_id is not None]
        result = forge.build_stage2_dataset(
            retrieval_samples,
            noret,
            kb,
            index,
            backend,
            seed=config.seed,
            jobs=config.effective_jobs(),
        )
    seq_path = out_dir / f"stage{args.stage}_sequences.jsonl"
    forge.save_sequences(result.sequences, seq_path)
    accounting = dict(result.accounting)
    accounting["seed"] = config.seed
    atomic_write_text(
        out_dir / f"stage{args.stage}_accounting.json",
        json.dumps(accounting, indent=2, sort_keys=True) + "\n",
    )
    print(f"emitted {len(result.sequences)} sequences to {seq_path}")
    print(f"skipped {len(result.skipped)} sample(s)")
    return EXIT_OK


def cmd_rerank_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    if not config.dataset_path:
        raise ConfigurationError("rerank-sweep requires --dataset")
    samples = load_samples(config.dataset_path)
    ks = [int(v) for v in args.ks.split(",")]
    kps = [int(v) for v in args.kps.split(",")]
    strategy = RerankStrategy(args.strategy)
    engine = _build_engine(config, samples, strategy)
    cells = [(k, kp) for k in ks for kp in kps]
    runs = harness.evaluate_configs(
        engine,
        samples,
        [
            dataclasses.replace(
                config.pipeline,
                top_k_docs=k,
                rerank=RerankConfig(strategy=strategy, top_passages=kp),
            )
            for k, kp in cells
        ],
        jobs=config.effective_jobs(),
        sinks=[None] * len(cells),
    )
    grid = []
    for (k, kp), run in zip(cells, runs):
        if run.failures:
            raise PipelineError(f"k={k} k_p={kp}: {len(run.failures)} samples failed")
        grid.append(
            {
                "k": k,
                "k_p": kp,
                "vqa_accuracy": run.report.metrics["vqa_accuracy"].value,
                "num_samples": run.report.num_samples,
            }
        )
    out_dir = _out_dir(config)
    atomic_write_text(
        out_dir / "rerank_sweep.json",
        json.dumps({"strategy": strategy.value, "grid": grid, "seed": config.seed},
                   indent=2, sort_keys=True) + "\n",
    )
    lines = ["k\\k_p," + ",".join(str(kp) for kp in kps)]
    for k in ks:
        row = [str(k)]
        for kp in kps:
            cell = next(c for c in grid if c["k"] == k and c["k_p"] == kp)
            row.append(f"{cell['vqa_accuracy']:.4f}")
        lines.append(",".join(row))
    atomic_write_text(out_dir / "rerank_sweep.csv", "\n".join(lines) + "\n")
    print(f"swept {len(ks)}x{len(kps)} grid; results in {out_dir / 'rerank_sweep.json'}")
    return EXIT_OK


def cmd_token_acc(args: argparse.Namespace, config: RunConfig) -> int:
    if not config.dataset_path:
        raise ConfigurationError("token-acc requires --dataset")
    samples = load_samples(config.dataset_path)
    expectations = harness.load_expectations(args.expectations)
    engine = _build_engine(config, samples)
    jobs = config.effective_jobs()
    run = harness.evaluate_dataset(engine, samples, config.pipeline, jobs=jobs)
    report = harness.token_accuracy(run.traces, expectations)
    report["seed"] = config.seed
    out = _out_dir(config) / "token_accuracy.json"
    atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, entry in report["classes"].items():
        acc = "n/a" if entry["accuracy"] is None else f"{entry['accuracy']:.3f}"
        print(f"{name}: {acc} ({entry['correct']}/{entry['total']})")
    print(f"report written to {out}")
    return _write_failures(out.parent, run.failures)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--seed", type=int, help="seed for all randomness (default 0)")
    parser.add_argument(
        "--jobs", type=int,
        help="worker threads (default: CPU count); they share the batched search,"
             " and run samples in parallel when a step waits outside the process:"
             " --backend remote, an external reranker, or mining",
    )
    parser.add_argument("--backend", choices=["mock", "remote", "rule"],
                        help="generative backend kind")
    parser.add_argument("--scripts", help="script file for the mock backend")
    parser.add_argument("--endpoint", help="remote service base URL")
    parser.add_argument("--out", help="output directory (default: out)")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kb", help="knowledge-base JSONL path")
    parser.add_argument("--index", help="dense index path")
    parser.add_argument("--dataset", help="query-sample JSONL path")
    parser.add_argument("--k", type=int, help="retrieved documents per query (default 5)")
    parser.add_argument("--rerank", choices=["none", "builtin", "external"])
    parser.add_argument("--kp", type=int, help="passages kept after re-ranking")
    parser.add_argument(
        "--selection", choices=["reflective", "external-scorer", "random-per-doc"]
    )
    parser.add_argument("--max-relevant", type=int, dest="max_relevant")
    parser.add_argument("--force", choices=["none", "ret", "noret"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectrag",
        description="Reflective-token retrieval-augmented generation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a knowledge-base file")
    p.add_argument("kb_jsonl", help="knowledge-base JSONL path")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build a dense document index")
    p.add_argument("--kb", required=False)
    p.add_argument(
        "--mode",
        required=True,
        choices=["visual", "textual-title", "textual-title-summary",
                 "textual_title", "textual_title_summary"],
    )
    p.add_argument("--embedder", choices=["hash", "remote"], default="hash")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("answer", help="answer a single sample")
    _add_pipeline_flags(p)
    _add_shared_flags(p)
    p.add_argument("--sample-id", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the sample's gold document instead of retrieval")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("eval", help="batch-evaluate a dataset")
    _add_pipeline_flags(p)
    _add_shared_flags(p)
    p.add_argument("--variants",
                   help="comma list: full,always_ret,external_scorer_passages,"
                        "random_passages_norel,no_kb")
    p.add_argument("--rel-tol", type=float, default=0.05, dest="rel_tol")
    p.add_argument("--csv", action="store_true", help="also write a CSV table")
    p.add_argument("--no-timings", action="store_true", dest="no_timings",
                   help="omit wall-clock timings from traces (reproducible bytes)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine", help="build training sequences")
    _add_pipeline_flags(p)
    _add_shared_flags(p)
    p.add_argument("--stage", type=int, choices=[1, 2], required=True)
    p.add_argument("--noret-dataset", dest="noret_dataset",
                   help="samples labeled as needing no retrieval (stage 2)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rerank-sweep", help="grid-evaluate k x k_p re-ranking")
    _add_pipeline_flags(p)
    _add_shared_flags(p)
    p.add_argument("--ks", default="20,50", help="comma list of k values")
    p.add_argument("--kps", default="1,3,5,10,20", help="comma list of k_p values")
    p.add_argument("--strategy", choices=["builtin", "external"], default="builtin")
    p.set_defaults(func=cmd_rerank_sweep)

    p = sub.add_parser("token-acc", help="reflective-token accuracy over a suite")
    _add_pipeline_flags(p)
    _add_shared_flags(p)
    p.add_argument("--expectations", required=True,
                   help="JSONL of expected tokens per sample")
    p.set_defaults(func=cmd_token_acc)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_run_config(args.config), args)
        return args.func(args, config)
    except (
        ConfigurationError,
        KBLoadError,
        SampleError,
        BackendError,
        PipelineError,
        RerankerError,
        EmbedderError,
        TransportError,
        RemoteServiceError,
        forge.DataForgeError,
        FileNotFoundError,
        ValueError,
        LookupError,
        RuntimeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        close_idle_connections()


if __name__ == "__main__":
    sys.exit(main())
