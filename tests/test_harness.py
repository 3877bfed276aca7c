import errno
import json
import sys
import threading
import time
from dataclasses import replace

import pytest

from reflectrag.engine import (
    PipelineConfig, PipelineTrace, ReflectiveEngine, RelevanceJudgment, RetrievalDecision,
    trace_line, trace_to_dict, write_traces,
)
from reflectrag.harness import (
    AblationName,
    PassageExpectation,
    TokenExpectation,
    evaluate_configs,
    evaluate_dataset,
    evaluate_traces,
    load_expectations,
    reports_to_csv,
    token_accuracy,
    variant_config,
)
from reflectrag.index import RetrievalMode, build_index
from reflectrag.kb import Passage
from reflectrag.similarity import LexicalOverlapScorer
from reflectrag.synth import RuleBackend, make_synthetic_suite
from reflectrag.tokens import ReflectiveToken
from reflectrag.engine import ForcedDecision, RerankConfig, RerankStrategy, SelectionMode


@pytest.fixture(scope="module")
def small_run():
    suite = make_synthetic_suite(
        num_docs=24, num_fact_samples=12, num_noret_samples=4, num_miss_samples=2, seed=3
    )
    index = build_index(suite.kb, RetrievalMode.VISUAL)
    backend = RuleBackend(suite.answers_by_question, suite.direct_answers)
    engine = ReflectiveEngine(
        backend, kb=suite.kb, index=index, similarity_scorer=LexicalOverlapScorer()
    )
    return suite, engine


class Recording:
    """The rule backend's steps, each after ``delay`` seconds of sleep, as a
    remote backend takes them. It records the threads its steps ran on and
    does not declare ``in_process``, so an evaluation runs it on a thread
    pool."""

    deterministic = True

    def __init__(self, inner, delay=0.0005):
        self.inner = inner
        self.control_tokens = inner.control_tokens
        self.delay = delay
        self.threads = set()

    def constrained_generate(self, prompt, allowed=None, max_tokens=None):
        self.threads.add(threading.get_ident())
        time.sleep(self.delay)
        return self.inner.constrained_generate(prompt, allowed, max_tokens)


class InProcess(Recording):
    in_process = True


def kept_lines(run):
    """The objects of a run's kept traces, without their timings."""
    return [trace_to_dict(t, include_timings=False) for t in run.traces]


def with_backend(engine, backend):
    return ReflectiveEngine(
        backend, kb=engine.kb, index=engine.index,
        similarity_scorer=engine.similarity_scorer, reranker=engine.reranker,
    )


class TestEvaluate:
    def test_report_structure(self, small_run):
        suite, engine = small_run
        run = evaluate_dataset(engine, suite.samples, PipelineConfig(seed=3))
        assert not run.failures
        report = run.report
        assert report.num_samples == 16
        assert set(report.metrics) == {
            "vqa_accuracy", "relaxed_accuracy", "token_f1", "exact_match",
        }
        assert report.aggregation == "harmonic"  # only unseen_q/unseen_e subsets
        assert {"unseen_q", "unseen_e", "all"} <= set(report.splits)
        stats = report.trace_stats
        assert stats["decision_distribution"]["<NORET>"] == pytest.approx(4 / 16)
        assert stats["fallback_rate"] == pytest.approx(2 / 16)

    def test_parallel_is_deterministic(self, small_run):
        suite, rule_engine = small_run
        pooled = Recording(rule_engine.backend)
        # the rule backend runs on the calling thread, the other on a pool
        for engine in (rule_engine, with_backend(rule_engine, pooled)):
            serial = evaluate_dataset(engine, suite.samples, PipelineConfig(seed=3), jobs=1)
            parallel = evaluate_dataset(engine, suite.samples, PipelineConfig(seed=3), jobs=6)
            assert kept_lines(serial) == kept_lines(parallel)
            assert serial.report.to_dict() == parallel.report.to_dict()
        assert len(pooled.threads) > 1

    def test_one_batched_search_per_dataset(self, small_run, monkeypatch):
        suite, rule_engine = small_run
        pooled = Recording(rule_engine.backend)
        # the rule backend runs on the calling thread, the other on a pool
        # whose workers look up the hit table concurrently
        for engine in (rule_engine, with_backend(rule_engine, pooled)):
            self.check_one_batched_search_per_dataset(suite, engine, monkeypatch)
        assert len(pooled.threads) > 1

    @staticmethod
    def check_one_batched_search_per_dataset(suite, engine, monkeypatch):
        import reflectrag.engine as engine_mod

        batches, workers = [], []
        real = engine_mod.search_batch

        def counting(index, queries, k, jobs=1):
            batches.append(len(queries))
            workers.append(jobs)
            return real(index, queries, k, jobs)

        def per_sample(*args):
            pytest.fail("a worker searched one sample on its own")

        monkeypatch.setattr(engine_mod, "search_batch", counting)
        monkeypatch.setattr(engine_mod, "search", per_sample)
        serial = evaluate_dataset(engine, suite.samples, PipelineConfig(seed=3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside the first lookup
        try:
            run = evaluate_dataset(engine, suite.samples, PipelineConfig(seed=3), jobs=12)
        finally:
            sys.setswitchinterval(interval)
        assert not run.failures
        assert kept_lines(run) == kept_lines(serial)
        assert batches == [len(suite.samples)] * 2
        assert workers == [1, 12]  # the burst is shared among the --jobs workers
        no_kb = variant_config(AblationName.NO_KB, PipelineConfig(seed=3))
        assert not evaluate_dataset(engine, suite.samples, no_kb, jobs=4).failures
        assert batches == [len(suite.samples)] * 2
        # Configs of one pass that retrieve the same k share its burst.
        configs = [
            PipelineConfig(seed=3),
            variant_config(AblationName.ALWAYS_RET, PipelineConfig(seed=3)),
            PipelineConfig(top_k_docs=2, seed=3),
            no_kb,
        ]
        runs = evaluate_configs(engine, suite.samples, configs, jobs=12)
        assert not any(run.failures for run in runs)
        assert kept_lines(runs[0]) == kept_lines(serial)
        assert batches == [len(suite.samples)] * 4
        monkeypatch.undo()

    def test_in_process_backend_runs_on_the_calling_thread(self, small_run, monkeypatch):
        import reflectrag.engine as engine_mod

        suite, rule_engine = small_run
        backend = InProcess(rule_engine.backend, delay=0.0)
        workers = []
        real = engine_mod.search_batch

        def recording(index, queries, k, jobs=1):
            workers.append(jobs)
            return real(index, queries, k, jobs)

        monkeypatch.setattr(engine_mod, "search_batch", recording)
        run = evaluate_dataset(with_backend(rule_engine, backend), suite.samples,
                               PipelineConfig(seed=3), jobs=4)
        assert not run.failures
        assert backend.threads == {threading.get_ident()}
        assert workers == [4]  # the search burst keeps its --jobs threads

    def test_consumer_failure_cancels_the_samples_not_started(self, small_run, monkeypatch):
        suite, rule_engine = small_run
        samples = [replace(s, id=f"{s.id}-{n:02d}") for n in range(15) for s in suite.samples]
        first = min(s.id for s in samples)
        released = threading.Event()
        started = []
        real = ReflectiveEngine.run

        def gated(engine, sample, config):
            # every sample but the first waits until the consumer fails
            started.append(sample.id)
            if sample.id != first:
                released.wait(timeout=10)
            return real(engine, sample, config)

        def full_disk(line):
            released.set()
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ReflectiveEngine, "run", gated)
        engine = with_backend(rule_engine, Recording(rule_engine.backend))
        with pytest.raises(OSError):
            evaluate_configs(engine, samples, [PipelineConfig(seed=3)], jobs=4,
                             include_timings=False, sinks=[full_disk])
        # the samples running when the sink failed finish; the rest never start
        assert len(started) < len(samples) // 2

    def test_rescoring_trace_file_is_pure(self, small_run, tmp_path):
        suite, engine = small_run
        run = evaluate_dataset(engine, suite.samples, PipelineConfig(seed=3))
        path = tmp_path / "traces.jsonl"
        write_traces(run.traces, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        first = evaluate_traces(lines, suite.samples).to_dict()
        second = evaluate_traces(lines, suite.samples).to_dict()
        assert first == second == run.report.to_dict()

    def test_mean_aggregation_without_subsets(self, small_run):
        from dataclasses import replace

        suite, engine = small_run
        plain = [replace(s, subset=None) for s in suite.samples]
        run = evaluate_dataset(engine, plain, PipelineConfig(seed=3))
        assert run.report.aggregation == "mean"
        assert run.report.splits["all"]["vqa_accuracy"] == pytest.approx(
            run.report.metrics["vqa_accuracy"].value
        )

    def test_hop_subsets_use_mean_aggregation(self, small_run):
        from dataclasses import replace

        suite, engine = small_run
        hop = [
            replace(s, subset="single_hop" if i % 3 else "two_hop")
            for i, s in enumerate(suite.samples)
        ]
        run = evaluate_dataset(engine, hop, PipelineConfig(seed=3))
        assert run.report.aggregation == "mean"
        assert {"single_hop", "two_hop", "all"} <= set(run.report.splits)
        assert run.report.splits["all"]["vqa_accuracy"] == pytest.approx(
            run.report.metrics["vqa_accuracy"].value
        )

    def test_goldless_samples_are_traced_but_not_scored(self, small_run):
        from dataclasses import replace

        suite, engine = small_run
        samples = list(suite.samples)
        samples[0] = replace(samples[0], gold_answers=())
        run = evaluate_dataset(engine, samples, PipelineConfig(seed=3))
        assert len(run.traces) == len(samples)
        assert run.report.num_samples == len(samples) - 1


class TestOnePass:
    def test_projection_scores_like_full_traces(self, golden_dir):
        import protocol_suite

        lines = (golden_dir / "golden_traces.jsonl").read_text().splitlines()
        traces = [json.loads(line) for line in lines]
        samples = [
            scenario.sample(f"ps{i + 1:02d}")
            for i, scenario in enumerate(protocol_suite.scenarios())
        ]
        full = evaluate_traces(traces, samples).to_dict()
        read = ("sample_id", "forced", "selected", "answer", "fallback", "judge_failures")
        projected = [
            {"decision": {"token": t["decision"]["token"]}, **{k: t[k] for k in read}}
            for t in traces
        ]
        assert evaluate_traces(projected, samples).to_dict() == full

    def test_failed_judgment_counts_in_every_variant(self):
        import protocol_suite
        from reflectrag.tokens import DECISION_TOKENS, RELEVANCE_TOKENS

        kb = protocol_suite.build_kb()
        [scenario] = [s for s in protocol_suite.scenarios() if s.name == "s19-judge-failure"]
        backend = protocol_suite.build_backend(scenario)
        engine = ReflectiveEngine(backend, kb=kb, index=build_index(kb, RetrievalMode.VISUAL))
        configs = [
            variant_config(name, scenario.config)
            for name in (AblationName.FULL, AblationName.ALWAYS_RET)
        ]
        runs = evaluate_configs(engine, [scenario.sample("ps19")], configs)
        assert [run.traces[0].judge_failures for run in runs] == [1, 1]
        assert [len(run.traces[0].judgments) for run in runs] == [1, 1]
        by_stage = [c.allowed for c in backend.calls]
        # The decision, the good judgment and the answer are asked once; the
        # failing judgment is asked again by the second variant.
        assert by_stage.count(DECISION_TOKENS) == 1
        assert by_stage.count(RELEVANCE_TOKENS) == 3
        assert by_stage.count(None) == 1

    def test_five_variants_build_one_prompt_per_step_and_score_each_answer_once(
        self, small_run, monkeypatch
    ):
        from reflectrag import engine as engine_mod
        from reflectrag import harness

        def counting(owner, name):
            calls, original = [], getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
            return calls

        suite, engine = small_run
        prompts = counting(engine_mod, "build_prompt_segments")
        steps = counting(RuleBackend, "constrained_generate")
        scored = counting(harness, "score_answer")
        configs = [variant_config(name, PipelineConfig(seed=3)) for name in AblationName]
        runs = evaluate_configs(engine, suite.samples, configs)
        assert not any(run.failures for run in runs)
        assert steps and len(prompts) == len(steps)
        golds = {s.id: s.gold_answers for s in suite.samples}
        distinct = {(t.sample_id, t.answer) for run in runs for t in run.traces}
        assert len(distinct) < sum(len(run.traces) for run in runs)
        assert sorted(args[:2] for args in scored) == sorted(
            (answer, golds[sid]) for sid, answer in distinct
        )

    def test_streamed_lines_equal_kept_traces(self, small_run):
        suite, engine = small_run
        configs = [
            variant_config(name, PipelineConfig(seed=3))
            for name in (AblationName.FULL, AblationName.NO_KB)
        ]
        lines: list[list[str]] = [[], []]
        streamed = evaluate_configs(
            engine, suite.samples, configs, jobs=3, include_timings=False,
            sinks=[lines[0].append, lines[1].append],
        )
        kept = evaluate_configs(engine, suite.samples, configs)
        for i in range(2):
            assert streamed[i].traces == []
            assert [json.loads(line) for line in lines[i]] == kept_lines(kept[i])
            assert all(line.endswith("}\n") for line in lines[i])
            assert streamed[i].report == kept[i].report
        dropped = evaluate_configs(engine, suite.samples, configs, sinks=[None, None])
        assert [run.report for run in dropped] == [run.report for run in kept]

    def test_five_variant_lines_equal_at_one_and_four_jobs(self, small_run):
        suite, rule_engine = small_run
        pooled = Recording(rule_engine.backend, delay=0)
        configs = [variant_config(name, PipelineConfig(seed=3)) for name in AblationName]
        written = []
        # the rule backend runs on the calling thread, the other on a pool
        pooled_engine = with_backend(rule_engine, pooled)
        for engine, jobs in ((rule_engine, 1), (rule_engine, 4), (pooled_engine, 4)):
            lines: list[list[str]] = [[] for _ in configs]
            evaluate_configs(engine, suite.samples, configs, jobs=jobs,
                             include_timings=False, sinks=[each.append for each in lines])
            written.append(lines)
        assert written[0] == written[1] == written[2]
        assert len(pooled.threads) > 1

    def test_shared_trace_parts_stay_within_their_sample_and_config(self):
        # Four documents for sixteen fact questions: questions on one document
        # share its passages, and judge them differently when they ask about
        # different sections.
        suite = make_synthetic_suite(num_docs=4, num_fact_samples=16, num_noret_samples=2, seed=5)
        engine = ReflectiveEngine(
            RuleBackend(suite.answers_by_question, suite.direct_answers),
            kb=suite.kb, index=build_index(suite.kb, RetrievalMode.VISUAL),
        )
        configs = [
            PipelineConfig(top_k_docs=2),
            PipelineConfig(top_k_docs=3, force_decision=ForcedDecision.ALWAYS_RET),
        ]
        lines: list[list[str]] = [[], []]
        evaluate_configs(engine, suite.samples, configs, include_timings=False,
                         sinks=[lines[0].append, lines[1].append])
        by_id = {s.id: s for s in suite.samples}
        tokens: dict[tuple, set] = {}
        for config, written in zip(configs, lines):
            assert len(written) == len(suite.samples)
            for line in written:
                trace = json.loads(line)
                alone = engine.run(by_id[trace["sample_id"]], config)  # no memo, no shared parts
                assert line == trace_line(alone, include_timings=False) + "\n"
                for j in trace["judgments"]:
                    tokens.setdefault((j["doc_id"], j["section_index"]), set()).add(j["token"])
        assert any(len(judged) == 2 for judged in tokens.values())


class TestAblations:
    def test_variant_configs_are_config_only(self):
        base = PipelineConfig(top_k_docs=5, seed=11)
        assert variant_config(AblationName.FULL, base) == base
        assert (
            variant_config(AblationName.ALWAYS_RET, base).force_decision
            is ForcedDecision.ALWAYS_RET
        )
        assert (
            variant_config(AblationName.EXTERNAL_SCORER_PASSAGES, base).selection
            is SelectionMode.EXTERNAL_SCORER
        )
        assert (
            variant_config(AblationName.RANDOM_PASSAGES_NOREL, base).selection
            is SelectionMode.RANDOM_PER_DOC
        )
        assert (
            variant_config(AblationName.NO_KB, base).force_decision
            is ForcedDecision.ALWAYS_NORET
        )
        for name in AblationName:
            assert variant_config(name, base).seed == 11

    def test_variant_configs_pin_every_field(self):
        # A base where every field differs from its default, so each variant
        # shows which fields it keeps from the base and which it resets.
        base = PipelineConfig(
            top_k_docs=7,
            rerank=RerankConfig(RerankStrategy.BUILTIN, 3),
            selection=SelectionMode.EXTERNAL_SCORER,
            random_passages_per_doc=3,
            external_scorer_top=4,
            max_relevant=2,
            force_decision=ForcedDecision.ALWAYS_NORET,
            seed=11,
        )
        reset = {
            "top_k_docs": 7,
            "rerank": None,
            "selection": "reflective",
            "random_passages_per_doc": 2,
            "external_scorer_top": 2,
            "max_relevant": None,
            "force_decision": None,
            "seed": 11,
        }
        expected = {
            AblationName.FULL: base.to_dict(),
            AblationName.ALWAYS_RET: {
                **reset,
                "rerank": {"strategy": "builtin", "top_passages": 3},
                "max_relevant": 2,
                "force_decision": "always_ret",
            },
            AblationName.EXTERNAL_SCORER_PASSAGES: {
                **reset, "selection": "external_scorer", "external_scorer_top": 4,
            },
            AblationName.RANDOM_PASSAGES_NOREL: {
                **reset, "selection": "random_per_doc", "random_passages_per_doc": 3,
            },
            AblationName.NO_KB: {**reset, "force_decision": "always_noret"},
        }
        assert set(expected) == set(AblationName)
        for name, want in expected.items():
            assert variant_config(name, base).to_dict() == want, name

    def test_no_kb_variant_selects_nothing(self, small_run):
        suite, engine = small_run
        config = variant_config(AblationName.NO_KB, PipelineConfig(seed=3))
        run = evaluate_dataset(engine, suite.samples, config)
        for trace in run.traces:
            assert trace.selected == ()
            assert trace.decision.token == "<NORET>"

    def test_random_variant_takes_two_per_doc(self, small_run):
        suite, engine = small_run
        config = variant_config(AblationName.RANDOM_PASSAGES_NOREL, PipelineConfig(seed=3))
        run = evaluate_dataset(engine, suite.samples, config)
        kb = suite.kb
        for trace in run.traces:
            if trace.decision.token != "<RET>":
                continue
            per_doc: dict[str, int] = {}
            for passage in trace.selected:
                per_doc[passage.doc_id] = per_doc.get(passage.doc_id, 0) + 1
            for doc_id, count in per_doc.items():
                assert count == min(2, len(kb.documents[doc_id].sections))

    @staticmethod
    def run_variants(suite, engine, names):
        reports = {}
        for name in names:
            config = variant_config(name, PipelineConfig(seed=3))
            run = evaluate_dataset(engine, suite.samples, config)
            assert run.failures == [], name
            reports[name.value] = run.report
        return reports

    def test_same_seed_identical_reports(self, small_run):
        suite, engine = small_run
        a = self.run_variants(suite, engine, AblationName)
        b = self.run_variants(suite, engine, AblationName)
        assert {k: v.to_dict() for k, v in a.items()} == {
            k: v.to_dict() for k, v in b.items()
        }

    def test_csv_table(self, small_run):
        suite, engine = small_run
        reports = self.run_variants(
            suite, engine, (AblationName.FULL, AblationName.NO_KB)
        )
        csv_text = reports_to_csv(reports)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("variant,num_samples,vqa_accuracy")
        assert len(lines) == 3


class TestTokenAccuracy:
    def trace(self, sample_id, logp_ret, logp_noret, judgments=()):
        token = ReflectiveToken.RET if logp_ret > logp_noret else ReflectiveToken.NORET
        return PipelineTrace(
            sample_id=sample_id,
            decision=RetrievalDecision(token, logp_ret, logp_noret),
            forced=False,
            hits=(),
            candidates=(),
            judgments=tuple(
                RelevanceJudgment(Passage(d, i, ""), ReflectiveToken(tok), 0.0, 0.0)
                for d, i, tok in judgments
            ),
            selected=(),
            answer="",
            fallback=False,
            judge_failures=0,
            timings={},
            config={},
        )

    def test_confusion_counts(self):
        traces = [
            self.trace("a", -0.1, -2.0, [(("g"), 0, "<REL>"), ("g", 1, "<NOREL>"), ("o", 0, "<NOREL>")]),
            self.trace("b", -1.5, -0.2),
            self.trace("c", -0.3, -0.9),
        ]
        expectations = [
            TokenExpectation(
                "a",
                expected_decision="<RET>",
                passages=(
                    PassageExpectation("g", 0, "pos"),
                    PassageExpectation("g", 1, "hard"),
                    PassageExpectation("o", 0, "soft"),
                ),
            ),
            TokenExpectation("b", expected_decision="<NORET>"),
            TokenExpectation("c", expected_decision="<NORET>"),  # trace says RET
        ]
        report = token_accuracy(traces, expectations)
        classes = report["classes"]
        assert classes["ret"] == {"correct": 1, "total": 1, "accuracy": 1.0}
        assert classes["noret"] == {"correct": 1, "total": 2, "accuracy": 0.5}
        assert classes["rel_pos"]["accuracy"] == 1.0
        assert classes["norel_hard"]["accuracy"] == 1.0
        assert classes["norel_soft"]["accuracy"] == 1.0
        assert report["missing_judgments"] == 0

    def test_nine_of_ten_ratio(self):
        traces = [self.trace(f"s{i}", -0.1, -2.0) for i in range(9)]
        traces.append(self.trace("s9", -2.0, -0.1))
        expectations = [
            TokenExpectation(f"s{i}", expected_decision="<RET>") for i in range(10)
        ]
        report = token_accuracy(traces, expectations)
        assert report["classes"]["ret"]["accuracy"] == pytest.approx(0.9)

    def test_missing_judgment_counted(self):
        traces = [self.trace("a", -0.1, -2.0)]
        expectations = [
            TokenExpectation("a", passages=(PassageExpectation("g", 7, "pos"),))
        ]
        report = token_accuracy(traces, expectations)
        assert report["missing_judgments"] == 1

    def test_unknown_sample_id_is_error(self):
        with pytest.raises(KeyError):
            token_accuracy([], [TokenExpectation("ghost")])

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "passages": [', "malformed JSON: Expecting value"),
        ('{"id": "b"', "malformed JSON: Expecting ',' delimiter"),
        ('["b"]', "an expectation must be a JSON object with an 'id'"),
        ('"b"', "an expectation must be a JSON object with an 'id'"),
        ('{"expected_decision": "<RET>"}', "an expectation must be a JSON object with an 'id'"),
        ('{"id": "b", "passages": 5}', "passages must be a list"),
        ('{"id": "b", "passages": [7]}', "passages[0] must be a JSON object"),
        ('{"id": "b", "passages": [{"section_index": 0, "difficulty": "pos"}]}',
         "passages[0].doc_id must be a non-empty string"),
        ('{"id": "b", "passages": [{"doc_id": "", "section_index": 0, "difficulty": "pos"}]}',
         "passages[0].doc_id must be a non-empty string"),
        ('{"id": "b", "passages": [{"doc_id": "g", "section_index": 0, "difficulty": "pos"}, '
         '{"doc_id": "g", "section_index": "a", "difficulty": "pos"}]}',
         "passages[1].section_index must be an integer"),
        ('{"id": "b", "passages": [{"doc_id": "g", "section_index": "0", "difficulty": "pos"}]}',
         "passages[0].section_index must be an integer"),
        ('{"id": "b", "passages": [{"doc_id": "g", "section_index": true, "difficulty": "pos"}]}',
         "passages[0].section_index must be an integer"),
        ('{"id": "b", "passages": [{"doc_id": "g", "section_index": 0, "difficulty": "meh"}]}',
         "passages[0].difficulty must be one of pos, soft, hard"),
        ('{"id": "b", "expected_decision": "<FOO>"}',
         "expected_decision must be null, '<RET>' or '<NORET>'"),
        ('{"id": "b", "expected_decision": ["<RET>"]}',
         "expected_decision must be null, '<RET>' or '<NORET>'"),
        ('{"id": "a"}', "id 'a' repeats an earlier line's"),
    ])
    def test_load_expectations_names_the_file_and_line_of_a_bad_line(self, tmp_path, line, message):
        path = tmp_path / "exp.jsonl"
        path.write_text('{"id": "a"}\n\n' + line + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_expectations(path)
        assert str(exc_info.value).startswith(f"{path}: line 3: {message}")

    def test_load_expectations(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "a",
                    "expected_decision": "<RET>",
                    "passages": [
                        {"doc_id": "g", "section_index": 0, "difficulty": "pos"}
                    ],
                }
            )
            + "\n"
        )
        loaded = load_expectations(path)
        assert loaded == [
            TokenExpectation(
                "a", "<RET>", (PassageExpectation("g", 0, "pos"),)
            )
        ]
