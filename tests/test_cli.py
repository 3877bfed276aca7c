import dataclasses
import json
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from reflectrag import _http
from reflectrag._http import RemoteServiceError, ServiceClient, TransportError, _read_response
from reflectrag.backend import BackendError, RemoteBackend, serve_generate
from reflectrag.cli import (
    BackendSpec,
    RunConfig,
    _build_engine,
    build_parser,
    load_run_config,
    main,
)
from reflectrag.engine import PipelineConfig, RerankConfig
from reflectrag.kb import Passage, load_kb
from reflectrag.prompts import PromptSegment, PromptStage, SegmentKind, build_prompt
from reflectrag.samples import load_samples
from reflectrag.synth import RuleBackend
from reflectrag.tokens import DECISION_TOKENS

from conftest import SCRIPT_ENV, doc_record, make_synthetic_data, script_command, write_kb_file
from stub_server import StubServer


def run(argv):
    return main([str(a) for a in argv])


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        [[], ["ingest"], ["index"], ["answer"], ["eval"], ["mine"],
         ["rerank-sweep"], ["token-acc"]],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([*command, "--help"])
        assert exc_info.value.code == 0
        assert "--help" not in capsys.readouterr().err


class TestIngest:
    def test_valid_kb(self, tmp_path, capsys):
        path = write_kb_file(
            tmp_path / "kb.jsonl",
            [doc_record("a"), doc_record("b"), doc_record("c")],
        )
        code = run(["ingest", path, "--out", tmp_path / "out"])
        out = capsys.readouterr().out
        assert code == 0
        assert "documents: 3" in out
        stats = json.loads((tmp_path / "out" / "ingest_stats.json").read_text())
        assert stats["documents"] == 3
        assert stats["embedding_dim"] == 4

    def test_writes_the_offset_index_of_the_kb(self, tmp_path, capsys):
        path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a"), doc_record("b")])
        full = load_kb(path)
        code = run(["ingest", path, "--out", tmp_path / "out"])
        assert code == 0
        assert f"offset index written to {tmp_path / 'kb.idx'}" in capsys.readouterr().out
        assert json.loads((tmp_path / "kb.idx").read_text())["ids"] == ["a", "b"]
        assert load_kb(path) == full

    def test_unwritable_offset_index_is_a_warning(self, tmp_path, capsys, caplog):
        path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a")])
        (tmp_path / "kb.idx").mkdir()  # the atomic replace cannot put a file there
        code = run(["ingest", path, "--out", tmp_path / "out"])
        assert code == 0
        assert "offset index written" not in capsys.readouterr().out
        assert "offset index not written" in caplog.text

    def test_duplicate_id_exits_2_and_names_line(self, tmp_path, capsys):
        docs = [doc_record(f"d{i}") for i in range(5)] + [doc_record("d2")]
        path = write_kb_file(tmp_path / "kb.jsonl", docs)
        code = run(["ingest", path, "--out", tmp_path / "out"])
        assert code == 2
        assert "line 7" in capsys.readouterr().err

    def test_sidecar_reported(self, tmp_path, capsys):
        import numpy as np

        path = write_kb_file(
            tmp_path / "kb.jsonl",
            [doc_record("a", embedding=None), doc_record("b", embedding=None)],
            manifest={"embeddings": "sidecar"},
        )
        np.asarray(
            [[1, 0, 0, 0], [0, 1, 0, 0]], dtype="<f4"
        ).tofile(tmp_path / "kb.vec")
        code = run(["ingest", path, "--out", tmp_path / "out"])
        assert code == 0
        assert "embeddings: sidecar" in capsys.readouterr().out


class TestIndexCommand:
    def test_visual_build_and_determinism(self, plant_kb_path, tmp_path):
        for name in ("one", "two"):
            code = run([
                "index", "--kb", plant_kb_path, "--mode", "visual",
                "--out", tmp_path / name,
            ])
            assert code == 0
        a = (tmp_path / "one" / "index_visual.jsonl").read_bytes()
        b = (tmp_path / "two" / "index_visual.jsonl").read_bytes()
        assert a == b
        assert (tmp_path / "one" / "index_visual.vec").exists()

    def test_textual_mode_with_hash_embedder(self, plant_kb_path, tmp_path):
        code = run([
            "index", "--kb", plant_kb_path, "--mode", "textual-title-summary",
            "--out", tmp_path / "out",
        ])
        assert code == 0


def test_remote_reranker_and_embedder_use_configured_timeout_and_retries(
    plant_kb_path, tmp_path, capsys
):
    def slow(path, payload):  # the stub's exit waits for it to return
        time.sleep(0.5)
        return 200, {"embeddings": [[1.0, 0.0, 0.0, 0.0]], "order": [0]}

    with StubServer(slow) as server:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "backend": {
                "kind": "remote", "endpoint": server.endpoint,
                "timeout": 0.2, "max_retries": 1,
            },
            "pipeline": {"rerank": {"strategy": "external", "top_passages": 1}},
        }))
        code = run([
            "index", "--config", config_path, "--kb", plant_kb_path,
            "--mode", "textual-title", "--embedder", "remote",
            "--out", tmp_path / "out",
        ])
        assert code == 2
        assert "after 1 attempt" in capsys.readouterr().err
        reranker = _build_engine(load_run_config(config_path)).reranker
        with pytest.raises(TransportError, match="after 1 attempt"):
            reranker.rerank("q", [Passage("d", 0, "p")])
        assert [path for path, _ in server.requests] == ["/v1/embed", "/v1/rerank"]


class TestAnswerCommand:
    def build_index(self, plant_kb_path, tmp_path):
        run(["index", "--kb", plant_kb_path, "--mode", "visual", "--out", tmp_path])
        return tmp_path / "index_visual.jsonl"

    def test_listing_answer(self, plant_kb_path, plant_samples_path, plant_scripts_path, tmp_path, capsys):
        index = self.build_index(plant_kb_path, tmp_path)
        capsys.readouterr()
        code = run([
            "answer", "--kb", plant_kb_path, "--index", index,
            "--dataset", plant_samples_path, "--sample-id", "plant-001",
            "--backend", "mock", "--scripts", plant_scripts_path,
            "--out", tmp_path / "out",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "16 to 49ft"
        trace = json.loads(
            (tmp_path / "out" / "trace_plant-001.jsonl").read_text().splitlines()[0]
        )
        assert trace["decision"]["token"] == "<RET>"
        assert trace["selected"] == [
            {"doc_id": "prunus-laurocerasus", "section_index": 0}
        ]

    def test_direct_answer(self, plant_kb_path, plant_samples_path, plant_scripts_path, tmp_path, capsys):
        index = self.build_index(plant_kb_path, tmp_path)
        capsys.readouterr()
        code = run([
            "answer", "--kb", plant_kb_path, "--index", index,
            "--dataset", plant_samples_path, "--sample-id", "car-001",
            "--backend", "mock", "--scripts", plant_scripts_path,
            "--out", tmp_path / "out",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Black"

    def test_oracle_mode(self, plant_kb_path, plant_samples_path, plant_scripts_path, tmp_path, capsys):
        code = run([
            "answer", "--kb", plant_kb_path, "--dataset", plant_samples_path,
            "--sample-id", "plant-001", "--oracle",
            "--backend", "mock", "--scripts", plant_scripts_path,
            "--out", tmp_path / "out",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "16 to 49ft"
        trace = json.loads(
            (tmp_path / "out" / "trace_plant-001.jsonl").read_text().splitlines()[0]
        )
        assert trace["hits"] == []  # oracle mode skips search entirely
        assert trace["judgments"][0]["doc_id"] == "prunus-laurocerasus"

    @pytest.mark.parametrize("flags, message", [
        (["--backend", "remote"], "after 1 attempt"),
        (["--rerank", "external", "--kp", 1], "reranker service failed"),
    ])
    def test_dead_remote_service_exits_2(
        self, flags, message, plant_kb_path, plant_samples_path, plant_scripts_path,
        tmp_path, capsys,
    ):
        index = self.build_index(plant_kb_path, tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"backend": {"max_retries": 1}}))
        capsys.readouterr()
        code = run([
            "answer", "--config", config_path, "--kb", plant_kb_path,
            "--index", index, "--dataset", plant_samples_path,
            "--sample-id", "plant-001", "--scripts", plant_scripts_path,
            "--endpoint", "http://127.0.0.1:1", "--out", tmp_path / "out", *flags,
        ])
        assert code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error: ")
        ]
        assert len(errors) == 1 and message in errors[0]

    def test_unknown_sample_exits_2(self, plant_kb_path, plant_samples_path, plant_scripts_path, tmp_path, capsys):
        code = run([
            "answer", "--kb", plant_kb_path, "--dataset", plant_samples_path,
            "--sample-id", "ghost", "--backend", "mock",
            "--scripts", plant_scripts_path, "--out", tmp_path / "out",
        ])
        assert code == 2


class TestEvalCommand:
    def test_eval_writes_report_and_is_deterministic(self, synthetic_files, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run([
                "eval", "--kb", synthetic_files.kb, "--index", synthetic_files.index,
                "--dataset", synthetic_files.dataset, "--backend", "rule",
                "--seed", 17, "--jobs", 2, "--out", out, "--no-timings",
            ])
            assert code == 0
            outs.append((out / "eval_report.json").read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert "full" in report["variants"]
        assert report["variants"]["full"]["num_samples"] == 14
        assert report["seed"] == 17

    def test_eval_variants_and_csv(self, synthetic_files, tmp_path):
        out = tmp_path / "variants"
        code = run([
            "eval", "--kb", synthetic_files.kb, "--index", synthetic_files.index,
            "--dataset", synthetic_files.dataset, "--backend", "rule",
            "--seed", 17, "--out", out, "--csv",
            "--variants", "full,no_kb,always_ret",
        ])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert set(report["variants"]) == {"full", "no_kb", "always_ret"}
        assert (out / "eval_report.csv").read_text().startswith("variant,")
        assert (out / "traces_no_kb.jsonl").exists()

    def test_missing_dataset_exits_2(self, synthetic_files, tmp_path, capsys):
        code = run(["eval", "--kb", synthetic_files.kb, "--out", tmp_path / "x"])
        assert code == 2
        assert "dataset" in capsys.readouterr().err


class TestMineCommand:
    def test_stage1(self, synthetic_files, tmp_path):
        out = tmp_path / "mine1"
        code = run([
            "mine", "--stage", 1, "--kb", synthetic_files.kb,
            "--dataset", synthetic_files.dataset, "--out", out,
        ])
        assert code == 0
        lines = (out / "stage1_sequences.jsonl").read_text().splitlines()
        assert lines
        accounting = json.loads((out / "stage1_accounting.json").read_text())
        assert accounting["total"] == len(lines)

    def test_stage2(self, synthetic_files, tmp_path):
        out = tmp_path / "mine2"
        code = run([
            "mine", "--stage", 2, "--kb", synthetic_files.kb,
            "--index", synthetic_files.index, "--dataset", synthetic_files.dataset,
            "--backend", "rule", "--seed", 17, "--out", out,
        ])
        assert code == 0
        accounting = json.loads((out / "stage2_accounting.json").read_text())
        kinds = accounting["by_kind"]
        assert set(kinds) == {"noret", "pos_rel", "hard_norel", "soft_norel"}
        assert len(set(kinds.values())) == 1  # balanced


class TestSweepAndTokenAcc:
    def test_rerank_sweep_grid(self, synthetic_files, tmp_path):
        out = tmp_path / "sweep"
        code = run([
            "rerank-sweep", "--kb", synthetic_files.kb,
            "--index", synthetic_files.index, "--dataset", synthetic_files.dataset,
            "--backend", "rule", "--seed", 17, "--out", out,
            "--ks", "2,5", "--kps", "1,3",
        ])
        assert code == 0
        sweep = json.loads((out / "rerank_sweep.json").read_text())
        assert len(sweep["grid"]) == 4
        assert all("vqa_accuracy" in cell for cell in sweep["grid"])
        csv_lines = (out / "rerank_sweep.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3  # header + 2 rows

    def test_token_acc(self, synthetic_files, tmp_path, capsys):
        out = tmp_path / "tok"
        code = run([
            "token-acc", "--kb", synthetic_files.kb,
            "--index", synthetic_files.index, "--dataset", synthetic_files.dataset,
            "--expectations", synthetic_files.expectations,
            "--backend", "rule", "--seed", 17, "--out", out,
        ])
        assert code == 0
        report = json.loads((out / "token_accuracy.json").read_text())
        assert report["classes"]["ret"]["total"] == 10
        assert report["classes"]["noret"]["total"] == 4
        assert report["classes"]["ret"]["accuracy"] == 1.0
        assert report["classes"]["noret"]["accuracy"] == 1.0

    def test_token_acc_over_the_judged_sections_of_gold_documents(self, synthetic_files,
                                                                  tmp_path):
        # The rule backend judges a passage REL iff it holds a gold answer.
        kb = load_kb(synthetic_files.kb)
        expectations = []
        for sample in load_samples(synthetic_files.dataset):
            expectation = {"id": sample.id, "expected_decision": "<NORET>"}
            if sample.gold_doc_id is not None:
                expectation["expected_decision"] = "<RET>"
                expectation["passages"] = [
                    {"doc_id": sample.gold_doc_id, "section_index": i,
                     "difficulty": "pos" if any(a in section.text for a in sample.gold_answers)
                     else "hard"}
                    for i, section in enumerate(kb.documents[sample.gold_doc_id].sections)
                ]
            expectations.append(expectation)
        path = tmp_path / "expectations.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in expectations))
        out = tmp_path / "tok"
        code = run([
            "token-acc", "--kb", synthetic_files.kb, "--index", synthetic_files.index,
            "--dataset", synthetic_files.dataset, "--expectations", path,
            "--backend", "rule", "--seed", 17, "--out", out,
        ])
        assert code == 0
        report = json.loads((out / "token_accuracy.json").read_text())
        difficulties = [p["difficulty"] for e in expectations for p in e.get("passages", ())]
        decisions = [e["expected_decision"] for e in expectations]
        totals = {
            "ret": decisions.count("<RET>"), "noret": decisions.count("<NORET>"),
            "rel_pos": difficulties.count("pos"), "norel_soft": 0,
            "norel_hard": difficulties.count("hard"),
        }
        assert min(totals["rel_pos"], totals["norel_hard"]) > 0
        assert {k: c["total"] for k, c in report["classes"].items()} == totals
        assert all(c["accuracy"] == 1.0 for c in report["classes"].values() if c["total"])
        assert report["missing_judgments"] == 0

    def test_token_acc_failed_sample_writes_failure_manifest(self, synthetic_files, tmp_path):
        from reflectrag.samples import sample_to_dict

        records = [sample_to_dict(s) for s in load_samples(synthetic_files.dataset)]
        records[0]["image_embedding"] = records[0]["image_embedding"][:3]
        dataset = tmp_path / "broken.jsonl"
        dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        expectations = tmp_path / "expectations.jsonl"
        expectations.write_text("".join(
            line + "\n" for line in synthetic_files.expectations.read_text().splitlines()
            if json.loads(line)["id"] != records[0]["id"]
        ))
        out = tmp_path / "tok"
        code = run([
            "token-acc", "--kb", synthetic_files.kb, "--index", synthetic_files.index,
            "--dataset", dataset, "--expectations", expectations,
            "--backend", "rule", "--out", out,
        ])
        assert code == 3
        [failure] = json.loads((out / "failures.json").read_text())["failures"]
        assert failure["sample"] == records[0]["id"]
        assert failure["error"].startswith("ValueError: query dim (3,) does not match")
        report = json.loads((out / "token_accuracy.json").read_text())
        assert report["classes"]["ret"]["total"] == 9


    def test_token_acc_names_the_line_of_a_bad_expectation(self, synthetic_files, tmp_path,
                                                           capsys):
        expectations = tmp_path / "expectations.jsonl"
        expectations.write_text(synthetic_files.expectations.read_text() + '{"passages": []}\n')
        line_no = len(expectations.read_text().splitlines())
        code = run([
            "token-acc", "--kb", synthetic_files.kb, "--index", synthetic_files.index,
            "--dataset", synthetic_files.dataset, "--expectations", expectations,
            "--backend", "rule", "--out", tmp_path / "tok",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {expectations}: line {line_no}: an expectation must be "
            "a JSON object with an 'id'\n"
        )


class TestEndpointEnvOverride:
    def test_env_var_overrides_endpoint(self, monkeypatch, synthetic_files, tmp_path):
        files = synthetic_files
        corpus = (files.kb, files.index, None)
        rule = RuleBackend.from_samples(load_samples(files.dataset))
        with StubServer(lambda path, payload: (200, serve_generate(rule, payload)),
                        keep_alive=True) as server:
            monkeypatch.setenv("REFLECTIVA_ENDPOINT", server.endpoint)
            code = run(eval_args(corpus, files.dataset, tmp_path / "env", "--backend", "remote",
                                 "--endpoint", "http://127.0.0.1:1"))
        assert code == 0
        assert len(server.requests) == trace_steps(tmp_path / "env" / "traces_full.jsonl")
        assert run(eval_args(corpus, files.dataset, tmp_path / "rule")) == 0
        for name in ("eval_report.json", "traces_full.jsonl"):
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "rule" / name).read_bytes()

    def test_remote_eval_closes_its_idle_connections(self, synthetic_files, tmp_path):
        # The CLI closes the keep-alive pool when a command returns, so no
        # socket is left for the interpreter to drop unclosed at exit.
        files = synthetic_files
        rule = RuleBackend.from_samples(load_samples(files.dataset))
        with StubServer(lambda path, payload: (200, serve_generate(rule, payload)),
                        keep_alive=True) as server:
            args = eval_args((files.kb, files.index, None), files.dataset, tmp_path / "out",
                             "--backend", "remote", "--endpoint", server.endpoint, "--jobs", 2)
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                 "-m", "reflectrag.cli", *map(str, args)],
                env=SCRIPT_ENV, capture_output=True, text=True, timeout=120,
            )
        assert done.returncode == 0, done.stderr
        assert server.connections > 0
        assert "unclosed" not in done.stderr

    def test_dead_env_endpoint_exits_2(self, monkeypatch, synthetic_files, tmp_path, capsys):
        monkeypatch.setenv("REFLECTIVA_ENDPOINT", "http://127.0.0.1:1")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"backend": {"max_retries": 1}}))
        code = run(eval_args((synthetic_files.kb, synthetic_files.index, None),
                             synthetic_files.dataset, tmp_path / "env",
                             "--backend", "remote", "--config", config))
        # unreachable endpoint: every sample fails -> hard error surfaced
        assert code == 2
        assert "every sample failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "endpoint", ["http://127.0.0.1:18p06", "ftp://127.0.0.1:8008"],
        ids=["port-not-a-number", "not-http"],
    )
    def test_malformed_endpoint_exits_2_before_the_first_sample(
        self, monkeypatch, synthetic_files, tmp_path, capsys, endpoint
    ):
        monkeypatch.setenv("REFLECTIVA_ENDPOINT", endpoint)
        out = tmp_path / "bad"
        code = run(eval_args((synthetic_files.kb, synthetic_files.index, None),
                             synthetic_files.dataset, out, "--backend", "remote"))
        assert code == 2
        [error] = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("error:")]
        assert error.startswith(f"error: unsupported URL {endpoint!r}")
        assert not out.exists()


# One value of the wrong JSON type for every field of the run config's
# dataclasses, and where in the config file each class's fields go.
WRONG_TYPES = [
    ("RunConfig", "kb_path", 5),
    ("RunConfig", "index_path", 1.5),
    ("RunConfig", "dataset_path", ["d.jsonl"]),
    ("RunConfig", "backend", "rule"),
    ("RunConfig", "pipeline", []),
    ("RunConfig", "seed", {}),
    ("RunConfig", "jobs", [2]),
    ("RunConfig", "output_dir", None),
    ("BackendSpec", "kind", 5),
    ("BackendSpec", "script_path", 3),
    ("BackendSpec", "endpoint", 8008),
    ("BackendSpec", "timeout", []),
    ("BackendSpec", "max_retries", {}),
    ("PipelineConfig", "top_k_docs", None),
    ("PipelineConfig", "rerank", "builtin"),
    ("PipelineConfig", "selection", 1),
    ("PipelineConfig", "random_passages_per_doc", [2]),
    ("PipelineConfig", "external_scorer_top", {}),
    ("PipelineConfig", "max_relevant", [2]),
    ("PipelineConfig", "force_decision", True),
    ("PipelineConfig", "seed", None),
    ("RerankConfig", "strategy", 1),
    ("RerankConfig", "top_passages", []),
]
CONFIG_BLOCKS = {
    "RunConfig": lambda block: block,
    "BackendSpec": lambda block: {"backend": block},
    "PipelineConfig": lambda block: {"pipeline": block},
    "RerankConfig": lambda block: {
        "pipeline": {"rerank": {"strategy": "builtin", "top_passages": 1, **block}}
    },
}


class TestConfigPrecedence:
    def test_flags_override_config_file(self, synthetic_files, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "kb_path": str(synthetic_files.kb),
            "index_path": str(synthetic_files.index),
            "dataset_path": str(synthetic_files.dataset),
            "backend": {"kind": "rule"},
            "pipeline": {"top_k_docs": 2},
            "seed": 99,
        }))
        out = tmp_path / "out"
        code = run([
            "eval", "--config", config_path, "--seed", 17, "--out", out,
            "--no-timings",
        ])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["seed"] == 17  # flag beats config file
        trace = json.loads(
            (out / "traces_full.jsonl").read_text().splitlines()[0]
        )
        assert trace["config"]["top_k_docs"] == 2  # config file beats default
        assert trace["config"]["seed"] == 17

    def test_pipeline_block_and_flag_override_land_in_trace(self, synthetic_files, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "backend": {"kind": "rule"},
            "pipeline": {
                "top_k_docs": 3, "max_relevant": "2", "external_scorer_top": 4,
                "rerank": {"strategy": "builtin", "top_passages": 2},
            },
            "seed": 5,
        }))
        assert load_run_config(config_path).pipeline.max_relevant == 2
        out = tmp_path / "out"
        code = run([
            "eval", "--config", config_path, "--kb", synthetic_files.kb,
            "--index", synthetic_files.index, "--dataset", synthetic_files.dataset,
            "--max-relevant", 1, "--out", out, "--no-timings",
        ])
        assert code == 0
        trace = json.loads((out / "traces_full.jsonl").read_text().splitlines()[0])
        assert trace["config"] == {
            "top_k_docs": 3,
            "rerank": {"strategy": "builtin", "top_passages": 2},
            "selection": "reflective",
            "random_passages_per_doc": 2,
            "external_scorer_top": 4,
            "max_relevant": 1,
            "force_decision": None,
            "seed": 5,
        }

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"kb_path": 5}, "kb_path"),
            ({"index_path": 1.5}, "index_path"),
            ({"dataset_path": ["d.jsonl"]}, "dataset_path"),
            ({"output_dir": None}, "output_dir"),
            ({"backend": {"script_path": 3}}, "script_path"),
        ],
    )
    def test_non_string_path_exits_2(self, config, field, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        code = run(["index", "--config", config_path, "--mode", "visual"])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and field in errors[0]
        assert "expected a string" in errors[0]

    @pytest.mark.parametrize("cls, field, value", WRONG_TYPES, ids=lambda v: str(v))
    def test_wrong_json_type_names_the_field(self, cls, field, value, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(CONFIG_BLOCKS[cls]({field: value})))
        with pytest.raises(ValueError, match=rf"\b{cls}\.{field}: bad value"):
            load_run_config(config_path)

    def test_wrong_type_cases_cover_every_config_field(self):
        assert sorted((cls, field) for cls, field, _ in WRONG_TYPES) == sorted(
            (cls.__name__, f.name)
            for cls in (RunConfig, BackendSpec, PipelineConfig, RerankConfig)
            for f in dataclasses.fields(cls)
        )

    @pytest.mark.parametrize("pipeline", [
        {"random_passages_per_doc": 0, "selection": "random_per_doc"},
        {"external_scorer_top": -1, "selection": "external_scorer"},
        {"top_k_docs": "many"},
    ])
    def test_bad_pipeline_block_exits_2_before_any_sample(
        self, pipeline, synthetic_files, tmp_path, capsys
    ):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"pipeline": pipeline}))
        out = tmp_path / "out"
        code = run([
            "eval", "--config", config_path, "--kb", synthetic_files.kb,
            "--index", synthetic_files.index, "--dataset", synthetic_files.dataset,
            "--backend", "rule", "--out", out,
        ])
        assert code == 2
        assert next(iter(pipeline)) in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def block_corpus(tmp_path_factory):
    """KB, index and dataset with more than two 16-query search blocks of
    retrieving samples (46 fact questions, 6 NORET questions)."""
    root = make_synthetic_data(tmp_path_factory.mktemp("blocks"), docs=40, fact_samples=46,
                               noret_samples=6, miss_samples=2, seed=23)
    return root / "kb.jsonl", root / "index.jsonl", root / "dataset.jsonl"


def eval_args(corpus, dataset, out, *extra):
    kb, index, _ = corpus
    return ["eval", "--kb", kb, "--index", index, "--dataset", dataset,
            "--backend", "rule", "--no-timings", "--out", out, *extra]


def read_traces(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestBatchedSearch:
    def test_jobs_write_identical_bytes(self, block_corpus, tmp_path):
        for jobs in (1, 4):
            code = run(eval_args(block_corpus, block_corpus[2], tmp_path / f"j{jobs}",
                                 "--jobs", jobs, "--variants", "full,always_ret"))
            assert code == 0
        for name in ("eval_report.json", "traces_full.jsonl", "traces_always_ret.jsonl"):
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j4" / name).read_bytes()
        retrieving = [t for t in read_traces(tmp_path / "j1" / "traces_full.jsonl") if t["hits"]]
        assert len(retrieving) > 32

    def test_burst_split_among_jobs_writes_the_bytes_of_one_worker(
        self, block_corpus, tmp_path, monkeypatch
    ):
        import reflectrag.index as index_mod

        runs = []
        real = index_mod._top_k

        def recording(index, queries, k):
            runs.append(len(queries))
            return real(index, queries, k)

        monkeypatch.setattr(index_mod, "_top_k", recording)
        for jobs in (1, 3):
            code = run(eval_args(block_corpus, block_corpus[2], tmp_path / f"j{jobs}",
                                 "--jobs", jobs, "--variants", FIVE_VARIANTS))
            assert code == 0
        # --jobs 3 scores whole 16-query blocks on separate threads
        assert len(runs) == 3 and runs[1:] == [32, runs[0] - 32] and runs[0] > 48
        names = sorted(p.name for p in (tmp_path / "j1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "j3").iterdir())
        for name in names:
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j3" / name).read_bytes()

    def test_answer_hits_equal_eval_hits(self, block_corpus, tmp_path):
        kb, index, dataset = block_corpus
        assert run(eval_args(block_corpus, dataset, tmp_path / "eval", "--jobs", 2)) == 0
        retrieving = [t for t in read_traces(tmp_path / "eval" / "traces_full.jsonl") if t["hits"]]
        for trace in (retrieving[0], retrieving[16], retrieving[33], retrieving[-1]):
            sid = trace["sample_id"]
            code = run([
                "answer", "--kb", kb, "--index", index, "--dataset", dataset,
                "--backend", "rule", "--sample-id", sid, "--out", tmp_path / "answer",
            ])
            assert code == 0
            [answered] = read_traces(tmp_path / "answer" / f"trace_{sid}.jsonl")
            assert answered["hits"] == trace["hits"]

    def test_wrong_dimension_embedding_fails_alone(self, block_corpus, tmp_path):
        from reflectrag.samples import load_samples, sample_to_dict

        records = [sample_to_dict(s) for s in load_samples(block_corpus[2])]
        records[20]["image_embedding"] = records[20]["image_embedding"][:3]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "out"
        assert run(eval_args(block_corpus, broken, out, "--jobs", 3)) == 3
        manifest = json.loads((out / "failures.json").read_text())
        assert manifest["failures"] == [{
            "sample": f"full:{records[20]['id']}",
            "error": "ValueError: query dim (3,) does not match index dim 32",
        }]
        traces = read_traces(out / "traces_full.jsonl")
        assert len(traces) == len(records) - 1
        assert sum(1 for t in traces if t["hits"]) > 32


def test_jobs_bound_remote_requests_in_flight(block_corpus, tmp_path):
    kb, index, dataset = block_corpus
    rule = RuleBackend.from_samples(load_samples(dataset))
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def handler(path, payload):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        try:
            time.sleep(0.002)
            return 200, serve_generate(rule, payload)
        finally:
            with lock:
                state["now"] -= 1

    with StubServer(handler, keep_alive=True) as server:
        code = run(eval_args(block_corpus, dataset, tmp_path / "remote", "--jobs", 3,
                             "--backend", "remote", "--endpoint", server.endpoint))
    assert code == 0
    # Each of the 3 workers deals a sample's judgments over up to LANES
    # connections at once, so more than 3 are in flight, never more than
    # 3 x LANES.
    assert 3 < state["peak"] <= 3 * _http.LANES
    assert server.connections <= 3 * _http.LANES
    assert run(eval_args(block_corpus, dataset, tmp_path / "rule", "--jobs", 3)) == 0
    for name in ("eval_report.json", "traces_full.jsonl"):
        assert (tmp_path / "remote" / name).read_bytes() == (tmp_path / "rule" / name).read_bytes()


@pytest.fixture(scope="module")
def reference_server_stderr(tmp_path_factory):
    return tmp_path_factory.mktemp("reference_server") / "stderr.txt"


@pytest.fixture(scope="module")
def reference_server(block_corpus, reference_server_stderr):
    """The endpoint of ``scripts/run_stub_server.py --port 0`` serving the
    rule backend of ``block_corpus``'s dataset; its stderr goes to
    ``reference_server_stderr``."""
    with open(reference_server_stderr, "w") as stderr:
        server = subprocess.Popen(
            script_command("run_stub_server.py", "--dataset", block_corpus[2], "--port", 0),
            env=SCRIPT_ENV, stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
    try:
        yield re.search(r"http://\S+", server.stdout.readline()).group()
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


def test_reference_server_writes_the_rule_backend_bytes(block_corpus, reference_server, tmp_path):
    dataset = block_corpus[2]
    assert run(eval_args(block_corpus, dataset, tmp_path / "remote", "--jobs", 4,
                         "--backend", "remote", "--endpoint", reference_server)) == 0
    assert run(eval_args(block_corpus, dataset, tmp_path / "rule", "--jobs", 4)) == 0
    for name in ("eval_report.json", "traces_full.jsonl"):
        assert (tmp_path / "remote" / name).read_bytes() == (tmp_path / "rule" / name).read_bytes()


def test_reference_server_jobs_write_identical_bytes(block_corpus, reference_server, tmp_path):
    # a remote backend runs its samples on --jobs threads, unlike the rule one
    for jobs in (1, 4):
        assert run(eval_args(block_corpus, block_corpus[2], tmp_path / f"j{jobs}",
                             "--jobs", jobs, "--variants", "full,always_ret",
                             "--backend", "remote", "--endpoint", reference_server)) == 0
    for name in ("eval_report.json", "traces_full.jsonl", "traces_always_ret.jsonl"):
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j4" / name).read_bytes()


def test_reference_server_answers_pipelined_requests_in_order(block_corpus, reference_server):
    samples = load_samples(block_corpus[2])
    rule = RuleBackend.from_samples(samples)
    payloads = [{"segments": [s.to_dict() for s in build_prompt(
        PromptStage.DECISION, sample.question, sample.image_ref)],
        "allowed_tokens": sorted(DECISION_TOKENS), "max_tokens": 1} for sample in samples[:3]]
    host, port = reference_server.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"".join(
            b"POST /v1/generate HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n%s"
            % (host.encode(), len(body), body)
            for body in (json.dumps(p).encode() for p in payloads)
        ))
        with sock.makefile("rb") as rfile:
            replies = [_read_response(rfile) for _ in payloads]
    assert [(status, keep_alive) for status, _, keep_alive in replies] == [(200, True)] * 3
    assert [json.loads(body) for _, body, _ in replies] == [
        serve_generate(rule, p) for p in payloads
    ]


def test_remote_stage2_mining_writes_the_rule_backend_bytes(block_corpus, reference_server, tmp_path):
    kb, index, dataset = block_corpus
    for backend in ("rule", "remote"):
        assert run(["mine", "--stage", 2, "--kb", kb, "--index", index, "--dataset", dataset,
                    "--backend", backend, "--endpoint", reference_server, "--jobs", 2,
                    "--seed", 17, "--out", tmp_path / backend]) == 0
    for name in ("stage2_sequences.jsonl", "stage2_accounting.json"):
        assert (tmp_path / "remote" / name).read_bytes() == (tmp_path / "rule" / name).read_bytes()


def test_reference_server_refuses_a_malformed_request_with_400(reference_server):
    client = ServiceClient(reference_server, timeout=5, max_retries=3)
    with pytest.raises(RemoteServiceError, match=r"segments\[0\]\.kind") as exc_info:
        client.post("/v1/generate", b'{"segments": [{"kind": "bogus", "payload": ""}]}')
    assert exc_info.value.status == 400


def test_reference_server_answers_a_backend_error_with_422(reference_server, reference_server_stderr):
    # Well-formed, but the rule backend cannot emit anything from {"x"}.
    client = ServiceClient(reference_server, timeout=5, max_retries=3)
    remote = RemoteBackend(client)
    prompt = [PromptSegment(SegmentKind.USER_TEXT, "Q?")]
    with pytest.raises(BackendError, match="HTTP 422") as exc_info:
        remote.constrained_generate(prompt, allowed=["x"])
    assert not isinstance(exc_info.value, RemoteServiceError)
    assert exc_info.value.__cause__.status == 422
    assert "Traceback" not in reference_server_stderr.read_text()


class TestPartialFailure:
    def test_exit_3_with_failure_manifest(self, synthetic_files, tmp_path):
        from reflectrag.samples import load_samples, sample_to_dict

        samples = load_samples(synthetic_files.dataset)
        broken = tmp_path / "broken.jsonl"
        records = [sample_to_dict(s) for s in samples]
        records[0]["image_embedding"] = None  # retrieval sample with no query vector
        broken.write_text("\n".join(json.dumps(r) for r in records) + "\n")

        out = tmp_path / "out"
        code = run([
            "eval", "--kb", synthetic_files.kb, "--index", synthetic_files.index,
            "--dataset", broken, "--backend", "rule", "--seed", 17, "--out", out,
        ])
        assert code == 3
        manifest = json.loads((out / "failures.json").read_text())
        assert len(manifest["failures"]) == 1
        assert "s0000" in manifest["failures"][0]["sample"]
        # the report over the surviving samples is still written
        assert (out / "eval_report.json").exists()


FIVE_VARIANTS = "full,always_ret,external_scorer_passages,random_passages_norel,no_kb"


def trace_steps(path):
    """Backend steps the traces in ``path`` record: the decision, every
    judgment asked (failed ones included) and the answer."""
    return sum(
        2 + len(t["judgments"]) + t["judge_failures"] for t in read_traces(path)
    )


class TestOnePassEval:
    def test_five_variants_jobs_identical_and_every_step_distinct(
        self, synthetic_files, tmp_path, monkeypatch
    ):
        steps = []
        original = RuleBackend.constrained_generate

        def counting(self, prompt, allowed=None, max_tokens=None):
            key = tuple((s.kind, s.payload) for s in prompt)
            steps.append((key, None if allowed is None else frozenset(allowed), max_tokens))
            return original(self, prompt, allowed, max_tokens)

        monkeypatch.setattr(RuleBackend, "constrained_generate", counting)
        files = synthetic_files
        for jobs in (1, 4):
            steps.clear()
            out = tmp_path / f"j{jobs}"
            code = run(eval_args((files.kb, files.index, None), files.dataset, out,
                                 "--jobs", jobs, "--variants", FIVE_VARIANTS))
            assert code == 0
            assert len(steps) == len(set(steps))
            recorded = sum(trace_steps(p) for p in out.glob("traces_*.jsonl"))
            assert len(steps) < recorded  # the memo answered the repeats
        names = ["eval_report.json"] + [f"traces_{v}.jsonl" for v in FIVE_VARIANTS.split(",")]
        for name in names:
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j4" / name).read_bytes()
        assert sorted(p.name for p in (tmp_path / "j1").iterdir()) == sorted(names)

    def test_remote_backend_is_never_memoized(self, synthetic_files, tmp_path):
        files = synthetic_files
        corpus = (files.kb, files.index, None)
        rule = RuleBackend.from_samples(load_samples(files.dataset))
        with StubServer(lambda path, payload: (200, serve_generate(rule, payload)),
                        keep_alive=True) as server:
            code = run(eval_args(corpus, files.dataset, tmp_path / "remote", "--jobs", 4,
                                 "--variants", "full,always_ret", "--backend", "remote",
                                 "--endpoint", server.endpoint))
        assert code == 0
        traces = [tmp_path / "remote" / f"traces_{v}.jsonl" for v in ("full", "always_ret")]
        assert len(server.requests) == sum(trace_steps(p) for p in traces)
        assert run(eval_args(corpus, files.dataset, tmp_path / "rule", "--jobs", 4,
                             "--variants", "full,always_ret")) == 0
        for name in ("eval_report.json", "traces_full.jsonl", "traces_always_ret.jsonl"):
            assert (tmp_path / "remote" / name).read_bytes() == (tmp_path / "rule" / name).read_bytes()

    def test_every_sample_failed_writes_nothing(self, synthetic_files, tmp_path, capsys):
        files = synthetic_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"backend": {"max_retries": 1}}))
        out = tmp_path / "out"
        # no_kb never reranks and succeeds; always_ret reranks every sample
        # through a dead service, so every one of its samples fails.
        code = run(eval_args((files.kb, files.index, None), files.dataset, out,
                             "--variants", "no_kb,always_ret", "--rerank", "external",
                             "--kp", 1, "--config", config,
                             "--endpoint", "http://127.0.0.1:1"))
        assert code == 2
        assert "every sample failed" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_rerank_sweep_external_strategy_builds_its_reranker(synthetic_files, tmp_path):
    files = synthetic_files

    def reverse(path, payload):
        return 200, {"order": list(reversed(range(len(payload["passages"]))))}

    with StubServer(reverse, keep_alive=True) as server:
        code = run([
            "rerank-sweep", "--kb", files.kb, "--index", files.index,
            "--dataset", files.dataset, "--backend", "rule", "--strategy", "external",
            "--endpoint", server.endpoint, "--ks", "2,5", "--kps", "1,3",
            "--out", tmp_path / "sweep",
        ])
    assert code == 0
    sweep = json.loads((tmp_path / "sweep" / "rerank_sweep.json").read_text())
    assert sweep["strategy"] == "external"
    assert len(sweep["grid"]) == 4
    retrieving = sum(1 for s in load_samples(files.dataset) if s.gold_doc_id is not None)
    assert [path for path, _ in server.requests] == ["/v1/rerank"] * (retrieving * 4)


@pytest.mark.parametrize("command", [["eval"], ["mine", "--stage", 2]])
def test_index_naming_documents_the_kb_lacks_refuses_the_run(tmp_path, capsys, command):
    big = make_synthetic_data(tmp_path / "big", docs=60, fact_samples=10, noret_samples=4,
                              miss_samples=1, seed=7)
    small = make_synthetic_data(tmp_path / "small", docs=30, fact_samples=10, noret_samples=4,
                                miss_samples=1, seed=7)
    indexed = [json.loads(line)["doc_id"] for line in (big / "index.jsonl").read_text().splitlines()[1:]]
    kb_ids = {json.loads(line)["id"] for line in (small / "kb.jsonl").read_text().splitlines()[1:]}
    missing = [doc_id for doc_id in indexed if doc_id not in kb_ids]
    out = tmp_path / "out"
    code = run([*command, "--kb", small / "kb.jsonl", "--index", big / "index.jsonl",
                "--dataset", big / "dataset.jsonl", "--backend", "rule", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"names document {missing[0]!r}, which KB" in err
    assert f"({len(missing)} such id(s))" in err
    assert not out.exists() or not any(out.iterdir())
