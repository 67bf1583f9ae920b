"""Command-line flows over a temp run directory."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import fields
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kbloop import cli
from kbloop import durable as durable_mod
from kbloop import joint as joint_mod
from kbloop import kb as kb_mod
from kbloop.agent import AgentConfig
from kbloop.cli import main
from kbloop.completer import NativeCompleter, TrainingConfig
from kbloop.config import RunConfig, load_config
from kbloop.llm import LlmParams, LlmTransportError, ScriptedBackend


@pytest.fixture()
def workspace(tmp_path):
    """KB files plus a config tuned small enough for fast CLI runs."""
    n = 40
    triples = [(f"e{i}", "r0" if i % 2 else "r1", f"e{(i + 3) % n}") for i in range(n)]
    triples += [(f"e{i}", "r2", f"e{(i + 7) % n}") for i in range(0, n, 2)]
    (tmp_path / "triples.tsv").write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(set(triples))), encoding="utf-8"
    )
    (tmp_path / "entities.tsv").write_text(
        "".join(f"e{i}\tEntity {i}\tdescription {i}\n" for i in range(n)), encoding="utf-8"
    )
    (tmp_path / "relations.tsv").write_text(
        "".join(f"r{j}\trel {j}\tabout rel {j}\t[Thing], rel {j}, [Thing]\n" for j in range(3)),
        encoding="utf-8",
    )
    config = {
        "triples_path": str(tmp_path / "triples.tsv"),
        "entities_path": str(tmp_path / "entities.tsv"),
        "relations_path": str(tmp_path / "relations.tsv"),
        "n_valid": 5,
        "n_test": 5,
        "keep_fraction": 0.5,
        "seed": 3,
        "embedding_dim": 16,
        "epochs": 30,
        "finetune_passes": 20,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, config_path


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def prepare(workspace):
    tmp_path, config_path = workspace
    run_dir = tmp_path / "run"
    result = invoke("kb", "prepare", "--config", str(config_path), "--run-dir", str(run_dir))
    assert result.exit_code == 0, result.output
    return run_dir


class TestPrepare:
    def test_writes_splits_and_working_graph(self, workspace):
        run_dir = prepare(workspace)
        for name in ("train.tsv", "valid.tsv", "test.tsv", "working_triples.tsv", "config.json"):
            assert (run_dir / name).exists()

    def test_entity_without_kept_edge_stays_in_the_working_kb(self, workspace):
        """Degradation drops edges, never entities: every id of entities.tsv
        is in the working KB, its label catalog and the completer's rows."""
        tmp_path, config_path = workspace
        run_dir = tmp_path / "run"
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("kb", "prepare", *cfg, "--keep-fraction", "0.1")
        invoke("pretrain", *cfg)
        records, _, working = kb_mod.read_kb(*(run_dir / name for name in
                                               ("working_triples.tsv", "entities.tsv", "relations.tsv")))
        ids = [rec.id for rec in records]
        assert set(ids) - {e for t in working for e in (t.head, t.tail)}, "every entity kept an edge"
        kb = cli._working_kb(joint_mod.RunDir(run_dir))
        assert sorted(kb.entities) == sorted(ids)
        assert all(rec.id in kb.lookup_label(rec.label) for rec in records)
        model = NativeCompleter.load(run_dir / "completer.npz", kb).completer
        assert model.entity_ids == sorted(ids)

    def test_missing_config_exits_2(self, workspace):
        tmp_path, _ = workspace
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(tmp_path / "nope.json"),
                   "--run-dir", str(tmp_path / "r")],
        )
        assert result.exit_code == 2
        assert "nope.json" in result.output

    def test_malformed_triples_line_is_named(self, workspace):
        tmp_path, config_path = workspace
        with open(tmp_path / "triples.tsv", "a", encoding="utf-8") as fh:
            fh.write("e1\tr0\n")
        n_lines = len((tmp_path / "triples.tsv").read_text(encoding="utf-8").splitlines())
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r")],
        )
        assert result.exit_code == 1
        assert f"triples.tsv:{n_lines}" in result.output
        assert "Traceback" not in result.output

    def test_empty_entity_id_is_named(self, workspace):
        tmp_path, config_path = workspace
        with open(tmp_path / "entities.tsv", "a", encoding="utf-8") as fh:
            fh.write("\tNameless\n")
        n_lines = len((tmp_path / "entities.tsv").read_text(encoding="utf-8").splitlines())
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r")],
        )
        assert result.exit_code == 1
        assert f"entities.tsv:{n_lines}: empty entity id" in result.output
        assert not (tmp_path / "r").exists()

    def test_unknown_config_key_exits_2(self, workspace):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["learning_rat"] = 0.05
        config_path.write_text(json.dumps(config), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r")],
        )
        assert result.exit_code == 2
        assert "learning_rat" in result.output

    @pytest.mark.parametrize("key, url", [
        ("llm_endpoint", "file:///etc/passwd"),
        ("completer_endpoint", "ftp://models.example/complete"),
        ("llm_endpoint", "http:///v1/chat/completions"),
        ("completer_endpoint", "localhost:8000"),
        ("llm_endpoint", "http://localhost:port/v1/chat/completions"),
    ])
    def test_bad_endpoint_is_usage_error_naming_the_key(self, workspace, key, url):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config[key] = url
        config_path.write_text(json.dumps(config), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r")],
        )
        assert result.exit_code == 2
        assert key in result.output
        assert not (tmp_path / "r").exists()

    def test_degradation_that_keeps_no_edge_exits_2(self, workspace):
        """50 training edges at 0.005 round to none: refused before anything is written."""
        tmp_path, config_path = workspace
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r"),
                   "--keep-fraction", "0.005"],
        )
        assert result.exit_code == 2, result.output
        assert "keeps none of the 50 training edges" in result.output
        assert not (tmp_path / "r").exists()

    def test_https_endpoints_are_accepted(self, workspace):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["llm_endpoint"] = "https://chat.example:8443/v1/chat/completions"
        config["completer_endpoint"] = "https://slm.example"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = prepare(workspace)
        snapshot = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
        assert snapshot["llm_endpoint"] == config["llm_endpoint"]
        assert snapshot["completer_endpoint"] == config["completer_endpoint"]

    def test_unknown_subcommand_exits_2(self):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--keep-fraction", "0"], "keep_fraction"),
        (["--keep-fraction", "1.5"], "keep_fraction"),
        (["--n-valid", "55", "--n-test", "5"], "n_valid + n_test"),
        (["--n-valid", "-1"], "split sizes must be non-negative"),
        (["--n-test", "-1"], "split sizes must be non-negative"),
        (["--triples", ""], "missing triples_path"),
    ], ids=["keep_nothing", "keep_more_than_all", "held_out_all", "n_valid_negative",
            "n_test_negative", "no_triples_path"])
    def test_bad_split_is_usage_error(self, workspace, flags, named):
        tmp_path, config_path = workspace
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r"),
                   *flags],
        )
        assert result.exit_code == 2, result.output
        assert f"Error: {named}" in result.output
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text, problem", [
        ("{not json", "is not valid JSON"),
        ('["seed", 3]', "must hold a flat JSON object"),
    ], ids=["not_json", "not_object"])
    def test_bad_config_file_is_usage_error(self, workspace, text, problem):
        tmp_path, config_path = workspace
        config_path.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r")],
        )
        assert result.exit_code == 2, result.output
        assert f"Error: config file {config_path} {problem}" in result.output
        assert not (tmp_path / "r").exists()


# every config key and its default: a restructure must not rename, drop or
# re-default one
CONFIG_DEFAULTS = {
    "triples_path": "", "entities_path": "", "relations_path": "",
    "n_valid": 0, "n_test": 0, "keep_fraction": 0.5, "seed": 0,
    "max_thoughts": 10, "max_calls_per_step": 2, "complete_top_k": 5,
    "relations_per_search": 3, "max_search_triples": 30, "max_generate_context": 8,
    "embedding_dim": 64, "epochs": 30, "learning_rate": 0.01, "batch_size": 64,
    "finetune_passes": 10, "replay_samples_per_triple": 10, "completer_endpoint": "",
    "r_samples": 500, "slm_temperature": 1.0, "max_context": 20,
    "llm_endpoint": "", "llm_model": "", "llm_temperature": 0.7, "llm_max_tokens": 256,
}


class TestConfigSurface:
    def test_defaults_are_pinned(self):
        assert len(CONFIG_DEFAULTS) == 27
        assert RunConfig().to_dict() == CONFIG_DEFAULTS

    def test_prepare_snapshots_every_key(self, workspace):
        run_dir = prepare(workspace)
        snapshot = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
        assert snapshot.keys() == CONFIG_DEFAULTS.keys()

    def test_integer_stands_for_a_float(self, workspace):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps(dict(config, keep_fraction=1, learning_rate=1)),
                               encoding="utf-8")
        loaded = load_config(config_path).to_dict()
        assert (loaded["keep_fraction"], loaded["learning_rate"]) == (1, 1)

    @pytest.mark.parametrize("key, value", [
        ("epochs", 0), ("batch_size", 0), ("epochs", "3"), ("max_thoughts", 0),
        ("max_thoughts", True), ("embedding_dim", 0), ("finetune_passes", 0),
        ("replay_samples_per_triple", -1), ("learning_rate", "0.1"),
    ])
    def test_bad_value_is_usage_error_naming_the_key(self, workspace, key, value):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps(dict(config, **{key: value})), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["pretrain", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 2, result.output
        assert f"Error: {key} must be" in result.output
        assert not (run_dir / "completer.npz").exists()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", float("nan")), ("learning_rate", 0), ("learning_rate", float("inf")),
        ("llm_max_tokens", 0), ("llm_temperature", -0.5), ("llm_temperature", float("nan")),
        ("slm_temperature", -1), ("slm_temperature", float("inf")), ("r_samples", 0),
        ("max_context", -1),
    ])
    def test_out_of_range_value_is_usage_error_at_load(self, workspace, key, value):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps(dict(config, **{key: value})), encoding="utf-8")
        result = invoke("kb", "prepare", "--config", str(config_path),
                        "--run-dir", str(tmp_path / "r"))
        assert result.exit_code == 2, result.output
        assert f"Error: {key} must be finite and" in result.output
        assert not (tmp_path / "r").exists()

    def test_each_key_has_one_home(self):
        homes = [{f.name for f in fields(cls)} for cls in (RunConfig, AgentConfig, TrainingConfig)]
        assert [a & b for a, b in itertools.combinations(homes, 2)] == [set()] * 3


# sha256 of each file `kb prepare` writes for the seeded input of
# `pinned_inputs`, recorded when `Triple` was still a frozen dataclass; the
# working file's was re-recorded when degradation stopped adding self-loops
PINNED_PREPARE_SHA256 = {
    "train.tsv": "d7601114784526dd783bf191fa097b3863afa1ada5fdd2aec7f3e8cd29cfe0f7",
    "valid.tsv": "285b91ee2c5407b6ae45f94e860594161125bb07de3c27b9b86a5055626066a8",
    "test.tsv": "6fb9198bea71420755cff6953bb52229c1e0e02d6f67ce727431d9df8039b528",
    "working_triples.tsv": "b3cc86a32abcdd23b47e9d69e74823b70164dd383e3200ac9d9bf2be99a938f7",
}


def pinned_inputs(tmp_path):
    """A seeded KB whose triples file lists its 300 distinct triples in a
    shuffled order, with 60 of them repeated, and ids such as e1, e10, e2."""
    rng = random.Random(20)
    n_entities, n_relations = 80, 6
    triples = set()
    while len(triples) < 300:
        triples.add((f"e{rng.randrange(n_entities)}", f"r{rng.randrange(n_relations)}",
                     f"e{rng.randrange(n_entities)}"))
    lines = sorted(triples)
    lines += rng.sample(lines, 60)
    rng.shuffle(lines)
    (tmp_path / "triples.tsv").write_text(
        "".join(f"{h}\t{r}\t{t}\n" for h, r, t in lines), encoding="utf-8"
    )
    (tmp_path / "entities.tsv").write_text(
        "".join(f"e{i}\tEntity {i}\n" for i in range(n_entities)), encoding="utf-8"
    )
    (tmp_path / "relations.tsv").write_text(
        "".join(f"r{j}\trel {j}\n" for j in range(n_relations)), encoding="utf-8"
    )
    return [
        "--triples", str(tmp_path / "triples.tsv"),
        "--entities", str(tmp_path / "entities.tsv"),
        "--relations", str(tmp_path / "relations.tsv"),
        "--n-valid", "20", "--n-test", "25", "--keep-fraction", "0.6", "--seed", "13",
    ]


class TestPrepareOutputsArePinned:
    def test_split_and_working_files_match_recorded_hashes(self, tmp_path):
        run_dir = tmp_path / "run"
        result = invoke("kb", "prepare", *pinned_inputs(tmp_path), "--run-dir", str(run_dir))
        assert result.exit_code == 0, result.output
        digests = {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in PINNED_PREPARE_SHA256
        }
        assert digests == PINNED_PREPARE_SHA256


class TestPretrainAndEval:
    def test_pretrain_then_eval_kbc(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        result = invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        assert result.exit_code == 0, result.output
        assert (run_dir / "completer.npz").exists()

        result = invoke(
            "eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir),
            "--split", "test", "--k", "1,3,10",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        assert set(report["hits_at"]) == {"1", "3", "10"}
        assert report["n_queries"] == 5
        assert report["hits_at"]["1"] <= report["hits_at"]["3"] <= report["hits_at"]["10"]

    def test_eval_kbc_reports_are_byte_identical(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        outputs = []
        for _ in range(2):
            result = invoke(
                "eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir)
            )
            assert result.exit_code == 0
            outputs.append((run_dir / "report.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("split", ["test", "valid"])
    def test_filtered_eval_reads_each_split_once(self, workspace, monkeypatch, split):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        reads = []
        read_triples = kb_mod.read_triples

        def counting(path, *args):
            reads.append(Path(path).name)
            return read_triples(path, *args)

        monkeypatch.setattr(kb_mod, "read_triples", counting)
        result = invoke("eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir),
                        "--split", split, "--filtered", "--limit", "2")
        assert result.exit_code == 0, result.output
        assert sorted(reads) == ["test.tsv", "train.tsv", "valid.tsv", "working_triples.tsv"]
        assert json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["n_queries"] == 2

    def test_eval_kbc_requires_checkpoint(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        result = CliRunner().invoke(
            main, ["eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 2
        assert "pretrain" in result.output

    def test_filtered_flag_accepted(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        result = invoke(
            "eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir), "--filtered"
        )
        assert result.exit_code == 0
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        assert report["filtered"] is True

    def test_malformed_split_line_is_named(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        split_file = run_dir / "test.tsv"
        lines = split_file.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = "e1\tr0\n"
        split_file.write_text("".join(lines), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 1
        assert "test.tsv:2" in result.output

    @pytest.mark.parametrize("flags, named", [
        (["--limit", "0"], "--limit"),
        (["--limit", "-2"], "--limit"),
        (["--k", "0"], "--k"),
        (["--k", "1,0,3"], "--k"),
        (["--k", "1,x"], "--k"),
    ], ids=["limit_zero", "limit_negative", "k_zero", "k_list_with_zero", "k_not_integer"])
    def test_bad_flag_is_usage_error(self, workspace, flags, named):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        result = invoke("eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir), *flags)
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if "Error" in line]
        assert len(errors) == 1 and named in errors[0]
        assert not (run_dir / "report.json").exists()

    def test_limit_evaluates_the_first_queries(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        result = invoke("eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir),
                        "--limit", "2")
        assert result.exit_code == 0, result.output
        assert json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["n_queries"] == 2

    def test_empty_split_is_usage_error(self, workspace):
        tmp_path, config_path = workspace
        run_dir = tmp_path / "run"
        invoke("kb", "prepare", "--config", str(config_path), "--run-dir", str(run_dir),
               "--n-valid", "0")
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        result = invoke("eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir),
                        "--split", "valid")
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == f"Error: no query to evaluate in {run_dir / 'valid.tsv'}"
        assert not (run_dir / "report.json").exists()

    @pytest.mark.parametrize("line", ["nobody\tr0\te1\n", "e1\tr0\tnobody\n"],
                             ids=["unknown_head", "unknown_tail"])
    def test_unknown_split_entity_is_named(self, workspace, line):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        split_file = run_dir / "test.tsv"
        lines = split_file.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = line
        split_file.write_text("".join(lines), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 1
        assert "test.tsv:2" in result.output
        assert "'nobody'" in result.output

    def test_checkpoint_from_another_kb_is_usage_error(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        with open(run_dir / "entities.tsv", "a", encoding="utf-8") as fh:
            fh.write("e40\tEntity 40\tdescription 40\n")
        result = CliRunner().invoke(
            main, ["eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 2
        assert "completer.npz" in result.output

    def test_float64_checkpoint_is_usage_error(self, workspace):
        """A snapshot written before the tables became float32 is refused."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        checkpoint = run_dir / "completer.npz"
        with np.load(checkpoint, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        for name in ("entity_vecs", "relation_vecs"):
            arrays[name] = arrays[name].astype(np.float64)
        np.savez(checkpoint, **arrays)
        result = CliRunner().invoke(
            main, ["eval-kbc", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if "Error" in line]
        assert len(errors) == 1 and errors[0] == result.output.splitlines()[-1]
        assert str(checkpoint) in errors[0]
        assert "float64" in errors[0] and "`kbloop pretrain`" in errors[0]
        assert not (run_dir / "report.json").exists()


class TestAnswer:
    def test_scripted_answer_is_deterministic(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        script = tmp_path / "script.jsonl"
        script.write_text(
            json.dumps({"expect": "which entity", "response": "Thought 1: easy.\nAction 1: Finish[Entity 3]"}) + "\n",
            encoding="utf-8",
        )
        outputs = []
        for _ in range(2):
            result = invoke(
                "answer", "--config", str(config_path), "--run-dir", str(run_dir),
                "--question", "which entity is it?", "--topic", "e0",
                "--scripted", str(script),
            )
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["answers"] == ["Entity 3"]

    def test_missing_backend_is_usage_error(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        result = CliRunner().invoke(
            main, ["answer", "--config", str(config_path), "--run-dir", str(run_dir),
                   "--question", "q?"],
        )
        assert result.exit_code == 2
        assert "no chat endpoint configured" in result.output

    @pytest.mark.parametrize("command", ["answer", "eval-kbqa"])
    def test_missing_snapshot_is_usage_error(self, workspace, command):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        qa = tmp_path / "qa.jsonl"
        qa.write_text(
            json.dumps({"question": "q?", "topic_entities": ["e0"], "answers": ["Entity 3"]}) + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "script.jsonl"
        script.write_text("".join(json.dumps(s) + "\n" for s in [
            {"expect": "q?", "response": "Thought 1: ask.\nAction 1: Complete[Entity 0 | rel 0]"},
            {"expect": "", "response": "Thought 2: done.\nAction 2: Finish[Entity 3]"},
        ]), encoding="utf-8")
        args = {"answer": ["--question", "q?", "--topic", "e0"], "eval-kbqa": ["--qa", str(qa)]}
        result = CliRunner().invoke(
            main, [command, "--config", str(config_path), "--run-dir", str(run_dir),
                   "--scripted", str(script), *args[command]],
        )
        assert result.exit_code == 2, result.output
        assert "run `kbloop pretrain` first" in result.output

    def test_run_dir_is_required(self, workspace):
        tmp_path, config_path = workspace
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps({"response": "Thought 1: t.\nAction 1: Finish[x]"}) + "\n",
                          encoding="utf-8")
        result = CliRunner().invoke(
            main, ["answer", "--config", str(config_path), "--question", "q?",
                   "--scripted", str(script)],
        )
        assert result.exit_code == 2
        assert "--run-dir" in result.output

    @pytest.mark.parametrize("command", ["answer"])
    def test_chat_transport_failure_is_one_line_error(self, workspace, monkeypatch, command):
        """eval-kbqa goes on instead: see ``test_eval_kbqa_goes_on_after_an_aborted_question``."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        url = "http://127.0.0.1:9/v1/chat/completions"

        class DownBackend:
            def chat(self, turns, params=None):
                raise LlmTransportError(f"request to {url} failed: connection refused")

        monkeypatch.setattr(cli, "_backend", lambda cfg, scripted: DownBackend())
        result = CliRunner().invoke(
            main, [command, "--config", str(config_path), "--run-dir", str(run_dir),
                   "--question", "q?", "--topic", "e0"],
        )
        assert result.exit_code == 1
        assert result.output == f"Error: request to {url} failed: connection refused\n"


class TestSelfContainedRunDir:
    """After `kb prepare`, later stages read the KB from the run directory
    alone: the original KB files and the config's KB paths are not needed."""

    def test_later_stages_need_no_original_kb(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        for name in ("triples.tsv", "entities.tsv", "relations.tsv"):
            (tmp_path / name).unlink()
        config = json.loads(config_path.read_text(encoding="utf-8"))
        for key in ("triples_path", "entities_path", "relations_path"):
            del config[key]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        qa = tmp_path / "qa.jsonl"
        qa.write_text(
            json.dumps({"question": "q?", "topic_entities": ["e0"], "answers": ["Entity 3"]}) + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "script.jsonl"
        script.write_text(
            json.dumps({"expect": "q?", "response": "Thought 1: t.\nAction 1: Finish[Entity 3]"}) + "\n",
            encoding="utf-8",
        )
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        for args in (
            ["pretrain"],
            ["eval-kbc"],
            ["answer", "--question", "q?", "--topic", "e0", "--scripted", str(script)],
            ["eval-kbqa", "--qa", str(qa), "--scripted", str(script)],
        ):
            result = invoke(*args, *cfg)
            assert result.exit_code == 0, (args, result.output)
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        assert report["hits_at_1"] == 1.0

    def test_prepare_again_from_the_run_dir_copies(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        entities = (run_dir / "entities.tsv").read_bytes()
        result = invoke(
            "kb", "prepare", "--config", str(config_path), "--run-dir", str(run_dir),
            "--entities", str(run_dir / "entities.tsv"),
            "--relations", str(run_dir / "relations.tsv"),
        )
        assert result.exit_code == 0, result.output
        assert (run_dir / "entities.tsv").read_bytes() == entities

    def test_run_dir_without_entities_is_usage_error(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        (run_dir / "entities.tsv").unlink()
        result = CliRunner().invoke(
            main, ["pretrain", "--config", str(config_path), "--run-dir", str(run_dir)],
        )
        assert result.exit_code == 2
        assert "no prepared KB" in result.output


def write_joint_inputs(tmp_path):
    """One training question and the script of its episode: a Generate step,
    a verified Finish, then the path selection."""
    qa = tmp_path / "qa.jsonl"
    qa.write_text(
        json.dumps({"question": "what relates to Entity 0?",
                    "topic_entities": ["e0"], "answers": ["Entity 9"]}) + "\n",
        encoding="utf-8",
    )
    script = tmp_path / "joint_script.jsonl"
    steps = [
        {"expect": "what relates to Entity 0?",
         "response": "Thought 1: inject.\nAction 1: Generate[what links Entity 0?]"},
        {"expect": "Generated Triples", "response": '"""\n1. Entity 0, rel 0, Entity 9\n"""'},
        {"expect": "New Triples", "response": '"""\n1. Entity 0, rel 0, Entity 9\n"""'},
        {"expect": "", "response": "Thought 2: done.\nAction 2: Finish[Entity 9]"},
        {"expect": "Known triples", "response": "Related triples:\nEntity 0, rel 0, Entity 9"},
    ]
    script.write_text("".join(json.dumps(s) + "\n" for s in steps), encoding="utf-8")
    return qa, script


class RecordingBackend:
    """Scripted replies that record the prompt and parameters of every call."""

    def __init__(self, script):
        self.inner = ScriptedBackend.from_jsonl(script)
        self.calls = []

    def chat(self, turns, params=None):
        self.calls.append((turns[-1].content, params))
        return self.inner.chat(turns, params)


QA_LINE = json.dumps({"question": "q?", "topic_entities": ["e0"], "answers": ["Entity 3"]})
SCRIPT_LINE = json.dumps({"expect": "q?", "response": "Thought 1: t.\nAction 1: Finish[Entity 3]"})


def _rewrite_snapshot(checkpoint, edit):
    with np.load(checkpoint, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    edit(arrays)
    np.savez(checkpoint, **arrays)


SNAPSHOT_DAMAGE = {
    "cut_short": lambda c: c.write_bytes(c.read_bytes()[: c.stat().st_size // 2]),
    "no_log_lines": lambda c: _rewrite_snapshot(c, lambda a: a.pop("log_lines", None)),
    "rows_do_not_match_ids": lambda c: _rewrite_snapshot(
        c, lambda a: a.update(entity_vecs=a["entity_vecs"][:-1])),
    "not_trained": lambda c: _rewrite_snapshot(c, lambda a: a.update(trained=np.array([False]))),
    "negative_log_lines": lambda c: _rewrite_snapshot(c, lambda a: a.update(log_lines=np.array(-3))),
    "fractional_log_lines": lambda c: _rewrite_snapshot(c, lambda a: a.update(log_lines=np.array(2.5))),
    # as pretrained when the store still reserved a `noop` relation
    "extra_noop_relation_row": lambda c: _rewrite_snapshot(
        c, lambda a: a.update(relation_ids=np.array(["noop", *a["relation_ids"]]),
                              relation_vecs=np.concatenate([a["relation_vecs"][:1], a["relation_vecs"]]))),
}


class TestMalformedInputs:
    """A malformed input file ends the command with one error line naming
    ``path:line`` or the key, never with a traceback."""

    @pytest.mark.parametrize("qa_text, script_text, exit_code, named", [
        (QA_LINE + "\n{not json\n", SCRIPT_LINE, 1, "qa.jsonl:2: not valid JSON"),
        ('["q?", ["Entity 3"]]', SCRIPT_LINE, 1, "qa.jsonl:1: expected a JSON object"),
        ('{"question": "q?", "answers": []}', SCRIPT_LINE, 1, "qa.jsonl:1: 'answers'"),
        ('\n{"answers": ["Entity 3"]}', SCRIPT_LINE, 1, "qa.jsonl:2: 'question'"),
        ('{"question": "q?", "answers": "Entity 3"}', SCRIPT_LINE, 1, "qa.jsonl:1: 'answers'"),
        (None, SCRIPT_LINE, 2, "qa.jsonl' does not exist"),
        (QA_LINE, '{"expect": "q?"}', 1, "script.jsonl:1: 'response'"),
        (QA_LINE, None, 2, "script.jsonl' does not exist"),
        (QA_LINE, '{"expect": "another question", "response": "x"}', 1, "scripted step 0"),
        ('{"question": "q?", "answers": ["Entity 3"], "topic_entities": "e0"}', SCRIPT_LINE, 1,
         "qa.jsonl:1: 'topic_entities'"),
    ], ids=["qa_not_json", "qa_not_object", "qa_empty_answers", "qa_no_question",
            "qa_answers_not_list", "qa_missing", "script_no_response", "script_missing",
            "script_mismatch", "qa_topics_not_list"])
    def test_eval_kbqa_input(self, workspace, qa_text, script_text, exit_code, named):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        qa, script = tmp_path / "qa.jsonl", tmp_path / "script.jsonl"
        for path, text in ((qa, qa_text), (script, script_text)):
            if text is not None:
                path.write_text(text + "\n", encoding="utf-8")
        result = invoke("eval-kbqa", "--config", str(config_path), "--run-dir", str(run_dir),
                        "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == exit_code, result.output
        assert named in result.output.splitlines()[-1]
        assert result.output.count("Error:") == 1

    @pytest.mark.parametrize("name, content, named", [
        ("triples.tsv", None, "triples.tsv: No such file or directory"),
        ("relations.tsv", None, "relations.tsv: No such file or directory"),
        ("triples.tsv", b"e0\tr0\te3\ne1\tr0\te\xff4\n", "triples.tsv:2: not valid UTF-8"),
        ("entities.tsv", b"e0\tEntity 0\n\ne1\tEnt\xc3ty 1\n", "entities.tsv:3: not valid UTF-8"),
        ("entities.tsv", b"e0\tEntity 0\n\n \t \ne0\tEntity again\n",
         "entities.tsv:4: duplicate entity id 'e0'"),
        ("entities.tsv", b"e0\t\n", "entities.tsv:1: empty label for entity 'e0'"),
        ("entities.tsv", b"e0\n",
         "entities.tsv:1: malformed entity line (expected 2-3 tab-separated fields, got 1)"),
        ("relations.tsv", b"r0\trel 0\nr0\trel again\n", "relations.tsv:2: duplicate relation id 'r0'"),
        ("relations.tsv", b"r0\t\n", "relations.tsv:1: empty label for relation 'r0'"),
        ("relations.tsv", b"r0\trel 0\n\tempty id rel\n", "relations.tsv:2: empty relation id"),
        ("relations.tsv", b"r0\ta\tb\tc\td\n",
         "relations.tsv:1: malformed relation line (expected 2-4 tab-separated fields, got 5)"),
        ("triples.tsv", b"\n  \ne0\tr0\n",
         "triples.tsv:3: malformed triple line (expected 3 tab-separated fields, got 2)"),
    ], ids=["triples_missing", "relations_missing", "triples_not_utf8", "entities_not_utf8",
            "entity_duplicate_after_blank_lines", "entity_empty_label", "entity_field_count",
            "relation_duplicate", "relation_empty_label", "relation_empty_id", "relation_field_count",
            "triple_field_count_after_blank_lines"])
    def test_kb_prepare_input(self, workspace, name, content, named):
        tmp_path, config_path = workspace
        path = tmp_path / name
        path.unlink()
        if content is not None:
            path.write_bytes(content)
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "run")],
        )
        assert result.exit_code == 1, result.output
        assert result.output.splitlines() == [f"Error: {path.parent}/{named}"]

    @pytest.mark.parametrize("command", ["train-joint", "report"])
    @pytest.mark.parametrize("edit, named", [
        (lambda line: line.clear(), "'finetuned' must be a boolean"),
        (lambda line: line.pop("position"), "'position' must be an integer"),
        (lambda line: line.update(position=1.0), "'position' must be an integer"),
        (lambda line: line.update(llm_call_count=True), "'llm_call_count' must be an integer"),
        (lambda line: line.update(wall_time_s="0.5"), "'wall_time_s' must be a number"),
        (lambda line: line.update(path={"triples": [["Entity 0", "rel 0"]]}), "'path' must be null or"),
        (lambda line: line.update(path={}), "'path' must be null or"),
        (lambda line: line.update(path=None), "a 'finetuned' line needs a 'path'"),
    ], ids=["empty", "no_position", "float_position", "bool_call_count", "string_wall_time",
            "two_field_triple", "path_without_triples", "finetuned_without_path"])
    def test_question_log_line(self, workspace, command, edit, named):
        """A joint log line that lacks a key its readers use, or holds it as
        another JSON type, is named by ``path:line`` and the key."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa, script = write_joint_inputs(tmp_path)
        line = {"error": "", "finetuned": True, "llm_call_count": 5, "position": 0,
                "path": {"triples": [["e0", "r0", "e9"]]}, "wall_time_s": 0.5}
        edit(line)
        log = run_dir / "trajectories.jsonl"
        log.write_text(json.dumps(line) + "\n", encoding="utf-8")
        args = ["train-joint", *cfg, "--qa", str(qa), "--scripted", str(script), "--resume"]
        result = invoke(*(args if command == "train-joint" else ["report", "--run-dir", str(run_dir)]))
        assert result.exit_code == 1, result.output
        assert result.output.splitlines()[-1].startswith(f"Error: {log}:1: {named}")
        assert log.read_text(encoding="utf-8") == json.dumps(line) + "\n"

    @pytest.mark.parametrize("triple, snapshot_lines, named", [
        (["e0", "r0", "nope"], 0, "entity 'nope'"),
        (["e0", "nope", "e9"], 0, "relation 'nope'"),
        (["nope", "r0", "e9"], 1, "entity 'nope'"),
    ], ids=["tail_after_snapshot", "relation_after_snapshot", "head_before_snapshot"])
    def test_question_log_line_naming_an_id_the_kb_lacks(self, workspace, triple, snapshot_lines, named):
        """``train-joint`` refuses a fine-tuned line whose path names an id the
        KB lacks, by ``path:line`` and the id, whether or not the snapshot
        includes the line; ``report`` reads no KB and takes it."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        checkpoint = run_dir / "completer.npz"
        with np.load(checkpoint) as data:
            arrays = dict(data)
        np.savez(checkpoint, **dict(arrays, log_lines=np.array(snapshot_lines)))
        qa, script = write_joint_inputs(tmp_path)
        line = json.dumps({"error": "", "finetuned": True, "llm_call_count": 5, "position": 0,
                           "path": {"triples": [triple]}, "wall_time_s": 0.5})
        log = run_dir / "trajectories.jsonl"
        log.write_text(f"\n{line}\n", encoding="utf-8")  # the blank first line is counted
        result = invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script), "--resume")
        assert result.exit_code == 1, result.output
        assert result.output.splitlines()[-1] == f"Error: {log}:2: 'path' names {named}, which the KB lacks"
        assert log.read_text(encoding="utf-8") == f"\n{line}\n"
        assert invoke("report", "--run-dir", str(run_dir)).exit_code == 0

    def test_non_finite_pretraining_loss(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps(dict(config, learning_rate=1e308)), encoding="utf-8")
        result = invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        assert result.exit_code == 1, result.output
        assert result.output.startswith("Error: non-finite loss on batch of size")
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval-kbc", "train-joint"])
    @pytest.mark.parametrize("damage", sorted(SNAPSHOT_DAMAGE))
    def test_damaged_snapshot(self, workspace, damage, command):
        """A snapshot that is cut short, lacks a key, has a row count that
        does not match its ids, has a relation the KB lacks, is not of a
        trained model or holds a ``log_lines`` that is not a non-negative
        integer is refused in one line naming it, with exit code 2."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        checkpoint = run_dir / "completer.npz"
        SNAPSHOT_DAMAGE[damage](checkpoint)
        qa, script = write_joint_inputs(tmp_path)
        extra = ["--qa", str(qa), "--scripted", str(script)] if command == "train-joint" else []
        result = invoke(command, *cfg, *extra)
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if "Error" in line]
        assert len(errors) == 1 and errors[0] == result.output.splitlines()[-1]
        assert str(checkpoint) in errors[0] and "`kbloop pretrain`" in errors[0]
        assert not (run_dir / "report.json").exists()
        assert not (run_dir / "trajectories.jsonl").exists()

    @pytest.mark.parametrize("command", ["eval-kbqa", "train-joint"])
    def test_unknown_topic_entity_is_named_before_any_question(self, workspace, command):
        """The second QA line names a topic the KB lacks: the command stops
        with one line naming it, and no question has run."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa, script = write_joint_inputs(tmp_path)
        first = json.loads(qa.read_text(encoding="utf-8"))
        with open(qa, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(first, topic_entities=["nope"])) + "\n")
        result = invoke(command, *cfg, "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == 1, result.output
        assert result.output.splitlines() == [f"Error: {qa}:2: unknown topic entity 'nope'"]
        for name in ("trajectories.jsonl", "kbqa_trajectories.jsonl", "report.json"):
            assert not (run_dir / name).exists()


PREPARED_FILES = ["train.tsv", "valid.tsv", "test.tsv", "entities.tsv", "relations.tsv",
                  "config.json", "working_triples.tsv"]


class TestRunDirWrites:
    """Every run-directory file is replaced atomically, and a command that
    stops partway leaves nothing a later command accepts."""

    @pytest.mark.parametrize("prepared", [False, True], ids=["fresh", "prepared"])
    @pytest.mark.parametrize("failing", PREPARED_FILES)
    def test_prepare_cut_short_leaves_no_prepared_kb(self, workspace, monkeypatch, failing, prepared):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace) if prepared else tmp_path / "run"
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        if prepared:
            invoke("pretrain", *cfg)
        written, write_atomic = [], joint_mod.write_atomic

        def cut_short(path, write):
            written.append(Path(path).name)
            if written[-1] != failing:
                return write_atomic(path, write)

            def partial(fh):
                fh.write(b"e0\t")
                raise OSError(28, "No space left on device")
            write_atomic(path, partial)

        monkeypatch.setattr(joint_mod, "write_atomic", cut_short)
        result = CliRunner().invoke(main, ["kb", "prepare", *cfg])
        assert isinstance(result.exception, OSError), result.output
        assert written == PREPARED_FILES[:PREPARED_FILES.index(failing) + 1]
        monkeypatch.undo()
        assert not [p.name for p in run_dir.iterdir() if p.name.startswith(".")]  # no temporary left

        qa, script = write_joint_inputs(tmp_path)
        for args in (["pretrain"], ["train-joint", "--qa", str(qa), "--scripted", str(script)],
                     ["eval-kbc"], ["answer", "--question", "q?", "--scripted", str(script)],
                     ["eval-kbqa", "--qa", str(qa), "--scripted", str(script)]):
            result = CliRunner().invoke(main, [*args, *cfg])
            assert result.exit_code == 2, (args, result.output)
            assert "no prepared KB" in result.output

    @pytest.mark.parametrize("k", range(3))
    def test_eval_kbqa_stopped_at_a_question_leaves_the_previous_log_and_report(
            self, workspace, monkeypatch, k):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa = tmp_path / "qa.jsonl"
        qa.write_text("".join(
            json.dumps({"question": f"q{i}?", "topic_entities": ["e0"], "answers": ["Entity 3"]})
            + "\n" for i in range(3)), encoding="utf-8")
        finish = "Thought 1: t.\nAction 1: Finish[Entity 3]"
        script = tmp_path / "script.jsonl"
        script.write_text("".join(json.dumps({"expect": f"q{i}?", "response": finish}) + "\n"
                                  for i in range(3)), encoding="utf-8")
        invoke("eval-kbqa", *cfg, "--qa", str(qa), "--scripted", str(script))
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert {"kbqa_trajectories.jsonl", "report.json"} <= before.keys()

        inner = ScriptedBackend([(f"q{i}?", finish) for i in range(3)])

        class Crash(Exception):
            pass

        class CrashingBackend:
            def chat(self, turns, params=None):
                if f"q{k}?" in turns[-1].content:
                    raise Crash(f"killed at question {k}")
                return inner.chat(turns, params)

        monkeypatch.setattr(cli, "_backend", lambda cfg, scripted: CrashingBackend())
        result = CliRunner().invoke(main, ["eval-kbqa", *cfg, "--qa", str(qa)])
        assert isinstance(result.exception, Crash), result.output
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_evaluations_replace_their_outputs_without_fsync(self, workspace, monkeypatch):
        tmp_path, config_path = workspace
        synced = []
        monkeypatch.setattr(durable_mod.os, "fsync", lambda fd: synced.append(fd))
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        assert synced  # the working graph and the snapshot are fsynced
        synced.clear()
        qa, script = write_joint_inputs(tmp_path)
        for args in (["eval-kbc"], ["eval-kbqa", "--qa", str(qa), "--scripted", str(script)]):
            result = invoke(*args, *cfg)
            assert result.exit_code == 0, result.output
        assert synced == []
        assert {"kbqa_trajectories.jsonl", "report.json"} <= {p.name for p in run_dir.iterdir()}
        assert not [p.name for p in run_dir.iterdir() if p.name.startswith(".")]


class TestJointAndReport:
    def test_train_joint_scripted_and_report(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        qa, script = write_joint_inputs(tmp_path)

        result = invoke(
            "train-joint", "--config", str(config_path), "--run-dir", str(run_dir),
            "--qa", str(qa), "--scripted", str(script),
        )
        assert result.exit_code == 0, result.output
        assert "1 fine-tune updates" in result.output
        assert (run_dir / "trajectories.jsonl").exists()
        assert (run_dir / "paths.jsonl").exists()

        result = invoke("report", "--run-dir", str(run_dir))
        assert result.exit_code == 0
        assert "avg_llm_calls" in result.output
        assert "n_skipped" not in result.output

    def test_train_joint_requires_pretrain(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        qa, script = write_joint_inputs(tmp_path)
        result = CliRunner().invoke(
            main, ["train-joint", "--config", str(config_path), "--run-dir", str(run_dir),
                   "--qa", str(qa), "--scripted", str(script)],
        )
        assert result.exit_code == 2
        assert "kbloop pretrain" in result.output
        assert not (run_dir / "completer.npz").exists()
        assert not (run_dir / "trajectories.jsonl").exists()

    def test_resume_after_the_last_question_and_pretrain_starts_a_new_log(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa, script = write_joint_inputs(tmp_path)
        invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        with np.load(run_dir / "completer.npz", allow_pickle=False) as data:
            trained = data["entity_vecs"]
            assert int(data["log_lines"]) == 1

        result = invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script), "--resume")
        assert result.exit_code == 0, result.output
        assert "0 questions" in result.output
        with np.load(run_dir / "completer.npz", allow_pickle=False) as data:
            assert np.array_equal(data["entity_vecs"], trained)
        assert len((run_dir / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()) == 1

        invoke("pretrain", *cfg)
        assert not (run_dir / "trajectories.jsonl").exists()
        assert not (run_dir / "paths.jsonl").exists()

        invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        (run_dir / "trajectories.jsonl").unlink()  # the snapshot now includes a lost line
        result = CliRunner().invoke(
            main, ["train-joint", *cfg, "--qa", str(qa), "--scripted", str(script), "--resume"]
        )
        assert result.exit_code == 1
        assert "run `kbloop pretrain` again" in result.output

    def test_resumed_run_parses_its_log_once(self, workspace, monkeypatch):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa, script = write_joint_inputs(tmp_path)
        invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        parsed = []
        parse_jsonl = joint_mod.parse_jsonl

        def counting(lines, path):
            parsed.append(Path(path).name)
            return parse_jsonl(lines, path)

        monkeypatch.setattr(joint_mod, "parse_jsonl", counting)
        result = invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script), "--resume")
        assert result.exit_code == 0, result.output
        assert parsed.count("trajectories.jsonl") == 1

    def test_train_joint_uses_configured_llm_params(self, workspace, monkeypatch):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config.update(llm_temperature=0.2, llm_max_tokens=99)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        qa, script = write_joint_inputs(tmp_path)
        backend = RecordingBackend(script)
        monkeypatch.setattr(cli, "_backend", lambda cfg, scripted: backend)

        result = invoke(
            "train-joint", "--config", str(config_path), "--run-dir", str(run_dir),
            "--qa", str(qa), "--scripted", str(script),
        )
        assert result.exit_code == 0, result.output
        assert len(backend.calls) == 5
        assert "Known triples" in backend.calls[-1][0]  # the path_select call
        assert all(params == LlmParams(0.2, 99) for _, params in backend.calls)

    def test_eval_kbqa_scripted(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        qa = tmp_path / "qa.jsonl"
        qa.write_text(
            json.dumps({"question": "q?", "topic_entities": ["e0"], "answers": ["Entity 3"]}) + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "script.jsonl"
        script.write_text(
            json.dumps({"expect": "q?", "response": "Thought 1: t.\nAction 1: Finish[Entity 3]"}) + "\n",
            encoding="utf-8",
        )
        result = invoke(
            "eval-kbqa", "--config", str(config_path), "--run-dir", str(run_dir),
            "--qa", str(qa), "--scripted", str(script),
        )
        assert result.exit_code == 0, result.output
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        assert report["hits_at_1"] == 1.0
        assert report["n_questions"] == 1
        logged = json.loads((run_dir / "kbqa_trajectories.jsonl").read_text(encoding="utf-8"))
        assert (report["avg_llm_calls"], report["avg_seconds"]) == \
            (logged["llm_call_count"], logged["wall_time_s"])

    def test_eval_kbqa_refuses_a_file_with_no_question(self, workspace):
        """eval-kbqa has nothing to average over an empty QA file;
        train-joint over one finishes with no question asked."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa = tmp_path / "qa.jsonl"
        qa.write_text("\n", encoding="utf-8")
        script = tmp_path / "script.jsonl"
        script.write_text("", encoding="utf-8")
        result = invoke("eval-kbqa", *cfg, "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == f"Error: no question to evaluate in {qa}"
        assert not (run_dir / "kbqa_trajectories.jsonl").exists()
        assert not (run_dir / "report.json").exists()

        result = invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == 0, result.output
        assert "0 questions" in result.output

    @pytest.mark.parametrize("topics", [["e0"], []], ids=["agent", "cot"])
    def test_eval_kbqa_goes_on_after_an_aborted_question(self, workspace, monkeypatch, topics):
        """The second of three questions meets a transport failure, in the
        agent's first call or, with no topic entity, in its ``cot`` call: it
        is logged with its error and counted as a miss, and the third runs."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        qa = tmp_path / "qa.jsonl"
        qa.write_text("".join(
            json.dumps({"question": f"q{i}?", "topic_entities": topics if i == 1 else ["e0"],
                        "answers": ["Entity 3"]})
            + "\n" for i in range(3)), encoding="utf-8")
        finish = "Thought 1: t.\nAction 1: Finish[Entity 3]"
        inner = ScriptedBackend([("q0?", finish), ("q2?", finish)])

        class FlakyBackend:
            def chat(self, turns, params=None):
                if "q1?" in turns[-1].content:
                    raise LlmTransportError("request failed: connection refused")
                return inner.chat(turns, params)

        monkeypatch.setattr(cli, "_backend", lambda cfg, scripted: FlakyBackend())
        result = invoke("eval-kbqa", "--config", str(config_path), "--run-dir", str(run_dir),
                        "--qa", str(qa))
        assert result.exit_code == 0, result.output
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        assert (report["n_questions"], report["n_failed"]) == (3, 1)
        assert report["hits_at_1"] == pytest.approx(2 / 3)
        logged = [json.loads(line) for line in
                  (run_dir / "kbqa_trajectories.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [line["question"] for line in logged] == ["q0?", "q1?", "q2?"]
        assert [line["error"] for line in logged] == \
            ["", "request failed: connection refused", ""]
        assert logged[1]["final_answers"] == [] and logged[1]["llm_call_count"] == 1

    def test_report_leaves_a_torn_log_as_it_is(self, workspace, caplog):
        """``report`` only reads: a torn last line, perhaps one a live run is
        appending, is dropped in memory and stays in the file."""
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa, script = write_joint_inputs(tmp_path)
        invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        log = run_dir / "trajectories.jsonl"
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"question": "half a li')
        before = log.read_bytes()

        result = invoke("report", "--run-dir", str(run_dir))
        assert result.exit_code == 0, result.output
        assert '"n_questions": 1' in result.output
        assert "dropping the torn last line" in caplog.text
        assert log.read_bytes() == before

    def test_report_prints_the_stored_report_before_the_joint_averages(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        invoke("pretrain", *cfg)
        qa, script = write_joint_inputs(tmp_path)
        invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        stored = invoke("eval-kbc", *cfg).output

        result = invoke("report", "--run-dir", str(run_dir))
        assert result.exit_code == 0, result.output
        assert result.output.startswith(stored)
        averages = json.loads(result.output[len(stored):])
        assert averages.keys() == {"avg_llm_calls", "avg_seconds", "n_questions"}
        assert averages["n_questions"] == 1

    def test_report_empty_dir_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 2


class _CompleterService(BaseHTTPRequestHandler):
    """A completer service that records each request as ``(path, payload)``
    in ``requests`` and answers every ``complete`` with one sample, Entity 3."""

    requests: list

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.requests.append((self.path.lstrip("/"), payload))
        if self.path == "/complete":
            reply = {"samples": [{"text": "Entity 3", "logprob": -0.1}]}
        else:
            reply = {"status": "completed"}
        body = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestRemoteCompleter:
    def test_pretrain_train_joint_and_eval_kbc_against_a_service(self, workspace, loopback):
        """With ``completer_endpoint`` set, the service is the completer:
        ``pretrain`` posts the working graph's label rows and writes no
        snapshot, and a fine-tune posts its path with its replay draw."""
        tmp_path, config_path = workspace
        service = type("Service", (_CompleterService,), {"requests": []})
        server = loopback(service)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["completer_endpoint"] = f"http://127.0.0.1:{server.server_port}"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = prepare(workspace)
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]

        result = invoke("pretrain", *cfg)
        assert result.exit_code == 0, result.output
        working = (run_dir / "working_triples.tsv").read_text(encoding="utf-8").splitlines()
        rows = [[f"Entity {h[1:]}", f"rel {r[1:]}", f"Entity {t[1:]}"]
                for h, r, t in (line.split("\t") for line in working)]
        assert service.requests == [("pretrain", {"triples": rows})]
        assert not (run_dir / "completer.npz").exists()

        service.requests.clear()
        qa, script = write_joint_inputs(tmp_path)
        result = invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == 0, result.output
        assert "1 questions, 1 fine-tune updates" in result.output
        finetunes = [payload for path, payload in service.requests if path == "finetune"]
        assert [payload["triples"] for payload in finetunes] == [[["Entity 0", "rel 0", "Entity 9"]]]
        assert len(finetunes[0]["replay"]) == 1 * RunConfig().training.replay_samples_per_triple
        assert not (run_dir / "completer.npz").exists()

        result = invoke("eval-kbc", *cfg)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n_queries"] == 5


class TestFixedVocabulary:
    """A path triple naming a surface the KB lacks must not reach the
    completer: the next command rebuilds the KB from the run directory."""

    def test_unknown_path_entity_never_reaches_eval(self, tmp_path):
        labels = {"a": "Alpha", "b": "Beta", "c": "Gamma", "d": "Delta"}
        (tmp_path / "entities.tsv").write_text(
            "".join(f"{e}\t{label}\n" for e, label in labels.items()), encoding="utf-8"
        )
        (tmp_path / "relations.tsv").write_text("p\tlikes\n", encoding="utf-8")
        (tmp_path / "triples.tsv").write_text(
            "a\tp\tb\nb\tp\tc\nc\tp\td\nd\tp\ta\n", encoding="utf-8"
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "triples_path": str(tmp_path / "triples.tsv"),
            "entities_path": str(tmp_path / "entities.tsv"),
            "relations_path": str(tmp_path / "relations.tsv"),
            "n_test": 1, "keep_fraction": 1.0, "embedding_dim": 4, "epochs": 2,
        }), encoding="utf-8")
        run_dir = tmp_path / "run"
        cfg = ["--config", str(config_path), "--run-dir", str(run_dir)]
        for cmd in (["kb", "prepare"], ["pretrain"]):
            assert invoke(*cmd, *cfg).exit_code == 0

        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps({"question": "whom does Alpha like?",
                                  "topic_entities": ["a"], "answers": ["Omega"]}) + "\n",
                      encoding="utf-8")
        script = tmp_path / "joint_script.jsonl"
        steps = [
            {"expect": "whom does Alpha like?",
             "response": "Thought 1: ask.\nAction 1: Generate[whom does Alpha like?]"},
            {"expect": "Generated Triples", "response": '"""\n1. Alpha, likes, Omega\n"""'},
            {"expect": "New Triples", "response": '"""\n1. Alpha, likes, Omega\n"""'},
            {"expect": "", "response": "Thought 2: done.\nAction 2: Finish[Omega]"},
            {"expect": "Known triples", "response": "Related triples:\nAlpha, likes, Omega"},
        ]
        script.write_text("".join(json.dumps(s) + "\n" for s in steps), encoding="utf-8")
        result = invoke("train-joint", *cfg, "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == 0, result.output
        assert "0 fine-tune updates" in result.output
        assert "gen:" not in (run_dir / "paths.jsonl").read_text(encoding="utf-8")

        script.write_text("".join(json.dumps(s) + "\n" for s in [
            {"expect": "whom does Alpha like?",
             "response": "Thought 1: ask.\nAction 1: Complete[Alpha | likes]"},
            {"expect": "", "response": "Thought 2: done.\nAction 2: Finish[Beta]"},
        ]), encoding="utf-8")
        result = invoke("eval-kbqa", *cfg, "--qa", str(qa), "--scripted", str(script))
        assert result.exit_code == 0, result.output


def test_cli_import_leaves_requests_out():
    """The program talks HTTP through the standard library only."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, kbloop.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
