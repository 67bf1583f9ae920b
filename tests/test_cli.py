"""Command-line flows over a temp run directory."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kbloop import cli
from kbloop import joint as joint_mod
from kbloop import kb as kb_mod
from kbloop.cli import main
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
    ], ids=["keep_nothing", "keep_more_than_all", "held_out_all"])
    def test_bad_split_is_usage_error(self, workspace, flags, named):
        tmp_path, config_path = workspace
        result = CliRunner().invoke(
            main, ["kb", "prepare", "--config", str(config_path), "--run-dir", str(tmp_path / "r"),
                   *flags],
        )
        assert result.exit_code == 2, result.output
        assert f"Error: {named}" in result.output
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


# sha256 of each file `kb prepare` writes for the seeded input of
# `pinned_inputs`, recorded when `Triple` was still a frozen dataclass
PINNED_PREPARE_SHA256 = {
    "train.tsv": "d7601114784526dd783bf191fa097b3863afa1ada5fdd2aec7f3e8cd29cfe0f7",
    "valid.tsv": "285b91ee2c5407b6ae45f94e860594161125bb07de3c27b9b86a5055626066a8",
    "test.tsv": "6fb9198bea71420755cff6953bb52229c1e0e02d6f67ce727431d9df8039b528",
    "working_triples.tsv": "2872ab2bb793351b4fe4b9edd6c384119aa0260124bd132d8342de7662ff25c4",
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

    @pytest.mark.parametrize("command", ["answer", "eval-kbqa"])
    def test_chat_transport_failure_is_one_line_error(self, workspace, monkeypatch, command):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
        invoke("pretrain", "--config", str(config_path), "--run-dir", str(run_dir))
        qa = tmp_path / "qa.jsonl"
        qa.write_text(
            json.dumps({"question": "q?", "topic_entities": ["e0"], "answers": ["Entity 3"]}) + "\n",
            encoding="utf-8",
        )
        url = "http://127.0.0.1:9/v1/chat/completions"

        class DownBackend:
            def chat(self, turns, params=None):
                raise LlmTransportError(f"request to {url} failed: connection refused")

        monkeypatch.setattr(cli, "_backend", lambda cfg, scripted: DownBackend())
        args = {"answer": ["--question", "q?", "--topic", "e0"], "eval-kbqa": ["--qa", str(qa)]}
        result = CliRunner().invoke(
            main, [command, "--config", str(config_path), "--run-dir", str(run_dir),
                   *args[command]],
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
    "replay_rng_state_not_json": lambda c: _rewrite_snapshot(
        c, lambda a: a.update(replay_rng_state=np.array("[3, [1, 2"))),
    "rows_do_not_match_ids": lambda c: _rewrite_snapshot(
        c, lambda a: a.update(entity_vecs=a["entity_vecs"][:-1])),
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
    ], ids=["qa_not_json", "qa_not_object", "qa_empty_answers", "qa_no_question",
            "qa_answers_not_list", "qa_missing", "script_no_response", "script_missing",
            "script_mismatch"])
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
    ], ids=["triples_missing", "relations_missing", "triples_not_utf8", "entities_not_utf8"])
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
        """A snapshot that is cut short, lacks a key, holds a replay RNG state
        that does not parse, or has a row count that does not match its ids
        is refused in one line naming it, with exit code 2."""
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
        read_jsonl = joint_mod.read_jsonl

        def counting(path):
            parsed.append(Path(path).name)
            return read_jsonl(path)

        monkeypatch.setattr(joint_mod, "read_jsonl", counting)
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

    def test_report_empty_dir_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 2


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
