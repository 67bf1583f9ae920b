"""Command-line flows over a temp run directory."""

import json

import pytest
from click.testing import CliRunner

from kbloop import cli
from kbloop.cli import main
from kbloop.kb import KbLoadError
from kbloop.llm import LlmParams, ScriptedBackend


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

    def test_unknown_subcommand_exits_2(self):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code == 2


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
        assert isinstance(result.exception, KbLoadError)
        assert "test.tsv:2" in str(result.exception)


class TestAnswer:
    def test_scripted_answer_is_deterministic(self, workspace):
        tmp_path, config_path = workspace
        run_dir = prepare(workspace)
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
        result = CliRunner().invoke(
            main, ["answer", "--config", str(config_path), "--question", "q?"],
        )
        assert result.exit_code == 2


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

    def test_report_empty_dir_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 2
