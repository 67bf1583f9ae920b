"""Joint loop: episodes feed reasoning paths into incremental fine-tuning."""

import numpy as np
import pytest

from kbloop.completer import (
    CompleterTransportError,
    CompletionQuery,
    NativeCompleter,
    TrainingConfig,
)
from kbloop.joint import QaExample, RunLog, load_qa_examples, run_joint_training, train_joint
from kbloop.kb import Triple
from kbloop.llm import LlmTransportError, ScriptedBackend

from conftest import make_kb


def chain_kb(n=10):
    triples = [(f"e{i}", "r", f"e{i+1}") for i in range(n - 1)]
    return make_kb(
        triples,
        entities={f"e{i}": (f"E{i}", f"entity number {i}") for i in range(n)},
        relations={"r": ("rel r", "a test relation", "[Thing], rel r, [Thing]")},
    )


def generate_episode_script(topic_label, answer_label):
    """One episode: a generate step injecting (topic, rel r, answer), then a
    verified finish, then the path selection."""
    return [
        ("", f"Thought 1: need {answer_label}.\nAction 1: Generate[what relates to {topic_label}?]"),
        ("Generated Triples", f'"""\n1. {topic_label}, rel r, {answer_label}\n"""'),
        ("New Triples", f'"""\n1. {topic_label}, rel r, {answer_label}\n"""'),
        ("", f"Thought 2: found it.\nAction 2: Finish[{answer_label}]"),
        ("Known triples", f"Related triples:\n{topic_label}, rel r, {answer_label}"),
    ]


def rank_of(model, kb, head, relation, tail):
    preds = model.predict(CompletionQuery.tail_query(head, relation), kb, len(kb.entities))
    return [p.entity for p in preds].index(tail) + 1


class TestTrainJoint:
    def setup_run(self):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        model = NativeCompleter(kb, dim=32, seed=0)
        config = TrainingConfig(epochs=200, seed=0, finetune_passes=100)
        model.pretrain(pretrain, kb, config)
        script = generate_episode_script("E0", "E5") + generate_episode_script("E1", "E7")
        qa = [
            QaExample("q one?", ("e0",), ("E5",)),
            QaExample("q two?", ("e1",), ("E7",)),
        ]
        return kb, model, config, pretrain, ScriptedBackend(script), qa

    def test_two_questions_two_finetunes(self):
        kb, model, config, pretrain, backend, qa = self.setup_run()
        result = train_joint(
            kb, qa, model, backend,
            train_config=config, pretrain_triples=pretrain,
        )
        assert len(result.records) == 2
        assert all(r.finetuned for r in result.records)
        assert [len(r.path.triples) for r in result.records] == [1, 1]

    def test_injected_triple_rank_improves(self):
        kb, model, config, pretrain, backend, qa = self.setup_run()
        before = rank_of(model, kb, "e0", "r", "e5")
        train_joint(kb, qa, model, backend, train_config=config, pretrain_triples=pretrain)
        after = rank_of(model, kb, "e0", "r", "e5")
        assert after < before

    def test_bit_reproducible(self):
        runs = []
        for _ in range(2):
            kb, model, config, pretrain, backend, qa = self.setup_run()
            result = train_joint(
                kb, qa, model, backend, train_config=config, pretrain_triples=pretrain
            )
            runs.append(result.completer.entity_vecs.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_empty_path_skips_finetune(self):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        model = NativeCompleter(kb, dim=16, seed=0)
        config = TrainingConfig(epochs=5, seed=0)
        model.pretrain(pretrain, kb, config)
        # the finish answer never matches gold, so no path is parsed
        backend = ScriptedBackend([("", "Thought 1: hm.\nAction 1: Finish[E9]")])
        before = model.entity_vecs.copy()
        result = train_joint(
            kb, [QaExample("q?", ("e0",), ("E5",))], model, backend,
            train_config=config, pretrain_triples=pretrain,
        )
        assert not result.records[0].finetuned
        assert np.array_equal(model.entity_vecs, before)

    def test_topicless_question_routed_to_fallback(self):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        model = NativeCompleter(kb, dim=16, seed=0)
        model.pretrain(pretrain, kb, TrainingConfig(epochs=5, seed=0))
        backend = ScriptedBackend([("", "Answer: E5")])
        result = train_joint(
            kb, [QaExample("q?", (), ("E5",))], model, backend,
            train_config=TrainingConfig(epochs=5, seed=0), pretrain_triples=pretrain,
        )
        record = result.records[0]
        assert record.trajectory.stop_reason == "cot"
        assert record.path is None and not record.finetuned

    @pytest.mark.parametrize(
        "failing_call, failing_method, script",
        [
            # the first agent call of question one
            (1, None, generate_episode_script("E1", "E7")),
            # question one's path_select call, after a verified episode
            (5, None, generate_episode_script("E0", "E5")[:4] + generate_episode_script("E1", "E7")),
            # question one's Complete action: the completer's predict
            (None, "predict",
             [("", "Thought 1: ask.\nAction 1: Complete[E0 | rel r]")]
             + generate_episode_script("E1", "E7")),
            # question one's fine-tune, after a parsed path
            (None, "incremental_finetune",
             generate_episode_script("E0", "E5") + generate_episode_script("E1", "E7")),
        ],
        ids=["first_agent_call", "path_select", "complete_predict", "finetune"],
    )
    def test_transport_failure_skips_question(self, failing_call, failing_method, script):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        model = NativeCompleter(kb, dim=16, seed=0)
        model.pretrain(pretrain, kb, TrainingConfig(epochs=5, seed=0))

        inner = ScriptedBackend(script)

        class FlakyBackend:
            def __init__(self):
                self.calls = 0

            def chat(self, turns, params=None):
                self.calls += 1
                if self.calls == failing_call:
                    raise LlmTransportError("boom")
                return inner.chat(turns, params)

        class FlakyCompleter:
            """The model, except that the first call of ``failing_method`` fails."""

            def __init__(self):
                self.failed = False

            def __getattr__(self, name):
                if name != failing_method or self.failed:
                    return getattr(model, name)

                def fail(*args, **kwargs):
                    self.failed = True
                    raise CompleterTransportError("boom")
                return fail

        result = train_joint(
            kb,
            [QaExample("q one?", ("e0",), ("E5",)), QaExample("q two?", ("e1",), ("E7",))],
            FlakyCompleter(),
            FlakyBackend(),
            train_config=TrainingConfig(epochs=5, seed=0, finetune_passes=2),
            pretrain_triples=pretrain,
        )
        assert result.records[0].error
        # only a failed fine-tune comes after a parsed path
        assert (result.records[0].path is None) == (failing_method != "incremental_finetune")
        assert not result.records[0].finetuned
        assert result.records[1].finetuned


class TestPersistence:
    def test_qa_loader(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            '{"question": "q?", "topic_entities": ["e0"], "answers": ["E5"]}\n',
            encoding="utf-8",
        )
        examples = load_qa_examples(path)
        assert examples == [QaExample("q?", ("e0",), ("E5",))]

    def test_run_log_and_resume(self, tmp_path):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        config = TrainingConfig(epochs=10, seed=0, finetune_passes=5)
        model = NativeCompleter(kb, dim=16, seed=0)
        model.pretrain(pretrain, kb, config)
        qa = [QaExample("q one?", ("e0",), ("E5",)), QaExample("q two?", ("e1",), ("E7",))]

        run_dir = tmp_path / "run"
        backend = ScriptedBackend(generate_episode_script("E0", "E5"))
        run_joint_training(
            run_dir, kb, qa[:1], model, backend,
            train_config=config, pretrain_triples=pretrain,
        )
        log = RunLog(run_dir)
        assert log.completed_questions() == 1
        assert log.checkpoint_path.exists()

        backend = ScriptedBackend(generate_episode_script("E1", "E7"))
        result = run_joint_training(
            run_dir, kb, qa, model, backend, resume=True,
            train_config=config, pretrain_triples=pretrain,
        )
        assert len(result.records) == 1  # only the second question ran
        assert log.completed_questions() == 2
        assert log.paths_path.exists()
