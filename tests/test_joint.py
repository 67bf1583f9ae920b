"""Joint loop: episodes feed reasoning paths into incremental fine-tuning."""

import builtins
import io
import json
from pathlib import Path

import numpy as np
import pytest

from kbloop.agent import AgentConfig
from kbloop.completer import (
    CompleterTransportError,
    CompletionQuery,
    NativeCompleter,
    RemoteCompleter,
    ReplayMemory,
    Snapshot,
    SnapshotError,
    TrainingConfig,
    TrainingError,
)
from kbloop.joint import (
    QaExample,
    RunLog,
    RunLogError,
    load_qa_examples,
    run_joint_training,
)
from kbloop.kb import KbLoadError, Triple
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
    preds = model.predict(CompletionQuery(head, relation), kb, len(kb.entities))
    return [p.entity for p in preds].index(tail) + 1


def pretrained(run_dir, kb, pretrain, dim, config):
    """A completer pretrained in memory, snapshotted as ``pretrain`` would."""
    model = NativeCompleter(kb, dim=dim, seed=0)
    model.pretrain(pretrain, kb, config)
    RunLog(run_dir).restart(model)
    return model


class TestTrainJoint:
    def setup_run(self, run_dir):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        config = TrainingConfig(epochs=200, seed=0, finetune_passes=100)
        model = pretrained(run_dir, kb, pretrain, 32, config)
        script = generate_episode_script("E0", "E5") + generate_episode_script("E1", "E7")
        qa = [
            QaExample("q one?", ("e0",), ("E5",)),
            QaExample("q two?", ("e1",), ("E7",)),
        ]
        return kb, model, config, pretrain, ScriptedBackend(script), qa

    def test_two_questions_two_finetunes(self, tmp_path):
        kb, model, config, pretrain, backend, qa = self.setup_run(tmp_path)
        result = run_joint_training(
            tmp_path, kb, qa, Snapshot(model), backend,
            train_config=config,
        )
        assert len(result.records) == 2
        assert all(r["finetuned"] for r in result.records)
        assert [len(r["path"]["triples"]) for r in result.records] == [1, 1]

    def test_one_path_triple_draws_ten_replay(self, tmp_path, monkeypatch):
        """The loop draws the replay, ``replay_samples_per_triple`` (10) per
        path triple, and the completer trains on the path and that draw."""
        kb = chain_kb(40)  # 39 pool triples: a draw of 10 is not the whole pool
        config = TrainingConfig(epochs=2, seed=0, finetune_passes=1)
        model = pretrained(tmp_path, kb, sorted(kb.triples), 8, config)
        batches = []
        original = model._run_passes

        def spy(encoded, config, n_passes):
            batches.append(len(encoded))
            return original(encoded, config, n_passes)

        monkeypatch.setattr(model, "_run_passes", spy)
        result = run_joint_training(
            tmp_path, kb, [QaExample("q one?", ("e0",), ("E5",))], Snapshot(model),
            ScriptedBackend(generate_episode_script("E0", "E5")), train_config=config,
        )
        assert [len(r["path"]["triples"]) for r in result.records] == [1]
        assert batches == [11]

    def test_injected_triple_rank_improves(self, tmp_path, monkeypatch):
        """Each injected triple ranks better right after its own fine-tune.
        (A later question's fine-tune may push it back: that is forgetting,
        which replay only limits.)"""
        kb, model, config, pretrain, backend, qa = self.setup_run(tmp_path)
        injected = [("e0", "r", "e5"), ("e1", "r", "e7")]
        before = [rank_of(model, kb, *t) for t in injected]
        after = []
        original = model.incremental_finetune

        def spy(*args):
            result = original(*args)
            after.append(rank_of(model, kb, *injected[len(after)]))
            return result

        monkeypatch.setattr(model, "incremental_finetune", spy)
        run_joint_training(
            tmp_path, kb, qa, Snapshot(model), backend, train_config=config
        )
        assert len(after) == 2
        assert all(a < b for a, b in zip(after, before)), (before, after)

    def test_bit_reproducible(self, tmp_path):
        runs = []
        for i in range(2):
            run_dir = tmp_path / str(i)
            kb, model, config, pretrain, backend, qa = self.setup_run(run_dir)
            result = run_joint_training(
                run_dir, kb, qa, Snapshot(model), backend, train_config=config
            )
            runs.append(result.completer.entity_vecs.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_empty_path_skips_finetune(self, tmp_path):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        config = TrainingConfig(epochs=5, seed=0)
        model = pretrained(tmp_path, kb, pretrain, 16, config)
        # the finish answer never matches gold, so no path is parsed
        backend = ScriptedBackend([("", "Thought 1: hm.\nAction 1: Finish[E9]")])
        before = model.entity_vecs.copy()
        result = run_joint_training(
            tmp_path, kb, [QaExample("q?", ("e0",), ("E5",))], Snapshot(model), backend,
            train_config=config,
        )
        assert not result.records[0]["finetuned"]
        assert np.array_equal(model.entity_vecs, before)

    def test_topicless_question_routed_to_fallback(self, tmp_path):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        model = pretrained(tmp_path, kb, pretrain, 16, TrainingConfig(epochs=5, seed=0))
        backend = ScriptedBackend([("", "Answer: E5")])
        result = run_joint_training(
            tmp_path, kb, [QaExample("q?", (), ("E5",))], Snapshot(model), backend,
            train_config=TrainingConfig(epochs=5, seed=0),
        )
        record = result.records[0]
        assert record["stop_reason"] == "cot"
        assert record["path"] is None and not record["finetuned"]

    def test_episode_stopped_at_max_steps_yields_an_empty_path(self, tmp_path):
        """An episode that never finishes parses no path: the line notes it,
        and the completer is not fine-tuned."""
        kb = chain_kb()
        config = TrainingConfig(epochs=5, seed=0)
        model = pretrained(tmp_path, kb, sorted(kb.triples), 16, config)
        backend = ScriptedBackend([("", "Thought: still thinking.")] * 2)  # no action, twice
        before = model.entity_vecs.copy()
        result = run_joint_training(
            tmp_path, kb, [QaExample("q?", ("e0",), ("E5",))], Snapshot(model), backend,
            agent_config=AgentConfig(max_thoughts=1), train_config=config,
        )
        record = result.records[0]
        assert record["stop_reason"] == "max_steps"
        assert record["path"]["triples"] == []
        assert record["path"]["notes"] == ["no verified finish; empty path"]
        assert not record["error"] and not record["finetuned"]
        assert np.array_equal(model.entity_vecs, before)

    def test_path_select_runs_inside_the_call_ceiling(self, tmp_path):
        """An episode that spends all 20 calls and then finishes verified
        leaves none for path_select: no path, no fine-tune, no error."""
        kb = chain_kb()
        config = TrainingConfig(epochs=5, seed=0)
        model = pretrained(tmp_path, kb, sorted(kb.triples), 16, config)
        episode = generate_episode_script("E0", "E5")
        no_action = [("", "Thought: still thinking.")] * 16  # steps 2-9, two calls each
        backend = CrashingBackend(episode[:3] + no_action + [episode[3]] + episode[4:])  # counts calls
        result = run_joint_training(
            tmp_path, kb, [QaExample("q one?", ("e0",), ("E5",))], Snapshot(model), backend,
            train_config=config,
        )
        record = result.records[0]
        assert record["llm_call_count"] == 20
        assert record["verified_answers"] == ["E5"]
        assert backend.calls == 20
        assert not record["error"] and not record["finetuned"]
        assert record["path"]["triples"] == []
        assert record["path"]["notes"] == ["call budget exhausted before path_select; empty path"]

    def test_the_log_counts_path_select(self, tmp_path):
        """A question's line records every chat call it made, path_select's included."""
        kb = chain_kb()
        config = TrainingConfig(epochs=5, seed=0)
        model = pretrained(tmp_path, kb, sorted(kb.triples), 16, config)
        backend = CrashingBackend(generate_episode_script("E0", "E5"))  # counts calls
        run_joint_training(
            tmp_path, kb, [QaExample("q one?", ("e0",), ("E5",))], Snapshot(model), backend,
            train_config=config,
        )
        [line] = RunLog(tmp_path).entries()
        assert line["finetuned"]
        assert line["template_calls"][-1] == "path_select"
        assert line["llm_call_count"] == len(line["template_calls"]) == backend.calls == 5

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
    def test_transport_failure_skips_question(self, tmp_path, failing_call, failing_method, script):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        model = pretrained(tmp_path, kb, pretrain, 16, TrainingConfig(epochs=5, seed=0))

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

        result = run_joint_training(
            tmp_path,
            kb,
            [QaExample("q one?", ("e0",), ("E5",)), QaExample("q two?", ("e1",), ("E7",))],
            Snapshot(FlakyCompleter()),
            FlakyBackend(),
            train_config=TrainingConfig(epochs=5, seed=0, finetune_passes=2),
        )
        assert result.records[0]["error"]
        # only a failed fine-tune comes after a parsed path
        assert (result.records[0]["path"] is None) == (failing_method != "incremental_finetune")
        assert not result.records[0]["finetuned"]
        assert result.records[1]["finetuned"]


class TestPersistence:
    def test_qa_loader(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            '{"question": "q?", "topic_entities": ["e0"], "answers": ["E5"]}\n',
            encoding="utf-8",
        )
        examples = load_qa_examples(path, chain_kb())
        assert examples == [QaExample("q?", ("e0",), ("E5",))]

    def test_entries_read_the_log_once_with_the_jsonl_rules(self, tmp_path, monkeypatch):
        log = RunLog(tmp_path)
        lines = [{"finetuned": False, "llm_call_count": 1, "path": None, "position": i, "wall_time_s": 0.5}
                 for i in range(2)]
        first, second = map(json.dumps, lines)
        log.trajectories_path.write_text(f'{first}\n\n{second}\n{{"a": 3, "torn', encoding="utf-8")
        opened = []
        real_open = io.open

        def counting(file, *args, **kwargs):
            opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        assert log.entries() == lines  # blank line skipped, torn line dropped
        assert opened == ["trajectories.jsonl"]
        monkeypatch.undo()
        log.trajectories_path.write_bytes(b'{"a": 1}\n\nnot json\n')
        with pytest.raises(KbLoadError, match="trajectories.jsonl:3: not valid JSON"):
            log.entries()

    def test_run_log_and_resume(self, tmp_path):
        kb = chain_kb()
        pretrain = sorted(kb.triples)
        config = TrainingConfig(epochs=10, seed=0, finetune_passes=5)
        run_dir = tmp_path / "run"
        model = pretrained(run_dir, kb, pretrain, 16, config)
        qa = [QaExample("q one?", ("e0",), ("E5",)), QaExample("q two?", ("e1",), ("E7",))]

        backend = ScriptedBackend(generate_episode_script("E0", "E5"))
        run_joint_training(
            run_dir, kb, qa[:1], Snapshot(model), backend,
            train_config=config,
        )
        log = RunLog(run_dir)
        assert len(log.entries()) == 1
        assert log.checkpoint_path.exists()

        backend = ScriptedBackend(generate_episode_script("E1", "E7"))
        result = run_joint_training(
            run_dir, kb, qa, NativeCompleter.load(log.checkpoint_path, kb), backend, resume=True,
            train_config=config,
        )
        assert len(result.records) == 1  # only the second question ran
        assert len(log.entries()) == 2
        assert log.paths_path.exists()

    def test_tables_and_scores_stay_float32(self, tmp_path):
        kb = chain_kb()
        config = TrainingConfig(epochs=5, seed=0, finetune_passes=2)
        query = CompletionQuery("e0", "r")

        def assert_float32(model):
            assert model.entity_vecs.dtype == model.relation_vecs.dtype == np.float32
            if model.trained:
                assert model.tail_scores(query, kb).dtype == np.float32

        model = NativeCompleter(kb, dim=8, seed=0)
        assert_float32(model)
        model.pretrain(sorted(kb.triples), kb, config)
        assert_float32(model)
        run_dir = tmp_path / "run"
        log = RunLog(run_dir)
        log.restart(model)
        base = log.checkpoint_path.read_bytes()  # includes no log line
        qa = [QaExample("q one?", ("e0",), ("E5",))]
        result = run_joint_training(
            run_dir, kb, qa, Snapshot(model), ScriptedBackend(generate_episode_script("E0", "E5")),
            train_config=config,
        )
        assert result.records[0]["finetuned"]
        assert_float32(model)
        assert_float32(NativeCompleter.load(log.checkpoint_path, kb).completer)

        log.checkpoint_path.write_bytes(base)
        replayed = run_joint_training(run_dir, kb, [], NativeCompleter.load(log.checkpoint_path, kb),
                                      ScriptedBackend([]), train_config=config).completer
        assert_float32(replayed)
        assert np.array_equal(replayed.entity_vecs, model.entity_vecs)

    def test_stateless_completer_logs_without_a_snapshot(self, tmp_path):
        """A remote completer's service owns its weights: the run logs every
        question and writes no snapshot, and the log alone tells a resumed
        sweep where to continue."""
        kb = chain_kb()
        requests = []

        def transport(path, payload):
            requests.append(path)
            return {"status": "completed"}

        remote = RemoteCompleter(transport=transport)
        qa = [QaExample(f"q {i}?", (f"e{i}",), (f"E{i + 5}",)) for i in range(3)]
        scripts = [generate_episode_script(f"E{i}", f"E{i + 5}") for i in range(3)]
        run_dir = tmp_path / "run"
        result = run_joint_training(
            run_dir, kb, qa[:2], remote, ScriptedBackend(sum(scripts[:2], [])),
            train_config=TrainingConfig(seed=0),
        )
        log = RunLog(run_dir)
        assert [r["finetuned"] for r in result.records] == [True, True]
        assert [e["question"] for e in log.entries()] == ["q 0?", "q 1?"]
        assert not log.checkpoint_path.exists()
        assert requests == ["finetune", "finetune"]

        result = run_joint_training(
            run_dir, kb, qa, remote, ScriptedBackend(scripts[2]), resume=True,
            train_config=TrainingConfig(seed=0),
        )
        assert [r["question"] for r in result.records] == ["q 2?"]
        assert [e["position"] for e in log.entries()] == [0, 1, 2]
        assert not log.checkpoint_path.exists()
        assert requests == ["finetune"] * 3


    def test_resumed_remote_run_sends_the_uninterrupted_replay(self, tmp_path):
        """The replay sampler is redrawn from the log, so a remote run resumed
        after 2 of 4 questions sends the replay samples an uninterrupted run sends."""
        kb = chain_kb(40)  # 39 pool triples, 10 replay draws per path triple
        qa = [QaExample(f"q {i}?", (f"e{i}",), (f"E{i + 5}",)) for i in range(4)]
        scripts = [generate_episode_script(f"E{i}", f"E{i + 5}") for i in range(4)]

        def replays(stops):  # each run resumes the sweep and stops before question ``stop``
            sent = []

            def transport(path, payload):
                sent.append(payload["replay"])
                return {"status": "completed"}

            run_dir = tmp_path / f"run{len(stops)}"
            for start, stop in zip([0, *stops], stops):
                run_joint_training(
                    run_dir, kb, qa[:stop], RemoteCompleter(transport=transport),
                    ScriptedBackend(sum(scripts[start:stop], [])), resume=True,
                    train_config=TrainingConfig(seed=0),
                )
            assert len(RunLog(run_dir).entries()) == 4
            return sent

        whole = replays([4])
        assert len(whole) == 4 and len({json.dumps(r) for r in whole}) == 4
        assert replays([2, 4]) == whole


class Crash(Exception):
    """Stands in for a kill: nothing in the loop catches it."""


def kill(*args, **kwargs):
    raise Crash()


class CrashingBackend:
    """Scripted replies; the call numbered ``crash_at`` (1-based) raises."""

    def __init__(self, script, crash_at=None):
        self.inner = ScriptedBackend(script)
        self.calls = 0
        self.crash_at = crash_at

    def chat(self, turns, params=None):
        self.calls += 1
        if self.calls == self.crash_at:
            raise Crash()
        return self.inner.chat(turns, params)


class TestWriteAheadLog:
    """``trajectories.jsonl`` is the record of truth; ``completer.npz`` is a
    snapshot taken by ``pretrain`` and at the end of a run. Interrupting a
    run anywhere and resuming must give the uninterrupted run bit for bit."""

    N = 4  # questions in the sweep
    CALLS = 5  # chat calls per scripted question

    def sweep(self, skip=None):
        indices = [i for i in range(self.N) if i != skip]
        qa = [QaExample(f"q {i}?", (f"e{i}",), (f"E{i + 5}",)) for i in indices]
        scripts = [generate_episode_script(f"E{i}", f"E{i + 5}") for i in indices]
        return qa, scripts

    def start(self, run_dir):
        """A run directory as ``pretrain`` leaves it."""
        # 39 pool triples, 10 replay draws per path triple: the replay RNG matters
        kb = chain_kb(40)
        pretrain = sorted(kb.triples)
        config = TrainingConfig(epochs=3, seed=0, finetune_passes=3)
        model = NativeCompleter(kb, dim=8, seed=0)
        model.pretrain(pretrain, kb, config)
        RunLog(run_dir).restart(model)
        self.setup = kb, pretrain, config

    def run(self, run_dir, qa, script, crash_at=None, resume=False):
        kb, pretrain, config = self.setup
        snapshot = NativeCompleter.load(run_dir / "completer.npz", kb)
        return run_joint_training(
            run_dir, kb, qa, snapshot, CrashingBackend(script, crash_at), resume=resume,
            train_config=config,
        )

    def outcome(self, run_dir):
        """Everything a run leaves that must repeat, timing aside."""
        model = NativeCompleter.load(run_dir / "completer.npz", self.setup[0]).completer
        with np.load(run_dir / "completer.npz", allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        lines = [json.loads(line) for line in
                 (run_dir / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()]
        for line in lines:
            line.pop("wall_time_s")
        return model, arrays, lines, (run_dir / "paths.jsonl").read_bytes()

    def assert_same(self, got, want):
        got_model, got_arrays, got_lines, got_paths = got
        want_model, want_arrays, want_lines, want_paths = want
        delta = np.abs(got_model.entity_vecs - want_model.entity_vecs).max()
        assert delta == 0, f"entity tables differ: max |delta| {delta:.3g}"
        assert np.array_equal(got_model.relation_vecs, want_model.relation_vecs)
        assert got_arrays.keys() == want_arrays.keys()
        for name in want_arrays:
            assert np.array_equal(got_arrays[name], want_arrays[name]), name
        assert got_lines == want_lines
        assert got_paths == want_paths

    @pytest.fixture()
    def reference(self, tmp_path):
        """The uninterrupted sweep."""
        run_dir = tmp_path / "reference"
        self.start(run_dir)
        qa, scripts = self.sweep()
        self.run(run_dir, qa, sum(scripts, []))
        return self.outcome(run_dir)

    @pytest.mark.parametrize("k", range(N))
    def test_interrupt_after_k_questions_then_resume(self, tmp_path, reference, k):
        run_dir = tmp_path / "run"
        self.start(run_dir)
        qa, scripts = self.sweep()
        with pytest.raises(Crash):  # killed as question k starts
            self.run(run_dir, qa, sum(scripts, []), crash_at=k * self.CALLS + 1)
        assert len(RunLog(run_dir).entries()) == k
        self.run(run_dir, qa, sum(scripts[k:], []), resume=True)
        self.assert_same(self.outcome(run_dir), reference)

    def test_resume_skips_only_the_current_sweeps_questions(self, tmp_path):
        qa, scripts = self.sweep()
        want = tmp_path / "reference"  # two whole sweeps over the same questions
        self.start(want)
        for _ in range(2):
            self.run(want, qa, sum(scripts, []))

        run_dir = tmp_path / "run"
        self.start(run_dir)
        self.run(run_dir, qa, sum(scripts, []))
        with pytest.raises(Crash):  # the second sweep is killed as its question 1 starts
            self.run(run_dir, qa, sum(scripts, []), crash_at=self.CALLS + 1)
        result = self.run(run_dir, qa, sum(scripts[1:], []), resume=True)
        assert [r["question"] for r in result.records] == [ex.question for ex in qa[1:]]
        self.assert_same(self.outcome(run_dir), self.outcome(want))
        positions = [line["position"] for line in self.outcome(run_dir)[2]]
        assert positions == list(range(self.N)) * 2

    def test_torn_last_line_resumes_as_if_that_question_never_ran(self, tmp_path, reference):
        run_dir = tmp_path / "run"
        self.start(run_dir)
        qa, scripts = self.sweep()
        with pytest.raises(Crash):
            self.run(run_dir, qa, sum(scripts, []), crash_at=2 * self.CALLS + 1)
        line = json.dumps(reference[2][2], sort_keys=True)  # question 2, cut mid-append
        with open(run_dir / "trajectories.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line[: len(line) // 2])
        self.run(run_dir, qa, sum(scripts[2:], []), resume=True)
        self.assert_same(self.outcome(run_dir), reference)

    def test_kill_before_the_end_snapshot_loses_nothing(self, tmp_path, reference, monkeypatch):
        run_dir = tmp_path / "run"
        self.start(run_dir)
        qa, scripts = self.sweep()
        before = (run_dir / "completer.npz").read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(RunLog, "save_checkpoint", kill)
            with pytest.raises(Crash):
                self.run(run_dir, qa, sum(scripts, []))
        assert (run_dir / "completer.npz").read_bytes() == before  # nothing written per question
        assert len(RunLog(run_dir).entries()) == self.N
        result = self.run(run_dir, qa, [], resume=True)  # replays the log, asks nothing
        assert result.records == []
        self.assert_same(self.outcome(run_dir), reference)

    def diverge_at(self, monkeypatch, index):
        """The ``index``-th fine-tune raises a non-finite loss on its second
        step, after its first step has moved the weights and both RNGs."""
        real_finetune = NativeCompleter.incremental_finetune
        real_step = NativeCompleter._step
        calls = []

        def finetune(model, *args, **kwargs):
            calls.append(model)
            if len(calls) - 1 != index:
                return real_finetune(model, *args, **kwargs)
            steps = []

            def step(batch, lr, work):
                steps.append(batch)
                if len(steps) == 2:
                    raise TrainingError(f"non-finite loss on batch of size {len(batch)}")
                return real_step(model, batch, lr, work)

            model._step = step
            try:
                return real_finetune(model, *args, **kwargs)
            finally:
                del model._step

        monkeypatch.setattr(NativeCompleter, "incremental_finetune", finetune)

    @pytest.mark.parametrize("index", range(N))
    def test_non_finite_loss_skips_the_question(self, tmp_path, monkeypatch, index):
        without = tmp_path / "without"  # the sweep without that question
        self.start(without)
        qa, scripts = self.sweep(skip=index)
        self.run(without, qa, sum(scripts, []))
        _, want_arrays, _, _ = self.outcome(without)

        qa, scripts = self.sweep()
        runs = {}
        for name in ("whole", "resumed"):
            run_dir = tmp_path / name
            self.start(run_dir)
            with monkeypatch.context() as patch:
                self.diverge_at(patch, index)
                if name == "whole":
                    result = self.run(run_dir, qa, sum(scripts, []))
                else:  # killed before the end snapshot, then resumed from the log
                    patch.setattr(RunLog, "save_checkpoint", kill)
                    with pytest.raises(Crash):
                        self.run(run_dir, qa, sum(scripts, []))
            if name == "resumed":
                self.run(run_dir, qa, [], resume=True)
            runs[name] = self.outcome(run_dir)

        assert "non-finite loss" in result.records[index]["error"]
        assert [r["finetuned"] for r in result.records] == [i != index for i in range(self.N)]
        lines = runs["whole"][2]
        assert [line["finetuned"] for line in lines] == [i != index for i in range(self.N)]
        got_arrays = runs["whole"][1]
        for name in ("entity_vecs", "relation_vecs", "rng_state"):
            assert np.array_equal(got_arrays[name], want_arrays[name]), name
        self.assert_same(runs["resumed"], runs["whole"])

    def test_a_snapshot_that_stores_the_replay_state_still_loads(self, tmp_path, reference):
        """Snapshots used to store the replay sampler's RNG state as well. One
        with that key loads, the log redraws the same state, and the run
        continued from it ends as the uninterrupted one, without the key."""
        run_dir = tmp_path / "run"
        self.start(run_dir)
        qa, scripts = self.sweep()
        self.run(run_dir, qa[:2], sum(scripts[:2], []))
        kb, _, config = self.setup
        memory = ReplayMemory(kb.triples, seed=config.seed)
        for entry in RunLog(run_dir).entries():
            memory.sample(len(entry["path"]["triples"]) * config.replay_samples_per_triple)
        checkpoint = run_dir / "completer.npz"
        with np.load(checkpoint, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(checkpoint, **arrays, replay_rng_state=np.array(json.dumps(memory._rng.getstate())))
        self.run(run_dir, qa, sum(scripts[2:], []), resume=True)
        self.assert_same(self.outcome(run_dir), reference)
        assert sorted(reference[1]) == ["entity_ids", "entity_vecs", "log_lines", "relation_ids",
                                        "relation_vecs", "rng_state", "trained"]

    def test_rollback_rereads_the_snapshot_with_its_checks(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        self.start(run_dir)
        kb, pretrain, config = self.setup
        snapshot = NativeCompleter.load(run_dir / "completer.npz", kb)
        NativeCompleter(chain_kb(41), dim=8, seed=0).save(run_dir / "completer.npz")  # another KB's
        self.diverge_at(monkeypatch, 0)
        qa, scripts = self.sweep()
        with pytest.raises(SnapshotError, match="does not match the KB's entities"):
            run_joint_training(run_dir, kb, qa, snapshot, ScriptedBackend(sum(scripts, [])),
                               train_config=config)

    def test_snapshot_ahead_of_the_log_is_an_error(self, tmp_path):
        run_dir = tmp_path / "run"
        self.start(run_dir)
        qa, scripts = self.sweep()
        self.run(run_dir, qa[:1], scripts[0])
        (run_dir / "trajectories.jsonl").unlink()
        with pytest.raises(RunLogError, match="includes 1 question log lines"):
            self.run(run_dir, qa, [], resume=True)
