"""The joint training loop: completer and agent feeding each other.

For every training question, in order: run a supervised episode (the agent
may call the current completer through its Complete action), distill the
trajectory into a reasoning path, then fine-tune the completer on that path
mixed with replay samples. The updated completer serves the very next
question, so both sides improve over one sweep of the question set.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agent import AgentConfig, EpisodeAborted, run_episode
from .completer import CompleterTransportError, ReplayMemory, TrainingConfig, TrainingError
from .durable import append_line, write_atomic
from .kb import KnowledgeBase, Triple
from .llm import LlmParams, LlmTransportError
from .paths import ReasoningPath, parse_reasoning_paths

logger = logging.getLogger(__name__)


class RunLogError(Exception):
    """A run directory's snapshot and question log disagree."""


@dataclass(frozen=True)
class QaExample:
    question: str
    topic_entities: tuple[str, ...]
    gold_answers: tuple[str, ...]

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError("a QA example needs at least one gold answer")


def load_qa_examples(path) -> list[QaExample]:
    """One JSON record per line: question, topic_entities, answers."""
    examples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            examples.append(
                QaExample(
                    question=record["question"],
                    topic_entities=tuple(record.get("topic_entities", [])),
                    gold_answers=tuple(record["answers"]),
                )
            )
    return examples


@dataclass
class JointRecord:
    """Per-question outcome of the joint loop."""

    trajectory: object
    path: ReasoningPath | None
    finetuned: bool
    error: str = ""
    position: int = 0  # the question's index in its sweep


@dataclass
class JointResult:
    completer: object
    records: list[JointRecord] = field(default_factory=list)


class RunLog:
    """A joint run's persistent state in its run directory.

    * ``trajectories.jsonl`` is the write-ahead question log and the record
      of truth: one line per question, appended and fsynced before the next
      question starts. The line is the trajectory with its ``error``, its
      reasoning ``path`` (``null`` when none was parsed), ``finetuned`` and
      ``position``, the question's index in its sweep.
    * ``completer.npz`` is a snapshot of a native completer, written by
      ``pretrain`` and at the end of each joint run, never per question. It
      also stores ``log_lines``, how many log lines it already includes, and
      the replay memory's RNG state.
    * ``paths.jsonl`` is a view of the log's paths, rewritten from the log
      at the end of each joint run.

    Fine-tuning is deterministic given its triples and both RNG states, so
    the snapshot plus the fine-tunes of the log lines after it rebuild the
    completer exactly, with no chat call.
    """

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.trajectories_path = self.run_dir / "trajectories.jsonl"
        self.paths_path = self.run_dir / "paths.jsonl"
        self.checkpoint_path = self.run_dir / "completer.npz"

    def entries(self) -> list[dict]:
        """The log's lines, parsed. A torn last line, one a crash cut short
        before its newline, is cut off the file: that question never ran."""
        try:
            data = self.trajectories_path.read_bytes()
        except FileNotFoundError:
            return []
        end = data.rfind(b"\n") + 1
        if end < len(data):
            logger.warning("dropping the torn last line of %s", self.trajectories_path)
            os.truncate(self.trajectories_path, end)
        return [json.loads(line) for line in data[:end].decode("utf-8").splitlines() if line.strip()]

    def completed_questions(self) -> int:
        return len(self.entries())

    def next_position(self) -> int:
        """The sweep position after the log's last line, where a resumed
        sweep continues; 0 for an empty log."""
        entries = self.entries()
        if not entries:
            return 0
        if "position" not in entries[-1]:
            raise RunLogError(
                f"{self.trajectories_path} records no sweep positions; run `kbloop pretrain` again"
            )
        return entries[-1]["position"] + 1

    def append(self, record: JointRecord) -> None:
        entry = record.trajectory.to_dict(include_timing=True)
        entry["error"] = record.error
        entry["finetuned"] = record.finetuned
        entry["position"] = record.position
        entry["path"] = record.path.to_dict() if record.path is not None else None
        append_line(self.trajectories_path, json.dumps(entry, ensure_ascii=False, sort_keys=True))

    def save_checkpoint(self, completer, memory: ReplayMemory) -> None:
        """Snapshot ``completer`` and ``memory`` as including the whole log."""
        completer.save(
            self.checkpoint_path,
            log_lines=self.completed_questions(),
            replay_rng_state=memory.get_state(),
        )

    def restart(self, completer) -> None:
        """Begin the run's history at a newly pretrained ``completer``: the
        log and its paths view are removed, then the snapshot is written as
        including no log line."""
        self.trajectories_path.unlink(missing_ok=True)
        self.paths_path.unlink(missing_ok=True)
        if hasattr(completer, "save"):
            completer.save(self.checkpoint_path)

    def replay(self, completer, memory: ReplayMemory, finetune):
        """Bring ``completer``, the snapshot's model, and ``memory`` to the end
        of the log: restore the snapshot's replay RNG state, then
        ``finetune(completer, triples)`` for each line after the snapshot
        that was fine-tuned on."""
        with np.load(self.checkpoint_path, allow_pickle=False) as data:
            start = int(data["log_lines"]) if "log_lines" in data.files else 0
            memory.set_state(str(data["replay_rng_state"]) if "replay_rng_state" in data.files else "")
        entries = self.entries()
        if start > len(entries):
            raise RunLogError(
                f"{self.checkpoint_path} includes {start} question log lines, but "
                f"{self.trajectories_path} has {len(entries)}; run `kbloop pretrain` again"
            )
        for entry in entries[start:]:
            if entry["finetuned"]:
                finetune(completer, [Triple(*t) for t in entry["path"]["triples"]])
        return completer

    def write_paths(self) -> None:
        """Rewrite the paths view from the log."""
        lines = "".join(
            json.dumps(entry["path"], ensure_ascii=False, sort_keys=True) + "\n"
            for entry in self.entries() if entry["path"] is not None
        )
        write_atomic(self.paths_path, lambda fh: fh.write(lines.encode("utf-8")))


def run_joint_training(
    run_dir,
    kb: KnowledgeBase,
    qa_train,
    completer,
    llm,
    resume: bool = False,
    *,
    agent_config: AgentConfig | None = None,
    train_config: TrainingConfig | None = None,
    params: LlmParams | None = None,
) -> JointResult:
    """Run the loop over ``qa_train`` in input order, persisted in ``run_dir``;
    see :class:`RunLog`.

    A native ``completer`` is the model of the snapshot that ``pretrain`` or
    :meth:`RunLog.restart` wrote in ``run_dir``. The run first replays the log
    lines after the snapshot, so it continues from the end of the log. With
    ``resume`` it continues the log's current sweep: it skips the questions of
    ``qa_train`` up to the position of the log's last line, not those of
    earlier sweeps. A remote completer's service owns its training state, so
    for it the log only tells where the sweep continues.

    A fine-tune adds ``train_config.replay_samples_per_triple`` replay triples
    per path triple, sampled from ``kb.triples``, the pretraining set. Every
    chat call, the episode's and ``path_select``'s alike, runs with
    ``params``. A transport failure, of any chat call or of the completer's
    ``predict`` or fine-tune, skips the question: it is logged with its error,
    and the loop continues. So does a native fine-tune whose loss turns
    non-finite: the completer and the replay memory are rolled back to before
    that fine-tune by reloading the snapshot and replaying the log. Each
    question's line is appended to the log before the next question starts.
    After a rollback the caller's completer object is stale; the result holds
    the current one.
    """
    log = RunLog(run_dir)
    agent_config = agent_config or AgentConfig()
    train_config = train_config or TrainingConfig()
    memory = ReplayMemory(kb.triples, seed=train_config.seed)

    def finetune(model, triples):
        model.incremental_finetune(triples, memory, kb=kb, config=train_config)

    native = hasattr(completer, "save")
    if native:
        completer = log.replay(completer, memory, finetune)
    log.entries()  # drops a torn last line before any append
    start = log.next_position() if resume else 0
    if resume:
        logger.info("resuming the sweep at question %d", start)
        qa_train = list(qa_train)[start:]

    started = time.perf_counter()
    result = JointResult(completer=completer)
    for position, example in enumerate(qa_train, start=start):
        path, error, finetuned = None, "", False
        try:
            trajectory = run_episode(
                example.question,
                list(example.topic_entities),
                kb,
                completer,
                llm,
                config=agent_config,
                gold_answers=list(example.gold_answers),
                params=params,
            )
            if example.topic_entities:  # fallback-answered questions yield no path
                path = parse_reasoning_paths(trajectory, kb, llm, params)
            if path and path.triples:
                finetune(completer, path.triples)
                finetuned = True
        except EpisodeAborted as exc:
            trajectory, error = exc.trajectory, str(exc)
        except (LlmTransportError, CompleterTransportError) as exc:  # path_select, a remote fine-tune
            error = str(exc)
        except TrainingError as exc:
            if not native:
                raise
            error = str(exc)
            completer = result.completer = log.replay(
                type(completer).load(log.checkpoint_path), memory, finetune
            )
        if error:
            logger.warning("question %d skipped: %s", position, error)
        record = JointRecord(trajectory=trajectory, path=path, finetuned=finetuned, error=error,
                             position=position)
        result.records.append(record)
        log.append(record)

    if native:
        log.save_checkpoint(result.completer, memory)
    log.write_paths()
    logger.info(
        "joint training over %d questions in %.1fs",
        len(result.records), time.perf_counter() - started,
    )
    return result
