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
import time
from dataclasses import dataclass, field
from pathlib import Path

from .agent import AgentConfig, EpisodeAborted, run_episode
from .completer import CompleterTransportError, ReplayMemory, TrainingConfig
from .kb import KnowledgeBase
from .llm import LlmParams, LlmTransportError
from .paths import ReasoningPath, parse_reasoning_paths

logger = logging.getLogger(__name__)


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


@dataclass
class JointResult:
    completer: object
    records: list[JointRecord] = field(default_factory=list)


def train_joint(
    kb: KnowledgeBase,
    qa_train,
    completer,
    llm,
    pretrain_triples,
    agent_config: AgentConfig | None = None,
    train_config: TrainingConfig | None = None,
    samples_per_triple: int = 10,
    sink=None,
    params: LlmParams | None = None,
) -> JointResult:
    """Run the loop over ``qa_train`` in input order.

    The replay memory samples ``pretrain_triples``, which also pretrain the
    completer if it is untrained. Every chat call, the episode's and
    ``path_select``'s alike, runs with ``params``. A transport failure, of any
    chat call or of the completer's ``predict`` or fine-tune, skips the
    question: it is logged and recorded with its error, and the loop continues.
    ``sink`` receives each :class:`JointRecord` as it is produced (used for
    persistence).
    """
    agent_config = agent_config or AgentConfig()
    train_config = train_config or TrainingConfig()
    replay_memory = ReplayMemory(pretrain_triples, seed=train_config.seed)
    if not getattr(completer, "trained", False):
        logger.info("pretraining completer on %d triples", len(set(pretrain_triples)))
        completer.pretrain(pretrain_triples, kb, train_config)

    result = JointResult(completer=completer)
    for idx, example in enumerate(qa_train):
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
                completer.incremental_finetune(
                    path.triples,
                    replay_memory,
                    samples_per_triple=samples_per_triple,
                    kb=kb,
                    config=train_config,
                )
                finetuned = True
        except EpisodeAborted as exc:
            trajectory, error = exc.trajectory, str(exc)
        except (LlmTransportError, CompleterTransportError) as exc:  # path_select, a remote fine-tune
            error = str(exc)
        if error:
            logger.warning("question %d skipped: %s", idx, error)
        record = JointRecord(trajectory=trajectory, path=path, finetuned=finetuned, error=error)
        result.records.append(record)
        if sink:
            sink(record)
    return result


class RunLog:
    """Line-delimited persistence for trajectories and paths in a run
    directory, with enough state to resume an interrupted joint run."""

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.trajectories_path = self.run_dir / "trajectories.jsonl"
        self.paths_path = self.run_dir / "paths.jsonl"
        self.checkpoint_path = self.run_dir / "completer.npz"

    def completed_questions(self) -> int:
        if not self.trajectories_path.exists():
            return 0
        with open(self.trajectories_path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def append(self, record: JointRecord) -> None:
        with open(self.trajectories_path, "a", encoding="utf-8") as fh:
            entry = record.trajectory.to_dict(include_timing=True)
            entry["error"] = record.error
            fh.write(json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n")
        if record.path is not None:
            with open(self.paths_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record.path.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")

    def save_checkpoint(self, completer) -> None:
        if hasattr(completer, "save"):
            completer.save(self.checkpoint_path)


def run_joint_training(
    run_dir,
    kb,
    qa_train,
    completer,
    llm,
    resume: bool = False,
    **kwargs,
) -> JointResult:
    """Persisted wrapper around :func:`train_joint`.

    With ``resume`` the already-logged questions are skipped and the
    completer checkpoint (saved after every question) is loaded first.
    """
    log = RunLog(run_dir)
    if resume:
        done = log.completed_questions()
        if done and log.checkpoint_path.exists() and hasattr(type(completer), "load"):
            completer = type(completer).load(log.checkpoint_path)
            logger.info("resuming after %d completed questions", done)
        qa_train = list(qa_train)[done:]

    def sink(record: JointRecord) -> None:
        log.append(record)
        log.save_checkpoint(completer)

    started = time.perf_counter()
    result = train_joint(kb, qa_train, completer, llm, sink=sink, **kwargs)
    log.save_checkpoint(result.completer)
    logger.info(
        "joint training over %d questions in %.1fs",
        len(result.records), time.perf_counter() - started,
    )
    return result
