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
from dataclasses import dataclass
from pathlib import Path

from . import kb as kb_mod  # called through the module, whose readers perfbench wraps
from .agent import AgentConfig, EpisodeAborted, run_episode
from .completer import (CompleterTransportError, NativeCompleter, ReplayMemory, Snapshot,
                        TrainingConfig, TrainingError)
from .durable import append_line, write_atomic
from .kb import KbLoadError, KnowledgeBase, Triple, parse_jsonl, read_jsonl
from .llm import LlmParams, LlmTransportError
from .paths import parse_reasoning_paths

logger = logging.getLogger(__name__)


class RunLogError(Exception):
    """A run directory's snapshot and question log disagree."""


@dataclass(frozen=True)
class QaExample:
    question: str
    topic_entities: tuple[str, ...]
    gold_answers: tuple[str, ...]


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the keys of a joint log line that its readers use, each with its JSON type
_LINE_KEYS = (
    ("finetuned", "a boolean", lambda v: isinstance(v, bool)),
    ("path", "null or an object whose 'triples' is a list of [head, relation, tail] strings",
     lambda v: v is None or isinstance(v, dict) and isinstance(v.get("triples"), list)
     and all(_is_strings(t) and len(t) == 3 for t in v["triples"])),
    ("position", "an integer", _is_int),
    ("llm_call_count", "an integer", _is_int),
    ("wall_time_s", "a number", lambda v: _is_int(v) or isinstance(v, float)),
)


def load_qa_examples(path, kb: KnowledgeBase) -> list[QaExample]:
    """One JSON object per line: a non-empty ``question`` string, a
    non-empty ``answers`` list of strings and an optional
    ``topic_entities`` list of ``kb``'s entity ids. A line that breaks this
    raises :class:`KbLoadError` naming ``path:line`` and the key or the
    unknown id, before any question runs."""
    examples = []
    for lineno, record in read_jsonl(path):
        question, answers = record.get("question"), record.get("answers")
        topics = record.get("topic_entities", [])
        if not question or not isinstance(question, str):
            raise KbLoadError(f"{path}:{lineno}: 'question' must be a non-empty string")
        if not answers or not _is_strings(answers):
            raise KbLoadError(f"{path}:{lineno}: 'answers' must be a non-empty list of strings")
        if not _is_strings(topics):
            raise KbLoadError(f"{path}:{lineno}: 'topic_entities' must be a list of strings")
        for topic in topics:
            if topic not in kb.entities:
                raise KbLoadError(f"{path}:{lineno}: unknown topic entity {topic!r}")
        examples.append(QaExample(question, tuple(topics), tuple(answers)))
    return examples


@dataclass
class JointResult:
    completer: object
    records: list[dict]  # the log lines this run appended, in order


class RunDir:
    """A run directory: the one owner of its file names, its writes (all
    through :mod:`.durable`) and its checked reads. Only writers create it.

    * :meth:`prepare` removes ``working_triples.tsv`` first and writes it last, after the
      splits, the KB copies and ``config.json``: a cut-short one leaves no :meth:`prepared` KB.
    * ``trajectories.jsonl`` is the joint loop's write-ahead question log and
      the record of truth: one :meth:`line` per question, appended and
      fsynced before the next question starts.
    * ``completer.npz`` is a snapshot of a native completer, written by
      ``pretrain`` and at the end of each joint run, never per question. It
      also stores ``log_lines``, how many log lines it already includes. The
      replay sampler's state is not stored; :func:`run_joint_training` redraws it from the log.
    * ``paths.jsonl`` is a view of the log's paths, rewritten from the log
      at the end of each joint run.
    * ``kbqa_trajectories.jsonl`` is ``eval-kbqa``'s log, one :meth:`line` per
      question, written once every question has run, and replaced whole before
      ``report.json``, the last evaluation's report; no command builds
      on either and a rerun regenerates both, so neither is fsynced.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.trajectories_path = self.path / "trajectories.jsonl"
        self.paths_path = self.path / "paths.jsonl"
        self.checkpoint_path = self.path / "completer.npz"
        self.report_path = self.path / "report.json"
        self._kb_paths = [self.path / name for name in ("working_triples.tsv", "entities.tsv", "relations.tsv")]

    def split_path(self, name: str) -> Path:
        """The file of split ``name``: ``train``, ``valid``, ``test`` or ``working_triples``."""
        return self.path / f"{name}.tsv"

    def prepare(self, config, bundle, working) -> None:
        """Write ``bundle``'s splits, the KB files ``config`` names, ``config`` and ``working``."""
        working_path, entities_path, relations_path = self._kb_paths
        self.path.mkdir(parents=True, exist_ok=True)
        working_path.unlink(missing_ok=True)
        for name in ("train", "valid", "test"):
            write_atomic(self.split_path(name), _triples_writer(getattr(bundle, name)))
        write_atomic(entities_path, lambda fh: fh.write(Path(config.entities_path).read_bytes()))
        write_atomic(relations_path, lambda fh: fh.write(Path(config.relations_path).read_bytes()))
        write_atomic(self.path / "config.json", lambda fh: fh.write(_json_bytes(config.to_dict(), indent=2)))
        write_atomic(working_path, _triples_writer(working))

    def prepared(self) -> bool:
        return all(path.exists() for path in self._kb_paths)

    def working_kb(self) -> KnowledgeBase:
        """The degraded KB that :meth:`prepare` wrote, read and checked."""
        return kb_mod.load_kb(*self._kb_paths)

    def split(self, name: str, entities=None, relations=None) -> list[Triple]:
        """Split ``name``'s triples, their ids checked if ``entities`` and ``relations`` are given."""
        return kb_mod.read_triples(self.split_path(name), entities, relations)

    def snapshot(self, kb: KnowledgeBase) -> Snapshot:
        """The completer snapshot, read and checked for ``kb``."""
        return NativeCompleter.load(self.checkpoint_path, kb)

    def entries(self, writer: bool = False) -> list[dict]:
        """The log's lines, parsed from one read. A torn last line, one a
        crash cut short (or a live run is appending), is dropped: that
        question never ran. Only the ``writer``, the run that appends next,
        creates the directory and cuts the torn line off the file. A line
        missing a key that a reader uses, or holding it as another JSON type,
        raises :class:`RunLogError` naming ``path:line`` and the key."""
        if writer:
            self.path.mkdir(parents=True, exist_ok=True)
        try:
            data = self.trajectories_path.read_bytes()
        except FileNotFoundError:
            return []
        end = data.rfind(b"\n") + 1
        if end < len(data):
            logger.warning("dropping the torn last line of %s", self.trajectories_path)
            if writer:
                os.truncate(self.trajectories_path, end)
        entries = parse_jsonl(data[:end].split(b"\n"), self.trajectories_path)
        for lineno, entry in entries:
            for key, what, check in _LINE_KEYS:
                if key not in entry or not check(entry[key]):
                    raise RunLogError(f"{self.trajectories_path}:{lineno}: {key!r} must be {what}")
            if entry["finetuned"] and entry["path"] is None:
                raise RunLogError(f"{self.trajectories_path}:{lineno}: a 'finetuned' line needs a 'path'")
        return [entry for _, entry in entries]

    @staticmethod
    def line(trajectory, error: str = "", *, position: int | None = None, path=None,
             finetuned: bool = False) -> dict:
        """One question's line, in either log: the trajectory with its timing
        and its ``error`` (empty when none). A joint line, one with a
        ``position`` (the question's index in its sweep), also holds its
        reasoning ``path`` (``null`` when none was parsed) and ``finetuned``."""
        line = trajectory.to_dict()
        line["error"] = error
        if position is not None:
            line.update(position=position, path=path.to_dict() if path is not None else None,
                        finetuned=finetuned)
        return line

    def append(self, line: dict) -> None:
        """Append ``line`` to the joint log and fsync it."""
        append_line(self.trajectories_path, json.dumps(line, ensure_ascii=False, sort_keys=True))

    def save_checkpoint(self, completer, log_lines: int) -> None:
        """Snapshot ``completer`` as including ``log_lines`` lines of the log."""
        completer.save(self.checkpoint_path, log_lines=log_lines)

    def restart(self, completer) -> None:
        """Begin the run's history at a newly pretrained ``completer``: the
        log and its paths view are removed, then the snapshot is written as
        including no log line."""
        self.path.mkdir(parents=True, exist_ok=True)
        self.trajectories_path.unlink(missing_ok=True)
        self.paths_path.unlink(missing_ok=True)
        if hasattr(completer, "save"):
            completer.save(self.checkpoint_path)

    def write_paths(self, entries) -> None:
        """Rewrite the paths view from the log's ``entries``."""
        write_atomic(self.paths_path, lambda fh: fh.writelines(
            _json_bytes(entry["path"]) for entry in entries if entry["path"] is not None))

    def write_kbqa_log(self, lines) -> None:
        """Replace the ``eval-kbqa`` log with ``lines``."""
        write_atomic(self.path / "kbqa_trajectories.jsonl", lambda fh: fh.writelines(map(_json_bytes, lines)),
                     sync=False)

    def write_report(self, payload: dict) -> str:
        """Replace the report with ``payload``; returns its text."""
        data = _json_bytes(payload, indent=2)
        write_atomic(self.report_path, lambda fh: fh.write(data), sync=False)
        return data.decode("utf-8").rstrip("\n")

    def read_report(self) -> str | None:
        """The stored report's text, or ``None`` when there is none."""
        return self.report_path.read_text(encoding="utf-8").rstrip("\n") if self.report_path.exists() else None


RunLog = RunDir  # the name perfbench wraps, until ROADMAP item 2 owns the instrument


def _json_bytes(value, indent=None) -> bytes:
    return (json.dumps(value, ensure_ascii=False, sort_keys=True, indent=indent) + "\n").encode("utf-8")


def _triples_writer(triples):
    return lambda fh: fh.writelines(f"{h}\t{r}\t{t}\n".encode("utf-8") for h, r, t in sorted(triples))


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
    see :class:`RunDir`.

    ``completer`` is a remote completer, or the :class:`Snapshot` of a native
    one that ``pretrain`` or :meth:`RunDir.restart` wrote in ``run_dir``, as
    :meth:`NativeCompleter.load` reads it. The log is read once. The run
    first replays it: the replay sampler, seeded with ``train_config.seed``,
    redraws the samples of every logged fine-tune, and the completer is
    fine-tuned on the lines after the snapshot, so the run continues from the
    end of the log; a snapshot that includes more lines than the log holds
    raises :class:`RunLogError`. A remote completer's service owns its
    training state and already holds every logged line, so for it the replay
    only redraws. With ``resume`` the run continues the log's current sweep:
    it skips the questions of ``qa_train`` up to the position of the log's
    last line, not those of earlier sweeps.

    A fine-tune adds ``train_config.replay_samples_per_triple`` replay triples
    per path triple, sampled from ``kb.triples``, the pretraining set. Every
    chat call, the episode's and ``path_select``'s alike, runs with
    ``params`` and counts against the question's ceiling,
    ``agent_config.call_budget``. A transport failure, of any chat call or of
    the completer's ``predict`` or fine-tune, skips the question: it is
    logged with its error, and the loop continues. So does a native
    fine-tune whose loss turns non-finite: the completer and the replay
    sampler are rolled back to before that fine-tune by re-reading the
    snapshot, with its checks, and replaying the log. Each question's line is
    appended to the log before the next question starts. After a rollback
    the caller's completer object is stale; the result holds the current one.
    """
    log = RunDir(run_dir)
    agent_config = agent_config or AgentConfig()
    train_config = train_config or TrainingConfig()
    memory = None

    def finetune(model, triples):  # the one replay draw; with no model it is only redrawn
        replay = memory.sample(len(triples) * train_config.replay_samples_per_triple)
        if model is not None:
            model.incremental_finetune(triples, replay, kb, train_config)

    def rebuild(snapshot):  # from a fresh sampler, so the log alone sets its state
        nonlocal memory
        memory = ReplayMemory(kb.triples, seed=train_config.seed)
        if snapshot.log_lines > len(entries):
            raise RunLogError(
                f"{log.checkpoint_path} includes {snapshot.log_lines} question log lines, but "
                f"{log.trajectories_path} has {len(entries)}; run `kbloop pretrain` again"
            )
        for line, entry in enumerate(entries):
            if entry["finetuned"]:
                model = snapshot.completer if line >= snapshot.log_lines else None
                finetune(model, [Triple(*t) for t in entry["path"]["triples"]])
        return snapshot.completer

    native = isinstance(completer, Snapshot)
    entries = log.entries(writer=True)  # cuts a torn last line before any append
    completer = rebuild(completer if native else Snapshot(completer, len(entries)))
    start = 0
    if resume and entries:  # after the position of the log's last line
        start = entries[-1]["position"] + 1
    if resume:
        logger.info("resuming the sweep at question %d", start)
        qa_train = list(qa_train)[start:]

    started = time.perf_counter()
    first = len(entries)
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
                path = parse_reasoning_paths(trajectory, kb, llm, params, agent_config)
            if path and path.triples:
                finetune(completer, path.triples)
                finetuned = True
        except EpisodeAborted as exc:
            trajectory, error = exc.trajectory, str(exc)
        except (LlmTransportError, CompleterTransportError) as exc:  # path_select, a remote fine-tune
            error = str(exc)
        except TrainingError as exc:  # only a native completer's
            error = str(exc)
            completer = rebuild(log.snapshot(kb))
        if error:
            logger.warning("question %d skipped: %s", position, error)
        line = log.line(trajectory, error, position=position, path=path, finetuned=finetuned)
        log.append(line)
        entries.append(line)

    if native:
        log.save_checkpoint(completer, len(entries))
    log.write_paths(entries)
    logger.info(
        "joint training over %d questions in %.1fs",
        len(entries) - first, time.perf_counter() - started,
    )
    return JointResult(completer, entries[first:])
