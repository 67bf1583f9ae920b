"""Command-line surface: prepare a KB, pretrain, joint-train, evaluate, and
answer single questions."""

from __future__ import annotations

import json
import logging
import sys
import time

import click

from . import agent as agent_mod
from . import config as config_mod
from . import joint as joint_mod
from . import kb as kb_mod
from . import metrics as metrics_mod
from .completer import (CompletionQuery, NativeCompleter, RemoteCompleter, Snapshot,
                        SnapshotError, TrainingError)
from .llm import LiveBackend, ScriptedBackend, ScriptMismatchError

_INPUT_FILE = click.Path(exists=True, dir_okay=False)
_RUN_DIR = click.Path(file_okay=False, path_type=joint_mod.RunDir)

logger = logging.getLogger(__name__)


def _load_run_config(config_path, **overrides) -> config_mod.RunConfig:
    try:
        return config_mod.load_config(config_path, overrides)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _kb_paths(cfg: config_mod.RunConfig) -> list[str]:
    names = ("triples_path", "entities_path", "relations_path")
    for name in names:
        if not getattr(cfg, name):
            raise click.UsageError(f"missing {name} (set it in the config file or via flags)")
    return [getattr(cfg, name) for name in names]


def _working_kb(run_dir: joint_mod.RunDir) -> kb_mod.KnowledgeBase:
    if not run_dir.prepared():
        raise click.UsageError(f"no prepared KB in {run_dir.path}; run `kbloop kb prepare` first")
    return run_dir.working_kb()


def _backend(cfg, scripted):
    if scripted:
        return ScriptedBackend.from_jsonl(scripted)
    if not cfg.llm_endpoint or not cfg.llm_model:
        raise click.UsageError(
            "no chat endpoint configured; set llm_endpoint/llm_model or pass --scripted"
        )
    return LiveBackend(cfg.llm_endpoint, cfg.llm_model, api_key=config_mod.api_key())


def _completer(cfg, run_dir, kb):
    """The configured remote completer, or the :class:`Snapshot` that
    ``pretrain`` wrote in ``run_dir``, read and checked for ``kb``."""
    if cfg.completer_endpoint:
        return RemoteCompleter(
            cfg.completer_endpoint,
            r_samples=cfg.r_samples,
            temperature=cfg.slm_temperature,
            max_context=cfg.max_context,
        )
    return run_dir.snapshot(kb)


def _model(cfg, run_dir, kb):
    """The completer of :func:`_completer`, without a snapshot's joint-loop state."""
    completer = _completer(cfg, run_dir, kb)
    return completer.completer if isinstance(completer, Snapshot) else completer


class _Main(click.Group):
    """Reports a malformed input file or an unknown id, a run directory whose
    snapshot and question log disagree, an episode aborted by a transport
    failure, a scripted transcript that does not fit the run, and pretraining
    whose loss or weights turned non-finite as a one-line CLI error with exit
    code 1, for every command; a completer snapshot that cannot be used, as a
    usage error (exit code 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SnapshotError as exc:
            raise click.UsageError(str(exc)) from exc
        except (kb_mod.KbError, joint_mod.RunLogError, agent_mod.EpisodeAborted,
                ScriptMismatchError, TrainingError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("-v", "--verbose", is_flag=True, help="Log progress to stderr.")
def main(verbose):
    """Joint knowledge-base completion and question answering."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.group()
def kb():
    """Knowledge-base preparation."""


@kb.command("prepare")
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--triples", default=None, help="Triples file (head<TAB>relation<TAB>tail).")
@click.option("--entities", default=None, help="Entities file (id<TAB>label<TAB>description).")
@click.option("--relations", default=None, help="Relations file (id<TAB>label<TAB>desc<TAB>schema).")
@click.option("--n-valid", type=int, default=None)
@click.option("--n-test", type=int, default=None)
@click.option("--keep-fraction", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--run-dir", type=_RUN_DIR, required=True)
def kb_prepare(config_path, triples, entities, relations, n_valid, n_test, keep_fraction, seed, run_dir):
    """Load, split, and degrade the KB into a run directory."""
    cfg = _load_run_config(
        config_path,
        triples_path=triples, entities_path=entities, relations_path=relations,
        n_valid=n_valid, n_test=n_test, keep_fraction=keep_fraction, seed=seed,
    )
    # the full KB is only split and degraded, so it is read and checked, not indexed
    _, _, triples = kb_mod.read_kb(*_kb_paths(cfg))
    try:
        bundle = kb_mod.split(triples, cfg.n_valid, cfg.n_test, cfg.training.seed)
        working = kb_mod.degrade(bundle.train, cfg.keep_fraction, cfg.training.seed)
    except ValueError as exc:  # split sizes or keep_fraction that the KB cannot meet
        raise click.UsageError(str(exc)) from exc

    run_dir.prepare(cfg, bundle, working)
    click.echo(
        f"prepared KB: train={len(bundle.train)} valid={len(bundle.valid)} "
        f"test={len(bundle.test)} working={len(working)}"
    )


@main.command()
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=_RUN_DIR, required=True)
def pretrain(config_path, run_dir):
    """Pretrain the completer on the prepared (degraded) training graph."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    if cfg.completer_endpoint:
        completer = _completer(cfg, run_dir, working_kb)
    else:
        completer = NativeCompleter(working_kb, dim=cfg.embedding_dim, seed=cfg.training.seed)
    started = time.perf_counter()
    completer.pretrain(working_kb.triples, working_kb, cfg.training)
    run_dir.restart(completer)
    click.echo(f"pretrained completer in {time.perf_counter() - started:.1f}s")


@main.command("train-joint")
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=_RUN_DIR, required=True)
@click.option("--qa", "qa_path", type=_INPUT_FILE, required=True, help="QA training set (JSONL).")
@click.option("--scripted", type=_INPUT_FILE, default=None, help="Scripted chat transcript (JSONL).")
@click.option("--resume", is_flag=True, help="Continue the log's current sweep after its last question.")
def train_joint_cmd(config_path, run_dir, qa_path, scripted, resume):
    """Run the joint loop: episodes, path parsing, incremental fine-tuning."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    completer = _completer(cfg, run_dir, working_kb)
    backend = _backend(cfg, scripted)
    qa_train = joint_mod.load_qa_examples(qa_path, working_kb)
    result = joint_mod.run_joint_training(
        run_dir.path,
        working_kb,
        qa_train,
        completer,
        backend,
        resume=resume,
        agent_config=cfg.agent,
        train_config=cfg.training,
        params=cfg.llm_params(),
    )
    finetuned = sum(1 for line in result.records if line["finetuned"])
    click.echo(f"joint training done: {len(result.records)} questions, {finetuned} fine-tune updates")


@main.command("eval-kbc")
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=_RUN_DIR, required=True)
@click.option("--split", "split_name", type=click.Choice(["valid", "test"]), default="test")
@click.option("--k", "ks", default="1,3,10", help="Comma-separated Hits@k cutoffs.")
@click.option("--filtered", is_flag=True, help="Drop other known-true tails before ranking.")
@click.option("--limit", type=click.IntRange(min=1), default=None,
              help="Evaluate only the first N queries.")
def eval_kbc(config_path, run_dir, split_name, ks, filtered, limit):
    """Rank gold tails for held-out triples and report MRR / Hits@k."""
    cfg = _load_run_config(config_path)
    try:
        cutoffs = sorted({int(x) for x in ks.split(",") if x.strip()})
    except ValueError:
        raise click.UsageError(f"bad --k list: {ks!r}")
    if cutoffs and cutoffs[0] < 1:
        raise click.UsageError(f"bad --k list: {ks!r} (each cutoff must be at least 1)")
    working_kb = _working_kb(run_dir)
    completer = _model(cfg, run_dir, working_kb)
    split = run_dir.split(split_name, working_kb.entities, working_kb.relations)
    if not split:
        raise click.UsageError(f"no query to evaluate in {run_dir.split_path(split_name)}")
    queries = split[:limit]
    # known-true tails of the queried (h, r) pairs only; unknown tails are ignored
    known_tails = {}
    if filtered:
        known_tails = {(q.head, q.relation): set() for q in queries}
        for name in ("train", "valid", "test"):
            triples = split if name == split_name else run_dir.split(name)
            for h, r, t in triples:
                if (h, r) in known_tails:
                    known_tails[h, r].add(t)

    index = working_kb.entity_index
    ranks = []
    for q in queries:
        scores = completer.tail_scores(CompletionQuery(q.head, q.relation), working_kb)
        excluded = [index[e] for e in known_tails.get((q.head, q.relation), ()) if e in index]
        ranks.append(metrics_mod.tail_rank(scores, index[q.tail], excluded))
    report = metrics_mod.kbc_eval(ranks, ks=tuple(cutoffs))
    report.update(split=split_name, filtered=filtered)
    click.echo(run_dir.write_report(report))


@main.command()
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=_RUN_DIR, required=True)
@click.option("--question", required=True)
@click.option("--topic", default="", help="Comma-separated topic entity ids.")
@click.option("--scripted", type=_INPUT_FILE, default=None)
def answer(config_path, run_dir, question, topic, scripted):
    """Answer one question with the agent loop."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    completer = _model(cfg, run_dir, working_kb)
    backend = _backend(cfg, scripted)
    topics = [t.strip() for t in topic.split(",") if t.strip()]
    trajectory = agent_mod.run_episode(
        question, topics, working_kb, completer, backend,
        config=cfg.agent, params=cfg.llm_params(),
    )
    click.echo(json.dumps(
        {"answers": trajectory.final_answers, "llm_calls": trajectory.llm_call_count,
         "steps": len(trajectory.steps)},
        ensure_ascii=False, sort_keys=True,
    ))


@main.command("eval-kbqa")
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=_RUN_DIR, required=True)
@click.option("--qa", "qa_path", type=_INPUT_FILE, required=True)
@click.option("--scripted", type=_INPUT_FILE, default=None)
def eval_kbqa(config_path, run_dir, qa_path, scripted):
    """Run inference episodes over a QA set and report Hits@1 + efficiency.
    A question aborted by a transport failure is logged with its error and
    counted as a miss, and the next question runs."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    completer = _model(cfg, run_dir, working_kb)
    backend = _backend(cfg, scripted)
    examples = joint_mod.load_qa_examples(qa_path, working_kb)
    if not examples:
        raise click.UsageError(f"no question to evaluate in {qa_path}")

    lines = []
    for position, ex in enumerate(examples):
        error = ""
        try:
            trajectory = agent_mod.run_episode(
                ex.question, list(ex.topic_entities), working_kb, completer, backend,
                config=cfg.agent, params=cfg.llm_params(),
            )
        except agent_mod.EpisodeAborted as exc:  # its trajectory has no final answer
            trajectory, error = exc.trajectory, str(exc)
            logger.warning("question %d failed: %s", position, error)
        lines.append(run_dir.line(trajectory, error))
    run_dir.write_kbqa_log(lines)
    report = metrics_mod.kbqa_eval(lines, [list(ex.gold_answers) for ex in examples])
    click.echo(run_dir.write_report(report))


@main.command()
@click.option("--run-dir", type=_RUN_DIR, required=True)
def report(run_dir):
    """Reprint the stored report and the joint question log's efficiency for
    a run."""
    stored = run_dir.read_report()
    if stored is not None:
        click.echo(stored)
    entries = run_dir.entries()
    if entries:
        click.echo(json.dumps(metrics_mod.efficiency_report(entries),
                              ensure_ascii=False, sort_keys=True, indent=2))
    elif stored is None:
        raise click.UsageError(f"nothing to report in {run_dir.path}")


if __name__ == "__main__":
    main()
