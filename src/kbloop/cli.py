"""Command-line surface: prepare a KB, pretrain, joint-train, evaluate, and
answer single questions."""

from __future__ import annotations

import json
import logging
import sys
import time
from pathlib import Path

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


def _write_triples(path, triples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(triples):
            fh.write(f"{t.head}\t{t.relation}\t{t.tail}\n")


def _working_kb(run_dir) -> kb_mod.KnowledgeBase:
    paths = [Path(run_dir) / name for name in ("working_triples.tsv", "entities.tsv", "relations.tsv")]
    if not all(p.exists() for p in paths):
        raise click.UsageError(f"no prepared KB in {run_dir}; run `kbloop kb prepare` first")
    return kb_mod.load_kb(*paths)


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
    return NativeCompleter.load(Path(run_dir) / "completer.npz", kb)


def _model(cfg, run_dir, kb):
    """The completer of :func:`_completer`, without a snapshot's joint-loop state."""
    completer = _completer(cfg, run_dir, kb)
    return completer.completer if isinstance(completer, Snapshot) else completer


def _emit_report(run_dir, payload: dict) -> None:
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    click.echo(text)
    if run_dir:
        with open(Path(run_dir) / "report.json", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


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
@click.option("--run-dir", type=click.Path(), required=True)
def kb_prepare(config_path, triples, entities, relations, n_valid, n_test, keep_fraction, seed, run_dir):
    """Load, split, and degrade the KB into a run directory."""
    cfg = _load_run_config(
        config_path,
        triples_path=triples, entities_path=entities, relations_path=relations,
        n_valid=n_valid, n_test=n_test, keep_fraction=keep_fraction, seed=seed,
    )
    # the full KB is only split and degraded, so it is read and checked, not indexed
    entities, _, triples = kb_mod.read_kb(*_kb_paths(cfg))
    try:
        bundle = kb_mod.split(triples, cfg.n_valid, cfg.n_test, cfg.seed)
        working = kb_mod.degrade(bundle.train, cfg.keep_fraction, cfg.seed, [e.id for e in entities])
    except ValueError as exc:  # split sizes or keep_fraction that the KB cannot meet
        raise click.UsageError(str(exc)) from exc

    out = Path(run_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_triples(out / "train.tsv", bundle.train)
    _write_triples(out / "valid.tsv", bundle.valid)
    _write_triples(out / "test.tsv", bundle.test)
    _write_triples(out / "working_triples.tsv", working)
    (out / "entities.tsv").write_bytes(Path(cfg.entities_path).read_bytes())
    (out / "relations.tsv").write_bytes(Path(cfg.relations_path).read_bytes())
    config_mod.snapshot(cfg, out)
    click.echo(
        f"prepared KB: train={len(bundle.train)} valid={len(bundle.valid)} "
        f"test={len(bundle.test)} working={len(working)}"
    )


@main.command()
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=click.Path(), required=True)
def pretrain(config_path, run_dir):
    """Pretrain the completer on the prepared (degraded) training graph."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    if cfg.completer_endpoint:
        completer = _completer(cfg, run_dir, working_kb)
    else:
        completer = NativeCompleter(working_kb, dim=cfg.embedding_dim, seed=cfg.seed)
    started = time.perf_counter()
    completer.pretrain(working_kb.triples, working_kb, cfg.training)
    joint_mod.RunLog(run_dir).restart(completer)
    click.echo(f"pretrained completer in {time.perf_counter() - started:.1f}s")


@main.command("train-joint")
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=click.Path(), required=True)
@click.option("--qa", "qa_path", type=_INPUT_FILE, required=True, help="QA training set (JSONL).")
@click.option("--scripted", type=_INPUT_FILE, default=None, help="Scripted chat transcript (JSONL).")
@click.option("--resume", is_flag=True, help="Continue the log's current sweep after its last question.")
def train_joint_cmd(config_path, run_dir, qa_path, scripted, resume):
    """Run the joint loop: episodes, path parsing, incremental fine-tuning."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    completer = _completer(cfg, run_dir, working_kb)
    backend = _backend(cfg, scripted)
    qa_train = joint_mod.load_qa_examples(qa_path)
    result = joint_mod.run_joint_training(
        run_dir,
        working_kb,
        qa_train,
        completer,
        backend,
        resume=resume,
        agent_config=cfg.agent,
        train_config=cfg.training,
        params=cfg.llm_params(),
    )
    finetuned = sum(1 for r in result.records if r.finetuned)
    click.echo(f"joint training done: {len(result.records)} questions, {finetuned} fine-tune updates")


@main.command("eval-kbc")
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=click.Path(), required=True)
@click.option("--split", "split_name", type=click.Choice(["valid", "test"]), default="test")
@click.option("--k", "ks", default="1,3,10", help="Comma-separated Hits@k cutoffs.")
@click.option("--filtered", is_flag=True, help="Drop other known-true tails before ranking.")
@click.option("--limit", type=int, default=None, help="Evaluate only the first N queries.")
def eval_kbc(config_path, run_dir, split_name, ks, filtered, limit):
    """Rank gold tails for held-out triples and report MRR / Hits@k."""
    cfg = _load_run_config(config_path)
    try:
        cutoffs = sorted({int(x) for x in ks.split(",") if x.strip()})
    except ValueError:
        raise click.UsageError(f"bad --k list: {ks!r}")
    working_kb = _working_kb(run_dir)
    completer = _model(cfg, run_dir, working_kb)
    split = kb_mod.read_triples(Path(run_dir) / f"{split_name}.tsv", working_kb.entities,
                                working_kb.relations)
    queries = split[:limit] if limit else split
    # known-true tails of the queried (h, r) pairs only; unknown tails are ignored
    known_tails = {}
    if filtered:
        known_tails = {(q.head, q.relation): set() for q in queries}
        for name in ("train", "valid", "test"):
            triples = split if name == split_name else kb_mod.read_triples(Path(run_dir) / f"{name}.tsv")
            for h, r, t in triples:
                if (h, r) in known_tails:
                    known_tails[h, r].add(t)

    index = working_kb.entity_index
    ranks = []
    for q in queries:
        scores = completer.tail_scores(CompletionQuery(q.head, q.relation), working_kb)
        excluded = [index[e] for e in known_tails.get((q.head, q.relation), ()) if e in index]
        ranks.append(metrics_mod.tail_rank(scores, index[q.tail], excluded))
    result = metrics_mod.kbc_eval(ranks, ks=tuple(cutoffs))
    payload = result.to_dict()
    payload["split"] = split_name
    payload["filtered"] = filtered
    _emit_report(run_dir, payload)


@main.command()
@click.option("--config", "config_path", type=_INPUT_FILE, default=None)
@click.option("--run-dir", type=click.Path(), required=True)
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
@click.option("--run-dir", type=click.Path(), required=True)
@click.option("--qa", "qa_path", type=_INPUT_FILE, required=True)
@click.option("--scripted", type=_INPUT_FILE, default=None)
def eval_kbqa(config_path, run_dir, qa_path, scripted):
    """Run inference episodes over a QA set and report Hits@1 + efficiency."""
    cfg = _load_run_config(config_path)
    working_kb = _working_kb(run_dir)
    completer = _model(cfg, run_dir, working_kb)
    backend = _backend(cfg, scripted)
    examples = joint_mod.load_qa_examples(qa_path)

    # the efficiency averages come from the two numbers of each written record
    final_answers, gold, costs = [], [], []
    with open(Path(run_dir) / "kbqa_trajectories.jsonl", "w", encoding="utf-8") as fh:
        for ex in examples:
            trajectory = agent_mod.run_episode(
                ex.question, list(ex.topic_entities), working_kb, completer, backend,
                config=cfg.agent, params=cfg.llm_params(),
            )
            record = trajectory.to_dict(include_timing=True)
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
            costs.append({k: record[k] for k in ("llm_call_count", "wall_time_s")})
            final_answers.append(trajectory.final_answers)
            gold.append(list(ex.gold_answers))
    efficiency = metrics_mod.efficiency_report(costs)
    result = metrics_mod.KbqaEvalResult(
        hits_at_1=metrics_mod.kbqa_hits_at_1(final_answers, gold),
        avg_llm_calls=efficiency["avg_llm_calls"],
        avg_seconds=efficiency["avg_seconds"],
        n_questions=efficiency["n_questions"],
    )
    _emit_report(run_dir, result.to_dict())


@main.command()
@click.option("--run-dir", type=click.Path(exists=True, file_okay=False), required=True)
def report(run_dir):
    """Reprint the stored report and the joint question log's efficiency for
    a run."""
    report_path = Path(run_dir) / "report.json"
    if report_path.exists():
        click.echo(report_path.read_text(encoding="utf-8").rstrip("\n"))
    entries = joint_mod.RunLog(run_dir).entries()
    if entries:
        click.echo(json.dumps(metrics_mod.efficiency_report(entries),
                              ensure_ascii=False, sort_keys=True, indent=2))
    elif not report_path.exists():
        raise click.UsageError(f"nothing to report in {run_dir}")


if __name__ == "__main__":
    main()
