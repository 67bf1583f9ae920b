"""The benchmark's own tests: the stand-in policy and the output checks.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match ``test_*.py``); they run on a tiny generated KB in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from kbloop.completer import CompletionQuery, NativeCompleter  # noqa: E402
from kbloop.kb import EntityRecord, KnowledgeBase, RelationRecord, Triple  # noqa: E402
from kbloop.prompts import TEMPLATE_NAMES, get_template, render  # noqa: E402
from standin import StandIn, UnknownQuestion  # noqa: E402

TINY = gen.Spec(**run.WARMUP)
TINY_CONFIG = dict(run.WARMUP_CONFIG, epochs=3)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One tiny pipeline run: (run dir, table, results, stand-in)."""
    work = tmp_path_factory.mktemp("tiny")
    rec = spans.Recorder()
    spans.install_setup(rec)
    try:
        pipe = run.Pipeline(work, TINY, TINY_CONFIG, 3, 20)
        res = pipe.run(rec)
    finally:
        rec.restore()
    return pipe.run_dir, pipe.table, res, res["standin"]


# -- the stand-in ----------------------------------------------------------


def _prompt(name, **bindings):
    return render(get_template(name), bindings)


def test_every_template_is_answered(tiny_run):
    _, table, res, standin = tiny_run
    used = {name for name, n in res["calls"].items() if n}
    assert used >= set(TEMPLATE_NAMES) - {"cot", "entity_select"}
    question = table["test"][0]
    plan = table["questions"][question]
    hop = plan["hops"][0]
    assert standin.reply(_prompt("cot", question=question)) == "Answer: " + " | ".join(plan["answers"])
    reply = standin.reply(_prompt(
        "entity_select", thought=f"I need the {hop['rel']} of X, the painter from Oslo.",
        entity_name="X", candidates="Q1: sculptor from Rome\nQ2: painter from Oslo"))
    assert reply == "Answer: Q2"
    for name in TEMPLATE_NAMES:
        assert standin.template_of(_prompt(name, **{s: "x" for s in get_template(name).slots})) == name


def test_replies_are_a_pure_function_of_the_prompt(tiny_run):
    _, table, _, _ = tiny_run
    prompt = _prompt("agent_infer", question=table["test"][1], topic_entities="T", transcript="")
    assert StandIn(table).reply(prompt) == StandIn(table).reply(prompt)


def test_format_error_retry_path_is_hit(tiny_run):
    run_dir, table, _, _ = tiny_run
    malformed = {q for q, p in table["questions"].items() if p["malformed"]}
    retried = 0
    for name in ("trajectories.jsonl", "kbqa_trajectories.jsonl"):
        for line in (run_dir / name).read_text().splitlines():
            t = json.loads(line)
            first = t["steps"][0]["templates"] if t["steps"] else []
            if t["question"] in malformed:
                assert first[:2] == [first[0]] * 2 and first[0].startswith("agent_")
                retried += 1
    assert retried > 0


def test_unknown_question_is_an_error(tiny_run):
    _, table, _, _ = tiny_run
    standin = StandIn(table)
    for name in ("agent_infer", "path_select", "cot"):
        bindings = {s: "x" for s in get_template(name).slots}
        bindings["question"] = "what is the colour of nothing?"
        with pytest.raises(UnknownQuestion):
            standin.reply(_prompt(name, **bindings))


# -- the checks --------------------------------------------------------------


def _brute_force_ranks(model, kb, queries, known):
    """The eval-kbc protocol spelled out: full ranking, then the filter."""
    ranks = []
    for h, r, t in queries:
        preds = model.predict(CompletionQuery.tail_query(h, r), kb, len(kb.entities))
        ranking = [p.entity for p in preds
                   if p.entity == t or Triple(h, r, p.entity) not in known]
        ranks.append(ranking.index(t) + 1)
    return ranks


def test_rank_recomputation_matches_brute_force(tmp_path):
    rng = np.random.default_rng(0)
    ents = [f"e{i}" for i in range(30)]
    triples = {(ents[rng.integers(30)], f"r{rng.integers(3)}", ents[rng.integers(30)]) for _ in range(90)}
    kb = KnowledgeBase([EntityRecord(e, e) for e in ents],
                       [RelationRecord(f"r{i}", f"r{i}") for i in range(3)],
                       [Triple(*t) for t in triples])
    model = NativeCompleter(kb, dim=4, seed=1)
    model.trained = True
    model.entity_vecs[::3] = 0.0  # ties: a third of the entities score exactly 0
    model.save(tmp_path / "c.npz")
    queries = sorted(triples)[:40]
    known = {Triple(*t) for t in triples}
    assert checks.filtered_ranks(tmp_path / "c.npz", queries, triples) == \
        _brute_force_ranks(model, kb, queries, known)


def _corrupt(tiny_run, tmp_path, edit):
    src, table, res, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(src, run_dir)
    kbc = json.loads((src / "kbc_report.json").read_text())
    kbqa = dict(res["kbqa"])
    facts = dict(res)
    floor = edit(run_dir, kbc, kbqa, facts) or False
    return checks.run_checks(run_dir, table, kbc, kbqa, facts, floor)


def _edit_jsonl(path, fn):
    rows = [json.loads(x) for x in path.read_text().splitlines()]
    rows = fn(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _zero_vectors(run_dir):
    data = dict(np.load(run_dir / "completer.npz", allow_pickle=True))
    data["entity_vecs"] = np.zeros_like(data["entity_vecs"])
    np.savez(run_dir / "completer.npz", **data)
    return True


def _first_complete(rows):
    for row in rows:
        for step in row["steps"]:
            if step["action"]["kind"] == "complete" and step["observation"].get("triples"):
                step["observation"]["triples"][0][2] = "Nobody Anywhere"
                return rows
    raise AssertionError("no Complete step in the tiny run")


CORRUPTIONS = {
    "kbc_mrr_recomputed": lambda d, kbc, qa, f: kbc.update(mrr=kbc["mrr"] + 0.01),
    "kbc_hits1_recomputed": lambda d, kbc, qa, f: kbc["hits_at"].update({"1": kbc["hits_at"]["1"] + 0.05}),
    "kbc_n_queries": lambda d, kbc, qa, f: kbc.update(n_queries=kbc["n_queries"] + 1),
    "kbc_mrr_above_chance": lambda d, kbc, qa, f: _zero_vectors(d),
    "kbqa_one_line_per_question": lambda d, kbc, qa, f: _edit_jsonl(d / "kbqa_trajectories.jsonl", lambda r: r[1:]),
    "kbqa_hits1_recomputed": lambda d, kbc, qa, f: qa.update(hits_at_1=qa["hits_at_1"] - 0.05),
    "kbqa_calls_match_standin": lambda d, kbc, qa, f: f.update(kbqa_calls=f["kbqa_calls"] + 1),
    "kbqa_call_budget": lambda d, kbc, qa, f: _edit_jsonl(
        d / "kbqa_trajectories.jsonl", lambda r: [dict(r[0], llm_call_count=21)] + r[1:]),
    "complete_answers_are_kb_labels": lambda d, kbc, qa, f: _edit_jsonl(
        d / "kbqa_trajectories.jsonl", _first_complete),
    "joint_one_line_per_question": lambda d, kbc, qa, f: _edit_jsonl(d / "trajectories.jsonl", lambda r: r[:-1]),
    "joint_no_errors": lambda d, kbc, qa, f: _edit_jsonl(
        d / "trajectories.jsonl", lambda r: [dict(r[0], error="transport")] + r[1:]),
    "path_triples_in_kb": lambda d, kbc, qa, f: _edit_jsonl(
        d / "paths.jsonl", lambda r: r + [{"question": "q", "triples": [["Q1", "P1", "gen:omega"]], "notes": []}]),
    "finetunes_equal_nonempty_paths": lambda d, kbc, qa, f: f.update(finetunes=f["finetunes"] + 1),
    "pretrain_loss_falls": lambda d, kbc, qa, f: f.update(losses=list(reversed(f["losses"]))),
}


def test_checks_pass_on_the_tiny_run(tiny_run, tmp_path):
    assert _corrupt(tiny_run, tmp_path, lambda *a: None) == []


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_check_fails_on_a_corrupted_report(tiny_run, tmp_path, name):
    assert name in _corrupt(tiny_run, tmp_path, CORRUPTIONS[name])
