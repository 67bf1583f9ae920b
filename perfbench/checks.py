"""Independent checks of a pipeline run's outputs.

Each check compares the program's outputs with a computation made apart
from the program (numpy over the saved checkpoint, the generator's gold
answers, the stand-in's own call counter) or with a property the method
must have. ``run_checks`` returns the names of the checks that failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from kbloop.kb import normalize_label

CALL_BUDGET = 20  # max_thoughts * max_calls_per_step at the benchmark's config
TOL = 1e-9


def _read_triples(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def filtered_ranks(checkpoint, queries, known) -> list[int]:
    """Filtered tail rank of each query, from the checkpoint arrays alone.

    rank = 1 + #(higher scores) + #(equal scores with a smaller id), over all
    checkpoint entities except the other known-true tails of (head, relation).
    """
    data = np.load(checkpoint, allow_pickle=True)
    ids = [str(e) for e in data["entity_ids"]]
    eidx = {e: i for i, e in enumerate(ids)}
    ridx = {r: i for i, r in enumerate(str(r) for r in data["relation_ids"])}
    ent, rel = data["entity_vecs"], data["relation_vecs"]
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[order] = np.arange(len(ids))  # position of each id in id order
    tails = {}
    for h, r, t in known:
        tails.setdefault((h, r), set()).add(t)
    ranks = []
    for h, r, t in queries:
        scores = ent @ (ent[eidx[h]] * rel[ridx[r]])
        g = eidx[t]
        mask = np.ones(len(ids), dtype=bool)
        for other in tails.get((h, r), ()):
            if other != t and other in eidx:
                mask[eidx[other]] = False
        better = (scores > scores[g]) | ((scores == scores[g]) & (id_rank < id_rank[g]))
        ranks.append(1 + int(np.count_nonzero(better & mask)))
    return ranks


def chance_floor(n_entities: int, n_queries: int) -> float:
    """MRR a uniformly random ranking exceeds with odds below ~1e-4.

    Under a random ranking the reciprocal rank of one query has mean
    H_n / n and variance (sum 1/k^2) / n - mean^2; the floor is that mean
    plus four standard errors of an ``n_queries`` average.
    """
    mean = sum(1.0 / k for k in range(1, n_entities + 1)) / n_entities
    second = sum(1.0 / k ** 2 for k in range(1, n_entities + 1)) / n_entities
    return mean + 4.0 * math.sqrt(max(second - mean * mean, 0.0) / n_queries)


def run_checks(run_dir, table, kbc_report, kbqa_report, facts, floor_applies) -> list[str]:
    """Check one run directory; ``facts`` holds what the benchmark observed.

    ``facts`` keys: ``finetunes`` (count the CLI printed), ``kbqa_calls``
    (stand-in calls during eval-kbqa), ``losses`` (pretrain loss per epoch).
    """
    run_dir = Path(run_dir)
    failed = []

    def check(name, ok):
        if not ok:
            failed.append(name)

    # KBC: recompute filtered MRR and Hits@k from the saved arrays
    queries = _read_triples(run_dir / "test.tsv")
    known = [t for name in ("train.tsv", "valid.tsv", "test.tsv") for t in _read_triples(run_dir / name)]
    ranks = filtered_ranks(run_dir / "completer.npz", queries, known)
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    check("kbc_mrr_recomputed", abs(mrr - kbc_report["mrr"]) <= TOL and kbc_report["filtered"])
    for k, value in kbc_report["hits_at"].items():
        hits = sum(1 for r in ranks if r <= int(k)) / len(ranks)
        check(f"kbc_hits{k}_recomputed", abs(hits - value) <= TOL)
    check("kbc_n_queries", kbc_report["n_queries"] == len(queries))
    if floor_applies:
        check("kbc_mrr_above_chance", mrr > chance_floor(table["n_entities"], len(ranks)))

    # KBQA: one trajectory per question, Hits@1 against the generator's gold
    trajectories = _jsonl(run_dir / "kbqa_trajectories.jsonl")
    test = table["test"]
    check("kbqa_one_line_per_question", [t["question"] for t in trajectories] == test)
    if len(trajectories) == len(test):
        hits = 0
        for t, q in zip(trajectories, test):
            gold = {normalize_label(a) for a in table["questions"][q]["answers"]}
            hits += any(normalize_label(a) in gold for a in t["final_answers"])
        check("kbqa_hits1_recomputed", abs(hits / len(test) - kbqa_report["hits_at_1"]) <= TOL)
    calls = [t["llm_call_count"] for t in trajectories]
    check("kbqa_calls_match_standin", sum(calls) == facts["kbqa_calls"])
    check("kbqa_call_budget", max(calls, default=0) <= CALL_BUDGET)
    labels = {normalize_label(x) for x in table["entity_labels"]}
    complete_ok = all(
        normalize_label(tr[2]) in labels
        for t in trajectories for s in t["steps"] if s["action"]["kind"] == "complete"
        for tr in s["observation"].get("triples", [])
    )
    check("complete_answers_are_kb_labels", complete_ok)

    # joint training: every question logged without error, paths inside the KB
    joint = _jsonl(run_dir / "trajectories.jsonl")
    check("joint_one_line_per_question", [t["question"] for t in joint] == table["train"])
    check("joint_no_errors", all(t["error"] == "" for t in joint))
    paths = _jsonl(run_dir / "paths.jsonl") if (run_dir / "paths.jsonl").exists() else []
    entities, relations = set(table["entity_ids"]), set(table["relation_ids"])
    check("path_triples_in_kb", all(
        h in entities and r in relations and t in entities for p in paths for h, r, t in p["triples"]
    ))
    check("finetunes_equal_nonempty_paths",
          facts["finetunes"] == sum(1 for p in paths if p["triples"]))
    losses = facts["losses"]
    check("pretrain_loss_falls", len(losses) >= 2 and losses[-1] < losses[0])
    return failed
