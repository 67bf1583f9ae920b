"""Link-prediction and question-answering metrics, plus efficiency counters
over trajectory records."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kb import normalize_label


@dataclass(frozen=True)
class KbcEvalResult:
    mrr: float
    hits_at: dict
    n_queries: int

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits_at": {str(k): v for k, v in sorted(self.hits_at.items())},
            "n_queries": self.n_queries,
        }


@dataclass(frozen=True)
class KbqaEvalResult:
    hits_at_1: float
    avg_llm_calls: float
    avg_seconds: float
    n_questions: int

    def to_dict(self) -> dict:
        return {
            "hits_at_1": self.hits_at_1,
            "avg_llm_calls": self.avg_llm_calls,
            "avg_seconds": self.avg_seconds,
            "n_questions": self.n_questions,
        }


def tail_rank(scores, gold: int, excluded=()) -> int:
    """1-based rank of candidate ``gold`` among ``scores`` (ids in ascending order).

    rank = 1 + #(higher score) + #(equal score with a smaller index), counted
    over the candidates whose index is not in ``excluded``: a stable sort by
    descending score, then the filter, then the gold's position. A gold
    scored minus infinity (a remote completer never decoded it) gets 0.
    """
    g = scores[gold]
    if g == -math.inf:
        return 0
    rank = 1 + int(np.count_nonzero(scores > g)) + int(np.count_nonzero(scores[:gold] == g))
    for i in set(excluded) - {gold}:
        if scores[i] > g or (scores[i] == g and i < gold):
            rank -= 1
    return rank


def mrr(ranks) -> float:
    """Mean reciprocal rank over 1-based ranks; a rank of 0 (absent gold)
    contributes 0."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("need at least one rank")
    total = 0.0
    for rank in ranks:
        if rank:
            total += 1.0 / rank
    return total / len(ranks)


def hits_at_k(ranks, k: int) -> float:
    """Fraction of queries whose gold entity ranks within the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = list(ranks)
    if not ranks:
        raise ValueError("need at least one rank")
    return sum(1 for rank in ranks if 0 < rank <= k) / len(ranks)


def kbc_eval(ranks, ks=(1, 3, 10)) -> KbcEvalResult:
    ranks = list(ranks)
    return KbcEvalResult(
        mrr=mrr(ranks),
        hits_at={k: hits_at_k(ranks, k) for k in ks},
        n_queries=len(ranks),
    )


def kbqa_hits_at_1(final_answers, gold) -> float:
    """A question scores 1 when any returned answer matches any gold answer
    after normalization."""
    final_answers = list(final_answers)
    gold = list(gold)
    if not final_answers or len(final_answers) != len(gold):
        raise ValueError("need one answer list per gold set")
    score = 0
    for answers, gold_set in zip(final_answers, gold):
        gold_keys = {normalize_label(g) for g in gold_set}
        if any(normalize_label(a) in gold_keys for a in answers):
            score += 1
    return score / len(final_answers)


def efficiency_report(records) -> dict:
    """Average model calls and wall seconds per question over trajectory
    records, the dicts a trajectory log holds (``llm_call_count``,
    ``wall_time_s``). Opens no file: the caller has read and checked them."""
    records = list(records)
    if not records:
        raise ValueError("need at least one trajectory record")
    return {
        "avg_llm_calls": sum(r["llm_call_count"] for r in records) / len(records),
        "avg_seconds": sum(r["wall_time_s"] for r in records) / len(records),
        "n_questions": len(records),
    }
