"""Metric implementations against independent brute-force references."""

import random

import numpy as np
import pytest

from kbloop.completer import CompletionQuery, NativeCompleter, RemoteCompleter, TrainingConfig
from kbloop.kb import Triple
from kbloop.metrics import (
    efficiency_report,
    hits_at_k,
    kbc_eval,
    kbqa_hits_at_1,
    mrr,
    tail_rank,
)

from conftest import random_kb


def ranks_of(rankings, gold):
    """1-based position of each gold entity in its ranking, 0 when absent."""
    return [ranking.index(g) + 1 if g in ranking else 0 for ranking, g in zip(rankings, gold)]


def reference_mrr(rankings, gold):
    total = 0.0
    for ranking, g in zip(rankings, gold):
        rr = 0.0
        for position, entity in enumerate(ranking):
            if entity == g:
                rr = 1.0 / (position + 1)
                break
        total += rr
    return total / len(rankings)


def reference_hits(rankings, gold, k):
    return sum(1 for ranking, g in zip(rankings, gold) if g in ranking[:k]) / len(rankings)


class TestMrr:
    def test_all_rank_one(self):
        assert mrr(ranks_of([["g", "x"], ["g", "y"]], ["g", "g"])) == 1.0

    def test_mixed_ranks(self):
        assert mrr(ranks_of([["g", "x"], ["x", "g"]], ["g", "g"])) == pytest.approx(0.75)

    def test_absent_gold_contributes_zero(self):
        assert mrr(ranks_of([["x", "y"]], ["g"])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mrr(ranks_of([], []))

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 40)
            entities = [f"e{i}" for i in range(20)]
            rankings = [rng.sample(entities, rng.randint(1, 20)) for _ in range(n)]
            gold = [rng.choice(entities) for _ in range(n)]
            assert mrr(ranks_of(rankings, gold)) == pytest.approx(
                reference_mrr(rankings, gold), abs=1e-12
            )


class TestHitsAtK:
    def test_rank_one(self):
        assert hits_at_k(ranks_of([["g", "x"]], ["g"]), 1) == 1.0

    def test_rank_five_boundaries(self):
        ranking = ["a", "b", "c", "d", "g"]
        assert hits_at_k(ranks_of([ranking], ["g"]), 3) == 0.0
        assert hits_at_k(ranks_of([ranking], ["g"]), 10) == 1.0

    def test_monotone_in_k(self):
        rng = random.Random(3)
        entities = [f"e{i}" for i in range(15)]
        rankings = [rng.sample(entities, 15) for _ in range(30)]
        gold = [rng.choice(entities) for _ in range(30)]
        h1, h3, h10 = (hits_at_k(ranks_of(rankings, gold), k) for k in (1, 3, 10))
        assert h1 <= h3 <= h10

    def test_matches_reference(self):
        rng = random.Random(5)
        entities = [f"e{i}" for i in range(25)]
        for _ in range(50):
            n = rng.randint(1, 30)
            rankings = [rng.sample(entities, rng.randint(1, 25)) for _ in range(n)]
            gold = [rng.choice(entities) for _ in range(n)]
            for k in (1, 3, 10):
                assert hits_at_k(ranks_of(rankings, gold), k) == pytest.approx(
                    reference_hits(rankings, gold, k), abs=1e-12
                )

    def test_kbc_eval_invariants(self):
        rng = random.Random(7)
        entities = [f"e{i}" for i in range(25)]
        rankings = [rng.sample(entities, 25) for _ in range(60)]
        gold = [rng.choice(entities) for _ in range(60)]
        result = kbc_eval(ranks_of(rankings, gold))
        assert result["hits_at"]["1"] <= result["hits_at"]["3"] <= result["hits_at"]["10"]
        assert result["mrr"] >= result["hits_at"]["1"]


def protocol_rank(completer, kb, triple, known):
    """The ranking protocol spelled out: full predict, drop the other known
    tails of (h, r), then the gold's 1-based position (0 when absent)."""
    query = CompletionQuery(triple.head, triple.relation)
    ranking = [p.entity for p in completer.predict(query, kb, len(kb.entities))]
    ranking = [
        e for e in ranking
        if e == triple.tail or Triple(triple.head, triple.relation, e) not in known
    ]
    return ranking.index(triple.tail) + 1 if triple.tail in ranking else 0


def fast_rank(completer, kb, triple, known):
    index = {e: i for i, e in enumerate(sorted(kb.entities))}
    query = CompletionQuery(triple.head, triple.relation)
    excluded = [
        index[t.tail] for t in known
        if (t.head, t.relation) == (triple.head, triple.relation) and t.tail != triple.tail
    ]
    return tail_rank(completer.tail_scores(query, kb), index[triple.tail], excluded)


class TestTailRank:
    def test_counts_higher_and_equal_with_smaller_index(self):
        scores = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 0.0])
        assert tail_rank(scores, 1) == 1
        assert tail_rank(scores, 3) == 2
        assert tail_rank(scores, 4) == 4
        assert tail_rank(scores, 4, excluded=[1, 2, 5]) == 2
        assert tail_rank(scores, 4, excluded=[4]) == 4  # the gold is never filtered out

    def test_never_decoded_gold_is_zero(self):
        assert tail_rank(np.array([-1.0, -np.inf, -np.inf]), 1) == 0

    @pytest.mark.parametrize("filtered", [False, True], ids=["raw", "filtered"])
    def test_native_matches_protocol_with_ties(self, filtered):
        kb = random_kb(random.Random(4), n_entities=30, n_relations=3, n_triples=120)
        model = NativeCompleter(kb, dim=8, seed=1)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=5, seed=1))
        model.entity_vecs[::3] = 0.0  # every third tail scores exactly 0
        known = kb.triples if filtered else set()
        for triple in sorted(kb.triples):
            assert fast_rank(model, kb, triple, known) == protocol_rank(model, kb, triple, known)

    @pytest.mark.parametrize("filtered", [False, True], ids=["raw", "filtered"])
    def test_remote_matches_protocol_with_undecoded_gold(self, filtered):
        kb = random_kb(random.Random(5), n_entities=12, n_relations=2, n_triples=40)
        ids = sorted(kb.entities)
        # tied log-probabilities, a repeated decode and entities never decoded
        samples = [{"text": e, "logprob": -float(i % 3)} for i, e in enumerate(ids) if i % 4]
        samples.append({"text": ids[1], "logprob": -0.5})
        remote = RemoteCompleter(transport=lambda path, payload: {"samples": samples})
        known = kb.triples if filtered else set()
        for triple in sorted(kb.triples):
            assert fast_rank(remote, kb, triple, known) == protocol_rank(remote, kb, triple, known)
        undecoded = [t for t in sorted(kb.triples) if ids.index(t.tail) % 4 == 0]
        assert undecoded
        assert all(fast_rank(remote, kb, t, known) == 0 for t in undecoded)


class TestKbqaHitsAtOne:
    def test_exact_single_answer(self):
        assert kbqa_hits_at_1([["Paris"]], [["Paris"]]) == 1.0

    def test_unknown_scores_zero(self):
        assert kbqa_hits_at_1([["unknown"]], [["Paris"]]) == 0.0

    def test_case_and_whitespace_normalized(self):
        assert kbqa_hits_at_1([["john  shakespeare"]], [["John Shakespeare"]]) == 1.0

    def test_any_overlap_counts(self):
        assert kbqa_hits_at_1([["a", "b"]], [["b", "c"]]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kbqa_hits_at_1([], [])


class TestEfficiencyReport:
    def test_averages(self):
        report = efficiency_report([
            {"llm_call_count": 4, "wall_time_s": 1.0},
            {"llm_call_count": 6, "wall_time_s": 3.0},
        ])
        assert report == {"avg_llm_calls": 5.0, "avg_seconds": 2.0, "n_questions": 2}

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            efficiency_report([])
