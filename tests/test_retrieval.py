"""BM25 retrieval against an independently written reference scorer."""

import math
import random
import re

import pytest

from kbloop.agent import SurfaceTriple
from kbloop.retrieval import (
    Bm25Index,
    Document,
    RelationLinkError,
    link_relation,
    retrieve_related_triples,
    tokenize,
    top_k,
)

from conftest import make_kb


def reference_bm25(doc_token_lists, query_tokens, k1=1.2, b=0.75):
    """Straight-off-the-formula scorer used as the oracle."""
    n = len(doc_token_lists)
    if n == 0:
        return []
    lengths = [len(d) for d in doc_token_lists]
    avgdl = sum(lengths) / n
    scores = []
    for tokens, dl in zip(doc_token_lists, lengths):
        s = 0.0
        for q in query_tokens:
            f = tokens.count(q)
            if f == 0:
                continue
            df = sum(1 for d in doc_token_lists if q in d)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * (f * (k1 + 1)) / (f + k1 * (1 - b + b * dl / avgdl))
        scores.append(s)
    return scores


def simple_tokens(text):
    return re.findall(r"[a-z0-9]+", text.lower())


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("head of government") == ["head", "of", "government"]

    def test_snake_case(self):
        assert tokenize("educated_at") == ["educated", "at"]

    def test_camel_case(self):
        assert tokenize("educatedAtSchool") == ["educated", "at", "school"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation(self):
        assert tokenize("U.S.-based, singer!") == ["u", "s", "based", "singer"]


class TestIndex:
    def test_empty_corpus_scores_nothing(self):
        index = Bm25Index([])
        assert top_k(index, "anything", 5) == []

    def test_single_doc_tops_any_overlapping_query(self):
        index = Bm25Index([Document("d0", "justin bieber singer")])
        assert top_k(index, "who is justin", 3)[0][0] == "d0"

    def test_term_presence_beats_absence(self):
        index = Bm25Index(
            [Document("a", "apple pie recipe"), Document("b", "car engine manual")]
        )
        hits = dict(top_k(index, "apple", 2))
        assert "a" in hits and "b" not in hits
        expected = reference_bm25([tokenize("apple pie recipe"), tokenize("car engine manual")],
                                  ["apple"])
        assert hits["a"] == pytest.approx(expected[0], abs=1e-12)

    def test_three_doc_ranking_matches_reference(self):
        texts = [
            "shakespeare wrote plays and poems",
            "plays in london theatres",
            "poems about love and plays and plays",
        ]
        index = Bm25Index([Document(i, t) for i, t in enumerate(texts)])
        query = "plays poems"
        got = top_k(index, query, 3)
        expected = reference_bm25([tokenize(t) for t in texts], tokenize(query))
        ranked = sorted(
            [(i, s) for i, s in enumerate(expected) if s > 0], key=lambda p: (-p[1], p[0])
        )
        assert [doc for doc, _ in got] == [doc for doc, _ in ranked]
        for (_, s_got), (_, s_exp) in zip(got, ranked):
            assert s_got == pytest.approx(s_exp, abs=1e-9)


class TestTopK:
    def test_k_zero(self):
        index = Bm25Index([Document("a", "x")])
        assert top_k(index, "x", 0) == []

    def test_no_overlap(self):
        index = Bm25Index([Document("a", "x y z")])
        assert top_k(index, "q", 4) == []

    def test_tie_break_on_doc_id(self):
        # identical documents score identically; order must be doc_id ascending
        docs = [Document(f"d{j}", "same words here") for j in (3, 1, 2)]
        index = Bm25Index(docs)
        assert [d for d, _ in top_k(index, "same words", 3)] == ["d1", "d2", "d3"]

    def test_random_corpora_match_reference(self):
        rng = random.Random(17)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(25):
            n_docs = rng.randint(1, 40)
            texts = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 12))) for _ in range(n_docs)
            ]
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            index = Bm25Index([Document(i, t) for i, t in enumerate(texts)])
            got = top_k(index, query, n_docs)
            expected = reference_bm25([simple_tokens(t) for t in texts], simple_tokens(query))
            want = sorted(
                [(i, s) for i, s in enumerate(expected) if s > 0],
                key=lambda p: (-p[1], p[0]),
            )
            assert [d for d, _ in got] == [d for d, _ in want]
            for (_, s_got), (_, s_exp) in zip(got, want):
                assert s_got == pytest.approx(s_exp, abs=1e-9)

    def test_irrelevant_document_keeps_positive_set(self):
        texts = ["alpha beta", "beta gamma", "gamma delta"]
        query = "beta"
        before = Bm25Index([Document(i, t) for i, t in enumerate(texts)])
        positive = [d for d, _ in top_k(before, query, len(texts))]
        after = Bm25Index(
            [Document(i, t) for i, t in enumerate(texts + ["zeta eta theta"])]
        )
        kept = [d for d, _ in top_k(after, query, len(positive))]
        assert set(kept) == set(positive)
        assert 3 not in kept


class TestLinkRelation:
    def fixture_kb(self):
        return make_kb(
            [("a", "P69", "b"), ("a", "P108", "c")],
            relations={
                "P69": ("educated at", "educational institution attended by the subject", ""),
                "P108": ("employer", "organization the subject works for", ""),
            },
        )

    def test_exact_label_short_circuit(self):
        assert link_relation(self.fixture_kb(), "Educated At") == "P69"

    def test_bm25_fallback_on_synonym(self):
        # "schooled at" shares "at" with "educated at" only
        assert link_relation(self.fixture_kb(), "schooled at") == "P69"

    def test_description_helps(self):
        assert link_relation(self.fixture_kb(), "institution attended") == "P69"

    def test_no_overlap_raises(self):
        with pytest.raises(RelationLinkError):
            link_relation(self.fixture_kb(), "zzz")

    def test_one_index_per_kb(self):
        kb = self.fixture_kb()
        assert kb.relation_index is kb.relation_index
        assert [d.doc_id for d in kb.relation_index.docs] == sorted(kb.relations)

    def test_idempotent_and_deterministic(self):
        kb = self.fixture_kb()
        first = link_relation(kb, "works for organization")
        for _ in range(3):
            assert link_relation(kb, "works for organization") == first


class TestRetrieveRelatedTriples:
    def triples(self):
        return [
            SurfaceTriple("Woodrow Wilson", "educated at", "Davidson College"),
            SurfaceTriple("Woodrow Wilson", "employer", "Bryn Mawr College"),
            SurfaceTriple("Mary Shakespeare", "occupation", "writer"),
        ]

    def test_empty_observations(self):
        assert retrieve_related_triples([], "anything", 5) == []

    def test_named_entity_ranks_first(self):
        got = retrieve_related_triples(self.triples(), "what was Mary Shakespeare's job?", 3)
        assert got[0].head == "Mary Shakespeare"

    def test_truncates_to_positive_matches(self):
        got = retrieve_related_triples(self.triples(), "Davidson", 10)
        assert len(got) == 1 and got[0].tail == "Davidson College"
