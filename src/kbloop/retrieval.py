"""BM25 lexical retrieval over triple and relation surface text.

Used in two places: linking a free-form relation surface emitted by the
language model to a canonical KB relation, and pulling the observation
triples most related to a sub-question before triple generation.

Scoring uses the non-negative idf variant ``log((N - df + 0.5)/(df + 0.5) + 1)``
so tiny corpora cannot produce negative scores. Query tokens contribute with
multiplicity.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import NamedTuple

from .kb import KnowledgeBase, RelationId

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


class RelationLinkError(Exception):
    """No KB relation matches the given surface."""


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on whitespace/punctuation, with camelCase and
    snake_case boundaries split apart."""
    text = _CAMEL_BOUNDARY.sub(" ", text)
    return [tok for tok in _NON_ALNUM.split(text.lower()) if tok]


class Document(NamedTuple):
    doc_id: object
    text: str


class Bm25Index:
    """Immutable BM25 index; build once, query concurrently.

    Stores postings (term -> ``[(doc index, tf)]``, ascending), one length
    norm per document and the idf, so a query touches only the documents that
    share one of its terms.
    """

    k1 = 1.2  # term-frequency saturation
    b = 0.75  # document-length normalization

    def __init__(self, docs):
        self.docs: list[Document] = list(docs)
        n = len(self.docs)
        tokens = [tokenize(d.text) for d in self.docs]
        lens = [len(toks) for toks in tokens]
        avgdl = (sum(lens) / n) if n else 0.0
        self.norms = [
            self.k1 * (1.0 - self.b + self.b * dl / avgdl) if avgdl else 0.0 for dl in lens
        ]
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for i, toks in enumerate(tokens):
            for term, f in Counter(toks).items():
                self.postings.setdefault(term, []).append((i, f))
        self.idf = {
            term: math.log((n - len(posting) + 0.5) / (len(posting) + 0.5) + 1.0)
            for term, posting in self.postings.items()
        }


def top_k(index: Bm25Index, query: str, k: int):
    """Best ``k`` documents: descending score, ties by doc_id ascending,
    zero-score documents excluded.

    Each document's terms are summed in query-token order, so its score is
    the same float as a per-document loop over the query would give.
    """
    totals: dict[int, float] = {}
    for term in tokenize(query):
        posting = index.postings.get(term)
        if posting is None:
            continue
        idf = index.idf[term]
        for i, f in posting:
            totals[i] = totals.get(i, 0.0) + idf * f * (index.k1 + 1.0) / (f + index.norms[i])
    scored = [(index.docs[i].doc_id, s) for i, s in sorted(totals.items()) if s > 0.0]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def link_relation(kb: KnowledgeBase, surface: str) -> RelationId:
    """Map a relation surface to a KB relation id.

    An exact label match (case-insensitive) wins without scoring; otherwise
    the top BM25 hit over label + description text, from the KB's one
    relation index (:attr:`KnowledgeBase.relation_index`). No hit at all raises
    :class:`RelationLinkError` and the caller decides the fallback.
    """
    exact = kb.lookup_relation_label(surface)
    if exact:
        return exact[0]
    hits = top_k(kb.relation_index, surface, 1)
    if not hits:
        raise RelationLinkError(f"no KB relation matches surface {surface!r}")
    return hits[0][0]


def retrieve_related_triples(observations, sub_question: str, k: int):
    """Rank prior observation triples against a sub-question.

    ``observations`` is a sequence of objects with ``head``/``relation``/``tail``
    surface strings; each is rendered as one document. Returns the top-k
    triples (positive scores only), preserving nothing beyond BM25 order.
    """
    triples = list(observations)
    if not triples:
        return []
    docs = [
        Document(doc_id=i, text=f"{t.head} {t.relation} {t.tail}")
        for i, t in enumerate(triples)
    ]
    hits = top_k(Bm25Index(docs), sub_question, k)
    return [triples[i] for i, _ in hits]
