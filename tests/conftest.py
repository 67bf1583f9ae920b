"""Shared builders and fixtures: tiny hand-built knowledge bases, a canned
completer for scripted episodes, and loopback HTTP servers."""

from __future__ import annotations

import json
import random
import threading
from http.server import HTTPServer

import pytest

from kbloop.completer import RankedPrediction
from kbloop.kb import EntityRecord, KnowledgeBase, RelationRecord, Triple


def make_kb(triples, entities=None, relations=None) -> KnowledgeBase:
    """Build a KB from (h, r, t) id triples.

    ``entities`` maps id -> (label, description); ``relations`` maps
    id -> (label, description, schema). Ids double as labels when unmapped.
    """
    entities = dict(entities or {})
    relations = dict(relations or {})
    for h, r, t in triples:
        for eid in (h, t):
            entities.setdefault(eid, (eid, ""))
        relations.setdefault(r, (r, "", ""))
    entity_records = [EntityRecord(eid, *spec) for eid, spec in entities.items()]
    relation_records = [RelationRecord(rid, *spec) for rid, spec in relations.items()]
    return KnowledgeBase(entity_records, relation_records, [Triple(*t) for t in triples])


def canonical_json(trajectory) -> str:
    """A trajectory as canonical JSON, its wall time left out: identical runs
    give identical bytes."""
    record = trajectory.to_dict()
    del record["wall_time_s"]
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def random_kb(rng: random.Random, n_entities: int, n_relations: int, n_triples: int) -> KnowledgeBase:
    ents = [f"e{i}" for i in range(n_entities)]
    rels = [f"r{i}" for i in range(n_relations)]
    triples = set()
    for _ in range(n_triples):
        triples.add((rng.choice(ents), rng.choice(rels), rng.choice(ents)))
    return make_kb(
        sorted(triples),
        entities={e: (e, "") for e in ents},
        relations={r: (r, "", "") for r in rels},
    )


class CannedCompleter:
    """Completer stub returning pre-sorted predictions from a lookup table."""

    def __init__(self, table):
        self.table = {k: list(v) for k, v in table.items()}
        self.trained = True

    def predict(self, query, kb, k):
        preds = self.table.get((query.h, query.r), [])
        return [RankedPrediction(e, s) for e, s in preds[:k] if s != float("-inf")]


@pytest.fixture()
def loopback():
    """``loopback(handler, server_class=HTTPServer)`` starts a server for
    ``handler`` on a free 127.0.0.1 port, serving from a thread, and returns
    it. After the test every server it started is shut down, its thread
    joined and its socket closed."""
    started = []

    def start(handler, server_class=HTTPServer):
        server = server_class(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        thread.join()
        server.server_close()


WOODROW_ENTITIES = {
    "Q34296": ("Woodrow Wilson", "28th president of the United States"),
    "Q1075103": ("Davidson College", "liberal arts college in North Carolina"),
    "Q995265": ("Bryn Mawr College", "women's college in Pennsylvania"),
    "Q213439": ("University of Virginia", "public university in Charlottesville"),
    "Q21578": ("Princeton University", "private university in New Jersey"),
    "Q193727": ("Johns Hopkins University", "private university in Baltimore"),
}

WOODROW_RELATIONS = {
    "P69": (
        "educated at",
        "educational institution attended by the subject",
        "[Human], educated at, [Educational Institution]",
    ),
    "P108": (
        "employer",
        "person or organization the subject works or worked for",
        "[Human], employer, [Organization]",
    ),
}

WOODROW_TRIPLES = [
    ("Q34296", "P69", "Q1075103"),
    ("Q34296", "P108", "Q995265"),
    ("Q34296", "P69", "Q213439"),
]

WOODROW_GOLD = [
    "Davidson College",
    "University of Virginia School of Law",
    "Princeton University",
    "Johns Hopkins University",
]


@pytest.fixture
def woodrow_kb() -> KnowledgeBase:
    return make_kb(WOODROW_TRIPLES, entities=WOODROW_ENTITIES, relations=WOODROW_RELATIONS)


SHAKESPEARE_ENTITIES = {
    "Q692": ("William Shakespeare", "English playwright and poet (1564-1616)"),
    "Q234110": ("Judith Quiney", "daughter of William Shakespeare"),
    "Q2566101": ("John Shakespeare", "father of William Shakespeare, glover and politician"),
    "Q2272245": ("Mary Shakespeare", "mother of William Shakespeare"),
    "Q2338063": ("Joan Shakespeare", "sister of William Shakespeare"),
    "Q215114": ("merchant", "businessperson trading goods"),
    "Q82955": ("politician", "person involved in politics"),
    "Q36180": ("writer", "person who writes books or other texts"),
}

SHAKESPEARE_RELATIONS = {
    "P22": ("father", "male parent of the subject", "[Human], father, [Human]"),
    "P25": ("mother", "female parent of the subject", "[Human], mother, [Human]"),
    "P26": ("spouse", "the subject's married partner", "[Human], spouse, [Human]"),
    "P40": ("child", "subject has this person as their offspring", "[Human], child, [Human]"),
    "P106": ("occupation", "job or profession of the subject", "[Human], occupation, [Occupation]"),
}

SHAKESPEARE_TRIPLES = [
    ("Q234110", "P22", "Q692"),     # Judith Quiney, father, William Shakespeare
    ("Q2566101", "P40", "Q2338063"),  # John Shakespeare, child, Joan Shakespeare
    ("Q2272245", "P26", "Q2566101"),  # Mary Shakespeare, spouse, John Shakespeare
    ("Q2272245", "P106", "Q36180"),   # Mary Shakespeare, occupation, writer
]


@pytest.fixture
def shakespeare_kb() -> KnowledgeBase:
    return make_kb(SHAKESPEARE_TRIPLES, entities=SHAKESPEARE_ENTITIES, relations=SHAKESPEARE_RELATIONS)


BIEBER_ENTITIES = {
    "Q34086": ("Justin Bieber", "Canadian singer (born 1994)"),
    "Q22092": ("Pattie Mallette", "Canadian author"),
    "Q16857317": ("Jazmyn Bieber", "sister of Justin Bieber"),
    "Q16004214": ("Jeremy Bieber", "father of Justin Bieber"),
}

BIEBER_RELATIONS = {
    "P22": ("father", "male parent of the subject", "[Human], father, [Human]"),
    "P25": ("mother", "female parent of the subject", "[Human], mother, [Human]"),
    "P3373": ("sibling", "brother or sister of the subject", "[Human], sibling, [Human]"),
}

BIEBER_TRIPLES = [
    ("Q34086", "P25", "Q22092"),
    ("Q34086", "P3373", "Q16857317"),
]


@pytest.fixture
def bieber_kb() -> KnowledgeBase:
    return make_kb(BIEBER_TRIPLES, entities=BIEBER_ENTITIES, relations=BIEBER_RELATIONS)
