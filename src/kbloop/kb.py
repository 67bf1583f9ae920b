"""Triple store with adjacency indexes, a label catalog, and context selection.

A knowledge base is a set of directed (head, relation, tail) triples plus
surface records (labels, descriptions) for entities and relations. The
reserved relation ``noop`` marks the self-loop attached to entities left
without edges after degradation, so no entity ever disappears from the graph.

The store is immutable after construction: its entities, relations and
triples are fixed when it is built, so it is safe for concurrent readers, and
a completer built over it keeps the same vocabulary for its whole life. A
different triple set is a new store.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import random
from dataclasses import dataclass
from typing import NamedTuple

logger = logging.getLogger(__name__)

NOOP_RELATION = "noop"

EntityId = str
RelationId = str


class KbError(Exception):
    """Base class for knowledge-base errors."""


class KbLoadError(KbError):
    """Raised when an input file is malformed or references unknown identifiers."""


class UnknownEntityError(KbError):
    """Lookup of an entity id that is not in the KB."""


class UnknownRelationError(KbError):
    """Lookup of a relation id that is not in the KB."""


def normalize_label(surface: str) -> str:
    """Canonical form for catalog lookups and answer matching: collapse
    whitespace, casefold."""
    return " ".join(surface.split()).casefold()


class Triple(NamedTuple):
    """A directed edge. A plain immutable tuple: it sorts, compares and
    hashes as ``(head, relation, tail)``."""

    head: EntityId
    relation: RelationId
    tail: EntityId


class EntityRecord(NamedTuple):
    id: EntityId
    label: str
    description: str = ""


class RelationRecord(NamedTuple):
    id: RelationId
    label: str
    description: str = ""
    schema: str = ""


@dataclass(frozen=True)
class SplitBundle:
    """Disjoint train/valid/test triple partitions."""

    train: tuple[Triple, ...]
    valid: tuple[Triple, ...]
    test: tuple[Triple, ...]


class KnowledgeBase:
    """Indexed triple store over entity/relation records.

    The records and triples are indexed as given, repeated triples dropped:
    :func:`read_kb` checks the files they come from, and nothing here checks
    them again (a caller building a store in code owes the same checks).

    Indexes kept in sync with ``triples``:
      * ``out_index``: head id -> triples with that head
      * ``in_index``: tail id -> triples with that tail
      * ``_catalog``: normalized entity label -> sorted entity ids (:meth:`lookup_label`)
      * ``_relation_catalog``: normalized relation label -> sorted relation ids
        (:meth:`lookup_relation_label`)
      * ``relation_index``: BM25 over relation label + description, built on
        first use (relation linking)
      * ``entity_index``: entity id -> position in ascending id order, the
        candidate order of completer tail scores, built on first use
      * ``_relation_entities``: relation id -> incident entities, for
        :meth:`select_context`, built on first use
    """

    def __init__(self, entities, relations, triples):
        self.entities: dict[EntityId, EntityRecord] = {}
        self.relations: dict[RelationId, RelationRecord] = {}
        self._catalog: dict[str, list[EntityId]] = {}
        for rec in entities:
            self.entities[rec.id] = rec
            self._catalog.setdefault(normalize_label(rec.label), []).append(rec.id)
        for ids in self._catalog.values():
            ids.sort()
        for rec in relations:
            self.relations[rec.id] = rec
        if NOOP_RELATION not in self.relations:
            self.relations[NOOP_RELATION] = RelationRecord(
                NOOP_RELATION, NOOP_RELATION, "self-loop placeholder for isolated entities"
            )
        self._relation_catalog: dict[str, list[RelationId]] = {}
        for r, rec in sorted(self.relations.items()):
            self._relation_catalog.setdefault(normalize_label(rec.label), []).append(r)

        # one pass over the distinct triples fills the set and both adjacency lists
        triple_set, out_index, in_index = set(), {}, {}
        for t in triples:
            if t in triple_set:
                continue
            triple_set.add(t)
            out_index.setdefault(t[0], []).append(t)
            in_index.setdefault(t[2], []).append(t)
        for adj in (out_index, in_index):
            for ts in adj.values():
                ts.sort()
        self.triples: set[Triple] = triple_set
        self.out_index: dict[EntityId, list[Triple]] = out_index
        self.in_index: dict[EntityId, list[Triple]] = in_index

    # -- lookups ----------------------------------------------------------

    def entity(self, e: EntityId) -> EntityRecord:
        try:
            return self.entities[e]
        except KeyError:
            raise UnknownEntityError(f"unknown entity {e!r}") from None

    def relation(self, r: RelationId) -> RelationRecord:
        try:
            return self.relations[r]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {r!r}") from None

    def label_of(self, e: EntityId) -> str:
        return self.entity(e).label

    def relation_label(self, r: RelationId) -> str:
        return self.relation(r).label

    def lookup_label(self, surface: str) -> tuple[EntityId, ...]:
        """All entity ids whose label matches ``surface`` (normalized), sorted."""
        return tuple(self._catalog.get(normalize_label(surface), ()))

    def lookup_relation_label(self, surface: str) -> tuple[RelationId, ...]:
        """All relation ids whose label matches ``surface`` (normalized), sorted."""
        return tuple(self._relation_catalog.get(normalize_label(surface), ()))

    @functools.cached_property
    def relation_index(self):
        """BM25 index over ``label description`` of every relation, in id
        order, for relation linking. Built on first use; the store is
        immutable, so one index serves it for life."""
        from .retrieval import Bm25Index, Document  # retrieval imports kb

        return Bm25Index(
            Document(doc_id=rid, text=f"{rec.label} {rec.description}")
            for rid, rec in sorted(self.relations.items())
        )

    @functools.cached_property
    def entity_index(self) -> dict[EntityId, int]:
        """Entity id -> position in ascending id order. This is the candidate
        order of ``tail_scores`` and of the completer's embedding rows."""
        return {e: i for i, e in enumerate(sorted(self.entities))}

    @functools.cached_property
    def _relation_entities(self) -> dict[RelationId, set[EntityId]]:
        """Relation id -> entities incident to it, noop excluded, for
        co-occurrence counting. Built on first use."""
        incident = {}
        for h, r, t in self.triples:
            if r != NOOP_RELATION:
                incident.setdefault(r, set()).update((h, t))
        return incident

    # -- graph queries ----------------------------------------------------

    def neighbors(self, e: EntityId) -> list[Triple]:
        """All triples incident to ``e`` in either direction, noop loops
        excluded, sorted by (relation, counterpart, head, tail)."""
        self.entity(e)
        # a self-loop is in both lists; it is taken from the outgoing one
        found = [t for t in self.out_index.get(e, ()) if t[1] != NOOP_RELATION]
        found += [t for t in self.in_index.get(e, ()) if t[1] != NOOP_RELATION and t[0] != e]
        found.sort(key=lambda t: (t[1], t[2] if t[0] == e else t[0], t[0], t[2]))
        return found

    def relations_of(self, e: EntityId) -> set[RelationId]:
        """Relations incident to ``e`` in either direction, noop excluded."""
        self.entity(e)
        rels = {r for _, r, _ in self.out_index.get(e, ())}
        rels.update(r for _, r, _ in self.in_index.get(e, ()))
        rels.discard(NOOP_RELATION)
        return rels

    def cooccurrence_score(self, r: RelationId, r_hat: RelationId) -> int:
        """Number of entities incident to both ``r`` and ``r_hat``.

        Symmetric in its arguments: an entity counts when both relations
        appear among its incident (either-direction) non-noop triples.
        """
        self.relation(r)
        self.relation(r_hat)
        a = self._relation_entities.get(r, set())
        b = self._relation_entities.get(r_hat, set())
        if len(b) < len(a):
            a, b = b, a
        return sum(1 for e in a if e in b)

    def select_context(self, h: EntityId, r: RelationId, max_size: int = 20) -> list[Triple]:
        """Neighbor triples of ``h`` ranked by co-occurrence with ``r``.

        Descending score, ties broken by (relation id, counterpart id)
        ascending. Outgoing triples of ``h`` labeled ``r`` are excluded: their
        tail is exactly the unknown a completion query asks for, so keeping
        them would leak the answer into the context.
        """
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.relation(r)
        ranked = []
        for t in self.neighbors(h):
            head, rel, tail = t
            if head == h and rel == r:
                continue
            counterpart = tail if head == h else head
            ranked.append((-self.cooccurrence_score(r, rel), rel, counterpart, t))
        ranked.sort()
        return [item[3] for item in ranked[:max_size]]


# ---------------------------------------------------------------------------
# file loading


def _read_rows(path, min_cols, max_cols, what):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if not (min_cols <= len(parts) <= max_cols):
                raise KbLoadError(
                    f"{path}:{lineno}: malformed {what} line "
                    f"(expected {min_cols}-{max_cols} tab-separated fields, got {len(parts)})"
                )
            parts += [""] * (max_cols - len(parts))
            rows.append((lineno, parts))
    return rows


def read_triples(path, entities=None, relations=None) -> list[Triple]:
    """Read ``head<TAB>relation<TAB>tail`` lines, skipping blank ones.

    A line without exactly three fields raises :class:`KbLoadError` naming
    ``path:line``. Given the known ``entities`` and ``relations`` ids, so
    does a line that references any other id.
    """
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                h, r, t = fields
            except ValueError:
                raise KbLoadError(
                    f"{path}:{lineno}: malformed triple line "
                    f"(expected 3 tab-separated fields, got {len(fields)})"
                ) from None
            if entities is not None:
                for eid in (h, t):
                    if eid not in entities:
                        raise KbLoadError(f"{path}:{lineno}: triple references unknown entity {eid!r}")
                if r not in relations:
                    raise KbLoadError(f"{path}:{lineno}: triple references unknown relation {r!r}")
            triples.append(Triple(h, r, t))
    return triples


def read_jsonl(path) -> list[tuple[int, dict]]:
    """Read one JSON object per line, skipping blank lines, as
    ``(line number, object)`` pairs in file order.

    A line that is not a JSON object raises :class:`KbLoadError` naming
    ``path:line``; the caller checks the object's keys.
    """
    records = []
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 is named by line too
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError:
                raise KbLoadError(f"{path}:{lineno}: not valid UTF-8") from None
            except json.JSONDecodeError as exc:
                raise KbLoadError(f"{path}:{lineno}: not valid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise KbLoadError(f"{path}:{lineno}: expected a JSON object")
            records.append((lineno, record))
    return records


def read_kb(triples_path, entities_path, relations_path):
    """Read and check the three tab-separated KB files, without indexing.

    * triples: ``head<TAB>relation<TAB>tail``
    * entities: ``id<TAB>label[<TAB>description]``
    * relations: ``id<TAB>label[<TAB>description[<TAB>schema]]``

    Returns ``(entities, relations, triples)`` as lists in file order;
    repeated triples are kept. Empty entity ids, duplicate ids, empty labels, dangling
    references and malformed lines raise :class:`KbLoadError` with the
    offending line number.
    """
    entities = []
    seen_entities = set()
    for lineno, (eid, label, desc) in _read_rows(entities_path, 2, 3, "entity"):
        if not eid:
            raise KbLoadError(f"{entities_path}:{lineno}: empty entity id")
        if eid in seen_entities:
            raise KbLoadError(f"{entities_path}:{lineno}: duplicate entity id {eid!r}")
        if not label:
            raise KbLoadError(f"{entities_path}:{lineno}: empty label for entity {eid!r}")
        seen_entities.add(eid)
        entities.append(EntityRecord(eid, label, desc))

    relations = []
    seen_relations = set()
    for lineno, (rid, label, desc, schema) in _read_rows(relations_path, 2, 4, "relation"):
        if rid in seen_relations:
            raise KbLoadError(f"{relations_path}:{lineno}: duplicate relation id {rid!r}")
        if not label:
            raise KbLoadError(f"{relations_path}:{lineno}: empty label for relation {rid!r}")
        seen_relations.add(rid)
        relations.append(RelationRecord(rid, label, desc, schema))
    seen_relations.add(NOOP_RELATION)

    triples = read_triples(triples_path, seen_entities, seen_relations)
    return entities, relations, triples


def load_kb(triples_path, entities_path, relations_path) -> KnowledgeBase:
    """Build a knowledge base from the three files :func:`read_kb` reads.
    Duplicate triples are collapsed."""
    kb = KnowledgeBase(*read_kb(triples_path, entities_path, relations_path))
    logger.info(
        "loaded KB: %d entities, %d relations, %d triples",
        len(kb.entities), len(kb.relations), len(kb.triples),
    )
    return kb


# ---------------------------------------------------------------------------
# splitting and degradation


def split(triples, n_valid: int, n_test: int, seed: int) -> SplitBundle:
    """Deterministically partition the distinct ``triples`` into
    train/valid/test."""
    if n_valid < 0 or n_test < 0:
        raise ValueError("split sizes must be non-negative")
    pool = sorted(set(triples))
    if n_valid + n_test >= len(pool):
        raise ValueError(
            f"n_valid + n_test = {n_valid + n_test} must be smaller than |triples| = {len(pool)}"
        )
    shuffled = list(pool)
    random.Random(seed).shuffle(shuffled)
    valid = tuple(sorted(shuffled[:n_valid]))
    test = tuple(sorted(shuffled[n_valid:n_valid + n_test]))
    # the rest of the pool, in its sorted order: no sort of the shuffled bulk
    held_out = set(valid).union(test)
    train = tuple(itertools.filterfalse(held_out.__contains__, pool))
    return SplitBundle(train=train, valid=valid, test=test)


def degrade(train, keep_fraction: float, seed: int, entities) -> set[Triple]:
    """Randomly keep ``keep_fraction`` of the training edges.

    Every id in ``entities`` left with no kept non-noop triple receives a single
    ``noop`` self-loop so the degraded graph still covers the full entity set.
    ``keep_fraction == 1.0`` is the identity (no loops added). Rounding is
    half-up. Deterministic under ``seed``.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    # sorted() is linear on an already sorted split; groupby drops repeats
    pool = [t for t, _ in itertools.groupby(sorted(train))]
    if keep_fraction == 1.0:
        return set(pool)
    keep_n = int(keep_fraction * len(pool) + 0.5)
    rng = random.Random(seed)
    kept = set(rng.sample(pool, keep_n))
    covered = set()
    for h, r, t in kept:
        if r != NOOP_RELATION:
            covered.add(h)
            covered.add(t)
    kept.update(Triple(e, NOOP_RELATION, e) for e in entities if e not in covered)
    return kept
