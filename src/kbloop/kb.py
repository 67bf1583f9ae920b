"""Triple store with adjacency indexes, a label catalog, and context selection.

A knowledge base is a set of directed (head, relation, tail) triples plus
surface records (labels, descriptions) for entities and relations. The
reserved relation ``noop`` marks the self-loop attached to entities left
without edges after degradation, so no entity ever disappears from the graph.

The store is built single-threaded and is safe for concurrent readers
afterwards. The only post-construction mutation is :meth:`KnowledgeBase.register_entity`,
used by the joint-training loop when a reasoning path introduces a new entity
(single writer).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

logger = logging.getLogger(__name__)

NOOP_RELATION = "noop"

EntityId = str
RelationId = str


class KbError(Exception):
    """Base class for knowledge-base errors."""


class KbLoadError(KbError):
    """Raised when an input file is malformed or references unknown identifiers."""


class UnknownEntityError(KbError):
    """Lookup of an entity id that is not registered."""


class UnknownRelationError(KbError):
    """Lookup of a relation id that is not registered."""


def normalize_label(surface: str) -> str:
    """Canonical form for catalog lookups and answer matching: collapse
    whitespace, casefold."""
    return " ".join(surface.split()).casefold()


@dataclass(frozen=True, order=True)
class Triple:
    head: EntityId
    relation: RelationId
    tail: EntityId

    def is_noop(self) -> bool:
        return self.relation == NOOP_RELATION


@dataclass(frozen=True)
class EntityRecord:
    id: EntityId
    label: str
    description: str = ""


@dataclass(frozen=True)
class RelationRecord:
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

    Indexes kept in sync with ``triples``:
      * ``out_index``: head id -> triples with that head
      * ``in_index``: tail id -> triples with that tail
      * ``_catalog``: normalized entity label -> sorted entity ids (:meth:`lookup_label`)
    """

    def __init__(self, entities, relations, triples):
        self.entities: dict[EntityId, EntityRecord] = {}
        self.relations: dict[RelationId, RelationRecord] = {}
        self._catalog: dict[str, list[EntityId]] = {}
        for rec in entities:
            self.register_entity(rec)
        for rec in relations:
            if not rec.label:
                raise KbLoadError(f"relation {rec.id!r} has an empty label")
            self.relations[rec.id] = rec
        if NOOP_RELATION not in self.relations:
            self.relations[NOOP_RELATION] = RelationRecord(
                NOOP_RELATION, NOOP_RELATION, "self-loop placeholder for isolated entities"
            )

        self.triples: set[Triple] = set()
        self.out_index: dict[EntityId, list[Triple]] = {}
        self.in_index: dict[EntityId, list[Triple]] = {}
        for t in triples:
            self._add_triple(t)
        for adj in (self.out_index, self.in_index):
            for key in adj:
                adj[key].sort()

        # relation id -> set of incident entities, for co-occurrence counting
        self._relation_entities: dict[RelationId, set[EntityId]] = {
            r: set() for r in self.relations
        }
        for t in self.triples:
            if not t.is_noop():
                self._relation_entities[t.relation].add(t.head)
                self._relation_entities[t.relation].add(t.tail)

    # -- construction ----------------------------------------------------

    def register_entity(self, rec: EntityRecord) -> None:
        if not rec.id:
            raise KbLoadError("entity id must be non-empty")
        if not rec.label:
            raise KbLoadError(f"entity {rec.id!r} has an empty label")
        if rec.id in self.entities:
            raise KbLoadError(f"duplicate entity id {rec.id!r}")
        self.entities[rec.id] = rec
        key = normalize_label(rec.label)
        ids = self._catalog.setdefault(key, [])
        ids.append(rec.id)
        ids.sort()

    def _add_triple(self, t: Triple) -> None:
        if t.head not in self.entities:
            raise UnknownEntityError(f"triple references unknown entity {t.head!r}")
        if t.tail not in self.entities:
            raise UnknownEntityError(f"triple references unknown entity {t.tail!r}")
        if t.relation not in self.relations:
            raise UnknownRelationError(f"triple references unknown relation {t.relation!r}")
        if t in self.triples:
            return
        self.triples.add(t)
        self.out_index.setdefault(t.head, []).append(t)
        self.in_index.setdefault(t.tail, []).append(t)

    def with_triples(self, triples) -> "KnowledgeBase":
        """New store over the same entity/relation records but a different
        triple set (e.g. the degraded training graph)."""
        return KnowledgeBase(self.entities.values(), self.relations.values(), triples)

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
        key = normalize_label(surface)
        return tuple(
            sorted(r for r, rec in self.relations.items() if normalize_label(rec.label) == key)
        )

    # -- graph queries ----------------------------------------------------

    def neighbors(self, e: EntityId) -> list[Triple]:
        """All triples incident to ``e`` in either direction, noop loops
        excluded, sorted by (relation, counterpart, head, tail)."""
        self.entity(e)
        seen = set()
        out = []
        for t in self.out_index.get(e, []) + self.in_index.get(e, []):
            if t.is_noop() or t in seen:
                continue
            seen.add(t)
            out.append(t)
        out.sort(key=lambda t: (t.relation, t.tail if t.head == e else t.head, t.head, t.tail))
        return out

    def relations_of(self, e: EntityId) -> set[RelationId]:
        """Relations incident to ``e`` in either direction, noop excluded."""
        self.entity(e)
        rels = set()
        for t in self.out_index.get(e, []) + self.in_index.get(e, []):
            if not t.is_noop():
                rels.add(t.relation)
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
            if t.head == h and t.relation == r:
                continue
            score = self.cooccurrence_score(r, t.relation)
            counterpart = t.tail if t.head == h else t.head
            ranked.append((-score, t.relation, counterpart, t.head, t.tail, t))
        ranked.sort(key=lambda item: item[:5])
        return [item[5] for item in ranked[:max_size]]


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


def load_kb(triples_path, entities_path, relations_path) -> KnowledgeBase:
    """Load a knowledge base from three tab-separated files.

    * triples: ``head<TAB>relation<TAB>tail``
    * entities: ``id<TAB>label[<TAB>description]``
    * relations: ``id<TAB>label[<TAB>description[<TAB>schema]]``

    Duplicate triples are collapsed; dangling references and malformed lines
    raise :class:`KbLoadError` with the offending line number.
    """
    entities = []
    seen_entities = set()
    for lineno, (eid, label, desc) in _read_rows(entities_path, 2, 3, "entity"):
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

    kb = KnowledgeBase(entities, relations, triples)
    logger.info(
        "loaded KB: %d entities, %d relations, %d triples",
        len(kb.entities), len(kb.relations), len(kb.triples),
    )
    return kb


# ---------------------------------------------------------------------------
# splitting and degradation


def split(kb: KnowledgeBase, n_valid: int, n_test: int, seed: int) -> SplitBundle:
    """Deterministically partition the KB's triples into train/valid/test."""
    if n_valid < 0 or n_test < 0:
        raise ValueError("split sizes must be non-negative")
    pool = sorted(kb.triples)
    if n_valid + n_test >= len(pool):
        raise ValueError(
            f"n_valid + n_test = {n_valid + n_test} must be smaller than |triples| = {len(pool)}"
        )
    rng = random.Random(seed)
    rng.shuffle(pool)
    valid = tuple(sorted(pool[:n_valid]))
    test = tuple(sorted(pool[n_valid:n_valid + n_test]))
    train = tuple(sorted(pool[n_valid + n_test:]))
    return SplitBundle(train=train, valid=valid, test=test)


def degrade(train, keep_fraction: float, seed: int, kb: KnowledgeBase) -> set[Triple]:
    """Randomly keep ``keep_fraction`` of the training edges.

    Every KB entity left with no kept non-noop triple receives a single
    ``noop`` self-loop so the degraded graph still covers the full entity set.
    ``keep_fraction == 1.0`` is the identity (no loops added). Rounding is
    half-up. Deterministic under ``seed``.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    pool = sorted(set(train))
    if keep_fraction == 1.0:
        return set(pool)
    keep_n = int(keep_fraction * len(pool) + 0.5)
    rng = random.Random(seed)
    kept = set(rng.sample(pool, keep_n))
    covered = set()
    for t in kept:
        if not t.is_noop():
            covered.add(t.head)
            covered.add(t.tail)
    for e in kb.entities:
        if e not in covered:
            kept.add(Triple(e, NOOP_RELATION, e))
    return kept
