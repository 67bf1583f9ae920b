"""Triple store with an incidence index, a label catalog, and context selection.

A knowledge base is a set of directed (head, relation, tail) triples plus
surface records (labels, descriptions) for entities and relations. Its
entities are those of its records, so an entity with no edge is still one of
them.

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
      * ``incidence``: entity id -> the triples incident to it, in either
        direction, a self-loop listed once, unordered (:meth:`neighbors`,
        :meth:`relations_of`)
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
        self._relation_catalog: dict[str, list[RelationId]] = {}
        for r, rec in sorted(self.relations.items()):
            self._relation_catalog.setdefault(normalize_label(rec.label), []).append(r)

        # one pass over the distinct triples fills the set and the incidence lists
        triple_set, incidence = set(), {}
        for t in triples:
            if t in triple_set:
                continue
            triple_set.add(t)
            incidence.setdefault(t[0], []).append(t)
            if t[2] != t[0]:
                incidence.setdefault(t[2], []).append(t)
        self.triples: set[Triple] = triple_set
        self.incidence: dict[EntityId, list[Triple]] = incidence

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
        """Relation id -> entities incident to it, for co-occurrence
        counting. Built on first use."""
        incident = {}
        for h, r, t in self.triples:
            incident.setdefault(r, set()).update((h, t))
        return incident

    # -- graph queries ----------------------------------------------------

    def neighbors(self, e: EntityId) -> list[Triple]:
        """All triples incident to ``e`` in either direction, sorted by
        (relation, counterpart, head, tail)."""
        self.entity(e)
        return sorted(self.incidence.get(e, ()),
                      key=lambda t: (t[1], t[2] if t[0] == e else t[0], t[0], t[2]))

    def relations_of(self, e: EntityId) -> set[RelationId]:
        """Relations incident to ``e`` in either direction."""
        self.entity(e)
        return {r for _, r, _ in self.incidence.get(e, ())}

    def cooccurrence_score(self, r: RelationId, r_hat: RelationId) -> int:
        """Number of entities incident to both ``r`` and ``r_hat``.

        Symmetric in its arguments: an entity counts when both relations
        appear among its incident (either-direction) triples.
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


def _numbered_lines(path):
    """``(line number, line)`` pairs of a UTF-8 text file, as ``enumerate``
    gives them. A file that cannot be opened raises :class:`KbLoadError`
    naming it, and a byte that is not UTF-8 one naming its line."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise KbLoadError(f"{path}: {exc.strerror}") from None
    with fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            # rescanned only after the failure: the good path reads the file once
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        raise KbLoadError(f"{path}:{lineno}: not valid UTF-8") from None
            raise KbLoadError(f"{path}: not valid UTF-8") from None


def _read_records(path, record, what) -> dict:
    """The ``id<TAB>label[<TAB>...]`` lines of ``path`` as ``record`` tuples by
    id, in file order, blank lines skipped. A line of fewer than two or more
    fields than ``record`` has, an empty id, a repeated id or an empty label
    raises :class:`KbLoadError` naming ``path:line``."""
    records = {}
    max_cols = len(record._fields)
    for lineno, raw in _numbered_lines(path):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if not 2 <= len(parts) <= max_cols:
            raise KbLoadError(
                f"{path}:{lineno}: malformed {what} line "
                f"(expected 2-{max_cols} tab-separated fields, got {len(parts)})"
            )
        rid, label = parts[:2]
        if not rid:
            raise KbLoadError(f"{path}:{lineno}: empty {what} id")
        if rid in records:
            raise KbLoadError(f"{path}:{lineno}: duplicate {what} id {rid!r}")
        if not label:
            raise KbLoadError(f"{path}:{lineno}: empty label for {what} {rid!r}")
        records[rid] = record(*parts)
    return records


def read_triples(path, entities=None, relations=None) -> list[Triple]:
    """Read ``head<TAB>relation<TAB>tail`` lines, skipping blank ones.

    A line without exactly three fields raises :class:`KbLoadError` naming
    ``path:line``. Given the known ``entities`` and ``relations`` ids, so
    does a line that references any other id. So does a line that is not
    UTF-8, and a file that cannot be opened raises it naming ``path``.
    """
    triples = []
    for lineno, line in _numbered_lines(path):
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
    with open(path, "rb") as fh:
        return parse_jsonl(fh, path)


def parse_jsonl(lines, path) -> list[tuple[int, dict]]:
    """:func:`read_jsonl`'s rules over ``lines``, the byte lines of ``path``
    already read."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:  # decoded per line, so bad UTF-8 is named by line too
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
    repeated triples are kept. The two record files share one check (empty
    ids, duplicate ids, empty labels, too few or too many fields), and the
    triples are checked against their ids. A failed check, a malformed
    triple line and bytes that are not UTF-8 raise :class:`KbLoadError` with
    the offending line number; a file that cannot be opened raises it naming
    the file.
    """
    entities = _read_records(entities_path, EntityRecord, "entity")
    relations = _read_records(relations_path, RelationRecord, "relation")
    triples = read_triples(triples_path, entities, relations)
    return list(entities.values()), list(relations.values()), triples


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


def degrade(train, keep_fraction: float, seed: int) -> set[Triple]:
    """Randomly keep ``keep_fraction`` of the distinct training edges, and
    add none. Rounding is half-up. Deterministic under ``seed``. Raises
    ``ValueError`` when that keeps no edge."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    # sorted() is linear on an already sorted split; groupby drops repeats
    pool = [t for t, _ in itertools.groupby(sorted(train))]
    keep_n = int(keep_fraction * len(pool) + 0.5)
    if keep_n == 0:
        raise ValueError(f"keep_fraction {keep_fraction} keeps none of the {len(pool)} training edges")
    return set(random.Random(seed).sample(pool, keep_n))
