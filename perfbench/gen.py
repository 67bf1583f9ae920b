"""Seeded input generators for the pipeline benchmark.

``write_kb(spec, seed, out_dir)`` writes the KB as three TSV files;
``write_questions(kb, seed, out_dir, working_path)``, called once
``kb prepare`` has written the working graph, writes the train/test QA sets
as JSONL and returns the benchmark-side data the program never sees: the
stand-in's plan table and the gold answers. The same spec and seed give
byte-identical files.

Make-up of a KB (see README.md for the numbers per workload):

* entities fall into typed groups; every relation maps one source type to
  one destination type, in the manner of the acceptance suite's typed KB;
* a share of the relations are hub relations: most of their triples end in
  one hub entity of the destination type, so a trained completer can rank
  the hub first;
* a share of the entities copy the label of another entity of a different
  type (colliding labels), told apart only by their descriptions;
* relation labels are two words from a fixed vocabulary, with a description
  and a ``[Head], label, [Tail]`` schema.

Questions are one- or two-hop tail questions about the full KB. Each hop
carries a plan: the first action (Search, Complete or Generate) and the
fallback the stand-in takes when Search does not observe the answer. Plan
kinds and hop counts follow fixed cycles over the question index, so every
seed gets the same mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

_SYLLABLES = (
    "ka ri to na mel vos ter lin da gor pe sha bri lo mun ta vek sel or ian "
    "dor fa ne quo ras tel bo ci han ule mar pri zen ost ka ly dro wen fi"
).split()
_WORDS = (
    "amber harbor member crest valley signal anchor border canal cedar "
    "charter circle copper delta engine falcon garden granite guild harvest "
    "island lantern ledger marble meadow mirror orbit parish pilot quarry "
    "ranger ribbon saddle summit timber tower vessel warden willow zenith"
).split()
_TYPE_WORDS = (
    "person city river company film album university country award language "
    "team planet ship bridge festival novel mountain museum airport species"
).split()


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs."""

    n_types: int
    type_size: int
    n_relations: int
    n_triples: int
    hub_relation_share: float  # relations whose tails concentrate on a hub
    hub_tail_share: float      # share of a hub relation's triples that end in its hub
    collision_share: float     # entities whose label copies another entity's
    n_train_questions: int
    n_test_questions: int
    two_hop_share: float
    # the first action of each question's first hop, cycled over the
    # question index, for the training and the test questions
    train_actions: tuple = ("search", "search", "complete", "search", "generate",
                            "search", "complete", "search", "generate", "search")
    test_actions: tuple = train_actions

    @property
    def n_entities(self) -> int:
        return self.n_types * self.type_size


MALFORMED_EVERY = 8  # every 8th question's first reply is malformed
TWO_HOP_CYCLE = 20


def _names(rng: random.Random, n: int, words: int) -> list[str]:
    seen, out = set(), []
    while len(out) < n:
        name = " ".join(
            "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()
            for _ in range(words)
        )
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _type_names(n: int) -> list[str]:
    return [_TYPE_WORDS[i % len(_TYPE_WORDS)] + ("" if i < len(_TYPE_WORDS) else f" {i // len(_TYPE_WORDS)}")
            for i in range(n)]


class Kb:
    """The generated KB, kept in id form for question making and checks."""

    def __init__(self, spec: Spec, rng: random.Random):
        self.spec = spec
        types = _type_names(spec.n_types)
        labels = _names(rng, spec.n_entities, 2)
        self.entities: dict[str, tuple[str, str]] = {}
        self.entity_type: dict[str, int] = {}
        ids = []
        for g in range(spec.n_types):
            for i in range(spec.type_size):
                eid = f"Q{g * spec.type_size + i + 1}"
                ids.append(eid)
                self.entity_type[eid] = g
        places = _names(rng, spec.n_entities, 1)
        for k, eid in enumerate(ids):
            self.entities[eid] = (labels[k], f"{types[self.entity_type[eid]]} from {places[k]}")
        # colliding labels: copy the label of an entity of another type
        n_coll = int(spec.collision_share * spec.n_entities)
        for eid in rng.sample(ids, n_coll):
            other = rng.choice(ids)
            if self.entity_type[other] != self.entity_type[eid]:
                self.entities[eid] = (self.entities[other][0], self.entities[eid][1])

        pairs = [(a, b) for a in _WORDS for b in _WORDS if a != b]
        rng.shuffle(pairs)
        self.relations: dict[str, tuple[str, str, str]] = {}
        self.arrow: dict[str, tuple[int, int]] = {}
        self.hub: dict[str, str] = {}
        for j in range(spec.n_relations):
            rid = f"P{j + 1}"
            a, b = pairs[j]
            src, dst = rng.randrange(spec.n_types), rng.randrange(spec.n_types)
            self.arrow[rid] = (src, dst)
            label = f"{a} {b}"
            desc = f"links a {types[src]} to the {types[dst]} that serves as its {b} of {a}"
            schema = f"[{types[src].title()}], {label}, [{types[dst].title()}]"
            self.relations[rid] = (label, desc, schema)
            if rng.random() < spec.hub_relation_share:
                self.hub[rid] = self._member(dst, rng)

        rels = sorted(self.relations)
        triples: set[tuple[str, str, str]] = set()
        while len(triples) < spec.n_triples:
            r = rng.choice(rels)
            src, dst = self.arrow[r]
            h = self._member(src, rng)
            if r in self.hub and rng.random() < spec.hub_tail_share:
                t = self.hub[r]
            else:
                t = self._member(dst, rng)
            if h != t:
                triples.add((h, r, t))
        self.triples = sorted(triples)
        self.out: dict[tuple[str, str], list[str]] = {}
        for h, r, t in self.triples:
            self.out.setdefault((h, r), []).append(t)

    def _member(self, g: int, rng: random.Random) -> str:
        return f"Q{g * self.spec.type_size + rng.randrange(self.spec.type_size) + 1}"

    def label(self, eid: str) -> str:
        return self.entities[eid][0]

    def rel_label(self, rid: str) -> str:
        return self.relations[rid][0]

    def collides(self) -> set[str]:
        seen: dict[str, int] = {}
        for label, _ in self.entities.values():
            seen[label] = seen.get(label, 0) + 1
        return {eid for eid, (label, _) in self.entities.items() if seen[label] > 1}

    def write(self, out_dir: Path) -> None:
        with open(out_dir / "entities.tsv", "w", encoding="utf-8") as fh:
            for eid, (label, desc) in self.entities.items():
                fh.write(f"{eid}\t{label}\t{desc}\n")
        with open(out_dir / "relations.tsv", "w", encoding="utf-8") as fh:
            for rid, (label, desc, schema) in self.relations.items():
                fh.write(f"{rid}\t{label}\t{desc}\t{schema}\n")
        with open(out_dir / "triples.tsv", "w", encoding="utf-8") as fh:
            for h, r, t in self.triples:
                fh.write(f"{h}\t{r}\t{t}\n")


def _questions(kb: Kb, working: set, rng: random.Random, n: int, taken: set[str],
               actions: tuple) -> list[dict]:
    """``n`` unique questions with their plans and gold answers.

    A first hop has one answer. Search asks about an edge the working graph
    kept, Complete (on a hub relation, the completer's strong case) and
    Generate about one it lost, as an agent would; a second hop searches a
    kept edge. So which actions run, and how often, is fixed by the cycles
    and does not depend on the seed.
    """
    collide = kb.collides()
    single = [k for k, tails in kb.out.items() if len(tails) == 1]
    kept = lambda k: all((k[0], k[1], t) in working for t in kb.out[k])  # noqa: E731
    pools = {
        "search": [k for k in single if kept(k)],
        "complete": [k for k in single if not kept(k) and kb.hub.get(k[1]) == kb.out[k][0]],
        "generate": [k for k in single if not kept(k)],
    }
    second: dict[str, list] = {}
    for k, tails in kb.out.items():
        if len(tails) <= 3 and kept(k):
            second.setdefault(k[0], []).append(k)
    out = []
    i = attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 100 * n + 1000:
            raise ValueError("the KB is too small for the requested questions")
        # the plan's kinds follow cycles over the question index i, which
        # only advances once a question is accepted
        first = actions[i % len(actions)]
        chain = [rng.choice(pools[first])]
        if i % TWO_HOP_CYCLE < round(kb.spec.two_hop_share * TWO_HOP_CYCLE):
            nexts = second.get(kb.out[chain[0]][0])
            if not nexts:
                continue
            chain.append(rng.choice(nexts))
        topic = chain[0][0]
        text = f"what is the {kb.rel_label(chain[-1][1])}"
        for _, rr in reversed(chain[:-1]):
            text += f" of the {kb.rel_label(rr)}"
        text += f" of {kb.label(topic)}"
        if topic in collide:
            text += f", the {kb.entities[topic][1]}"
        text += "?"
        if text in taken:
            continue
        taken.add(text)
        hops = []
        for k, (e, rr) in enumerate(chain):
            kind = first if k == 0 else "search"
            hops.append({
                "entity": kb.label(e),
                "desc": kb.entities[e][1] if e in collide else "",
                "rel": kb.rel_label(rr),
                "first": kind,
                "fallback": "complete" if kind == "search" else None,
                "answers": sorted({kb.label(t) for t in kb.out[(e, rr)]}),
            })
        out.append({
            "question": text,
            "topic": topic,
            "answers": hops[-1]["answers"],
            "hops": hops,
            "malformed": i % MALFORMED_EVERY == 3,
        })
        i += 1
    return out


def write_kb(spec: Spec, seed: int, out_dir) -> Kb:
    """Write the KB's three TSV files into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kb = Kb(spec, random.Random(seed))
    kb.write(out_dir)
    return kb


def write_questions(kb: Kb, seed: int, out_dir, working_path) -> dict:
    """Write the train and test QA sets and return the plan table.

    ``working_path`` is the working graph ``kb prepare`` wrote. The table
    holds, per question, the hops and gold answers, and the stand-in's
    facts: (entity label, relation label) -> tail labels for every hop, what
    the stand-in "knows" when asked to Generate. Facts name only entities
    the KB has.
    """
    out_dir = Path(out_dir)
    with open(working_path, encoding="utf-8") as fh:
        working = {tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()}
    rng = random.Random(f"questions:{seed}")
    taken: set[str] = set()
    train = _questions(kb, working, rng, kb.spec.n_train_questions, taken, kb.spec.train_actions)
    test = _questions(kb, working, rng, kb.spec.n_test_questions, taken, kb.spec.test_actions)
    for name, rows in (("qa_train.jsonl", train), ("qa_test.jsonl", test)):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            for q in rows:
                fh.write(json.dumps({"question": q["question"], "topic_entities": [q["topic"]],
                                     "answers": q["answers"]}, ensure_ascii=False) + "\n")
    facts: dict[str, list[str]] = {}
    for q in train + test:
        for hop in q["hops"]:
            facts.setdefault(f"{hop['entity']}|{hop['rel']}", hop["answers"])
    return {
        "questions": {q["question"]: {k: q[k] for k in ("answers", "hops", "malformed")}
                      for q in train + test},
        "facts": facts,
        "train": [q["question"] for q in train],
        "test": [q["question"] for q in test],
        "entity_labels": sorted({label for label, _ in kb.entities.values()}),
        "entity_ids": sorted(kb.entities),
        "relation_ids": sorted(kb.relations),
        "n_entities": kb.spec.n_entities,
    }
