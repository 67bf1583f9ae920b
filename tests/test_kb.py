"""Triple store: loading, splitting, degradation, adjacency, co-occurrence,
and context selection against brute-force oracles."""

import json
import random

import pytest

from kbloop.kb import (
    KbLoadError,
    NOOP_RELATION,
    Triple,
    UnknownEntityError,
    UnknownRelationError,
    degrade,
    load_kb,
    read_jsonl,
    split,
)

from conftest import make_kb, random_kb


def write_kb_files(tmp_path, triples, entities, relations):
    tp = tmp_path / "triples.tsv"
    ep = tmp_path / "entities.tsv"
    rp = tmp_path / "relations.tsv"
    tp.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8")
    ep.write_text("".join(f"{e}\t{label}\t{desc}\n" for e, (label, desc) in entities.items()),
                  encoding="utf-8")
    rp.write_text(
        "".join(f"{r}\t{label}\t{desc}\t{schema}\n" for r, (label, desc, schema) in relations.items()),
        encoding="utf-8",
    )
    return tp, ep, rp


BASE_ENTITIES = {"a": ("Alpha", ""), "b": ("Beta", ""), "c": ("Gamma", "")}
BASE_RELATIONS = {"r1": ("likes", "", ""), "r2": ("knows", "", "")}


class TestTriple:
    def test_sorted_order_is_field_tuple_order(self):
        ids = [f"e{i}" for i in (1, 10, 2, 20, 3)]
        rng = random.Random(5)
        fields = [(rng.choice(ids), rng.choice(["r1", "r10", "r2"]), rng.choice(ids))
                  for _ in range(200)]
        assert [(t.head, t.relation, t.tail) for t in sorted(Triple(*f) for f in fields)] == sorted(fields)
        assert sorted([Triple("e2", "r", "e1"), Triple("e10", "r", "e1"), Triple("e1", "r", "e2")]) == [
            Triple("e1", "r", "e2"), Triple("e10", "r", "e1"), Triple("e2", "r", "e1")]

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(Triple("e1", "r", "e10")) == hash(("e1", "r", "e10"))
        assert Triple("e1", "r", "e10") == Triple("e1", "r", "e10")
        assert Triple("e1", "r", "e10") != Triple("e10", "r", "e1")

    def test_fields_cannot_be_assigned(self):
        t = Triple("a", "r", "b")
        with pytest.raises(AttributeError):
            t.head = "c"
        assert t == Triple("a", "r", "b")

    def test_json_list_round_trips(self):
        t = Triple("Q1", "P2", "Q3")
        fields = json.loads(json.dumps([t.head, t.relation, t.tail]))
        assert Triple(*fields) == t
        assert Triple(*fields).relation == "P2"


class TestLoad:
    def test_three_distinct_triples(self, tmp_path):
        files = write_kb_files(
            tmp_path, [("a", "r1", "b"), ("b", "r2", "c"), ("a", "r2", "c")],
            BASE_ENTITIES, BASE_RELATIONS,
        )
        kb = load_kb(*files)
        assert len(kb.triples) == 3

    def test_duplicate_triples_collapse(self, tmp_path):
        files = write_kb_files(
            tmp_path, [("a", "r1", "b"), ("a", "r1", "b")], BASE_ENTITIES, BASE_RELATIONS
        )
        assert len(load_kb(*files).triples) == 1

    def test_dangling_entity_named(self, tmp_path):
        files = write_kb_files(tmp_path, [("a", "r1", "zz")], BASE_ENTITIES, BASE_RELATIONS)
        with pytest.raises(KbLoadError, match="zz"):
            load_kb(*files)

    def test_malformed_line_reports_number(self, tmp_path):
        files = write_kb_files(tmp_path, [("a", "r1", "b")], BASE_ENTITIES, BASE_RELATIONS)
        files[0].write_text("a\tr1\tb\nbroken line\n", encoding="utf-8")
        with pytest.raises(KbLoadError, match=":2"):
            load_kb(*files)

    def test_noop_always_registered(self, tmp_path):
        files = write_kb_files(tmp_path, [("a", "r1", "b")], BASE_ENTITIES, BASE_RELATIONS)
        kb = load_kb(*files)
        assert NOOP_RELATION in kb.relations

    def test_catalog_collisions_keep_all_ids(self):
        kb = make_kb(
            [("x1", "r", "x2")],
            entities={"x1": ("Same Label", ""), "x2": ("Same Label", "")},
        )
        assert kb.lookup_label("same label") == ("x1", "x2")


class TestReadJsonl:
    def test_blank_lines_skipped_and_line_numbers_kept(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": [2]}\n', encoding="utf-8")
        assert read_jsonl(path) == [(1, {"a": 1}), (4, {"b": [2]})]

    @pytest.mark.parametrize("line, named", [
        (b"{not json", "x.jsonl:2: not valid JSON"),
        (b'"a string"', "x.jsonl:2: expected a JSON object"),
        (b'{"a": 1} {"b": 2}', "x.jsonl:2: not valid JSON"),
        (b'{"a": "\xff"}', "x.jsonl:2: not valid UTF-8"),
    ])
    def test_line_that_is_not_an_object_is_named(self, tmp_path, line, named):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(KbLoadError, match=named):
            read_jsonl(path)


class TestEntityIndex:
    def test_positions_follow_ascending_ids(self):
        kb = make_kb([("e10", "r", "e2"), ("e1", "r", "e0")])
        assert kb.entity_index == {"e0": 0, "e1": 1, "e10": 2, "e2": 3}
        assert kb.entity_index is kb.entity_index


class TestSplit:
    def make(self, n=100):
        triples = [(f"e{i}", "r", f"e{(i + 1) % n}") for i in range(n)]
        return make_kb(triples)

    def test_sizes(self):
        bundle = split(self.make().triples, 10, 10, seed=7)
        assert (len(bundle.train), len(bundle.valid), len(bundle.test)) == (80, 10, 10)

    def test_deterministic(self):
        kb = self.make()
        assert split(kb.triples, 10, 10, seed=7) == split(kb.triples, 10, 10, seed=7)

    def test_disjoint_and_covering(self):
        kb = self.make()
        bundle = split(kb.triples, 15, 25, seed=3)
        train, valid, test = map(set, (bundle.train, bundle.valid, bundle.test))
        assert not (train & valid) and not (train & test) and not (valid & test)
        assert train | valid | test == kb.triples

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            split(self.make().triples, 50, 50, seed=0)

    def test_repeated_triples_count_once(self):
        triples = sorted(self.make().triples)
        repeated = triples + triples[::3]
        random.Random(1).shuffle(repeated)
        assert split(repeated, 10, 10, seed=7) == split(triples, 10, 10, seed=7)


class TestDegrade:
    def test_half_keeps_half_plus_loops(self):
        rng = random.Random(11)
        kb = random_kb(rng, 300, 8, 1000)
        train = sorted(kb.triples)
        kept = degrade(train, 0.5, seed=5, entities=kb.entities)
        originals = [t for t in kept if t.relation != NOOP_RELATION]
        assert len(originals) == round(0.5 * len(train))
        covered = {e for t in originals for e in (t.head, t.tail)}
        for e in kb.entities:
            if e not in covered:
                assert Triple(e, NOOP_RELATION, e) in kept

    def test_identity_when_keeping_all(self):
        kb = make_kb([("a", "r", "b"), ("b", "r", "c")])
        train = sorted(kb.triples)
        assert degrade(train, 1.0, seed=0, entities=kb.entities) == set(train)

    def test_star_graph_leaves_get_loops(self):
        # hub with four leaves; keeping 25% retains exactly one spoke, so the
        # isolation set is (all leaves minus the kept one), worked out below
        triples = [("hub", "r", f"leaf{i}") for i in range(4)]
        kb = make_kb(triples)
        kept = degrade([Triple(*t) for t in triples], 0.25, seed=2, entities=kb.entities)
        originals = {t for t in kept if t.relation != NOOP_RELATION}
        assert len(originals) == 1
        surviving_leaf = next(iter(originals)).tail
        expected_loops = {
            Triple(f"leaf{i}", NOOP_RELATION, f"leaf{i}")
            for i in range(4)
            if f"leaf{i}" != surviving_leaf
        }
        assert {t for t in kept if t.relation == NOOP_RELATION} == expected_loops

    def test_no_entity_left_isolated(self):
        rng = random.Random(23)
        for trial in range(10):
            kb = random_kb(rng, 40, 5, 80)
            kept = degrade(sorted(kb.triples), 0.3, seed=trial, entities=kb.entities)
            incident = {}
            for t in kept:
                incident.setdefault(t.head, []).append(t)
                incident.setdefault(t.tail, []).append(t)
            for e in kb.entities:
                assert incident.get(e), f"entity {e} lost all triples"

    def test_deterministic(self):
        kb = make_kb([(f"e{i}", "r", f"e{i+1}") for i in range(50)])
        train = sorted(kb.triples)
        assert degrade(train, 0.4, 9, kb.entities) == degrade(train, 0.4, 9, kb.entities)

    def test_same_set_from_a_list_a_tuple_or_a_set(self):
        rng = random.Random(4)
        kb = random_kb(rng, 60, 4, 200)
        train = sorted(kb.triples)
        want = degrade(train, 0.3, seed=2, entities=kb.entities)
        shuffled = train + train[:20]
        rng.shuffle(shuffled)
        for given in (tuple(train), set(train), shuffled, tuple(shuffled)):
            assert degrade(given, 0.3, seed=2, entities=kb.entities) == want

    def test_bad_fraction(self):
        kb = make_kb([("a", "r", "b")])
        with pytest.raises(ValueError):
            degrade(sorted(kb.triples), 0.0, 1, kb.entities)


class TestNeighbors:
    def test_union_of_directions(self):
        kb = make_kb([("e", "r1", "a"), ("e", "r2", "b"), ("c", "r3", "e")])
        assert len(kb.neighbors("e")) == 3

    def test_noop_loop_excluded(self):
        kb = make_kb([("e", NOOP_RELATION, "e"), ("a", "r", "b")])
        assert kb.neighbors("e") == []

    def test_unknown_entity(self):
        kb = make_kb([("a", "r", "b")])
        with pytest.raises(UnknownEntityError):
            kb.neighbors("nope")

    def test_matches_brute_force_scan(self):
        rng = random.Random(4)
        for trial in range(10):
            kb = random_kb(rng, 30, 5, 60)
            for e in kb.entities:
                expected = {
                    t for t in kb.triples if t.relation != NOOP_RELATION and e in (t.head, t.tail)
                }
                assert set(kb.neighbors(e)) == expected


class TestRelationsOf:
    def test_both_directions(self):
        kb = make_kb([("e", "r1", "a"), ("b", "r2", "e")])
        assert kb.relations_of("e") == {"r1", "r2"}

    def test_isolated_entity_empty(self):
        kb = make_kb([("a", "r", "b")], entities={"lone": ("Lone", "")})
        assert kb.relations_of("lone") == set()

    def test_set_semantics(self):
        kb = make_kb([("e", "r1", "a"), ("e", "r1", "b")])
        assert kb.relations_of("e") == {"r1"}


def brute_force_cooccurrence(kb, r, r_hat) -> int:
    count = 0
    for e in kb.entities:
        incident = set()
        for t in kb.triples:
            if t.relation == NOOP_RELATION:
                continue
            if t.head == e or t.tail == e:
                incident.add(t.relation)
        if r in incident and r_hat in incident:
            count += 1
    return count


class TestCooccurrence:
    def test_hand_built_pair(self):
        # exactly e1 and e2 touch both r and rh
        kb = make_kb(
            [
                ("e1", "r", "x"), ("e1", "rh", "y"),
                ("e2", "r", "x"), ("z", "rh", "e2"),
                ("e3", "r", "x"),
                ("e4", "rh", "w"),
            ]
        )
        assert kb.cooccurrence_score("r", "rh") == 2
        assert kb.cooccurrence_score("r", "rh") == brute_force_cooccurrence(kb, "r", "rh")

    def test_never_coincident(self):
        kb = make_kb([("a", "r", "b"), ("c", "rh", "d")])
        assert kb.cooccurrence_score("r", "rh") == 0

    def test_self_score_counts_incident_entities(self):
        kb = make_kb([("a", "r", "b"), ("b", "r", "c"), ("d", "r2", "e")])
        assert kb.cooccurrence_score("r", "r") == 3
        assert kb.cooccurrence_score("r", "r") == brute_force_cooccurrence(kb, "r", "r")

    def test_incident_sets_are_built_on_first_use(self):
        kb = make_kb([("a", "r", "b"), ("b", "s", "c")])
        assert "_relation_entities" not in vars(kb)
        assert kb.cooccurrence_score("r", "s") == 1
        assert kb._relation_entities == {"r": {"a", "b"}, "s": {"b", "c"}}

    def test_symmetry_and_oracle_on_random_kbs(self):
        rng = random.Random(99)
        for trial in range(10):
            kb = random_kb(rng, 50, 6, 120)
            rels = sorted(r for r in kb.relations if r != NOOP_RELATION)
            for r in rels:
                for rh in rels:
                    score = kb.cooccurrence_score(r, rh)
                    assert score == kb.cooccurrence_score(rh, r)
                    assert score == brute_force_cooccurrence(kb, r, rh)

    def test_unknown_relation(self):
        kb = make_kb([("a", "r", "b")])
        with pytest.raises(UnknownRelationError):
            kb.cooccurrence_score("r", "nope")


class TestSelectContext:
    def build(self):
        # neighbors of h via r1, r2, r3; extra edges tune the co-occurrence
        # of the query relation rq so that S(rq, r1) > S(rq, r2) > S(rq, r3)
        return make_kb(
            [
                ("h", "r1", "n1"),
                ("h", "r2", "n2"),
                ("h", "r3", "n3"),
                ("h", "rq", "gold"),
                ("x1", "rq", "y1"), ("x1", "r1", "y2"),
                ("x2", "rq", "y3"), ("x2", "r1", "y4"),
                ("x3", "rq", "y5"), ("x3", "r2", "y6"),
                ("h", "r2", "n2b"),
            ]
        )

    def test_ranking_matches_brute_force(self):
        kb = self.build()
        # h itself carries rq, so every neighbor relation scores at least 1
        scores = {r: kb.cooccurrence_score("rq", r) for r in ("r1", "r2", "r3")}
        assert scores["r1"] > scores["r2"] > scores["r3"]
        picked = kb.select_context("h", "rq", 2)
        assert [t.relation for t in picked] == ["r1", "r2"]
        ranked = sorted(
            (t for t in kb.neighbors("h") if not (t.head == "h" and t.relation == "rq")),
            key=lambda t: (
                -kb.cooccurrence_score("rq", t.relation),
                t.relation,
                t.tail if t.head == "h" else t.head,
            ),
        )
        assert picked == ranked[:2]

    def test_gold_triple_never_leaks(self):
        kb = self.build()
        context = kb.select_context("h", "rq", 10)
        assert all(not (t.head == "h" and t.relation == "rq") for t in context)

    def test_max_size_zero(self):
        kb = self.build()
        assert kb.select_context("h", "rq", 0) == []

    def test_tie_break_is_deterministic(self):
        # rq touches nothing near h, so all scores are zero and the order is
        # pure (relation, counterpart)
        kb = make_kb(
            [("h", "rb", "n1"), ("h", "ra", "n2"), ("h", "ra", "n0"), ("q", "rq", "q2")]
        )
        picked = kb.select_context("h", "rq", 3)
        assert [(t.relation, t.tail) for t in picked] == [("ra", "n0"), ("ra", "n2"), ("rb", "n1")]

    def test_prefix_property(self):
        rng = random.Random(5)
        kb = random_kb(rng, 25, 5, 60)
        entity = sorted(kb.entities)[0]
        rel = sorted(r for r in kb.relations if r != NOOP_RELATION)[0]
        full = kb.select_context(entity, rel, 10**6)
        for size in range(len(full) + 1):
            assert kb.select_context(entity, rel, size) == full[:size]
