"""Reasoning-path extraction: BFS witnesses against a brute-force oracle and
the filter/extract/select pipeline."""

import random
from collections import deque

from kbloop.agent import (
    AgentAction,
    Observation,
    SurfaceTriple,
    Trajectory,
    TrajectoryStep,
)
from kbloop.kb import Triple
from kbloop.llm import ScriptedBackend
from kbloop.paths import bfs_witness, build_subgraph, parse_reasoning_paths

from conftest import SHAKESPEARE_ENTITIES, SHAKESPEARE_RELATIONS, make_kb


def st(h, r, t, rid=None):
    return SurfaceTriple(h, r, t, relation_id=rid)


def oracle_distances(edges, source):
    """Independent BFS distance map over undirected (h, t) pairs."""
    adjacency = {}
    for h, t in edges:
        adjacency.setdefault(h, set()).add(t)
        adjacency.setdefault(t, set()).add(h)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


class TestBfsWitness:
    def test_chain(self):
        g = build_subgraph([st("a", "r1", "b"), st("b", "r2", "c")])
        witness = bfs_witness(g, "a", "c")
        assert [(t.head, t.tail) for t in witness] == [("a", "b"), ("b", "c")]

    def test_diamond_takes_lexicographically_first(self):
        g = build_subgraph(
            [st("a", "r", "b"), st("b", "r", "d"), st("a", "r", "c"), st("c", "r", "d")]
        )
        witness = bfs_witness(g, "a", "d")
        assert [(t.head, t.tail) for t in witness] == [("a", "b"), ("b", "d")]

    def test_unreachable_is_none(self):
        g = build_subgraph([st("a", "r", "b"), st("c", "r", "d")])
        assert bfs_witness(g, "a", "d") is None

    def test_source_equals_target(self):
        g = build_subgraph([st("a", "r", "b")])
        assert bfs_witness(g, "a", "a") == []

    def test_inverse_edges_traversed(self):
        # the only route runs against edge direction
        g = build_subgraph([st("b", "r", "a"), st("b", "r2", "c")])
        witness = bfs_witness(g, "a", "c")
        assert witness is not None and len(witness) == 2

    def test_random_graphs_match_oracle(self):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.randint(2, 50)
            nodes = [f"n{i}" for i in range(n)]
            edges = set()
            for _ in range(rng.randint(1, 2 * n)):
                edges.add((rng.choice(nodes), rng.choice(nodes)))
            g = build_subgraph([st(h, "r", t) for h, t in sorted(edges)])
            source = rng.choice(nodes)
            dist = oracle_distances(edges, source)
            for target in rng.sample(nodes, min(8, n)):
                witness = bfs_witness(g, source, target)
                if target not in dist or (source not in g.adjacency or target not in g.adjacency):
                    assert witness is None or len(witness) == dist.get(target, -1)
                    continue
                assert witness is not None
                assert len(witness) == dist[target]

    def test_double_run_is_identical(self):
        rng = random.Random(8)
        edges = {(f"n{rng.randint(0, 20)}", f"n{rng.randint(0, 20)}") for _ in range(40)}
        triples = [st(h, "r", t) for h, t in sorted(edges)]
        g1, g2 = build_subgraph(triples), build_subgraph(triples)
        for source, target in [("n1", "n5"), ("n0", "n9"), ("n3", "n14")]:
            w1 = bfs_witness(g1, source, target)
            w2 = bfs_witness(g2, source, target)
            assert w1 == w2


def make_trajectory(observations, predicted, verified, topics, question="q?"):
    steps = []
    for kind, triples in observations:
        steps.append(
            TrajectoryStep(
                thought="t",
                action=AgentAction(kind, ("x",) if kind != "complete" else ("x", "y")),
                observation=Observation(triples=list(triples)),
                templates=(),
            )
        )
    finish = TrajectoryStep(
        thought="t",
        action=AgentAction("finish", tuple(predicted)),
        observation=Observation(verified_answers=list(verified)),
        templates=(),
    )
    trajectory = Trajectory(question=question, topic_entities=list(topics), mode="train")
    trajectory.steps = steps + [finish]
    trajectory.predicted_answers = list(predicted)
    trajectory.verified_answers = list(verified)
    trajectory.final_answers = list(predicted)
    trajectory.stop_reason = "finish"
    return trajectory


class TestParseReasoningPaths:
    def shakespeare_setup(self):
        kb = make_kb(
            [("Q692", "P22", "Q2566101")],
            entities=dict(
                SHAKESPEARE_ENTITIES,
                **{
                    "Qact": ("acting", ""), "Qpoe": ("poetry", ""), "Qthe": ("theatre", ""),
                },
            ),
            relations=dict(
                SHAKESPEARE_RELATIONS,
                **{"P101": ("field of work", "the subject's area of activity", "")},
            ),
        )
        observed = [
            st("William Shakespeare", "field of work", "acting", "P101"),
            st("William Shakespeare", "field of work", "poetry", "P101"),
            st("William Shakespeare", "field of work", "theatre", "P101"),
            st("William Shakespeare", "father", "John Shakespeare", "P22"),
            st("William Shakespeare", "mother", "Mary Shakespeare", "P25"),
            st("Mary Shakespeare", "spouse", "John Shakespeare", "P26"),
            st("Mary Shakespeare", "occupation", "writer", "P106"),
            st("John Shakespeare", "occupation", "merchant", "P106"),
            st("John Shakespeare", "occupation", "politician", "P106"),
        ]
        reply = (
            "Related relations: father, mother, occupation\n"
            'Related triples: """\n'
            "William Shakespeare, father, John Shakespeare\n"
            "William Shakespeare, mother, Mary Shakespeare\n"
            "Mary Shakespeare, occupation, writer\n"
            "John Shakespeare, occupation, merchant\n"
            "John Shakespeare, occupation, politician\n"
            '"""'
        )
        backend = ScriptedBackend([("Known triples", reply)])
        trajectory = make_trajectory(
            [("search", observed[:6]), ("generate", observed[6:])],
            predicted=["John Shakespeare"],
            verified=["John Shakespeare"],
            topics=["Q692"],
            question="which one of Shakespeare's parents worked as a business person?",
        )
        return kb, trajectory, backend

    def test_prompt_shows_whole_pool_and_selection_sticks(self):
        kb, trajectory, backend = self.shakespeare_setup()
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert len(path.triples) == 5
        assert Triple("Q692", "P22", "Q2566101") in path.triples
        occupations = [t for t in path.triples if t.relation == "P106"]
        assert len(occupations) == 3  # writer, merchant, politician

    def test_unknown_entity_dropped(self):
        kb = make_kb([("a", "r", "b")], entities={"a": ("Alpha", ""), "b": ("Beta", "")})
        trajectory = make_trajectory(
            [
                ("search", [st("Alpha", "r", "Beta", "r")]),
                ("generate", [st("Beta", "r", "Omega", "r")]),
            ],
            predicted=["Beta"], verified=["Beta"], topics=["a"],
        )
        backend = ScriptedBackend(
            [("Known triples", "Related triples:\nAlpha, r, Beta\nBeta, r, Omega")]
        )
        n_entities = len(kb.entities)
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert path.triples == [Triple("a", "r", "b")]
        assert "unknown entity dropped: Beta, r, Omega" in path.notes
        assert len(kb.entities) == n_entities
        assert all(e in kb.entities for t in path.triples for e in (t.head, t.tail))

    def test_direct_edge_single_triple(self):
        kb = make_kb([("a", "r", "b")], entities={"a": ("Alpha", ""), "b": ("Beta", "")})
        trajectory = make_trajectory(
            [("search", [st("Alpha", "r", "Beta", "r")])],
            predicted=["Beta"], verified=["Beta"], topics=["a"],
        )
        backend = ScriptedBackend([("Known triples", "Related triples:\nAlpha, r, Beta")])
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert path.triples == [Triple("a", "r", "b")]

    def test_disconnected_answer_gives_empty_path(self):
        kb = make_kb([("a", "r", "b")], entities={"a": ("Alpha", ""), "b": ("Beta", "")})
        trajectory = make_trajectory(
            [("search", [st("Alpha", "r", "Beta", "r")])],
            predicted=["Gamma"], verified=["Gamma"], topics=["a"],
        )
        path = parse_reasoning_paths(trajectory, kb, ScriptedBackend([]))
        assert path.triples == []
        assert any("no witness" in n for n in path.notes)

    def test_all_answers_wrong_gives_empty_path(self):
        kb = make_kb([("a", "r", "b")], entities={"a": ("Alpha", ""), "b": ("Beta", "")})
        trajectory = make_trajectory(
            [("search", [st("Alpha", "r", "Beta", "r")])],
            predicted=["Wrong"], verified=[], topics=["a"],
        )
        path = parse_reasoning_paths(trajectory, kb, ScriptedBackend([]))
        assert path.triples == []

    def test_wrong_answer_only_observations_dropped(self):
        kb = make_kb(
            [("a", "r", "b"), ("a", "r", "w")],
            entities={"a": ("Alpha", ""), "b": ("Beta", ""), "w": ("Wrong", "")},
        )
        wrong_only = [st("Alpha", "r", "Wrong", "r")]
        good = [st("Alpha", "r", "Beta", "r")]
        trajectory = make_trajectory(
            [("complete", wrong_only), ("search", good)],
            predicted=["Wrong", "Beta"], verified=["Beta"], topics=["a"],
        )
        backend = ScriptedBackend(
            [("Known triples", "Related triples:\nAlpha, r, Beta")]
        )
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert path.triples == [Triple("a", "r", "b")]
        assert any("dropped observation" in n for n in path.notes)

    def test_unlinked_relations_removed(self):
        kb = make_kb([("a", "r", "b")], entities={"a": ("Alpha", ""), "b": ("Beta", "")})
        trajectory = make_trajectory(
            [
                ("search", [st("Alpha", "r", "Beta", "r")]),
                ("generate", [st("Alpha", "madeup rel", "Beta", None)]),
            ],
            predicted=["Beta"], verified=["Beta"], topics=["a"],
        )
        backend = ScriptedBackend(
            [("Known triples", "Related triples:\nAlpha, r, Beta\nAlpha, madeup rel, Beta")]
        )
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert path.triples == [Triple("a", "r", "b")]
        assert any("unlinked" in n for n in path.notes)

    def test_output_within_observation_pool(self):
        kb, trajectory, backend = self.shakespeare_setup()
        pool_keys = set()
        for step in trajectory.steps:
            if step.observation.triples:
                for t in step.observation.triples:
                    pool_keys.add((t.head.lower(), t.tail.lower()))
        path = parse_reasoning_paths(trajectory, kb, backend)
        for t in path.triples:
            head = kb.label_of(t.head).lower()
            tail = kb.label_of(t.tail).lower()
            assert (head, tail) in pool_keys

    def test_selection_outside_candidates_ignored(self):
        kb = make_kb([("a", "r", "b")], entities={"a": ("Alpha", ""), "b": ("Beta", "")})
        trajectory = make_trajectory(
            [("search", [st("Alpha", "r", "Beta", "r")])],
            predicted=["Beta"], verified=["Beta"], topics=["a"],
        )
        backend = ScriptedBackend(
            [("Known triples", "Related triples:\nAlpha, r, Beta\nMars, r, Venus")]
        )
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert path.triples == [Triple("a", "r", "b")]
        assert any("outside candidates" in n for n in path.notes)

    def test_digit_and_dot_led_labels_survive_selection(self):
        kb = make_kb(
            [("a", "w", "b"), ("b", "g", "d"), ("n", "v", "m")],
            entities={"a": ("Orwell", ""), "b": ("1984", ""), "d": ("dystopian novel", ""),
                      "n": (".NET Framework", ""), "m": ("Microsoft", "")},
            relations={"w": ("wrote", "", ""), "g": ("genre", "", ""),
                       "v": ("developer", "", "")},
        )
        trajectory = make_trajectory(
            [("search", [st("Orwell", "wrote", "1984", "w"),
                         st("1984", "genre", "dystopian novel", "g"),
                         st(".NET Framework", "developer", "Microsoft", "v")])],
            predicted=["1984"], verified=["1984"], topics=["a"],
        )
        backend = ScriptedBackend([("Known triples", (
            "Related triples:\n"
            "Orwell, wrote, 1984\n"
            "1984, genre, dystopian novel\n"
            "3. .NET Framework, developer, Microsoft"
        ))])
        path = parse_reasoning_paths(trajectory, kb, backend)
        assert path.triples == [Triple("a", "w", "b"), Triple("b", "g", "d"), Triple("n", "v", "m")]
        assert not any("outside candidates" in n for n in path.notes)
