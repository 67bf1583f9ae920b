"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every tolerance and bound is asserted, including the runtime caps.
"""

import functools
import json
import math
import os
import random
import re
import time
from collections import deque

import pytest

from kbloop.agent import AgentConfig, SurfaceTriple, run_episode
from kbloop.completer import (
    CompletionQuery,
    NativeCompleter,
    RemoteCompleter,
    ReplayMemory,
    Snapshot,
    TrainingConfig,
)
from kbloop.joint import QaExample, RunLog, run_joint_training
from kbloop.kb import NOOP_RELATION, KnowledgeBase, Triple, degrade
from kbloop.llm import LiveBackend, ScriptedBackend
from kbloop.metrics import hits_at_k, kbqa_hits_at_1, mrr
from kbloop.paths import build_subgraph, bfs_witness
from kbloop.retrieval import Bm25Index, Document, top_k

from conftest import (
    WOODROW_ENTITIES,
    WOODROW_GOLD,
    WOODROW_RELATIONS,
    WOODROW_TRIPLES,
    canonical_json,
    make_kb,
    random_kb,
)
from test_agent import woodrow_completer, woodrow_transcript


def criterion(number, name, budget_s):
    """Print the criterion verdict and enforce its runtime cap."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s / {budget_s}s]")
            assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"
        return wrapper

    return decorate


# -- 1 ----------------------------------------------------------------------


@criterion(1, "co-occurrence oracle", 30)
def test_cooccurrence_matches_brute_force():
    rng = random.Random(1001)
    for _ in range(200):
        n_entities = rng.randint(2, 500)
        n_relations = rng.randint(1, 20)
        n_triples = rng.randint(1, min(2 * n_entities, 1200))
        kb = random_kb(rng, n_entities, n_relations, n_triples)

        incident = [set() for _ in range(n_entities)]
        order = {e: i for i, e in enumerate(sorted(kb.entities))}
        for t in kb.triples:
            incident[order[t.head]].add(t.relation)
            incident[order[t.tail]].add(t.relation)

        rels = sorted(r for r in kb.relations if r != NOOP_RELATION)
        for i, r in enumerate(rels):
            for rh in rels[i:]:
                brute = sum(1 for rel_set in incident if r in rel_set and rh in rel_set)
                assert kb.cooccurrence_score(r, rh) == brute
                assert kb.cooccurrence_score(rh, r) == brute


# -- 2 ----------------------------------------------------------------------


def _reference_bm25(token_lists, query_tokens, k1=1.2, b=0.75):
    n = len(token_lists)
    lengths = [len(d) for d in token_lists]
    avgdl = sum(lengths) / n if n else 0.0
    out = []
    for tokens, dl in zip(token_lists, lengths):
        s = 0.0
        for q in query_tokens:
            f = tokens.count(q)
            if not f:
                continue
            df = sum(1 for d in token_lists if q in d)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * dl / avgdl))
        out.append(s)
    return out


@criterion(2, "BM25 oracle", 10)
def test_bm25_matches_brute_force():
    rng = random.Random(1002)
    vocab = [f"w{i}" for i in range(60)]
    for _ in range(60):
        n_docs = rng.randint(1, 100)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 15))) for _ in range(n_docs)]
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        index = Bm25Index([Document(i, t) for i, t in enumerate(texts)])
        got = top_k(index, query, n_docs)
        scores = _reference_bm25([re.findall(r"[a-z0-9]+", t.lower()) for t in texts],
                                 re.findall(r"[a-z0-9]+", query.lower()))
        want = sorted(((i, s) for i, s in enumerate(scores) if s > 0),
                      key=lambda p: (-p[1], p[0]))
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, s_got), (_, s_want) in zip(got, want):
            assert abs(s_got - s_want) <= 1e-9

    # tie-break: identical docs must come back in doc_id order
    docs = [Document(i, "same tokens here") for i in (4, 0, 2, 1, 3)]
    tied = top_k(Bm25Index(docs), "same tokens", 5)
    assert [d for d, _ in tied] == [0, 1, 2, 3, 4]
    assert len({s for _, s in tied}) == 1


# -- 3 ----------------------------------------------------------------------


def _oracle_distances(edges, source):
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


@criterion(3, "BFS oracle", 10)
def test_bfs_witness_matches_brute_force():
    rng = random.Random(1003)
    for _ in range(500):
        n = rng.randint(2, 50)
        nodes = [f"n{i}" for i in range(n)]
        edges = sorted({(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 2 * n))})
        graph = build_subgraph([SurfaceTriple(h, "r", t) for h, t in edges])
        source = rng.choice(nodes)
        dist = _oracle_distances(edges, source)
        targets = rng.sample(nodes, min(6, n))
        for target in targets:
            first = bfs_witness(graph, source, target)
            second = bfs_witness(graph, source, target)
            assert first == second  # determinism, double run
            reachable = (
                source in graph.adjacency and target in graph.adjacency and target in dist
            )
            if reachable:
                assert first is not None and len(first) == dist[target]
            else:
                assert first is None or len(first) == dist.get(target, -1)


# -- 4 ----------------------------------------------------------------------


@criterion(4, "golden trajectory replay", 5)
def test_golden_woodrow_replay():
    def run_once():
        kb = make_kb(WOODROW_TRIPLES, entities=WOODROW_ENTITIES, relations=WOODROW_RELATIONS)
        return run_episode(
            "where did woodrow wilson go to school?",
            ["Q34296"],
            kb,
            woodrow_completer(),
            woodrow_transcript(),
            gold_answers=WOODROW_GOLD,
        )

    first = run_once()
    assert [s.action.kind for s in first.steps] == ["search", "complete", "generate", "finish"]
    assert first.verified_answers == [
        "Davidson College", "Princeton University", "Johns Hopkins University"
    ]
    assert len(first.predicted_answers) == 4 and len(first.verified_answers) == 3
    assert "University of Virginia" not in first.verified_answers
    second = run_once()
    assert canonical_json(first).encode("utf-8") == canonical_json(second).encode("utf-8")


# -- 5 ----------------------------------------------------------------------


def _random_episode_script(rng, kb_labels, max_steps=14):
    """Random action stream with the scripted responses each step consumes."""
    steps = []
    for i in range(rng.randint(1, max_steps)):
        roll = rng.random()
        if roll < 0.25:
            surface = rng.choice(kb_labels) if rng.random() < 0.7 else "Nobody At All"
            steps.append(("", f"Thought: search step.\nAction: Search[{surface}]"))
            if surface != "Nobody At All":
                steps.append(("", "Answers: educated at"))
        elif roll < 0.5:
            steps.append(("", "Thought: generating.\nAction: Generate[what else is known?]"))
            steps.append(("", 'Generated Triples: """\n1. A, educated at, B\n"""'))
            steps.append(("", 'New Triples: """\n1. A, educated at, B\n"""'))
        elif roll < 0.65:
            steps.append(("", "Thought: completing.\nAction: Complete[Woodrow Wilson | educated at]"))
        elif roll < 0.75:
            steps.append(("", "Thought: confused."))  # malformed, triggers one re-prompt
            steps.append(("", "Thought: fixed.\nAction: Complete[Woodrow Wilson | educated at]"))
        elif roll < 0.85:
            steps.append(("", "Thought: done.\nAction: Finish[Davidson College]"))
            break
        else:
            steps.append(("", "Thought: quitting.\nAction: Finish[unknown]"))
            break
    return steps


@criterion(5, "call-budget invariant", 60)
def test_thousand_random_scripted_episodes_respect_budget():
    kb = make_kb(WOODROW_TRIPLES, entities=WOODROW_ENTITIES, relations=WOODROW_RELATIONS)
    labels = [spec[0] for spec in WOODROW_ENTITIES.values()]
    completer = woodrow_completer()
    config = AgentConfig()
    rng = random.Random(1005)
    for episode in range(1000):
        script = _random_episode_script(rng, labels)
        # generous tail so step-count exhaustion never drains the transcript
        script = script + [("", "Thought: pad.\nAction: Complete[Woodrow Wilson | educated at]")] * 12
        trajectory = run_episode(
            "where did woodrow wilson go to school?",
            ["Q34296"],
            kb,
            completer,
            ScriptedBackend(script),
            config=config,
            gold_answers=WOODROW_GOLD,
        )
        assert trajectory.llm_call_count <= 20, f"episode {episode} exceeded the call budget"
        assert len(trajectory.steps) <= 10, f"episode {episode} exceeded the step bound"
        assert trajectory.stop_reason in ("finish", "max_steps", "budget")


# -- 6 ----------------------------------------------------------------------


@criterion(6, "completer filter contract", 5)
def test_remote_predictions_stay_in_catalog():
    kb = make_kb(WOODROW_TRIPLES, entities=WOODROW_ENTITIES, relations=WOODROW_RELATIONS)
    rng = random.Random(1006)
    catalog_labels = [spec[0] for spec in WOODROW_ENTITIES.values()]
    samples = []
    for i in range(500):
        if rng.random() < 0.30:
            samples.append({"text": f"hallucinated thing {i}", "logprob": -0.01 * i})
        else:
            samples.append({"text": rng.choice(catalog_labels), "logprob": -0.01 * i})

    remote = RemoteCompleter(transport=lambda path, payload: {"samples": samples}, r_samples=500)
    decoded_ids = set()
    for s in samples:
        decoded_ids.update(kb.lookup_label(s["text"]))

    for k in (1, 5, len(kb.entities), len(kb.entities) + 50):
        preds = remote.predict(CompletionQuery("Q34296", "P69"), kb, k)
        assert len(preds) <= k
        for p in preds:
            assert p.entity in kb.entities, "out-of-catalog entity returned"
            assert p.entity in decoded_ids, "undecoded entity entered the top-k"
            assert p.score > float("-inf")
    full = remote.predict(CompletionQuery("Q34296", "P69"), kb, len(kb.entities) + 50)
    assert {p.entity for p in full} == decoded_ids


# -- 7 ----------------------------------------------------------------------

# anti-forgetting bound: the largest relative probe-MRR loss a fine-tune may cause
FORGETTING_TOLERANCE = 0.10


def _typed_kb(rng, n_groups=8, group_size=40, n_relations=10, n_triples=2000):
    entities = [f"g{g}e{i}" for g in range(n_groups) for i in range(group_size)]
    relations = [f"rel{j}" for j in range(n_relations)]
    arrow = {r: (rng.randrange(n_groups), rng.randrange(n_groups)) for r in relations}
    train = set()
    while len(train) < n_triples:
        r = rng.choice(relations)
        src, dst = arrow[r]
        train.add(
            (f"g{src}e{rng.randrange(group_size)}", r, f"g{dst}e{rng.randrange(group_size)}")
        )
    kb = make_kb(
        sorted(train),
        entities={e: (e, "") for e in entities},
        relations={r: (r, "", "") for r in relations},
    )
    return kb, sorted(Triple(*t) for t in train), entities, relations


def _mean_rank(model, kb, triples):
    ranks = []
    for t in triples:
        preds = model.predict(CompletionQuery(t.head, t.relation), kb, len(kb.entities))
        ranks.append([p.entity for p in preds].index(t.tail) + 1)
    return sum(ranks) / len(ranks)


def _probe_mrr(model, kb, probe):
    total = 0.0
    for t in probe:
        preds = model.predict(CompletionQuery(t.head, t.relation), kb, len(kb.entities))
        total += 1.0 / ([p.entity for p in preds].index(t.tail) + 1)
    return total / len(probe)


@criterion(7, "incremental learning contract", 300)
def test_replay_finetune_learns_without_forgetting():
    rng = random.Random(1007)
    kb, train_triples, entities, relations = _typed_kb(rng)

    # new facts follow the same relation type structure but are unseen combos
    arrow = {}
    for t in train_triples:
        arrow.setdefault(t.relation, (t.head.split("e")[0], t.tail.split("e")[0]))
    new = set()
    train_set = {(t.head, t.relation, t.tail) for t in train_triples}
    while len(new) < 50:
        r = rng.choice(relations)
        src, dst = arrow[r]
        cand = (f"{src}e{rng.randrange(40)}", r, f"{dst}e{rng.randrange(40)}")
        if cand not in train_set:
            new.add(cand)
    new_triples = sorted(Triple(*t) for t in new)
    probe = train_triples[::10][:200]
    assert len(probe) == 200

    config = TrainingConfig(epochs=200, learning_rate=0.01, batch_size=64, seed=0,
                            finetune_passes=8)
    model = NativeCompleter(kb, dim=64, seed=0)
    model.pretrain(train_triples, kb, config)

    rank_before = _mean_rank(model, kb, new_triples)
    mrr_before = _probe_mrr(model, kb, probe)

    memory = ReplayMemory(train_triples, seed=0)
    model.incremental_finetune(new_triples, memory, kb=kb, config=config)

    rank_after = _mean_rank(model, kb, new_triples)
    mrr_after = _probe_mrr(model, kb, probe)

    improvement = (rank_before - rank_after) / rank_before
    degradation = (mrr_before - mrr_after) / mrr_before
    assert improvement >= 0.30, (
        f"mean rank only improved {improvement:.1%} ({rank_before:.1f} -> {rank_after:.1f})"
    )
    assert degradation <= FORGETTING_TOLERANCE, (
        f"probe MRR degraded {degradation:.1%} ({mrr_before:.3f} -> {mrr_after:.3f})"
    )


# -- 8 ----------------------------------------------------------------------


def _joint_world(rng):
    """A 300-triple KB, its 50% degradation, and ten questions whose scripted
    episodes re-inject deleted edges through the generate action."""
    n_entities, n_relations = 80, 6
    entities = {f"e{i}": (f"Entity {i}", f"test entity {i}") for i in range(n_entities)}
    relations = {
        f"r{j}": (f"rel {j}", f"test relation {j}", f"[Thing], rel {j}, [Thing]")
        for j in range(n_relations)
    }
    triples = set()
    while len(triples) < 300:
        h = rng.randrange(n_entities)
        t = rng.randrange(n_entities)
        if h != t:
            triples.add((f"e{h}", f"r{rng.randrange(n_relations)}", f"e{t}"))
    full = make_kb(sorted(triples), entities=entities, relations=relations)
    kept = degrade(sorted(full.triples), 0.5, seed=17, entities=full.entities)
    working = KnowledgeBase(full.entities.values(), full.relations.values(), kept)
    deleted = sorted(full.triples - {t for t in kept if t.relation != NOOP_RELATION})
    injectable = [t for t in deleted if t.head != t.tail]
    rng.shuffle(injectable)
    return working, injectable[:10]


def _inject_script(working, injected):
    steps = []
    qa = []
    for t in injected:
        head = working.label_of(t.head)
        tail = working.label_of(t.tail)
        rel = working.relation_label(t.relation)
        question = f"what does {head} connect to?"
        qa.append(QaExample(question, (t.head,), (tail,)))
        steps.append(("", f"Thought 1: inject.\nAction 1: Generate[{question}]"))
        steps.append(("Generated Triples", f'"""\n1. {head}, {rel}, {tail}\n"""'))
        steps.append(("New Triples", f'"""\n1. {head}, {rel}, {tail}\n"""'))
        steps.append(("", f"Thought 2: done.\nAction 2: Finish[{tail}]"))
        steps.append(("Known triples", f"Related triples:\n{head}, {rel}, {tail}"))
    return steps, qa


@criterion(8, "joint loop end-to-end", 120)
def test_joint_loop_over_degraded_kb(tmp_path):
    rng = random.Random(1008)
    working, injected = _joint_world(rng)
    assert len(injected) == 10
    pretrain_triples = sorted(working.triples)

    config = TrainingConfig(epochs=150, seed=0, finetune_passes=60)
    model = NativeCompleter(working, dim=64, seed=0)
    model.pretrain(pretrain_triples, working, config)
    RunLog(tmp_path).restart(model)

    ranks_before = {
        t: _mean_rank(model, working, [t]) for t in injected
    }

    steps, qa = _inject_script(working, injected)
    result = run_joint_training(
        tmp_path, working, qa, Snapshot(model), ScriptedBackend(steps),
        train_config=config,
    )

    assert len(result.records) == 10
    for record in result.records:
        assert record.trajectory.stop_reason == "finish"
        assert record.trajectory.verified_answers, "scripted finish should verify"
        assert record.finetuned
        assert record.path is not None and record.path.triples
        for t in record.path.triples:
            assert t.relation in working.relations

    improved = sum(
        1 for t in injected if _mean_rank(model, working, [t]) < ranks_before[t]
    )
    assert improved >= 1, "no injected triple improved its tail rank"


# -- 9 ----------------------------------------------------------------------


def _ranks(rankings, gold):
    """1-based position of each gold entity in its ranking, 0 when absent."""
    return [ranking.index(g) + 1 if g in ranking else 0 for ranking, g in zip(rankings, gold)]


@criterion(9, "metric oracles", 5)
def test_metrics_match_reference_implementations():
    rng = random.Random(1009)
    entities = [f"e{i}" for i in range(30)]
    for _ in range(100):
        n = rng.randint(1, 30)
        rankings = [rng.sample(entities, rng.randint(1, len(entities))) for _ in range(n)]
        gold = [rng.choice(entities) for _ in range(n)]

        ref_mrr = 0.0
        for ranking, g in zip(rankings, gold):
            for pos, e in enumerate(ranking):
                if e == g:
                    ref_mrr += 1.0 / (pos + 1)
                    break
        ref_mrr /= n
        ranks = _ranks(rankings, gold)
        assert abs(mrr(ranks) - ref_mrr) <= 1e-12

        values = {}
        for k in (1, 3, 10):
            ref = sum(1 for ranking, g in zip(rankings, gold) if g in ranking[:k]) / n
            got = hits_at_k(ranks, k)
            assert abs(got - ref) <= 1e-12
            values[k] = got
        assert values[1] <= values[3] <= values[10]
        assert mrr(ranks) >= values[1] - 1e-12

        answers = [[rng.choice(entities)] for _ in range(n)]
        gold_sets = [[rng.choice(entities), rng.choice(entities)] for _ in range(n)]
        ref_hits1 = sum(
            1 for a, gs in zip(answers, gold_sets) if any(x in gs for x in a)
        ) / n
        assert abs(kbqa_hits_at_1(answers, gold_sets) - ref_hits1) <= 1e-12


# -- 10 ---------------------------------------------------------------------


@pytest.mark.skipif(
    not (os.environ.get("KBLOOP_LLM_ENDPOINT") and os.environ.get("KBLOOP_LLM_MODEL")),
    reason="live smoke needs KBLOOP_LLM_ENDPOINT and KBLOOP_LLM_MODEL",
)
@criterion(10, "live smoke", 600)
def test_live_smoke_single_question():
    kb = make_kb(WOODROW_TRIPLES, entities=WOODROW_ENTITIES, relations=WOODROW_RELATIONS)
    model = NativeCompleter(kb, dim=16, seed=0)
    model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=30, seed=0))
    backend = LiveBackend(
        os.environ["KBLOOP_LLM_ENDPOINT"],
        os.environ["KBLOOP_LLM_MODEL"],
        api_key=os.environ.get("KBLOOP_API_KEY", ""),
    )
    trajectory = run_episode(
        "where did woodrow wilson go to school?", ["Q34296"], kb, model, backend
    )
    assert trajectory.llm_call_count <= 20
    assert len(trajectory.steps) <= 10
    record = json.loads(canonical_json(trajectory))
    assert record["question"]
    assert record["stop_reason"] in ("finish", "max_steps", "budget")
