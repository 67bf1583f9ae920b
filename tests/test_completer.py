"""Completer: input sequences, the native bilinear model against brute-force
scoring, replay fine-tuning, and the remote wire contract."""

import json
import warnings
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest

from kbloop import llm
from kbloop.completer import (
    CompleterTransportError,
    CompletionQuery,
    ModelStateError,
    NativeCompleter,
    RemoteCompleter,
    ReplayMemory,
    SnapshotError,
    TrainingConfig,
    TrainingError,
    build_input_sequence,
)
from kbloop.kb import Triple, UnknownEntityError, UnknownRelationError

from conftest import make_kb


class TestInputSequence:
    def test_tail_query_layout(self, bieber_kb):
        seq = build_input_sequence(bieber_kb, CompletionQuery("Q34086", "P22"))
        lines = seq.splitlines()
        assert lines[0] == "predict tail: Justin Bieber | father"
        assert lines[1] == "entity description: Justin Bieber [Canadian singer (born 1994)]"
        assert lines[2] == "related relationship: father"
        assert lines[3] == (
            "context: ⟨ Justin Bieber | mother | Pattie Mallette ⟩ ⟨SEP⟩ "
            "⟨ Justin Bieber | sibling | Jazmyn Bieber ⟩"
        )

    def test_empty_description_renders_empty_brackets(self):
        kb = make_kb([("e", "r", "x")])
        seq = build_input_sequence(kb, CompletionQuery("e", "r"))
        assert "entity description: e []" in seq

    def test_max_context_zero(self, bieber_kb):
        seq = build_input_sequence(bieber_kb, CompletionQuery("Q34086", "P22"), 0)
        assert seq.splitlines()[-1] == "context:"

    def test_pure_function(self, bieber_kb):
        q = CompletionQuery("Q34086", "P22")
        assert build_input_sequence(bieber_kb, q) == build_input_sequence(bieber_kb, q)

    def test_unknown_entity(self, bieber_kb):
        with pytest.raises(UnknownEntityError):
            build_input_sequence(bieber_kb, CompletionQuery("Q404", "P22"))


def score_triple(model, t: Triple) -> float:
    """Brute-force reference: the bilinear score of one triple, read straight
    from the embedding rows."""
    e, r = model.entity_ids.index, model.relation_ids.index
    u = model.entity_vecs[e(t.head)] * model.relation_vecs[r(t.relation)]
    return float(u @ model.entity_vecs[e(t.tail)])


def toy_kb(n=10):
    triples = [(f"e{i}", "r", f"e{(i + 3) % n}") for i in range(n)]
    triples += [(f"e{i}", "s", f"e{(i + 5) % n}") for i in range(0, n, 2)]
    return make_kb(triples)


class TestNativeTraining:
    def test_loss_decreases(self):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=16, seed=0)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=20, seed=0))
        assert model.loss_history[-1] < model.loss_history[0]

    def test_deterministic_under_seed(self):
        kb = toy_kb()
        runs = []
        for _ in range(2):
            model = NativeCompleter(kb, dim=16, seed=7)
            model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=10, seed=7))
            runs.append((model.entity_vecs.copy(), model.relation_vecs.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_step_matches_reference_bit_for_bit(self):
        def reference_step(entity_vecs, relation_vecs, batch, lr):
            """The step written with a fresh array per expression."""
            h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
            eh, wr = entity_vecs[h], relation_vecs[r]
            u = eh * wr
            logits = u @ entity_vecs.T
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probs = exp / exp.sum(axis=1, keepdims=True)
            n = len(batch)
            loss = -np.mean(np.log(probs[np.arange(n), t] + 1e-12))
            dlogits = probs
            dlogits[np.arange(n), t] -= 1.0
            du = dlogits @ entity_vecs
            grad_e = dlogits.T @ u
            np.add.at(grad_e, h, du * wr)
            grad_w = np.zeros_like(relation_vecs)
            np.add.at(grad_w, r, du * eh)
            return entity_vecs - lr * grad_e, relation_vecs - lr * grad_w, float(loss)

        kb = toy_kb(30)
        model = NativeCompleter(kb, dim=8, seed=3)
        encoded = model._encode(sorted(kb.triples))
        rng = np.random.default_rng(5)
        batches = [encoded[rng.choice(len(encoded), size, replace=False)] for size in (1, 7, 16)]
        batches.append(encoded[[0, 0, 1, 0]])  # a repeated head: np.add.at accumulates
        for batch in batches * 3:
            ent, rel, loss = reference_step(model.entity_vecs, model.relation_vecs, batch, 0.3)
            assert model._step(batch, 0.3) == loss
            assert np.array_equal(model.entity_vecs, ent)
            assert np.array_equal(model.relation_vecs, rel)
        assert model.entity_vecs.dtype == model.relation_vecs.dtype == np.float32

    @pytest.mark.parametrize("batch_size, message", [
        (64, "non-finite weights after training on 15 triples"),
        (4, "non-finite loss on batch of size 4"),
    ], ids=["last_update", "next_loss"])
    def test_overflow_is_a_training_error_without_warnings(self, batch_size, message):
        # at lr 1e308 the first update overflows float32; with one batch per
        # epoch no later loss sees it, so only the weight check can
        kb = toy_kb()
        config = TrainingConfig(epochs=1, batch_size=batch_size, learning_rate=1e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError, match=message):
                NativeCompleter(kb, dim=8, seed=0).pretrain(sorted(kb.triples), kb, config)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_fit_capacity_single_fact(self):
        # the only r-triple is (a, r, b); a fitted model must put b first
        kb = make_kb([("a", "r", "b"), ("c", "s", "d"), ("b", "s", "c")])
        model = NativeCompleter(kb, dim=16, seed=1)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=200, seed=1))
        top = model.predict(CompletionQuery("a", "r"), kb, 1)
        assert top[0].entity == "b"

    def test_empty_training_set_rejected(self):
        kb = toy_kb()
        with pytest.raises(ValueError):
            NativeCompleter(kb).pretrain([], kb)


class TestNativePredict:
    @pytest.fixture()
    def trained(self):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=16, seed=3)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=15, seed=3))
        return kb, model

    def test_untrained_raises(self):
        kb = toy_kb()
        with pytest.raises(ModelStateError):
            NativeCompleter(kb).predict(CompletionQuery("e0", "r"), kb, 1)

    def test_topk_matches_brute_force_argsort(self, trained):
        kb, model = trained
        query = CompletionQuery("e1", "r")
        preds = model.predict(query, kb, len(kb.entities))
        scored = [
            (score_triple(model, Triple("e1", "r", e)), e) for e in sorted(kb.entities)
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        assert [p.entity for p in preds] == [e for _, e in scored]
        # the matvec and the 1-D dot sum their dim float32 products in
        # different orders, rounding once per term
        rel = model.dim * np.finfo(np.float32).eps
        for p, (s, _) in zip(preds, scored):
            assert p.score == pytest.approx(s, rel=rel)

    def test_full_k_is_permutation(self, trained):
        kb, model = trained
        preds = model.predict(CompletionQuery("e0", "r"), kb, len(kb.entities))
        assert sorted(p.entity for p in preds) == sorted(kb.entities)

    def test_scores_monotone(self, trained):
        kb, model = trained
        preds = model.predict(CompletionQuery("e2", "s"), kb, len(kb.entities))
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)

    def test_k_one(self, trained):
        kb, model = trained
        assert len(model.predict(CompletionQuery("e0", "r"), kb, 1)) == 1

    def test_score_is_repeatable(self, trained):
        kb, model = trained
        query = CompletionQuery("e0", "r")
        assert np.array_equal(model.tail_scores(query, kb), model.tail_scores(query, kb))

    def test_unknown_entity(self, trained):
        kb, model = trained
        with pytest.raises(UnknownEntityError):
            model.predict(CompletionQuery("nope", "r"), kb, 1)

    def test_ties_ordered_by_id(self):
        # e10 and e9 tie at the top and every other tail but e0 ties at zero;
        # integer-valued rows make the tied scores exactly equal
        kb = make_kb([(f"e{i}", "r", f"e{(i + 1) % 40}") for i in range(40)])
        model = NativeCompleter(kb, dim=2, seed=0)
        model.entity_vecs = np.zeros((len(kb.entities), 2))
        model.relation_vecs = np.ones((len(kb.relations), 2))
        for e, value in (("e0", 1.0), ("e9", 2.0), ("e10", 2.0)):
            model.entity_vecs[model.entity_ids.index(e)] = (value, 0.0)
        model.trained = True
        query = CompletionQuery("e0", "r")
        assert [p.entity for p in model.predict(query, kb, 1)] == ["e10"]
        preds = model.predict(query, kb, len(kb.entities))
        zeros = sorted(set(kb.entities) - {"e0", "e9", "e10"})
        assert [p.entity for p in preds] == ["e10", "e9", "e0", *zeros]
        assert [p.score for p in preds[:3]] == [2.0, 2.0, 1.0]


    def test_topk_ties_at_boundary_keep_lowest_ids(self):
        # e02, e07 and e09 tie for second place: k=2 keeps e02, k=3 adds e07
        kb = make_kb([(f"e{i:02d}", "r", f"e{(i + 1) % 12:02d}") for i in range(12)])
        model = NativeCompleter(kb, dim=2, seed=0)
        values = [1.0, 0.5, 2.0, 0.25, 0.0, 3.0, 0.75, 2.0, 1.5, 2.0, 0.0, 1.25]
        model.entity_vecs = np.array([(v, 0.0) for v in values])
        model.relation_vecs = np.ones((len(kb.relations), 2))
        model.trained = True
        query = CompletionQuery("e00", "r")
        assert [p.entity for p in model.predict(query, kb, 2)] == ["e05", "e02"]
        assert [p.entity for p in model.predict(query, kb, 3)] == ["e05", "e02", "e07"]
        s = np.array(values)
        for k in range(1, len(values) + 2):
            want = [model.entity_ids[i] for i in np.argsort(-s, kind="stable")[:k]]
            assert [p.entity for p in model.predict(query, kb, k)] == want

    def test_topk_matches_full_argsort_with_random_ties(self):
        # integer-valued rows give exactly equal scores at random places
        rng = np.random.default_rng(11)
        kb = make_kb([(f"e{i:02d}", "r", f"e{(i + 1) % 40:02d}") for i in range(40)])
        model = NativeCompleter(kb, dim=3, seed=0)
        model.relation_vecs = np.ones((len(kb.relations), 3))
        model.trained = True
        query = CompletionQuery("e00", "r")
        for _ in range(50):
            model.entity_vecs = rng.integers(-2, 3, (40, 3)).astype(float)
            s = model.entity_vecs @ model.entity_vecs[0]
            for k in (1, 2, 5, 17, 39, 40):
                want = [model.entity_ids[i] for i in np.argsort(-s, kind="stable")[:k]]
                assert [p.entity for p in model.predict(query, kb, k)] == want


class TestReplayMemory:
    def test_distinct_uniform_draws(self):
        pool = [Triple(f"e{i}", "r", f"e{i+1}") for i in range(50)]
        memory = ReplayMemory(pool, seed=4)
        sample = memory.sample(10)
        assert len(sample) == 10 and len(set(sample)) == 10

    def test_oversample_returns_pool(self):
        pool = [Triple("a", "r", "b")]
        assert ReplayMemory(pool).sample(10) == pool

    def test_seeded_determinism(self):
        pool = [Triple(f"e{i}", "r", f"e{i+1}") for i in range(50)]
        assert ReplayMemory(pool, seed=1).sample(5) == ReplayMemory(pool, seed=1).sample(5)


class TestIncrementalFinetune:
    def pretrained(self):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=16, seed=5)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=15, seed=5))
        return kb, model

    def test_empty_path_is_bit_identical_noop(self):
        kb, model = self.pretrained()
        before_e = model.entity_vecs.copy()
        before_r = model.relation_vecs.copy()
        rng_state = model._rng.bit_generator.state
        out = model.incremental_finetune([], sorted(kb.triples), kb, TrainingConfig())
        assert out is model
        assert np.array_equal(model.entity_vecs, before_e)
        assert np.array_equal(model.relation_vecs, before_r)
        assert model._rng.bit_generator.state == rng_state

    def test_unseen_triple_score_strictly_increases(self):
        kb, model = self.pretrained()
        new = Triple("e0", "s", "e9")
        assert new not in kb.triples
        before = score_triple(model, new)
        replay = ReplayMemory(sorted(kb.triples), seed=0).sample(10)
        model.incremental_finetune([new], replay, kb, TrainingConfig(finetune_passes=5))
        assert score_triple(model, new) > before

    def test_unknown_entity_raises_before_any_update(self):
        kb, model = self.pretrained()
        before_e = model.entity_vecs.copy()
        before_r = model.relation_vecs.copy()
        path = [Triple("brand_new", "r", "e0")]
        with pytest.raises(UnknownEntityError):
            model.incremental_finetune(path, sorted(kb.triples)[:10], kb,
                                       TrainingConfig(finetune_passes=1))
        assert "brand_new" not in model.entity_ids
        assert np.array_equal(model.entity_vecs, before_e)
        assert np.array_equal(model.relation_vecs, before_r)

    def test_unknown_relation_raises_before_any_update(self):
        kb, model = self.pretrained()
        before_e = model.entity_vecs.copy()
        before_r = model.relation_vecs.copy()
        path = [Triple("e0", "brand_new", "e1")]
        with pytest.raises(UnknownRelationError):
            model.incremental_finetune(path, sorted(kb.triples)[:10], kb,
                                       TrainingConfig(finetune_passes=1))
        assert "brand_new" not in model.relation_ids
        assert np.array_equal(model.entity_vecs, before_e)
        assert np.array_equal(model.relation_vecs, before_r)

    def test_requires_pretraining(self):
        kb = toy_kb()
        model = NativeCompleter(kb)
        with pytest.raises(ModelStateError):
            model.incremental_finetune([Triple("e0", "r", "e1")], [], kb, TrainingConfig())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=16, seed=2)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=5, seed=2))
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = NativeCompleter.load(path, kb).completer
        assert np.array_equal(loaded.entity_vecs, model.entity_vecs)
        assert loaded.entity_ids == model.entity_ids
        assert loaded.trained
        q = CompletionQuery("e0", "r")
        assert [p.entity for p in loaded.predict(q, kb, 5)] == [
            p.entity for p in model.predict(q, kb, 5)
        ]

    def test_the_entity_vocabulary_is_the_kbs(self, tmp_path):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=4, seed=2)
        model.save(tmp_path / "model.npz")
        assert model._ent_index is kb.entity_index
        assert NativeCompleter.load(tmp_path / "model.npz", kb).completer._ent_index is kb.entity_index

    def test_the_relation_vocabulary_is_the_kbs(self, tmp_path):
        # same entities and the same number of relations, so only the ids differ
        model = NativeCompleter(make_kb([("a", "r", "b"), ("b", "s", "a")]), dim=4, seed=2)
        model.save(tmp_path / "model.npz")
        other = make_kb([("a", "r", "b"), ("b", "t", "a")])
        with pytest.raises(SnapshotError, match="does not match the KB's relations"):
            NativeCompleter.load(tmp_path / "model.npz", other)

    def test_no_pickles_and_the_rng_state_survives(self, tmp_path):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=8, seed=2)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=2, seed=2))
        path = tmp_path / "model.npz"
        model.save(path, log_lines=3)
        with np.load(path, allow_pickle=False) as data:
            assert data["entity_ids"].dtype.kind == "U"
            assert data["relation_ids"].dtype.kind == "U"
            assert data["rng_state"].dtype.kind == "U"
            assert int(data["log_lines"]) == 3
        loaded, log_lines = NativeCompleter.load(path, kb)
        assert log_lines == 3
        assert loaded.entity_ids == model.entity_ids
        assert loaded.relation_ids == model.relation_ids
        assert loaded._rng.random() == model._rng.random()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=8, seed=2)
        path = tmp_path / "model.npz"
        model.save(path)
        before = path.read_bytes()

        def disk_full(fh, **arrays):
            fh.write(b"partial")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError):
            model.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]


class StubTransport:
    """In-process stand-in for the completion service."""

    def __init__(self, samples):
        self.samples = samples
        self.requests = []

    def __call__(self, path, payload):
        self.requests.append((path, payload))
        if path == "complete":
            return {"samples": self.samples}
        return {"status": "completed"}


class TestRemoteCompleter:
    def test_catalog_filter_and_ranking(self, bieber_kb):
        transport = StubTransport(
            [
                {"text": "Jeremy Bieber", "logprob": -0.7},
                {"text": "Banana Split", "logprob": -0.2},
                {"text": "Pattie Mallette", "logprob": -1.1},
            ]
        )
        remote = RemoteCompleter(transport=transport, r_samples=10)
        preds = remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 5)
        assert [p.entity for p in preds] == ["Q16004214", "Q22092"]
        assert all(p.score > float("-inf") for p in preds)

    def test_duplicate_decodes_keep_best_logprob(self, bieber_kb):
        transport = StubTransport(
            [
                {"text": "Jeremy Bieber", "logprob": -2.0},
                {"text": "jeremy bieber", "logprob": -0.5},
            ]
        )
        remote = RemoteCompleter(transport=transport)
        preds = remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 5)
        assert preds[0].entity == "Q16004214"
        assert preds[0].score == pytest.approx(-0.5)

    def test_request_carries_sequence_and_sampling(self, bieber_kb):
        transport = StubTransport([])
        remote = RemoteCompleter(transport=transport, r_samples=500, temperature=1.0)
        remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 3)
        path, payload = transport.requests[0]
        assert path == "complete"
        assert payload["num_samples"] == 500
        assert payload["temperature"] == 1.0
        assert payload["sequence"].startswith("predict tail: Justin Bieber | father")

    def test_finetune_wire_shape(self, bieber_kb):
        transport = StubTransport([])
        remote = RemoteCompleter(transport=transport)
        replay = sorted(bieber_kb.triples)[:2]
        remote.incremental_finetune(
            [Triple("Q34086", "P22", "Q16004214")], replay, bieber_kb, TrainingConfig(),
        )
        path, payload = transport.requests[0]
        assert path == "finetune"
        assert payload["triples"] == [["Justin Bieber", "father", "Jeremy Bieber"]]
        assert payload["replay"] == [
            [bieber_kb.label_of(h), bieber_kb.relation_label(r), bieber_kb.label_of(t)]
            for h, r, t in replay
        ]

    def test_empty_finetune_posts_nothing(self, bieber_kb):
        transport = StubTransport([])
        remote = RemoteCompleter(transport=transport)
        assert remote.incremental_finetune([], sorted(bieber_kb.triples)[:2], bieber_kb,
                                           TrainingConfig()) is remote
        assert transport.requests == []

    def test_malformed_response(self, bieber_kb):
        remote = RemoteCompleter(transport=lambda path, payload: {"oops": 1})
        with pytest.raises(CompleterTransportError):
            remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 1)

    @pytest.mark.parametrize("call, reply", [
        ("pretrain", []),
        ("pretrain", "x"),
        ("pretrain", None),
        ("finetune", []),
        ("finetune", "x"),
        ("finetune", None),
        ("complete", {"samples": [1]}),
        ("complete", {"samples": None}),
        ("complete", {"samples": [{"logprob": -0.1}]}),
        ("complete", {"samples": [{"text": "Jeremy Bieber"}]}),
        ("complete", {"samples": [{"text": "Jeremy Bieber", "logprob": "high"}]}),
        ("complete", {"samples": [{"text": "Jeremy Bieber", "logprob": "nan"}]}),
        ("complete", {"samples": [{"text": "Jeremy Bieber", "logprob": "inf"}]}),
        ("complete", {"samples": [{"text": "Jeremy Bieber", "logprob": float("nan")}]}),
    ])
    def test_reply_of_another_shape_is_a_transport_error(self, bieber_kb, call, reply):
        """A reply the service should never send is the transport error a
        caller skips the question on, never a crash of the run."""
        remote = RemoteCompleter(transport=lambda path, payload: reply)
        triple = Triple("Q34086", "P22", "Q16004214")
        with pytest.raises(CompleterTransportError):
            if call == "pretrain":
                remote.pretrain([triple], bieber_kb)
            elif call == "finetune":
                remote.incremental_finetune([triple], [], bieber_kb, TrainingConfig())
            else:
                remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 1)


class _CompletionHandler(BaseHTTPRequestHandler):
    samples = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        json.loads(self.rfile.read(length))
        body = json.dumps(
            {"samples": self.samples} if self.path.endswith("complete") else {"status": "completed"}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestRemoteOverHttp:
    def test_loopback_roundtrip(self, bieber_kb, loopback):
        _CompletionHandler.samples = [{"text": "Jeremy Bieber", "logprob": -0.4}]
        server = loopback(_CompletionHandler)
        remote = RemoteCompleter(f"http://127.0.0.1:{server.server_port}", r_samples=5)
        preds = remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 2)
        assert [p.entity for p in preds] == ["Q16004214"]

    def test_unreachable_endpoint(self, bieber_kb, monkeypatch):
        sleeps = []
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        remote = RemoteCompleter("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(CompleterTransportError, match="after 3 attempts"):
            remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 1)
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("status, attempts", [(503, 3), (429, 3), (400, 1)])
    def test_retries_transient_statuses_only(self, bieber_kb, monkeypatch, loopback, status,
                                             attempts):
        monkeypatch.setattr(llm.time, "sleep", lambda s: None)
        _FlakyCompletionHandler.fail_first = 2
        _FlakyCompletionHandler.status = status
        _FlakyCompletionHandler.seen = 0
        server = loopback(_FlakyCompletionHandler)
        remote = RemoteCompleter(f"http://127.0.0.1:{server.server_port}", r_samples=5)
        query = CompletionQuery("Q34086", "P22")
        if status == 400:
            with pytest.raises(CompleterTransportError, match="status 400"):
                remote.predict(query, bieber_kb, 2)
        else:
            assert [p.entity for p in remote.predict(query, bieber_kb, 2)] == ["Q16004214"]
        assert _FlakyCompletionHandler.seen == attempts

    def test_file_endpoint_is_rejected(self, bieber_kb, tmp_path):
        """A ``file:`` endpoint would answer from a local file; it is refused
        before anything is read."""
        samples = {"samples": [{"text": "Jeremy Bieber", "logprob": -0.4}]}
        (tmp_path / "complete").write_text(json.dumps(samples), encoding="utf-8")
        remote = RemoteCompleter(tmp_path.as_uri(), r_samples=5)
        with pytest.raises(ValueError, match="http:// or https://"):
            remote.predict(CompletionQuery("Q34086", "P22"), bieber_kb, 2)


class _FlakyCompletionHandler(_CompletionHandler):
    """Answers ``status`` to the first ``fail_first`` requests."""

    samples = [{"text": "Jeremy Bieber", "logprob": -0.4}]
    fail_first = 0
    status = 503
    seen = 0

    def do_POST(self):
        cls = type(self)
        cls.seen += 1
        if cls.seen <= cls.fail_first:
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(cls.status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        super().do_POST()

