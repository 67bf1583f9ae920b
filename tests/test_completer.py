"""Completer: input sequences, the native bilinear model against brute-force
scoring, replay fine-tuning, and the remote wire contract."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from kbloop.completer import (
    CompleterTransportError,
    CompletionQuery,
    ModelStateError,
    NativeCompleter,
    RemoteCompleter,
    ReplayMemory,
    TrainingConfig,
    build_input_sequence,
)
from kbloop.kb import Triple, UnknownEntityError

from conftest import make_kb


class TestInputSequence:
    def test_tail_query_layout(self, bieber_kb):
        seq = build_input_sequence(bieber_kb, CompletionQuery.tail_query("Q34086", "P22"))
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
        seq = build_input_sequence(kb, CompletionQuery.tail_query("e", "r"))
        assert "entity description: e []" in seq

    def test_max_context_zero(self, bieber_kb):
        seq = build_input_sequence(bieber_kb, CompletionQuery.tail_query("Q34086", "P22"), 0)
        assert seq.splitlines()[-1] == "context:"

    def test_pure_function(self, bieber_kb):
        q = CompletionQuery.tail_query("Q34086", "P22")
        assert build_input_sequence(bieber_kb, q) == build_input_sequence(bieber_kb, q)

    def test_unknown_entity(self, bieber_kb):
        with pytest.raises(UnknownEntityError):
            build_input_sequence(bieber_kb, CompletionQuery.tail_query("Q404", "P22"))


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

    def test_fit_capacity_single_fact(self):
        # the only r-triple is (a, r, b); a fitted model must put b first
        kb = make_kb([("a", "r", "b"), ("c", "s", "d"), ("b", "s", "c")])
        model = NativeCompleter(kb, dim=16, seed=1)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=200, seed=1))
        top = model.predict(CompletionQuery.tail_query("a", "r"), kb, 1)
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
            NativeCompleter(kb).predict(CompletionQuery.tail_query("e0", "r"), kb, 1)

    def test_topk_matches_brute_force_argsort(self, trained):
        kb, model = trained
        query = CompletionQuery.tail_query("e1", "r")
        preds = model.predict(query, kb, len(kb.entities))
        scored = [
            (model.score_triple(Triple("e1", "r", e)), e) for e in sorted(kb.entities)
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        assert [p.entity for p in preds] == [e for _, e in scored]
        for p, (s, _) in zip(preds, scored):
            assert p.score == pytest.approx(s, abs=1e-12)

    def test_full_k_is_permutation(self, trained):
        kb, model = trained
        preds = model.predict(CompletionQuery.tail_query("e0", "r"), kb, len(kb.entities))
        assert sorted(p.entity for p in preds) == sorted(kb.entities)

    def test_scores_monotone(self, trained):
        kb, model = trained
        preds = model.predict(CompletionQuery.tail_query("e2", "s"), kb, len(kb.entities))
        scores = [p.score for p in preds]
        assert scores == sorted(scores, reverse=True)

    def test_k_one(self, trained):
        kb, model = trained
        assert len(model.predict(CompletionQuery.tail_query("e0", "r"), kb, 1)) == 1

    def test_score_is_repeatable(self, trained):
        kb, model = trained
        t = Triple("e0", "r", "e3")
        assert model.score_triple(t) == model.score_triple(t)

    def test_unknown_entity(self, trained):
        kb, model = trained
        with pytest.raises(UnknownEntityError):
            model.score_triple(Triple("nope", "r", "e1"))


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
        memory = ReplayMemory(sorted(kb.triples), seed=0)
        out = model.incremental_finetune([], memory, 10, kb, TrainingConfig())
        assert out is model
        assert np.array_equal(model.entity_vecs, before_e)
        assert np.array_equal(model.relation_vecs, before_r)

    def test_one_triple_draws_ten_replay(self, monkeypatch):
        kb, model = self.pretrained()
        memory = ReplayMemory(sorted(kb.triples), seed=0)
        seen = {}
        original = model._run_passes

        def spy(encoded, config, n_passes):
            seen["batch"] = len(encoded)
            return original(encoded, config, n_passes)

        monkeypatch.setattr(model, "_run_passes", spy)
        model.incremental_finetune(
            [Triple("e0", "s", "e1")], memory, 10, kb, TrainingConfig(finetune_passes=1)
        )
        assert seen["batch"] == 11

    def test_unseen_triple_score_strictly_increases(self):
        kb, model = self.pretrained()
        new = Triple("e0", "s", "e9")
        assert new not in kb.triples
        before = model.score_triple(new)
        memory = ReplayMemory(sorted(kb.triples), seed=0)
        model.incremental_finetune([new], memory, 10, kb, TrainingConfig(finetune_passes=5))
        assert model.score_triple(new) > before

    def test_new_symbols_registered(self):
        kb, model = self.pretrained()
        memory = ReplayMemory(sorted(kb.triples), seed=0)
        path = [Triple("brand_new", "r", "e0")]
        model.incremental_finetune(path, memory, 10, kb, TrainingConfig(finetune_passes=1))
        assert "brand_new" in model.entity_ids
        preds = model.predict(CompletionQuery.tail_query("brand_new", "r"), kb, 3)
        assert len(preds) == 3

    def test_requires_pretraining(self):
        kb = toy_kb()
        model = NativeCompleter(kb)
        with pytest.raises(ModelStateError):
            model.incremental_finetune(
                [Triple("e0", "r", "e1")], ReplayMemory(sorted(kb.triples)), 10, kb
            )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        kb = toy_kb()
        model = NativeCompleter(kb, dim=16, seed=2)
        model.pretrain(sorted(kb.triples), kb, TrainingConfig(epochs=5, seed=2))
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = NativeCompleter.load(path)
        assert np.array_equal(loaded.entity_vecs, model.entity_vecs)
        assert loaded.entity_ids == model.entity_ids
        assert loaded.trained
        q = CompletionQuery.tail_query("e0", "r")
        assert [p.entity for p in loaded.predict(q, kb, 5)] == [
            p.entity for p in model.predict(q, kb, 5)
        ]


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
        preds = remote.predict(CompletionQuery.tail_query("Q34086", "P22"), bieber_kb, 5)
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
        preds = remote.predict(CompletionQuery.tail_query("Q34086", "P22"), bieber_kb, 5)
        assert preds[0].entity == "Q16004214"
        assert preds[0].score == pytest.approx(-0.5)

    def test_request_carries_sequence_and_sampling(self, bieber_kb):
        transport = StubTransport([])
        remote = RemoteCompleter(transport=transport, r_samples=500, temperature=1.0)
        remote.predict(CompletionQuery.tail_query("Q34086", "P22"), bieber_kb, 3)
        path, payload = transport.requests[0]
        assert path == "complete"
        assert payload["num_samples"] == 500
        assert payload["temperature"] == 1.0
        assert payload["sequence"].startswith("predict tail: Justin Bieber | father")

    def test_finetune_wire_shape(self, bieber_kb):
        transport = StubTransport([])
        remote = RemoteCompleter(transport=transport)
        memory = ReplayMemory(sorted(bieber_kb.triples), seed=0)
        remote.incremental_finetune(
            [Triple("Q34086", "P22", "Q16004214")], memory, samples_per_triple=2, kb=bieber_kb
        )
        path, payload = transport.requests[0]
        assert path == "finetune"
        assert payload["triples"] == [["Justin Bieber", "father", "Jeremy Bieber"]]
        assert len(payload["replay"]) == 2

    def test_malformed_response(self, bieber_kb):
        remote = RemoteCompleter(transport=lambda path, payload: {"oops": 1})
        with pytest.raises(CompleterTransportError):
            remote.predict(CompletionQuery.tail_query("Q34086", "P22"), bieber_kb, 1)


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
    def test_loopback_roundtrip(self, bieber_kb):
        _CompletionHandler.samples = [{"text": "Jeremy Bieber", "logprob": -0.4}]
        server = HTTPServer(("127.0.0.1", 0), _CompletionHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            remote = RemoteCompleter(f"http://127.0.0.1:{server.server_port}", r_samples=5)
            preds = remote.predict(CompletionQuery.tail_query("Q34086", "P22"), bieber_kb, 2)
            assert [p.entity for p in preds] == ["Q16004214"]
        finally:
            server.shutdown()
            thread.join()

    def test_unreachable_endpoint(self, bieber_kb):
        remote = RemoteCompleter("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(CompleterTransportError):
            remote.predict(CompletionQuery.tail_query("Q34086", "P22"), bieber_kb, 1)
