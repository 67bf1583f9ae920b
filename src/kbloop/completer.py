"""Trainable triple completer behind a uniform interface.

Two realizations share one contract, ``tail_scores`` / ``pretrain`` /
``incremental_finetune``, and both answer one kind of query: the missing
tail of a (head, relation) pair. Their ``predict`` is :func:`top_k` over
their own ``tail_scores``.

* ``NativeCompleter`` — a bilinear model over entity and relation embeddings,
  score(h, r, t) = dot(e_h * w_r, e_t), trained with softmax cross-entropy
  over all entities. Small, deterministic, CPU-only, fully in process; its
  tables, and every product computed from them, are float32.
* ``RemoteCompleter`` — delegates to an external completion service (for
  example a text-generation model) over a JSON request/response channel and
  filters decoded texts through the KB label catalog, so predictions can
  never name an entity the KB does not know.

Incremental fine-tuning mixes the new triples with replay triples, a uniform
sample of the original training pool that the joint loop draws from its
:class:`ReplayMemory`, to keep earlier knowledge from washing out.
"""

from __future__ import annotations

import json
import logging
import math
import random
import zipfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .durable import write_atomic
from .kb import (
    EntityId,
    KnowledgeBase,
    RelationId,
    Triple,
    UnknownEntityError,
    UnknownRelationError,
)
from .llm import post_json

logger = logging.getLogger(__name__)

SEP_TOKEN = "⟨SEP⟩"  # ⟨SEP⟩


class ModelStateError(Exception):
    """Operation requires a trained model."""


class TrainingError(Exception):
    """Training produced a non-finite loss or non-finite weights."""


class CompleterTransportError(Exception):
    """The remote completion service could not be reached or answered badly."""


class SnapshotError(Exception):
    """A completer snapshot is missing, damaged, out of date or from another KB."""


@dataclass(frozen=True)
class CompletionQuery:
    """A tail query: which entity completes (h, r, ?)."""

    h: EntityId
    r: RelationId

    @classmethod
    def tail_query(cls, h: EntityId, r: RelationId) -> "CompletionQuery":
        """The constructor under an older name; ``perfbench/selftest.py`` still calls it."""
        return cls(h, r)


@dataclass(frozen=True)
class RankedPrediction:
    entity: EntityId
    score: float


@dataclass
class TrainingConfig:
    epochs: int = 30
    learning_rate: float = 0.01
    batch_size: int = 64
    seed: int = 0  # also seeds `kb prepare`'s split and sample and the native completer's weights
    # sweeps over the combined new+replay sample during one fine-tune call
    finetune_passes: int = 10
    replay_samples_per_triple: int = 10

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("finetune_passes", 1),
                            ("replay_samples_per_triple", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if not 0 < self.learning_rate < math.inf:  # NaN fails both
            raise ValueError("learning_rate must be finite and positive")


class ReplayMemory:
    """Uniform sampler over the original training triples."""

    def __init__(self, pool, seed: int = 0):
        self.pool: list[Triple] = sorted(set(pool))
        self._rng = random.Random(seed)

    def sample(self, n: int) -> list[Triple]:
        """Draw ``n`` distinct triples uniformly (the whole pool if smaller)."""
        if n >= len(self.pool):
            return list(self.pool)
        return self._rng.sample(self.pool, n)


def top_k(scores: np.ndarray, entity_ids, k: int) -> list[RankedPrediction]:
    """The top-k rule of every completer: the candidates that score at least
    the k-th best, by descending score, ties in ``entity_ids`` order (the
    KB's ascending id order, which is the order of ``scores``), at most
    ``k``. Minus infinity, an entity a remote completer never decoded, is
    never a candidate."""
    neg = -scores
    k = min(k, len(neg))
    candidates = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    candidates = candidates[neg[candidates] != math.inf]
    order = candidates[np.argsort(neg[candidates], kind="stable")[:k]]
    return [RankedPrediction(entity_ids[i], float(scores[i])) for i in order]


def _label_rows(kb: KnowledgeBase, triples) -> list[list[str]]:
    """Triples as ``[label, relation label, label]`` rows, the remote wire form."""
    return [[kb.label_of(h), kb.relation_label(r), kb.label_of(t)] for h, r, t in triples]


def render_context_triple(kb: KnowledgeBase, t: Triple) -> str:
    return (
        f"⟨ {kb.label_of(t.head)} | {kb.relation_label(t.relation)}"
        f" | {kb.label_of(t.tail)} ⟩"
    )


def build_input_sequence(kb: KnowledgeBase, query: CompletionQuery, max_context: int = 20) -> str:
    """Assemble the completer's textual input for a tail query.

    Layout: a directive line naming the known head and relation, the head
    entity's description in brackets, the query relation, then
    co-occurrence-ranked context triples of the head joined by the separator
    token.
    """
    record = kb.entity(query.h)
    rel_label = kb.relation_label(query.r)
    lines = [
        f"predict tail: {record.label} | {rel_label}",
        f"entity description: {record.label} [{record.description}]",
        f"related relationship: {rel_label}",
    ]
    context = kb.select_context(query.h, query.r, max_context)
    rendered = f" {SEP_TOKEN} ".join(render_context_triple(kb, t) for t in context)
    lines.append(f"context: {rendered}" if rendered else "context:")
    return "\n".join(lines)


class NativeCompleter:
    """Bilinear embedding completer trained with softmax cross-entropy.

    Embeddings start uniform in [-1/sqrt(d), 1/sqrt(d)] and are updated with
    plain SGD. The tables are float32: the uniforms are drawn in float64 and
    cast, so the generator's stream does not depend on the precision. Every
    step, score and snapshot stays float32. All randomness flows through one
    generator seeded at construction, so identical call sequences give
    bit-identical models.
    """

    def __init__(self, kb: KnowledgeBase, dim: int = 64, seed: int = 0):
        self.dim = dim
        self.entity_ids: list[EntityId] = list(kb.entity_index)
        self.relation_ids: list[RelationId] = sorted(kb.relations)
        self._ent_index = kb.entity_index
        self._rel_index = {r: i for i, r in enumerate(self.relation_ids)}
        self._rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(dim)
        self.entity_vecs, self.relation_vecs = (
            self._rng.uniform(-bound, bound, (n, dim)).astype(np.float32)
            for n in (len(self.entity_ids), len(self.relation_ids))
        )
        self.trained = False
        self.loss_history: list[float] = []

    # -- vocabulary -------------------------------------------------------

    def _eidx(self, e: EntityId) -> int:
        try:
            return self._ent_index[e]
        except KeyError:
            raise UnknownEntityError(f"entity {e!r} not in completer vocabulary") from None

    def _ridx(self, r: RelationId) -> int:
        try:
            return self._rel_index[r]
        except KeyError:
            raise UnknownRelationError(f"relation {r!r} not in completer vocabulary") from None

    # -- training ---------------------------------------------------------

    def _encode(self, triples) -> np.ndarray:
        return np.array(
            [(self._eidx(h), self._ridx(r), self._eidx(t)) for h, r, t in triples],
            dtype=np.int64,
        )

    # Overflow shows as a non-finite loss here or as non-finite weights in
    # _run_passes, so numpy's warnings would only repeat it.
    @np.errstate(over="ignore", invalid="ignore")
    def _step(self, batch: np.ndarray, lr: float) -> float:
        """One SGD step on softmax cross-entropy over all entities as tails.

        The objective is summed (not averaged) over the batch, so the update
        scale per example is independent of batch size; the returned loss is
        the per-example mean, for monitoring.
        """
        h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
        eh = self.entity_vecs[h]
        wr = self.relation_vecs[r]
        u = eh * wr                                   # (B, d)
        probs = u @ self.entity_vecs.T                # logits, (B, |E|), softmaxed in place
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        n = len(batch)
        loss = -np.mean(np.log(probs[np.arange(n), t] + 1e-12))
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss on batch of size {n}")

        probs[np.arange(n), t] -= 1.0                 # now d(loss)/d(logits)
        du = probs @ self.entity_vecs                 # (B, d)
        grad_e = probs.T @ u                          # candidate side, (|E|, d)
        np.add.at(grad_e, h, du * wr)
        grad_w = np.zeros_like(self.relation_vecs)
        np.add.at(grad_w, r, du * eh)
        grad_e *= lr
        grad_w *= lr
        self.entity_vecs -= grad_e
        self.relation_vecs -= grad_w
        return float(loss)

    def _run_passes(self, encoded: np.ndarray, config: TrainingConfig, n_passes: int) -> list[float]:
        losses = []
        for _ in range(n_passes):
            order = self._rng.permutation(len(encoded))
            epoch_losses = []
            for start in range(0, len(encoded), config.batch_size):
                batch = encoded[order[start:start + config.batch_size]]
                epoch_losses.append(self._step(batch, config.learning_rate))
            losses.append(float(np.mean(epoch_losses)))
        # float32 overflows sooner than float64, and the last update of a call
        # is checked by no later loss
        if not (np.isfinite(self.entity_vecs).all() and np.isfinite(self.relation_vecs).all()):
            raise TrainingError(f"non-finite weights after training on {len(encoded)} triples")
        return losses

    def pretrain(self, train_triples, kb: KnowledgeBase, config: TrainingConfig | None = None) -> "NativeCompleter":
        config = config or TrainingConfig()
        triples = sorted(set(train_triples))
        if not triples:
            raise ValueError("pretraining needs a non-empty triple set")
        encoded = self._encode(triples)
        self.loss_history = self._run_passes(encoded, config, config.epochs)
        self.trained = True
        logger.info(
            "pretrained on %d triples: loss %.4f -> %.4f",
            len(triples), self.loss_history[0], self.loss_history[-1],
        )
        return self

    def incremental_finetune(self, path_triples, replay, kb: KnowledgeBase,
                             config: TrainingConfig) -> "NativeCompleter":
        """Fine-tune on new triples mixed with the ``replay`` triples:
        ``config.finetune_passes`` minibatch sweeps over the combined sample.

        An empty ``path_triples`` is a no-op and leaves the model and its RNG
        bit-identical. The vocabulary is fixed at construction: a triple
        naming an entity or relation outside it raises
        :class:`UnknownEntityError` or :class:`UnknownRelationError` before
        any weight moves.
        """
        path_triples = list(path_triples)
        if not path_triples:
            return self
        if not self.trained:
            raise ModelStateError("incremental fine-tuning requires a pretrained model")
        combined = self._encode(path_triples + list(replay))
        self._run_passes(combined, config, config.finetune_passes)
        return self

    # -- inference ----------------------------------------------------------

    def tail_scores(self, query: CompletionQuery, kb: KnowledgeBase) -> np.ndarray:
        """Score of every entity as the tail of the query, in ``entity_ids`` order."""
        if not self.trained:
            raise ModelStateError("model has not been trained")
        u = self.entity_vecs[self._eidx(query.h)] * self.relation_vecs[self._ridx(query.r)]
        return self.entity_vecs @ u

    def predict(self, query: CompletionQuery, kb: KnowledgeBase, k: int) -> list[RankedPrediction]:
        """The :func:`top_k` tail candidates."""
        return top_k(self.tail_scores(query, kb), self.entity_ids, k)

    # -- persistence --------------------------------------------------------

    def save(self, path, log_lines: int = 0) -> None:
        """Write the model and ``log_lines`` beside it (see :class:`Snapshot`;
        the default is a run's start) to ``path`` atomically, with no pickled
        object. Ids and the RNG state are unicode string arrays."""
        arrays = {
            "entity_ids": np.array(self.entity_ids, dtype=str),
            "relation_ids": np.array(self.relation_ids, dtype=str),
            "entity_vecs": self.entity_vecs,
            "relation_vecs": self.relation_vecs,
            "trained": np.array([self.trained]),
            "rng_state": np.array(json.dumps(self._rng.bit_generator.state, default=int)),
            "log_lines": np.array(log_lines),
        }
        write_atomic(path, lambda fh: np.savez(fh, **arrays))

    @classmethod
    def load(cls, path, kb: KnowledgeBase) -> "Snapshot":
        """Read back what :meth:`save` wrote, checked for use with ``kb``. A
        snapshot that is missing, damaged, older (lacking a key) or fails a
        check raises :class:`SnapshotError` naming ``path``."""
        def refuse(problem):
            return SnapshotError(f"completer checkpoint {path} {problem}; run `kbloop pretrain` again")

        model = cls.__new__(cls)
        try:
            # np.load leaks a file it opened itself when the archive is damaged
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                model.entity_ids = data["entity_ids"].tolist()
                model.relation_ids = data["relation_ids"].tolist()
                model.entity_vecs = data["entity_vecs"]
                model.relation_vecs = data["relation_vecs"]
                model.trained = bool(data["trained"][0])
                rng_state = json.loads(str(data["rng_state"]))
                log_lines = int(data["log_lines"])
            model._rng = np.random.default_rng()
            model._rng.bit_generator.state = rng_state
        except FileNotFoundError:
            raise SnapshotError(f"no completer checkpoint {path}; run `kbloop pretrain` first") from None
        except (OSError, EOFError, zipfile.BadZipFile, KeyError, IndexError, TypeError, ValueError) as exc:
            raise refuse(f"cannot be read ({exc!r})") from exc
        dtypes = {model.entity_vecs.dtype.name, model.relation_vecs.dtype.name}
        if dtypes != {"float32"}:
            raise refuse(f"holds {'/'.join(sorted(dtypes))} tables, not float32")
        if model.entity_ids != list(kb.entity_index):
            raise refuse("does not match the KB's entities")
        if model.relation_ids != sorted(kb.relations):
            raise refuse("does not match the KB's relations")
        dim = model.entity_vecs.shape[1:2]  # () for a table that is not 2-D
        if (not dim or model.entity_vecs.shape != (len(model.entity_ids), *dim)
                or model.relation_vecs.shape != (len(model.relation_ids), *dim)):
            raise refuse("holds tables whose rows do not match its ids")
        model.dim = dim[0]
        model._ent_index = kb.entity_index
        model._rel_index = {r: i for i, r in enumerate(model.relation_ids)}
        model.loss_history = []
        return Snapshot(model, log_lines)


class Snapshot(NamedTuple):
    """A completer and how many question-log lines it includes: a native
    one as :meth:`NativeCompleter.load` read it, or a remote one, whose
    service holds every line. The replay sampler's state is not stored; the
    joint loop redraws it from the log."""

    completer: NativeCompleter | RemoteCompleter
    log_lines: int = 0


def _http_transport(endpoint: str, timeout: float):
    def post(path: str, payload: dict) -> dict:
        url = f"{endpoint.rstrip('/')}/{path}"
        return post_json(url, payload, CompleterTransportError, timeout)
    return post


class RemoteCompleter:
    """Completion model served out of process.

    The wire contract is JSON over POST:

    * ``complete``: ``{"sequence": str, "num_samples": int, "temperature": float}``
      -> ``{"samples": [{"text": str, "logprob": float}, ...]}``, each ``logprob`` finite
    * ``pretrain``: ``{"triples": [[h, r, t], ...]}`` -> ``{"status": "completed"}``
      (labels, not ids; blocks until done)
    * ``finetune``: ``{"triples": [[h, r, t], ...], "replay": [[h, r, t], ...]}``
      -> ``{"status": "completed"}``

    Decoded sample texts are looked up in the KB label catalog; texts that do
    not name a KB entity are dropped, and an entity decoded more than once
    keeps its best log-probability. Entities never decoded are treated as
    minus infinity and never appear in predictions.
    """

    def __init__(
        self,
        endpoint: str = "",
        r_samples: int = 500,
        temperature: float = 1.0,
        max_context: int = 20,
        timeout: float = 60.0,
        transport=None,
    ):
        self.endpoint = endpoint
        self.r_samples = r_samples
        self.temperature = temperature
        self.max_context = max_context
        self._post = transport or _http_transport(endpoint, timeout)
        self.trained = True  # service owns training state

    def _decode(self, query: CompletionQuery, kb: KnowledgeBase) -> dict[EntityId, float]:
        reply = self._post("complete", {"sequence": build_input_sequence(kb, query, self.max_context),
                                        "num_samples": self.r_samples, "temperature": self.temperature})
        try:
            samples = [(str(sample["text"]), float(sample["logprob"])) for sample in reply["samples"]]
            if not all(math.isfinite(logprob) for _, logprob in samples):
                raise ValueError("a logprob is not finite")
        except (TypeError, KeyError, ValueError):
            raise CompleterTransportError(f"malformed completion response: {reply!r}") from None
        best: dict[EntityId, float] = {}
        for text, logprob in samples:
            for eid in kb.lookup_label(text):
                best[eid] = max(logprob, best.get(eid, -math.inf))
        return best

    def tail_scores(self, query: CompletionQuery, kb: KnowledgeBase) -> np.ndarray:
        """Best decoded log-probability of every entity, in ``kb.entity_index``
        order; minus infinity for an entity never decoded."""
        index = kb.entity_index
        scores = np.full(len(index), -math.inf)
        for eid, logprob in self._decode(query, kb).items():
            scores[index[eid]] = logprob
        return scores

    def predict(self, query: CompletionQuery, kb: KnowledgeBase, k: int) -> list[RankedPrediction]:
        """The :func:`top_k` tail candidates, decoded ones only."""
        return top_k(self.tail_scores(query, kb), list(kb.entity_index), k)

    def pretrain(self, train_triples, kb: KnowledgeBase, config: TrainingConfig | None = None) -> "RemoteCompleter":
        reply = self._post("pretrain", {"triples": _label_rows(kb, sorted(set(train_triples)))})
        if not isinstance(reply, dict) or reply.get("status") != "completed":
            raise CompleterTransportError(f"pretraining did not complete: {reply!r}")
        return self

    def incremental_finetune(self, path_triples, replay, kb: KnowledgeBase,
                             config: TrainingConfig) -> "RemoteCompleter":
        path_triples = list(path_triples)
        if not path_triples:
            return self
        reply = self._post("finetune", {"triples": _label_rows(kb, path_triples),
                                        "replay": _label_rows(kb, replay)})
        if not isinstance(reply, dict) or reply.get("status") != "completed":
            raise CompleterTransportError(f"fine-tuning did not complete: {reply!r}")
        return self
