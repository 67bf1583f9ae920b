"""Spans recorded around the program's public functions, from the benchmark side.

``Recorder.wrap(owner, attr, name)`` replaces ``owner.attr`` (a module
function, a method, a classmethod or a click callback) with a wrapper that
records a span: name, start, end, parent span and question id. Spans stay in
memory; ``dump`` writes them when the run ends and ``restore`` puts the
original attributes back. A name bound by ``from ... import`` is wrapped
where it is looked up (``kbloop.agent.link_relation``, not
``kbloop.retrieval.link_relation``).

The untraced run wraps only the set-up calls its end-to-end metrics leave
out of the stage rates (``install_setup``); the traced run wraps every layer
(``install_layers``). A function the program no longer has is not wrapped
and is listed in ``Recorder.missing``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "info", "child_s")

    def __init__(self, name, start, parent, qid):
        self.name, self.start, self.end = name, start, start
        self.parent, self.qid, self.info, self.child_s = parent, qid, None, 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part its child spans cover (children nest and
        do not overlap: the program is single-threaded)."""
        return self.duration - self.child_s


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.qid = None
        self._stack: list[Span] = []
        self._undo = []
        self.missing: list[str] = []

    def wrap(self, owner, attr, name, info=None, question=False):
        """Record a span named ``name`` at every call of ``owner.attr``.

        ``info(args, kwargs, result)`` stores a small value on the span;
        ``question`` makes the first argument the current question id.
        """
        if isinstance(owner, type):
            raw = next((k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__), None)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(name)
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if question:
                rec.qid = args[0]
            parent = rec._stack[-1] if rec._stack else None
            span = Span(name, _now(), parent, rec.qid)
            rec._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                rec._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                rec.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def call(self, name, fn):
        """Run ``fn()`` inside a span named ``name`` holding its result."""
        span = Span(name, _now(), self._stack[-1] if self._stack else None, self.qid)
        span.info = fn()
        span.end = _now()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)
        return span.info

    def patch(self, owner, attr, value) -> None:
        """Replace ``owner.attr`` until ``restore``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    @contextlib.contextmanager
    def stage(self, name):
        """A span for one pipeline stage, the root of the spans inside it."""
        span = Span(name, _now(), None, None)
        self.qid = None
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = _now()
            self._stack.pop()
            self.spans.append(span)
            self.qid = None

    # -- queries ----------------------------------------------------------

    def named(self, name, stage=None) -> list[Span]:
        out = [s for s in self.spans if s.name == name]
        if stage is not None:
            out = [s for s in out if self.stage_of(s) == stage]
        return out

    def stage_of(self, span: Span) -> str | None:
        while span.parent is not None:
            span = span.parent
        return span.name if span.name.startswith("stage.") else None

    def total(self, name, stage=None) -> float:
        return sum(s.duration for s in self.named(name, stage))

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "qid": s.qid,
                    "info": s.info,
                }, ensure_ascii=False) + "\n")


def _file_mb(args, kwargs, result):
    import os
    return os.path.getsize(str(args[1])) / 1e6


def install_setup(rec: Recorder) -> None:
    """The untraced run's wrappers: the set-up calls every later stage makes
    (loading the working KB and the checkpoint), and ``pretrain``, whose
    loss history the checks read. Each costs about a microsecond."""
    import kbloop.cli as cli
    from kbloop.completer import NativeCompleter

    rec.wrap(cli, "_working_kb", "cli.working_kb")
    rec.wrap(NativeCompleter, "load", "completer.load")
    rec.wrap(NativeCompleter, "pretrain", "completer.pretrain",
             info=lambda a, k, r: list(r.loss_history))


def install_layers(rec: Recorder, chat_owner) -> None:
    """Wrap every layer's public functions for the traced run."""
    import kbloop.agent as agent
    import kbloop.cli as cli
    import kbloop.joint as joint
    import kbloop.kb as kb
    import kbloop.metrics as metrics
    from kbloop.completer import NativeCompleter

    install_setup(rec)
    rec.wrap(NativeCompleter, "predict", "completer.predict",
             info=lambda a, k, r: a[3] if len(a) > 3 else k["k"])
    rec.wrap(joint.RunLog, "save_checkpoint", "joint.checkpoint")
    rec.wrap(agent, "run_episode", "agent.run_episode", question=True,
             info=lambda a, k, r: len(r.steps))
    rec.wrap(joint, "run_episode", "agent.run_episode", question=True,
             info=lambda a, k, r: len(r.steps))
    rec.wrap(chat_owner, "chat", "llm.chat")
    rec.wrap(cli, "_completer", "cli.completer")
    for cmd, name in ((cli.kb_prepare, "prepare"), (cli.pretrain, "pretrain"),
                      (cli.train_joint_cmd, "train_joint"), (cli.eval_kbc, "eval_kbc"),
                      (cli.eval_kbqa, "eval_kbqa")):
        rec.wrap(cmd, "callback", f"cli.{name}")

    rec.wrap(kb, "load_kb", "kb.load_kb")
    rec.wrap(kb, "split", "kb.split")
    rec.wrap(kb, "degrade", "kb.degrade")
    for method in ("with_triples", "neighbors", "relations_of", "lookup_label",
                   "lookup_relation_label"):
        rec.wrap(kb.KnowledgeBase, method, f"kb.{method}")

    rec.wrap(agent, "link_relation", "retrieval.link_relation")
    rec.wrap(agent, "retrieve_related_triples", "retrieval.retrieve_related")
    rec.wrap(agent, "render", "prompts.render")
    rec.wrap(agent, "get_template", "prompts.get_template")

    rec.wrap(agent.TemplateChat, "__call__", "llm.template_call",
             info=lambda a, k, r: a[1])
    for action in ("search", "generate", "complete", "finish"):
        rec.wrap(agent, f"exec_{action}", f"agent.{action}")

    rec.wrap(NativeCompleter, "incremental_finetune", "completer.finetune",
             info=lambda a, k, r: len(list(a[1])))
    rec.wrap(NativeCompleter, "save", "completer.save", info=_file_mb)

    rec.wrap(joint, "parse_reasoning_paths", "paths.parse",
             info=lambda a, k, r: len(r.triples))
    rec.wrap(joint, "run_joint_training", "joint.run_joint_training")
    rec.wrap(joint, "train_joint", "joint.train_joint")
    rec.wrap(joint.RunLog, "append", "joint.log_append")

    rec.wrap(metrics, "kbc_eval", "metrics.kbc_eval")
    rec.wrap(metrics, "kbqa_hits_at_1", "metrics.kbqa_hits_at_1")
    rec.wrap(metrics, "efficiency_report", "metrics.efficiency_report")


def _p50(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(rec: Recorder, templates, delay_s: float, prompt_bytes: int) -> dict:
    """Per-layer metrics from the traced run's spans; units in PER_LAYER."""
    def durations(name):
        return [s.duration for s in rec.named(name)]

    episodes = rec.named("agent.run_episode")
    chats = durations("llm.chat")
    template_calls = rec.named("llm.template_call")
    predicts = rec.named("completer.predict")
    n_entities = max((s.info for s in predicts), default=0)
    finetunes = rec.named("completer.finetune")
    paths = rec.named("paths.parse")
    saves = rec.named("completer.save")
    pretrain = rec.named("completer.pretrain")
    epochs = sum(len(s.info) for s in pretrain) or 1
    train_episodes = [s for s in episodes if rec.stage_of(s) == "stage.train_joint"]
    # a joint question runs from its episode's start to the next one's
    # (episode, path, fine-tune, log and checkpoint); the last one is left out
    starts = [s.start for s in train_episodes]
    questions = [b - a for a, b in zip(starts, starts[1:])]

    out = {
        "cli.working_kb_s": rec.total("cli.working_kb"),
        "cli.eval_kbc_self_s": sum(s.self_s for s in rec.named("cli.eval_kbc")),
        "kb.load_kb_s": rec.total("kb.load_kb"),
        "kb.with_triples_s": rec.total("kb.with_triples"),
        "kb.neighbors_calls": len(rec.named("kb.neighbors")),
        "kb.neighbors_s": rec.total("kb.neighbors"),
        "kb.lookup_relation_label_s": rec.total("kb.lookup_relation_label"),
        "retrieval.link_relation_calls": len(rec.named("retrieval.link_relation")),
        "retrieval.link_relation_s": rec.total("retrieval.link_relation"),
        "retrieval.link_relation_us_p50": _p50(durations("retrieval.link_relation"), 1e6),
        "retrieval.retrieve_related_s": rec.total("retrieval.retrieve_related"),
        "prompts.render_calls": len(rec.named("prompts.render")),
        "prompts.render_s": rec.total("prompts.render"),
        "llm.chat_calls": len(chats),
        "llm.chat_ms_p50": _p50(chats, 1e3),
        "llm.transport_ms_p50": _p50([c - delay_s for c in chats], 1e3),
        "llm.prompt_kb_per_call": prompt_bytes / 1e3 / max(len(chats), 1),
        "agent.episode_ms_p50": _p50([s.duration for s in episodes], 1e3),
        "agent.self_s": sum(s.self_s for s in rec.spans if s.name.startswith("agent.")),
        "agent.steps_per_episode": statistics.mean(s.info for s in episodes) if episodes else 0.0,
        "completer.pretrain_epoch_s": sum(s.duration for s in pretrain) / epochs,
        "completer.predict_full_ms_p50": _p50(
            [s.duration for s in predicts if s.info == n_entities], 1e3),
        "completer.predict_topk_ms_p50": _p50(
            [s.duration for s in predicts if s.info < n_entities], 1e3),
        "completer.finetune_calls": sum(1 for s in finetunes if s.info),
        "completer.finetune_ms_p50": _p50([s.duration for s in finetunes if s.info], 1e3),
        "completer.finetune_triples": sum(s.info for s in finetunes),
        "completer.save_ms_p50": _p50([s.duration for s in saves], 1e3),
        "completer.save_mb": statistics.median(s.info for s in saves) if saves else 0.0,
        "completer.load_s": rec.total("completer.load"),
        "paths.parse_ms_p50": _p50([s.duration for s in paths], 1e3),
        "paths.triples_per_path": (statistics.mean(s.info for s in paths if s.info)
                                   if any(s.info for s in paths) else 0.0),
        "paths.useful_ratio": (sum(1 for s in paths if s.info) / len(train_episodes)
                               if train_episodes else 0.0),
        "joint.question_ms_p50": _p50(questions, 1e3),
        "joint.log_append_s": rec.total("joint.log_append"),
        "joint.checkpoint_s": rec.total("joint.checkpoint"),
        "metrics.kbc_eval_s": rec.total("metrics.kbc_eval"),
    }
    for action in ("search", "generate", "complete"):
        out[f"agent.{action}_s"] = rec.total(f"agent.{action}")
        out[f"agent.{action}_calls"] = len(rec.named(f"agent.{action}"))
    for name in templates:
        out[f"llm.calls.{name}"] = sum(1 for s in template_calls if s.info == name)
    return out


def stage_coverage(rec: Recorder) -> dict:
    """Share of each stage command's time that its wrapped child calls cover."""
    return {s.name: round(1.0 - s.self_s / s.duration, 4)
            for s in rec.spans if s.name.startswith("cli.") and s.parent is not None
            and s.parent.name.startswith("stage.")}
