"""Question-answering agent: a loop of thought, action, observation.

Each step asks the language model for a thought and an action, executes the
action against the knowledge base, the completer, or the model itself, and
feeds the result back as an observation. Four actions exist:

* ``Search[entity | ...]`` — one-hop neighborhood lookup; the model picks
  which relations are worth following.
* ``Complete[entity | relation]`` — ask the trainable completer for likely
  tails. No language-model calls; this is the hallucination-safe pathway,
  since the completer can only name catalog entities.
* ``Generate[sub-question]`` — let the model propose new triples, grounded on
  BM25-retrieved prior observations, then correct them against relation
  descriptions and schemas.
* ``Finish[answer | ...]`` — end the episode. In training mode the answers
  are checked against the gold set and only the verified ones survive.

Every prompt goes through the template catalog and is counted against a hard
per-episode budget of ``max_thoughts * max_calls_per_step`` calls; exhausting
it ends the episode with "unknown".
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, fields

from .completer import CompleterTransportError, CompletionQuery
from .kb import KnowledgeBase, normalize_label
from .llm import ChatTurn, LlmParams, LlmTransportError
from .prompts import get_template, render
from .retrieval import RelationLinkError, link_relation, retrieve_related_triples

_THOUGHT_RE = re.compile(r"(?im)^\s*thought(?:\s*\d+)?\s*:\s*(.*)$")
_ACTION_RE = re.compile(r"(?im)^\s*action(?:\s*\d+)?\s*:\s*(.*)$")
_ACTION_SYNTAX = re.compile(r"(?is)^\s*(search|generate|complete|finish)\s*\[(.*)\]\s*$")
_LINE_NUMBER = re.compile(r"^\d+\s*[\.\)]\s*")


class ActionParseError(Exception):
    """The action text does not follow ``Kind[payload]`` syntax."""


class BudgetExhausted(Exception):
    """The per-episode language-model call budget ran out."""


class EpisodeAborted(Exception):
    """Transport failure mid-episode; carries the trajectory prefix."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class AgentConfig:
    max_thoughts: int = 10         # steps per episode
    max_calls_per_step: int = 2    # model calls budgeted per step
    complete_top_k: int = 5
    relations_per_search: int = 3
    max_search_triples: int = 30   # cap per search observation
    max_generate_context: int = 8  # prior triples shown to generation

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")

    @property
    def call_budget(self) -> int:
        return self.max_thoughts * self.max_calls_per_step


@dataclass(frozen=True)
class AgentAction:
    kind: str
    payload: tuple[str, ...]

    def as_text(self) -> str:
        return f"{self.kind.capitalize()}[{' | '.join(self.payload)}]"


@dataclass(frozen=True)
class SurfaceTriple:
    """A triple in surface form, as shown to and produced by the model.

    ``relation_id`` is set when the relation surface links to a KB relation;
    generated triples that resist linking keep it as None and are excluded
    from reasoning paths.
    """

    head: str
    relation: str
    tail: str
    relation_id: str | None = None

    def as_text(self) -> str:
        return f"{self.head}, {self.relation}, {self.tail}"


@dataclass
class Observation:
    """A step's result: ``triples`` of a search or generate step, or the ``verified_answers`` of a finish."""

    triples: list[SurfaceTriple] | None = None
    verified_answers: list[str] | None = None
    notes: list[str] = field(default_factory=list)


@dataclass
class TrajectoryStep:
    thought: str
    action: AgentAction
    observation: Observation
    templates: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        obs: dict = {"notes": list(self.observation.notes)}
        if self.observation.triples is not None:
            obs["triples"] = [[t.head, t.relation, t.tail] for t in self.observation.triples]
        if self.observation.verified_answers is not None:
            obs["answers"] = list(self.observation.verified_answers)
        return {
            "thought": self.thought,
            "action": {"kind": self.action.kind, "payload": list(self.action.payload)},
            "observation": obs,
            "templates": list(self.templates),
        }


@dataclass
class Trajectory:
    question: str
    topic_entities: list[str]
    mode: str  # train | infer
    steps: list[TrajectoryStep] = field(default_factory=list)
    predicted_answers: list[str] = field(default_factory=list)
    verified_answers: list[str] = field(default_factory=list)
    final_answers: list[str] = field(default_factory=list)
    template_calls: list[str] = field(default_factory=list)
    stop_reason: str = ""
    notes: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def llm_call_count(self) -> int:
        return len(self.template_calls)

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "topic_entities": list(self.topic_entities),
            "mode": self.mode,
            "steps": [s.to_dict() for s in self.steps],
            "predicted_answers": list(self.predicted_answers),
            "verified_answers": list(self.verified_answers),
            "final_answers": list(self.final_answers),
            "llm_call_count": self.llm_call_count,
            "template_calls": list(self.template_calls),
            "stop_reason": self.stop_reason,
            "notes": list(self.notes),
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def observation_triples(self) -> list[SurfaceTriple]:
        out = []
        for step in self.steps:
            if step.observation.triples:
                out.extend(step.observation.triples)
        return out


class TemplateChat:
    """Routes every model call through the template catalog.

    Records each call's template name, which is both the audit trail and the
    call count, and enforces the hard ceiling of ``max_calls`` calls.
    """

    def __init__(self, backend, params: LlmParams | None = None, *, max_calls: int):
        self.backend = backend
        self.params = params or LlmParams()
        self.max_calls = max_calls
        self.template_calls: list[str] = []

    def __call__(self, template_name: str, bindings: dict) -> str:
        if len(self.template_calls) >= self.max_calls:
            raise BudgetExhausted(f"call budget of {self.max_calls} exhausted")
        prompt = render(get_template(template_name), bindings)
        self.template_calls.append(template_name)
        return self.backend.chat([ChatTurn("user", prompt)], self.params)


# ---------------------------------------------------------------------------
# action parsing


def parse_action(text: str) -> AgentAction:
    """Parse ``Kind[payload]`` action syntax (keyword case-insensitive,
    payload split on ``|``)."""
    m = _ACTION_SYNTAX.match(text or "")
    if not m:
        raise ActionParseError(f"unrecognized action: {text!r}")
    kind = m.group(1).lower()
    raw = m.group(2).strip()
    if kind == "generate":
        return AgentAction(kind, (raw,))
    parts = tuple(p.strip() for p in raw.split("|") if p.strip())
    if not parts:
        raise ActionParseError(f"{kind} action needs a payload: {text!r}")
    if kind == "complete" and len(parts) != 2:
        raise ActionParseError(f"complete action needs entity and relation: {text!r}")
    return AgentAction(kind, parts)


def _extract_thought_action(response: str) -> tuple[str, str | None]:
    thought_m = _THOUGHT_RE.search(response)
    action_m = _ACTION_RE.search(response)
    thought = thought_m.group(1).strip() if thought_m else ""
    action = action_m.group(1).strip() if action_m else None
    return thought, action


def parse_triple_lines(text: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """Extract ``h, r, t`` lines; lines with commas that do not split into
    three non-empty parts are reported back as dropped."""
    triples, dropped = [], []
    for raw in text.splitlines():
        line = _LINE_NUMBER.sub("", raw.strip().strip('"').strip())
        if not line or "," not in line or line.endswith(":"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 3 and all(parts):
            triples.append((parts[0], parts[1], parts[2]))
        else:
            dropped.append(line)
    return triples, dropped


# ---------------------------------------------------------------------------
# action executors


def _resolve_surface(surface, thought, kb, llm, notes) -> str | None:
    """Catalog lookup with model-assisted disambiguation for colliding labels."""
    ids = kb.lookup_label(surface)
    if not ids:
        notes.append(f"entity not found: {surface}")
        return None
    if len(ids) == 1:
        return ids[0]
    candidates = "\n".join(f"{eid}: {kb.entity(eid).description or kb.label_of(eid)}" for eid in ids)
    reply = llm("entity_select", {"thought": thought, "entity_name": surface, "candidates": candidates})
    hits = [(reply.find(eid), eid) for eid in ids if eid in reply]
    if hits:
        return min(hits)[1]
    notes.append(f"ambiguous entity {surface}: defaulted to {ids[0]}")
    return ids[0]


def _pick_relations(reply: str, available, kb, limit: int) -> list[str]:
    """Up to ``limit`` relations the reply names, in its order: per label, its smallest id in ``available``."""
    chosen = []
    cleaned = re.sub(r"(?i)^\s*answers?\s*:\s*", "", reply.strip())
    for part in re.split(r"[,\n]", cleaned):
        rid = next((r for r in kb.lookup_relation_label(part) if r in available), None)
        if rid is not None and rid not in chosen:
            chosen.append(rid)
        if len(chosen) >= limit:
            break
    return chosen


def exec_search(surfaces, thought, kb, llm, config: AgentConfig) -> Observation:
    """Resolve each surface, let the model pick relations, return the
    one-hop triples along them."""
    obs = Observation(triples=[])
    seen = set()
    for surface in surfaces:
        eid = _resolve_surface(surface, thought, kb, llm, obs.notes)
        if eid is None:
            continue
        rels = kb.relations_of(eid)
        if not rels:
            obs.notes.append(f"no relations for entity: {surface}")
            continue
        labels = sorted({kb.relation_label(r) for r in rels}, key=normalize_label)
        reply = llm(
            "relation_select",
            {"thought": thought, "entity_name": kb.label_of(eid), "relations": ", ".join(labels)},
        )
        neighbors = kb.neighbors(eid)
        for rid in _pick_relations(reply, rels, kb, config.relations_per_search):
            for t in neighbors:
                h, r, x = t
                if r != rid or t in seen:
                    continue
                if len(obs.triples) >= config.max_search_triples:
                    break
                seen.add(t)
                obs.triples.append(
                    SurfaceTriple(
                        kb.label_of(h), kb.relation_label(r), kb.label_of(x), relation_id=r,
                    )
                )
    return obs


def _link_surface_triple(kb, h, r, t) -> SurfaceTriple:
    try:
        rid = link_relation(kb, r)
    except RelationLinkError:
        return SurfaceTriple(h, r, t, relation_id=None)
    return SurfaceTriple(h, kb.relation_label(rid), t, relation_id=rid)


def exec_generate(sub_question, trajectory, kb, llm, mode, gold_answers, config: AgentConfig) -> Observation:
    """Generate new triples for a sub-question, then correct them against
    relation descriptions and schemas. Two model calls."""
    prior = trajectory.observation_triples()
    related = retrieve_related_triples(prior, sub_question, config.max_generate_context)
    known = "\n".join(t.as_text() for t in related) or "none"
    hint = ""
    if mode == "train" and gold_answers:
        hint = f"Hint: {' | '.join(gold_answers)}\n"
    reply = llm("triple_generate", {"question": sub_question, "hint": hint, "known_triples": known})
    raw_triples, dropped = parse_triple_lines(reply)
    notes = [f"unparseable triple line: {line}" for line in dropped]
    candidates = [_link_surface_triple(kb, h, r, t) for h, r, t in raw_triples]
    if not candidates:
        return Observation(triples=[], notes=notes)

    linked = []
    for c in candidates:
        if c.relation_id and c.relation_id not in linked:
            linked.append(c.relation_id)
    descriptions = "\n".join(
        f"{i}. {kb.relation_label(r)}: {kb.relation(r).description}" for i, r in enumerate(linked, 1)
    )
    schemas = "\n".join(
        f"{i}. {kb.relation_label(r)}: {kb.relation(r).schema}" for i, r in enumerate(linked, 1)
    )
    reply = llm(
        "triple_modify",
        {
            "question": sub_question,
            "known_triples": "\n".join(c.as_text() for c in candidates),
            "descriptions": descriptions or "none",
            "schemas": schemas or "none",
        },
    )
    corrected, dropped = parse_triple_lines(reply)
    notes.extend(f"unparseable triple line: {line}" for line in dropped)
    triples = [_link_surface_triple(kb, h, r, t) for h, r, t in corrected]
    return Observation(triples=triples, notes=notes)


def exec_complete(entity_surface, relation_surface, kb, completer, config: AgentConfig) -> Observation:
    """Ask the completer for tails of (entity, relation). Zero model calls;
    ambiguous surfaces fall back to the smallest catalog id."""
    obs = Observation(triples=[])
    ids = kb.lookup_label(entity_surface)
    if not ids:
        obs.notes.append(f"entity not found: {entity_surface}")
        return obs
    eid = ids[0]
    if len(ids) > 1:
        obs.notes.append(f"ambiguous entity {entity_surface}: defaulted to {eid}")
    try:
        rid = link_relation(kb, relation_surface)
    except RelationLinkError:
        obs.notes.append(f"relation not linkable: {relation_surface}")
        return obs
    for p in completer.predict(CompletionQuery(eid, rid), kb, config.complete_top_k):
        obs.triples.append(
            SurfaceTriple(kb.label_of(eid), kb.relation_label(rid), kb.label_of(p.entity), relation_id=rid)
        )
    return obs


def exec_finish(answers, gold_answers=None) -> Observation:
    """Terminal action. Training mode keeps only answers present in the gold
    set (normalized match); inference passes answers through."""
    answers = [a for a in (a.strip() for a in answers) if a]
    if gold_answers is None:
        return Observation(verified_answers=list(answers))
    if [normalize_label(a) for a in answers] == ["unknown"]:
        return Observation(verified_answers=[])
    gold = {normalize_label(g) for g in gold_answers}
    verified, seen = [], set()
    for a in answers:
        key = normalize_label(a)
        if key in gold and key not in seen:
            seen.add(key)
            verified.append(a)
    return Observation(verified_answers=verified)


def cot_fallback(question: str, chat: TemplateChat) -> list[str]:
    """Single chain-of-thought call for questions without topic entities."""
    reply = chat("cot", {"question": question})
    lines = [ln.strip() for ln in reply.splitlines() if ln.strip()]
    for line in reversed(lines):
        m = re.match(r"(?i)^answer\s*:\s*(.*)$", line)
        if m:
            answers = [a.strip() for a in m.group(1).split("|") if a.strip()]
            return answers or ["unknown"]
    return lines[-1:] or ["unknown"]


# ---------------------------------------------------------------------------
# the episode loop


def _render_step(i, thought, action, observation) -> str:
    """A Search, Generate or Complete step as the transcript shows it."""
    lines = [t.as_text() for t in observation.triples] + observation.notes
    obs_text = "\n".join(lines or ["none"])
    return (
        f"Thought {i}: {thought}\n"
        f"Action {i}: {action.as_text()}\n"
        f"Observation {i}: {obs_text}\n"
    )


def run_episode(
    question: str,
    topic_entities,
    kb: KnowledgeBase,
    completer,
    llm,
    config: AgentConfig | None = None,
    gold_answers=None,
    params: LlmParams | None = None,
) -> Trajectory:
    """Run one question to completion.

    ``gold_answers`` switches training mode on: the prompt carries the
    reference answers and the finish step filters predictions against them.
    Questions without topic entities route to the chain-of-thought fallback.
    Transport failures, of the chat backend or of the completer, raise
    :class:`EpisodeAborted` carrying the partial trajectory.
    """
    config = config or AgentConfig()
    mode = "train" if gold_answers is not None else "infer"
    trajectory = Trajectory(question=question, topic_entities=list(topic_entities), mode=mode)
    chat = TemplateChat(llm, params, max_calls=config.call_budget)
    trajectory.template_calls = chat.template_calls
    started = time.perf_counter()
    try:
        if not topic_entities:
            trajectory.final_answers = cot_fallback(question, chat)
            trajectory.stop_reason = "cot"
            return trajectory
        template = "agent_train" if mode == "train" else "agent_infer"
        base_bindings = {
            "question": question,
            "topic_entities": " | ".join(kb.label_of(e) for e in topic_entities),
        }
        if mode == "train":
            base_bindings["answers"] = " | ".join(gold_answers)
        transcript = ""
        for i in range(1, config.max_thoughts + 1):
            mark = len(chat.template_calls)
            notice = ""
            for attempt in range(2):
                response = chat(template, dict(base_bindings, transcript=transcript + notice))
                thought, action_text = _extract_thought_action(response)
                try:
                    if action_text is None:
                        raise ActionParseError("response has no Action line")
                    action = parse_action(action_text)
                    break
                except ActionParseError as exc:
                    action = None
                    if attempt == 0:
                        notice = (
                            f"[format error: {exc}. Respond with exactly one Thought line "
                            f"and one Action line.]\n"
                        )
            if action is None:
                trajectory.notes.append(f"step {i}: aborted after repeated malformed actions")
                continue

            if action.kind == "search":
                observation = exec_search(action.payload, thought, kb, chat, config)
            elif action.kind == "generate":
                observation = exec_generate(
                    action.payload[0], trajectory, kb, chat, mode, gold_answers, config
                )
            elif action.kind == "complete":
                observation = exec_complete(action.payload[0], action.payload[1], kb, completer, config)
            else:
                observation = exec_finish(action.payload, gold_answers)
            trajectory.steps.append(
                TrajectoryStep(thought, action, observation, tuple(chat.template_calls[mark:]))
            )
            if action.kind == "finish":
                trajectory.predicted_answers = list(action.payload)
                trajectory.final_answers = list(action.payload)
                if mode == "train":
                    trajectory.verified_answers = list(observation.verified_answers)
                trajectory.stop_reason = "finish"
                break
            transcript += _render_step(i, thought, action, observation)
        else:
            trajectory.final_answers = ["unknown"]
            trajectory.stop_reason = "max_steps"
    except BudgetExhausted:
        trajectory.final_answers = ["unknown"]
        trajectory.stop_reason = "budget"
        trajectory.notes.append("call budget exhausted")
    except (LlmTransportError, CompleterTransportError) as exc:
        raise EpisodeAborted(str(exc), trajectory) from exc
    finally:
        trajectory.wall_time_s = time.perf_counter() - started
    return trajectory
