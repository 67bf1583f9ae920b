"""Turn a finished training trajectory into completer training triples.

Pipeline: drop observations that only backed wrong answers, pool the
remaining observation triples into a subgraph, find shortest undirected
witnesses from each topic entity to each verified answer, expand every
on-path entity with its one-hop subgraph triples, and let the model pick the
final set. Surviving triples must carry a linked relation and name catalog
entities at both ends, so the result is always a legal fine-tuning sample
for a completer built over the same KB.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .agent import AgentConfig, SurfaceTriple, TemplateChat, Trajectory, parse_triple_lines
from .kb import KnowledgeBase, Triple, normalize_label
from .llm import LlmParams


@dataclass
class ReasoningSubgraph:
    """Undirected view over surface triples; node keys are normalized labels."""

    triples: list[SurfaceTriple] = field(default_factory=list)
    adjacency: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    _seen: set = field(default_factory=set)

    def add(self, t: SurfaceTriple) -> None:
        key = (normalize_label(t.head), normalize_label(t.relation), normalize_label(t.tail))
        if key in self._seen:
            return
        self._seen.add(key)
        idx = len(self.triples)
        self.triples.append(t)
        h, tl = key[0], key[2]
        self.adjacency.setdefault(h, []).append((tl, idx))
        if tl != h:
            self.adjacency.setdefault(tl, []).append((h, idx))

    def finalize(self) -> "ReasoningSubgraph":
        for node in self.adjacency:
            self.adjacency[node].sort(
                key=lambda pair: (pair[0], self.triples[pair[1]].relation, pair[1])
            )
        return self

    def incident(self, node: str) -> list[SurfaceTriple]:
        return [self.triples[idx] for _, idx in self.adjacency.get(node, [])]


def build_subgraph(triples) -> ReasoningSubgraph:
    g = ReasoningSubgraph()
    for t in triples:
        g.add(t)
    return g.finalize()


def bfs_witness(subgraph: ReasoningSubgraph, source: str, target: str):
    """Shortest undirected path between two surface labels, as the triples
    along it, or None when unreachable.

    Neighbors are explored in sorted label order and each node keeps its
    first discovering edge, so equal-length alternatives resolve to the
    lexicographically first path.
    """
    src, dst = normalize_label(source), normalize_label(target)
    if src not in subgraph.adjacency or dst not in subgraph.adjacency:
        return None
    if src == dst:
        return []
    parent: dict[str, tuple[str, int]] = {src: ("", -1)}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for neighbor, idx in subgraph.adjacency.get(node, []):
            if neighbor in parent:
                continue
            parent[neighbor] = (node, idx)
            if neighbor == dst:
                witness = []
                cur = dst
                while cur != src:
                    prev, edge = parent[cur]
                    witness.append(subgraph.triples[edge])
                    cur = prev
                witness.reverse()
                return witness
            queue.append(neighbor)
    return None


@dataclass
class ReasoningPath:
    """The final triple set distilled from one question's trajectory."""

    triples: list[Triple]
    source_question: str
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "question": self.source_question,
            "triples": [[t.head, t.relation, t.tail] for t in self.triples],
            "notes": list(self.notes),
        }


def _mentions(triple: SurfaceTriple, answers: set[str]) -> bool:
    return normalize_label(triple.head) in answers or normalize_label(triple.tail) in answers


def _keep_observation(triples, wrong: set[str], right: set[str]) -> bool:
    """Drop an observation only when every triple in it touches a filtered
    answer and none touches a verified one: shared evidence survives."""
    if not triples or not wrong:
        return True
    if any(_mentions(t, right) for t in triples):
        return True
    return not all(_mentions(t, wrong) for t in triples)


def parse_reasoning_paths(
    trajectory: Trajectory, kb: KnowledgeBase, llm, params: LlmParams | None = None,
    config: AgentConfig | None = None,
) -> ReasoningPath:
    """Extract the question's reasoning path from a train-mode trajectory,
    with one ``path_select`` call to the chat backend ``llm`` at ``params``.
    The call counts against the question's ceiling, ``config.call_budget``.

    Returns an empty path (and skips the fine-tune) when no answer was
    verified, no witness connects a topic entity to a verified answer, or
    the episode left no call for ``path_select``.
    A selected triple is dropped, with a note, when its relation is unlinked
    or a surface at either end names no KB entity; a label shared by several
    entities resolves to the first id.
    """
    path = ReasoningPath(triples=[], source_question=trajectory.question)
    if trajectory.mode != "train" or trajectory.stop_reason != "finish":
        path.notes.append("no verified finish; empty path")
        return path
    verified = {normalize_label(a) for a in trajectory.verified_answers}
    if not verified:
        path.notes.append("all predicted answers filtered; empty path")
        return path
    wrong = {normalize_label(a) for a in trajectory.predicted_answers} - verified

    pool = []
    for step in trajectory.steps:
        if step.observation.triples is None:
            continue
        if _keep_observation(step.observation.triples, wrong, verified):
            pool.extend(step.observation.triples)
        else:
            path.notes.append(f"dropped observation for action {step.action.as_text()}")
    subgraph = build_subgraph(pool)

    topics = [kb.label_of(e) for e in trajectory.topic_entities]
    witness_triples: list[SurfaceTriple] = []
    witness_nodes: set[str] = set()
    reached = False
    for topic in topics:
        for answer in trajectory.verified_answers:
            witness = bfs_witness(subgraph, topic, answer)
            if witness is None:
                continue
            reached = True
            witness_nodes.add(normalize_label(topic))
            witness_nodes.add(normalize_label(answer))
            for t in witness:
                if t not in witness_triples:
                    witness_triples.append(t)
                witness_nodes.add(normalize_label(t.head))
                witness_nodes.add(normalize_label(t.tail))
    if not reached:
        path.notes.append("no witness connects a topic entity to a verified answer")
        return path

    # the model sees the whole pooled subgraph, ordered witness first, then
    # one-hop expansions of on-path entities, then the rest; selection is
    # constrained to this pool
    candidates = list(witness_triples)
    for node in sorted(witness_nodes):
        for t in subgraph.incident(node):
            if t not in candidates:
                candidates.append(t)
    for t in subgraph.triples:
        if t not in candidates:
            candidates.append(t)

    calls_left = (config or AgentConfig()).call_budget - trajectory.llm_call_count
    if calls_left < 1:
        path.notes.append("call budget exhausted before path_select; empty path")
        return path
    chat = TemplateChat(llm, params, max_calls=calls_left)
    reply = chat(
        "path_select",
        {
            "question": trajectory.question,
            "answers": " | ".join(trajectory.verified_answers),
            "topic_entities": " | ".join(topics),
            "known_triples": "\n".join(t.as_text() for t in candidates),
        },
    )
    by_key = {
        (normalize_label(t.head), normalize_label(t.relation), normalize_label(t.tail)): t
        for t in candidates
    }
    # the selection is the triple lines from the "Related triples" header on
    lines = reply.splitlines()
    start = next((i for i, line in enumerate(lines) if "related triples" in line.lower()), 0)
    selected: list[SurfaceTriple] = []
    for h, r, t in parse_triple_lines("\n".join(lines[start:]))[0]:
        match = by_key.get((normalize_label(h), normalize_label(r), normalize_label(t)))
        if match is not None and match not in selected:
            selected.append(match)
        elif match is None:
            path.notes.append(f"selection outside candidates dropped: {h}, {r}, {t}")

    seen = set()
    for t in selected:
        if t.relation_id is None:
            path.notes.append(f"unlinked relation dropped: {t.as_text()}")
            continue
        head_ids, tail_ids = kb.lookup_label(t.head), kb.lookup_label(t.tail)
        if not head_ids or not tail_ids:
            path.notes.append(f"unknown entity dropped: {t.as_text()}")
            continue
        triple = Triple(head_ids[0], t.relation_id, tail_ids[0])
        if triple not in seen:
            seen.add(triple)
            path.triples.append(triple)
    return path
