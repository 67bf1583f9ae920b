"""The deterministic chat stand-in: a policy that reads only the rendered prompt.

One ``StandIn`` serves both the in-process backend (``chat``) and the
loopback server (``server.py``). Its reply is a pure function of the prompt
and of the plan table the generator wrote; its only state is the call
counters. It recognises the template from the instruction block the
program's catalog renders first, then:

* agent_train / agent_infer -- replays the question's plan against the
  transcript: the hop's first action, its fallback when the observation
  does not hold the hop's answer, then Finish with the answers observed
  (in inference, for Complete, the completer's top-1; in training, only
  true answers). Questions flagged
  ``malformed`` get a first reply without an Action line, so the
  format-error retry runs;
* relation_select -- the relation named in the thought;
* entity_select -- the candidate whose description the thought quotes;
* triple_generate -- the known facts for (entity, relation), under a
  paraphrased relation surface that the program has to link;
* triple_modify -- the same triples under the canonical relation label;
* path_select -- the known triples along the question's hop relations;
* cot -- the gold answers.

A question missing from the table raises ``UnknownQuestion``: the stand-in
never answers by default.
"""

from __future__ import annotations

import re
import threading
from collections import Counter

from kbloop.kb import normalize_label
from kbloop.prompts import TEMPLATE_NAMES, load_catalog

_STEP = re.compile(r"^(Thought|Action|Observation) (\d+): ?(.*)$")
_ACTION = re.compile(r"^(\w+)\[(.*)\]$")
_NEED = re.compile(r"I need the (.+?) of (.+?)(?:, the .*)?\.$")
_SUBQ = re.compile(r"^what is the (\S+ \S+) of (.+)\?$")
_ANSWER_LIMIT = 3


class UnknownQuestion(Exception):
    """A prompt asked about a question the plan table does not hold."""


def _norm(text: str) -> str:
    return normalize_label(text)


def _triple_lines(lines):
    out = []
    for line in lines:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 3 and all(parts):
            out.append(tuple(parts))
    return out


def _last_field(prompt: str, key: str) -> str:
    """The value of the last ``key: value`` line (the task section's)."""
    start = prompt.rindex(f"\n{key}: ") + len(key) + 3
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def _quoted_block(task: str) -> list[str]:
    start = task.index('"""') + 3
    end = task.index('"""', start)
    return [ln.strip() for ln in task[start:end].splitlines() if ln.strip()]


class StandIn:
    """Prompt-reading chat policy with per-template call counters."""

    def __init__(self, table: dict):
        self.questions = table["questions"]
        self.facts = table["facts"]
        catalog = load_catalog()
        self._prefixes = [(catalog[name].instruction, name) for name in TEMPLATE_NAMES]
        self._lock = threading.Lock()
        self.calls = Counter()
        self.prompt_bytes = 0

    # -- backend surface ------------------------------------------------

    def chat(self, turns, params=None) -> str:
        return self.reply("\n".join(t.content for t in turns))

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "prompt_bytes": self.prompt_bytes}

    # -- policy -----------------------------------------------------------

    def template_of(self, prompt: str) -> str:
        for instruction, name in self._prefixes:
            if prompt.startswith(instruction):
                return name
        raise ValueError(f"prompt matches no template: {prompt[:80]!r}")

    def reply(self, prompt: str) -> str:
        name = self.template_of(prompt)
        with self._lock:
            self.calls[name] += 1
            self.prompt_bytes += len(prompt.encode("utf-8"))
        return getattr(self, f"_{name}")(prompt)

    def _plan(self, question: str) -> dict:
        try:
            return self.questions[question]
        except KeyError:
            raise UnknownQuestion(f"no plan for question {question!r}") from None

    def _agent(self, prompt: str) -> str:
        task = prompt[prompt.rindex("\nQuestion: ") + 1:]
        plan = self._plan(_last_field(prompt, "Question"))
        steps, action, obs = [], None, None
        for line in task.splitlines():
            m = _STEP.match(line)
            if m and m.group(1) == "Action":
                action = m.group(3)
            elif m and m.group(1) == "Observation":
                obs = [m.group(3)]
                steps.append((action, obs))
            elif m:
                obs = None
            elif obs is not None and not line.startswith("[format error"):
                obs.append(line)
        n = len(steps) + 1
        thought, action = self._next(plan, steps, self.template_of(prompt) == "agent_train")
        if plan["malformed"] and not steps and "[format error" not in task:
            return f"Thought {n}: {thought}\nI will look this up."
        return f"Thought {n}: {thought}\nAction {n}: {action}"

    _agent_train = _agent
    _agent_infer = _agent

    @staticmethod
    def _next(plan: dict, steps, training: bool) -> tuple[str, str]:
        """Replay the plan over the finished steps; return the next step.

        In training only observed tails that are true answers of the hop
        count as found (the prompt shows the reference answers); in
        inference a Complete hop takes the completer's top-1.
        """
        hops = plan["hops"]
        hop_i, attempt, entity = 0, 0, hops[0]["entity"]
        for action, obs in steps:
            hop = hops[hop_i]
            kind = _ACTION.match(action).group(1).lower()
            found = [t for h, r, t in _triple_lines(obs)
                     if _norm(h) == _norm(entity) and _norm(r) == _norm(hop["rel"])]
            if training:
                true = {_norm(a) for a in hop["answers"]}
                found = [t for t in found if _norm(t) in true]
            elif kind == "complete":
                found = found[:1]
            if found:
                if hop_i == len(hops) - 1:
                    answers = list(dict.fromkeys(found))[:_ANSWER_LIMIT]
                    return "I have the answer.", f"Finish[{' | '.join(answers)}]"
                hop_i, attempt, entity = hop_i + 1, 0, found[0]
                continue
            attempt += 1
            if attempt > 1 or not hop["fallback"]:
                return "I could not find the answer.", "Finish[unknown]"
        hop = hops[hop_i]
        kind = hop["first"] if attempt == 0 else hop["fallback"]
        thought = f"I need the {hop['rel']} of {entity}"
        if hop["desc"] and entity == hop["entity"]:
            thought += f", the {hop['desc']}"
        thought += "."
        if kind == "search":
            return thought, f"Search[{entity}]"
        if kind == "complete":
            return thought, f"Complete[{entity} | {hop['rel']}]"
        return thought, f"Generate[what is the {hop['rel']} of {entity}?]"

    def _relation_select(self, prompt: str) -> str:
        m = _NEED.match(_last_field(prompt, "Thought"))
        listed = [r.strip() for r in _last_field(prompt, "Relations").split(",")]
        wanted = m.group(1) if m else ""
        others = [r for r in listed if _norm(r) != _norm(wanted)]
        return "Answers: " + ", ".join([wanted] + others[:1])

    def _entity_select(self, prompt: str) -> str:
        thought = _last_field(prompt, "Thought")
        block = prompt[prompt.rindex("Candidate Entities:\n") + len("Candidate Entities:\n"):]
        for line in block.splitlines():
            eid, _, desc = line.partition(": ")
            if desc and f"the {desc}." in thought:
                return f"Answer: {eid}"
        return "Answer: none"

    def _sub_question(self, prompt: str) -> tuple[str, str]:
        m = _SUBQ.match(_last_field(prompt, "Question"))
        return (m.group(2), m.group(1)) if m else ("", "")

    def _triple_generate(self, prompt: str) -> str:
        entity, rel = self._sub_question(prompt)
        tails = self.facts.get(f"{entity}|{rel}", [])
        if not tails:
            return "none"
        return "\n".join(f"{i}. {entity}, has {rel}, {t}" for i, t in enumerate(tails, 1)) + '\n"""'

    def _triple_modify(self, prompt: str) -> str:
        _, rel = self._sub_question(prompt)
        task = prompt[prompt.rindex("\nQuestion: "):]
        rows = _triple_lines(_quoted_block(task))
        return "\n".join(f"{i}. {h}, {rel}, {t}" for i, (h, _, t) in enumerate(rows, 1)) + '\n"""'

    def _path_select(self, prompt: str) -> str:
        plan = self._plan(_last_field(prompt, "Question"))
        rels = {_norm(hop["rel"]) for hop in plan["hops"]}
        task = prompt[prompt.rindex("\nQuestion: "):]
        chosen = [", ".join(t) for t in _triple_lines(_quoted_block(task)) if _norm(t[1]) in rels]
        return (f"Related relations: {', '.join(hop['rel'] for hop in plan['hops'])}\n"
                'Related triples: """\n' + "\n".join(chosen) + '\n"""')

    def _cot(self, prompt: str) -> str:
        plan = self._plan(_last_field(prompt, "Question"))
        return "Answer: " + " | ".join(plan["answers"])
