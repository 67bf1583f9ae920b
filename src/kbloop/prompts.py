"""Prompt-template catalog.

Template bodies live as text assets next to this module, one file per
template, so they can be reviewed and diffed without touching code. A file
has an instruction block, zero or more few-shot exemplar blocks, and a task
block whose ``{slot}`` placeholders are filled at render time:

    <instruction>
    === exemplar ===
    <worked example, shipped verbatim>
    === task ===
    <task body with {slots}>

The agent builds every prompt through this catalog; free-form prompt strings
are not allowed, which is what makes transcripts auditable.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

TEMPLATE_NAMES = (
    "agent_train",
    "agent_infer",
    "entity_select",
    "relation_select",
    "triple_generate",
    "triple_modify",
    "path_select",
    "cot",
)

_EXEMPLAR_MARK = "=== exemplar ==="
_TASK_MARK = "=== task ==="


class RenderError(Exception):
    """A template slot was left unbound."""


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    instruction: str
    exemplars: tuple[str, ...]
    body: str

    @property
    def slots(self) -> tuple[str, ...]:
        names = []
        for _, field_name, _, _ in string.Formatter().parse(self.body):
            if field_name and field_name not in names:
                names.append(field_name)
        return tuple(names)


def _parse_asset(name: str, text: str) -> PromptTemplate:
    sections = [[]]
    markers = []
    for line in text.splitlines():
        if line.strip() in (_EXEMPLAR_MARK, _TASK_MARK):
            markers.append(line.strip())
            sections.append([])
        else:
            sections[-1].append(line)
    blocks = ["\n".join(chunk).strip("\n") for chunk in sections]
    if _TASK_MARK not in markers:
        raise ValueError(f"template asset {name!r} has no task section")
    instruction = blocks[0]
    exemplars = tuple(blocks[1:-1])
    body = blocks[-1]
    return PromptTemplate(name=name, instruction=instruction, exemplars=exemplars, body=body)


@lru_cache(maxsize=1)
def load_catalog() -> dict[str, PromptTemplate]:
    catalog = {}
    package = resources.files(__package__) / "prompts"
    for name in TEMPLATE_NAMES:
        text = (package / f"{name}.txt").read_text(encoding="utf-8")
        catalog[name] = _parse_asset(name, text)
    return catalog


def get_template(name: str) -> PromptTemplate:
    return load_catalog()[name]


def render(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Instruction, exemplars, and the task body with all slots filled."""
    for slot in template.slots:
        if slot not in bindings:
            raise RenderError(f"template {template.name!r}: missing slot {slot!r}")
    parts = [template.instruction]
    parts.extend(template.exemplars)
    parts.append(template.body.format(**bindings))
    return "\n\n".join(part for part in parts if part)
