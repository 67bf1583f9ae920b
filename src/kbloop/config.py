"""Run configuration: a flat key/value JSON file plus flag overrides.

Each key belongs to :class:`RunConfig`, :class:`AgentConfig` or
:class:`TrainingConfig`, which declares its default and checks its range.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .agent import AgentConfig
from .completer import TrainingConfig
from .llm import LlmParams, check_endpoint

ENV_API_KEY = "KBLOOP_API_KEY"
ENV_LLM_ENDPOINT = "KBLOOP_LLM_ENDPOINT"
ENV_LLM_MODEL = "KBLOOP_LLM_MODEL"


@dataclass
class RunConfig:
    # knowledge base inputs
    triples_path: str = ""
    entities_path: str = ""
    relations_path: str = ""
    n_valid: int = 0
    n_test: int = 0
    keep_fraction: float = 0.5
    seed: int = 0  # load_config gives it to `training` as well

    # completer
    embedding_dim: int = 64
    completer_endpoint: str = ""
    r_samples: int = 500
    slm_temperature: float = 1.0
    max_context: int = 20

    # chat model
    llm_endpoint: str = ""
    llm_model: str = ""
    llm_temperature: float = 0.7
    llm_max_tokens: int = 256

    agent: AgentConfig = field(default_factory=AgentConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        for name, least in (("embedding_dim", 1), ("r_samples", 1), ("max_context", 0),
                            ("llm_max_tokens", 1), ("llm_temperature", 0), ("slm_temperature", 0)):
            if not least <= getattr(self, name) < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and at least {least}")

    def llm_params(self) -> LlmParams:
        return LlmParams(temperature=self.llm_temperature, max_tokens=self.llm_max_tokens)

    def to_dict(self) -> dict:
        """The flat key/value form that :func:`load_config` reads."""
        data = asdict(self)
        return {**data.pop("agent"), **data.pop("training"), **data}


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a config from an optional flat JSON file and override pairs.

    Each key goes to the dataclass that declares it, ``seed`` to both
    ``RunConfig`` and ``TrainingConfig``. A file that does not hold a JSON
    object, an unknown key, a value of another JSON type than its default
    (an integer may stand for a float, a boolean never for an integer) or
    out of range, and an ``llm_endpoint`` or ``completer_endpoint`` that is
    set but is not an ``http``/``https`` URL with a host raise
    :class:`ValueError`.
    Environment variables supply the chat endpoint/model/credential when the
    file and overrides leave them empty.
    """
    data = {}
    if path is not None:
        raw = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a flat JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})

    defaults = RunConfig().to_dict()
    unknown = sorted(data.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        expected = type(defaults[key])
        if type(value) is not expected and (expected, type(value)) != (float, int):
            raise ValueError(f"{key} must be {expected.__name__}, not {json.dumps(value)}")
    part = {cls: {f.name: data[f.name] for f in fields(cls) if f.name in data}
            for cls in (RunConfig, AgentConfig, TrainingConfig)}
    config = RunConfig(**part[RunConfig], agent=AgentConfig(**part[AgentConfig]),
                       training=TrainingConfig(**part[TrainingConfig]))

    if not config.llm_endpoint:
        config.llm_endpoint = os.environ.get(ENV_LLM_ENDPOINT, "")
    if not config.llm_model:
        config.llm_model = os.environ.get(ENV_LLM_MODEL, "")
    for key in ("llm_endpoint", "completer_endpoint"):
        url = getattr(config, key)
        if url:
            try:
                check_endpoint(url)
            except ValueError as exc:
                raise ValueError(f"{key} {exc}") from None
    return config


def api_key() -> str:
    return os.environ.get(ENV_API_KEY, "")
