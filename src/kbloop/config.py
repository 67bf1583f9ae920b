"""Run configuration: a flat key/value JSON file plus flag overrides.

Defaults follow the standard operating point: context cap 20, chat
temperature 0.7 with 256 max tokens, decoder sampling size 500 at
temperature 1, five completer candidates per Complete action, ten replay
samples per path triple, batch size 64, and a ten-step episode budget with
two model calls per step.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
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
    seed: int = 0

    # agent loop
    max_thoughts: int = 10
    max_calls_per_step: int = 2
    complete_top_k: int = 5
    relations_per_search: int = 3
    max_search_triples: int = 30
    max_generate_context: int = 8

    # completer
    embedding_dim: int = 64
    epochs: int = 30
    learning_rate: float = 0.01
    batch_size: int = 64
    finetune_passes: int = 10
    replay_samples_per_triple: int = 10
    completer_endpoint: str = ""
    r_samples: int = 500
    slm_temperature: float = 1.0
    max_context: int = 20

    # chat model
    llm_endpoint: str = ""
    llm_model: str = ""
    llm_temperature: float = 0.7
    llm_max_tokens: int = 256

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            max_thoughts=self.max_thoughts,
            max_calls_per_step=self.max_calls_per_step,
            complete_top_k=self.complete_top_k,
            relations_per_search=self.relations_per_search,
            max_search_triples=self.max_search_triples,
            max_generate_context=self.max_generate_context,
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            seed=self.seed,
            finetune_passes=self.finetune_passes,
        )

    def llm_params(self) -> LlmParams:
        return LlmParams(temperature=self.llm_temperature, max_tokens=self.llm_max_tokens)

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a config from an optional flat JSON file and override pairs.

    A file that does not hold a JSON object, an unknown key, and an
    ``llm_endpoint`` or ``completer_endpoint`` that is set but is not an
    ``http``/``https`` URL with a host raise :class:`ValueError`.
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

    unknown = sorted(data.keys() - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    config = RunConfig(**data)

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


def snapshot(config: RunConfig, run_dir) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")
