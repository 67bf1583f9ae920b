"""Chat backends: a deterministic scripted backend for tests and replays,
and a live chat-completions client with retry."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

import requests

logger = logging.getLogger(__name__)


class LlmTransportError(Exception):
    """The live endpoint stayed unreachable after retries."""


class ScriptMismatchError(Exception):
    """A scripted conversation got a prompt it did not expect."""


@dataclass(frozen=True)
class ChatTurn:
    role: str  # system | user | assistant
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad chat role {self.role!r}")
        if not self.content:
            raise ValueError("chat turn content must be non-empty")


@dataclass(frozen=True)
class LlmParams:
    temperature: float = 0.7
    max_tokens: int = 256


def _squash(text: str) -> str:
    return " ".join(text.split())


class ScriptedBackend:
    """Replays a fixed transcript of (expected-prompt substring, response).

    Matching is substring containment on whitespace-normalized text, consumed
    strictly in order. Single consumer; not thread safe.
    """

    def __init__(self, steps):
        self._steps = [(matcher, response) for matcher, response in steps]
        self._pos = 0

    @classmethod
    def from_jsonl(cls, path) -> "ScriptedBackend":
        steps = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                steps.append((record.get("expect", ""), record["response"]))
        return cls(steps)

    def chat(self, turns, params: LlmParams | None = None) -> str:
        prompt = "\n".join(t.content for t in turns)
        if self._pos >= len(self._steps):
            raise ScriptMismatchError(
                f"scripted transcript exhausted after {len(self._steps)} steps; "
                f"unexpected prompt: {prompt[:200]!r}"
            )
        matcher, response = self._steps[self._pos]
        if _squash(matcher) not in _squash(prompt):
            raise ScriptMismatchError(
                f"scripted step {self._pos}: expected prompt containing "
                f"{matcher!r}, got {prompt[:400]!r}"
            )
        self._pos += 1
        return response


class LiveBackend:
    """Chat-completions client over an OpenAI-style JSON endpoint.

    Transient failures (connection errors, 429, 5xx) are retried with
    exponential backoff.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        max_attempts: int = 3,
        backoff_s: float = 0.5,
        timeout: float = 120.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.timeout = timeout

    def chat(self, turns, params: LlmParams | None = None) -> str:
        params = params or LlmParams()
        payload = {
            "model": self.model,
            "messages": [{"role": t.role, "content": t.content} for t in turns],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        delay = self.backoff_s
        last_error = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                resp = requests.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
                if resp.status_code == 429 or resp.status_code >= 500:
                    raise requests.HTTPError(f"status {resp.status_code}", response=resp)
                resp.raise_for_status()
                data = resp.json()
                return data["choices"][0]["message"]["content"]
            except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                last_error = exc
                if attempt < self.max_attempts:
                    logger.warning("chat attempt %d/%d failed (%s); retrying in %.1fs",
                                   attempt, self.max_attempts, exc, delay)
                    time.sleep(delay)
                    delay *= 2
        raise LlmTransportError(
            f"chat request to {self.endpoint} failed after {self.max_attempts} attempts: {last_error}"
        )
