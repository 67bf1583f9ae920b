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


def post_json(
    url: str,
    payload: dict,
    error: type[Exception],
    timeout: float,
    parse=lambda data: data,
    headers: dict | None = None,
    max_attempts: int = 3,
    backoff_s: float = 0.5,
):
    """POST ``payload`` as JSON and return ``parse`` of the decoded reply.

    One ``requests.post`` per attempt. A connection error or timeout, a 429
    or 5xx status, and a reply body ``parse`` cannot read are retried, up to
    ``max_attempts`` attempts in all, sleeping ``backoff_s`` and doubling it
    between them; any other HTTP error status fails at once. Failure raises
    ``error`` naming the URL and the last cause.
    """
    delay = backoff_s
    for attempt in range(1, max_attempts + 1):
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
            if resp.status_code == 429 or resp.status_code >= 500:
                raise requests.HTTPError(f"status {resp.status_code}", response=resp)
            if resp.status_code >= 400:
                raise error(f"request to {url} failed: status {resp.status_code}")
            return parse(resp.json())
        except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
            if attempt == max_attempts:
                raise error(
                    f"request to {url} failed after {max_attempts} attempts: {exc}"
                ) from exc
            logger.warning("attempt %d/%d at %s failed (%s); retrying in %.1fs",
                           attempt, max_attempts, url, exc, delay)
            time.sleep(delay)
            delay *= 2


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
        return post_json(
            self.endpoint, payload, LlmTransportError, self.timeout,
            parse=lambda data: data["choices"][0]["message"]["content"],
            headers=headers, max_attempts=self.max_attempts, backoff_s=self.backoff_s,
        )
