"""Chat backends: a deterministic scripted backend for tests and replays,
and a live chat-completions client with retry."""

from __future__ import annotations

import http.client
import json
import logging
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .kb import KbLoadError, read_jsonl

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
        """One JSON object per line: a ``response`` string and an optional
        ``expect`` substring. A line without ``response`` raises
        :class:`KbLoadError` naming ``path:line``."""
        steps = []
        for lineno, record in read_jsonl(path):
            response, expect = record.get("response"), record.get("expect", "")
            if not isinstance(response, str) or not isinstance(expect, str):
                raise KbLoadError(
                    f"{path}:{lineno}: 'response' must be a string, and so must 'expect' if given"
                )
            steps.append((expect, response))
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


def check_endpoint(url) -> None:
    """Raise :class:`ValueError` unless ``url`` is an ``http://`` or
    ``https://`` URL with a host (and a numeric port, if it names one)."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises ValueError on a port that is not a number
    except (AttributeError, TypeError, ValueError):
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"{url!r} must be an http:// or https:// URL with a host")


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Turns every 3xx reply into an ``HTTPError``: a redirect would carry
    the request headers, credentials included, to whatever host it names."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


# proxies are read from the environment once, when this opener is built
_OPENER = urllib.request.build_opener(_NoRedirect)


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

    ``url`` must pass :func:`check_endpoint`, or :class:`ValueError` is
    raised before anything is sent. One urllib request per attempt, each on
    a new connection (urllib sends ``Connection: close``), with ``timeout``
    on connecting and on every read. Proxies come from the environment, read
    once per process; TLS is verified against the system trust store.
    Redirects are not followed, so ``url`` must be the final URL. A
    connection error or timeout, a 429 or 5xx status, and a reply body
    ``parse`` cannot read are retried, up to ``max_attempts`` attempts in
    all, sleeping ``backoff_s`` and doubling it between them; any other HTTP
    status, 3xx included, fails at once. Failure raises ``error`` naming the
    URL and the last cause.
    """
    check_endpoint(url)
    data = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", **(headers or {})}
    delay = backoff_s
    for attempt in range(1, max_attempts + 1):
        # a new Request each attempt: a proxy handler rewrites the one it opens
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with _OPENER.open(request, timeout=timeout) as resp:
                body = resp.read()
            return parse(json.loads(body))
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code != 429 and exc.code < 500:
                raise error(f"request to {url} failed: status {exc.code}") from None
            failure, cause = exc, f"status {exc.code}"
        except (OSError, http.client.HTTPException,
                KeyError, IndexError, TypeError, ValueError) as exc:
            failure = cause = exc
        if attempt == max_attempts:
            raise error(
                f"request to {url} failed after {max_attempts} attempts: {cause}"
            ) from failure
        logger.warning("attempt %d/%d at %s failed (%s); retrying in %.1fs",
                       attempt, max_attempts, url, cause, delay)
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
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else None
        return post_json(
            self.endpoint, payload, LlmTransportError, self.timeout,
            parse=lambda data: data["choices"][0]["message"]["content"],
            headers=headers, max_attempts=self.max_attempts, backoff_s=self.backoff_s,
        )
