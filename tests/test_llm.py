"""Chat backends: scripted determinism and the live client over a loopback
stub server."""

import json
import os
import subprocess
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import kbloop
from kbloop.llm import (
    ChatTurn,
    LiveBackend,
    LlmParams,
    LlmTransportError,
    ScriptMismatchError,
    ScriptedBackend,
)


def turns(text):
    return [ChatTurn("user", text)]


class TestChatTurn:
    def test_rejects_bad_role(self):
        with pytest.raises(ValueError):
            ChatTurn("wizard", "hi")

    def test_rejects_empty_content(self):
        with pytest.raises(ValueError):
            ChatTurn("user", "")


class TestScriptedBackend:
    def test_in_order_replay(self):
        backend = ScriptedBackend([("one", "a"), ("two", "b"), ("three", "c")])
        assert backend.chat(turns("step one here")) == "a"
        assert backend.chat(turns("step two here")) == "b"
        assert backend.chat(turns("step three here")) == "c"

    def test_exhausted_transcript(self):
        backend = ScriptedBackend([("", "only")])
        backend.chat(turns("x"))
        with pytest.raises(ScriptMismatchError, match="exhausted"):
            backend.chat(turns("y"))

    def test_mismatch_shows_expected_and_actual(self):
        backend = ScriptedBackend([("the expected text", "r")])
        with pytest.raises(ScriptMismatchError) as err:
            backend.chat(turns("something else entirely"))
        assert "the expected text" in str(err.value)
        assert "something else" in str(err.value)

    def test_whitespace_normalized_matching(self):
        backend = ScriptedBackend([("a  b   c", "ok")])
        assert backend.chat(turns("x a b c y")) == "ok"

    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"expect": "hello", "response": "world"}) + "\n", encoding="utf-8"
        )
        backend = ScriptedBackend.from_jsonl(path)
        assert backend.chat(turns("hello there")) == "world"


class _ChatHandler(BaseHTTPRequestHandler):
    fail_first = 0
    seen_payloads = []
    content = "pong"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).seen_payloads.append(payload)
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": type(self).content}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server(loopback):
    _ChatHandler.fail_first = 0
    _ChatHandler.seen_payloads = []
    _ChatHandler.content = "pong"
    server = loopback(_ChatHandler)
    return f"http://127.0.0.1:{server.server_port}/v1/chat/completions"


class TestLiveBackend:
    def test_roundtrip_payload(self, chat_server):
        backend = LiveBackend(chat_server, model="test-model", api_key="k")
        reply = backend.chat(turns("ping"), LlmParams(temperature=0.7, max_tokens=256))
        assert reply == "pong"
        payload = _ChatHandler.seen_payloads[0]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.7
        assert payload["max_tokens"] == 256
        assert payload["messages"] == [{"role": "user", "content": "ping"}]

    def test_retries_transient_failures(self, chat_server):
        _ChatHandler.fail_first = 2
        backend = LiveBackend(chat_server, model="m", backoff_s=0.01)
        assert backend.chat(turns("ping")) == "pong"
        assert len(_ChatHandler.seen_payloads) == 3

    def test_gives_up_after_max_attempts(self, chat_server):
        _ChatHandler.fail_first = 5
        backend = LiveBackend(chat_server, model="m", max_attempts=3, backoff_s=0.01)
        with pytest.raises(LlmTransportError):
            backend.chat(turns("ping"))

    @pytest.mark.parametrize("content", [None, 7, ["pong"], {"text": "pong"}])
    def test_reply_content_that_is_not_text_is_retried_then_a_transport_error(
            self, chat_server, content):
        _ChatHandler.content = content
        backend = LiveBackend(chat_server, model="m", max_attempts=2, backoff_s=0.01)
        with pytest.raises(LlmTransportError, match="not a string"):
            backend.chat(turns("ping"))
        assert len(_ChatHandler.seen_payloads) == 2

    def test_unreachable(self):
        backend = LiveBackend("http://127.0.0.1:9/x", model="m", max_attempts=2,
                              backoff_s=0.01, timeout=0.2)
        with pytest.raises(LlmTransportError):
            backend.chat(turns("ping"))


_CHAT_REPLY = json.dumps(
    {"choices": [{"message": {"role": "assistant", "content": "pong"}}]}
).encode()


class _ReplyPlanHandler(BaseHTTPRequestHandler):
    """Answers the n-th request as ``plan[n]`` says, and every request past
    the plan with a good chat reply. A step is an HTTP status (empty body,
    with ``Location: redirect_to`` on a 3xx), ``"garbage"`` (200 with a body that is not JSON), ``"close"`` (hang up
    without a reply) or ``"slow"`` (a good reply after ``slow_s``)."""

    plan = []
    slow_s = 0.0
    redirect_to = ""
    seen = 0
    authorizations = []

    def do_POST(self):
        cls = type(self)
        self.rfile.read(int(self.headers["Content-Length"]))
        cls.authorizations.append(self.headers.get("Authorization"))
        step = cls.plan[cls.seen] if cls.seen < len(cls.plan) else "ok"
        cls.seen += 1
        if step == "close":
            return
        if step == "slow":
            time.sleep(cls.slow_s)
        status, body = (step, b"") if isinstance(step, int) else (200, _CHAT_REPLY)
        if step == "garbage":
            body = b"<html>not json</html>"
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", cls.redirect_to)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def plan_server(loopback):
    """A threaded loopback server over ``_ReplyPlanHandler``, so a slow
    reply does not hold up the next attempt."""
    _ReplyPlanHandler.plan = []
    _ReplyPlanHandler.slow_s = 0.0
    _ReplyPlanHandler.redirect_to = ""
    _ReplyPlanHandler.seen = 0
    _ReplyPlanHandler.authorizations = []
    server = loopback(_ReplyPlanHandler, ThreadingHTTPServer)
    return f"http://127.0.0.1:{server.server_port}/v1/chat/completions"


class TestTransportContract:
    """The retry contract of ``post_json``, which serves both the chat
    backend and the remote completer."""

    def backend(self, url, **kwargs):
        return LiveBackend(url, model="m", max_attempts=3, backoff_s=0.01, **kwargs)

    def test_429_is_retried(self, plan_server):
        _ReplyPlanHandler.plan = [429]
        assert self.backend(plan_server).chat(turns("ping")) == "pong"
        assert _ReplyPlanHandler.seen == 2

    def test_404_fails_at_once_naming_the_status(self, plan_server):
        _ReplyPlanHandler.plan = [404]
        with pytest.raises(LlmTransportError, match="status 404") as err:
            self.backend(plan_server).chat(turns("ping"))
        assert plan_server in str(err.value)
        assert _ReplyPlanHandler.seen == 1

    def test_unparseable_body_is_retried(self, plan_server):
        _ReplyPlanHandler.plan = ["garbage"]
        assert self.backend(plan_server).chat(turns("ping")) == "pong"
        assert _ReplyPlanHandler.seen == 2

    def test_hang_up_without_reply_is_retried(self, plan_server):
        _ReplyPlanHandler.plan = ["close"]
        assert self.backend(plan_server).chat(turns("ping")) == "pong"
        assert _ReplyPlanHandler.seen == 2

    def test_reply_slower_than_timeout_fails_after_max_attempts(self, plan_server):
        _ReplyPlanHandler.plan = ["slow"] * 3
        _ReplyPlanHandler.slow_s = 1.0
        with pytest.raises(LlmTransportError, match="after 3 attempts") as err:
            self.backend(plan_server, timeout=0.1).chat(turns("ping"))
        assert plan_server in str(err.value)

    def test_redirect_to_another_host_is_not_followed(self, plan_server, chat_server):
        """The credential stays with the endpoint: a 302 fails at once and
        the host it names gets no request."""
        _ReplyPlanHandler.plan = [302]
        _ReplyPlanHandler.redirect_to = chat_server.replace("127.0.0.1", "localhost")
        with pytest.raises(LlmTransportError, match="status 302"):
            self.backend(plan_server, api_key="secret").chat(turns("ping"))
        assert _ReplyPlanHandler.authorizations == ["Bearer secret"]
        assert _ChatHandler.seen_payloads == []

    def test_307_fails_at_once_naming_the_status(self, plan_server):
        _ReplyPlanHandler.plan = [307]
        _ReplyPlanHandler.redirect_to = plan_server
        with pytest.raises(LlmTransportError, match="status 307"):
            self.backend(plan_server).chat(turns("ping"))
        assert _ReplyPlanHandler.seen == 1

    @pytest.mark.parametrize("scheme", ["file", "data", "ftp"])
    def test_non_http_endpoint_is_rejected_before_sending(self, tmp_path, scheme):
        reply = tmp_path / "reply.json"
        reply.write_bytes(_CHAT_REPLY)
        url = {
            "file": reply.as_uri(),
            "data": "data:application/json," + _CHAT_REPLY.decode(),
            "ftp": "ftp://127.0.0.1:9/reply.json",
        }[scheme]
        with pytest.raises(ValueError, match="http:// or https://"):
            self.backend(url).chat(turns("ping"))

    def test_http_proxy_from_the_environment_is_used(self, loopback):
        """In a fresh interpreter, so the proxy settings are read from this
        environment: the request goes to the proxy, which answers for a
        target nothing listens on."""

        class ProxyHandler(BaseHTTPRequestHandler):
            targets = []

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                type(self).targets.append(self.path)
                self.send_response(200)
                self.send_header("Content-Length", str(len(_CHAT_REPLY)))
                self.end_headers()
                self.wfile.write(_CHAT_REPLY)

            def log_message(self, *args):
                pass

        proxy = loopback(ProxyHandler)
        target = "http://127.0.0.1:9/v1/chat/completions"
        env = {k: v for k, v in os.environ.items() if k.lower() not in ("no_proxy", "http_proxy")}
        env["http_proxy"] = f"http://127.0.0.1:{proxy.server_port}"
        env["PYTHONPATH"] = str(Path(kbloop.__file__).resolve().parents[1])
        code = (
            "from kbloop.llm import ChatTurn, LiveBackend\n"
            f"print(LiveBackend({target!r}, 'm', max_attempts=1, timeout=10)"
            ".chat([ChatTurn('user', 'ping')]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "pong"
        assert ProxyHandler.targets == [target]


def test_default_params_match_operating_point():
    params = LlmParams()
    assert params.temperature == 0.7
    assert params.max_tokens == 256
