"""Loopback OpenAI-style chat server around the stand-in policy.

Run as its own process:

    python3 perfbench/server.py --plan PLAN.json --delay-ms 5

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` on its first stdout
line, and serves until stdin closes. ``POST`` (any path) takes a
chat-completions body and answers after the fixed delay; ``GET /stats``
returns the stand-in's call counters. HTTP/1.1 with keep-alive; each
connection is handled on its own thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from standin import StandIn, UnknownQuestion  # noqa: E402


def make_handler(standin: StandIn, delay_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, standin.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length))
            prompt = "\n".join(m["content"] for m in request["messages"])
            time.sleep(delay_s)
            try:
                content = standin.reply(prompt)
            except UnknownQuestion as exc:
                self._send(400, {"error": str(exc)})
                return
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        standin = StandIn(json.load(fh))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(standin, args.delay_ms / 1000.0))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # the parent closes stdin to stop the server
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
