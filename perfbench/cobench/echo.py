"""A stand-in server for the host-speed probes of ``service-open``.

    python3 perfbench/cobench/echo.py

Prints ``echo on http://127.0.0.1:<port>`` and answers every
``POST /probe`` the way ``cosched serve`` answers a solve, minus the
program: a handler thread reads and decodes the JSON body, hands a job
to a worker thread through a queue, the worker runs one
:func:`cobench.hostspeed.unit`, and the handler answers ``{}``.  No
``repro`` code runs here.
The load generator times the round trip while ``cosched serve`` is idle:
the same wake-ups, sockets and HTTP parsing a request pays, on the same
CPU, so it tracks how fast the host serves requests at that moment.
Ends on SIGTERM.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from cobench import hostspeed  # noqa: E402


JOBS: "queue.Queue[threading.Event]" = queue.Queue()


def worker() -> None:
    """Like the server's solver worker: take a job, do a unit, signal."""
    while True:
        done = JOBS.get()
        hostspeed.unit()
        done.set()


class Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 — http.server's name
        length = int(self.headers.get("Content-Length", 0))
        json.loads(self.rfile.read(length))
        done = threading.Event()
        JOBS.put(done)
        done.wait()
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    threading.Thread(target=worker, daemon=True).start()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"echo on http://127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
