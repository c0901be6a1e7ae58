"""Open-loop accounting: latency runs from the due time, so a stall is
charged to every request queued behind it."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cobench.service import send_stream

STALL_S = 0.4


class _Stalling(BaseHTTPRequestHandler):
    calls = 0
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with _Stalling.lock:
            _Stalling.calls += 1
            first = _Stalling.calls == 1
        if first:
            time.sleep(STALL_S)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    _Stalling.calls = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stalling)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def test_stall_is_charged_from_due_time(endpoint):
    # Five requests due 50 ms apart over one connection; the first stalls.
    stream = [{"due": 0.05 * i, "path": "/solve", "body": b"{}"}
              for i in range(5)]
    out = send_stream("127.0.0.1", endpoint, stream, senders=1)
    res = out["results"]
    assert all(r["status"] == 200 for r in res)
    assert res[0]["latency"] >= STALL_S
    for i in range(1, 5):
        # Request i could only leave once the stalled one answered, at
        # ~STALL_S; its latency still counts from its own due time.
        assert res[i]["late"] >= STALL_S - 0.05 * i - 0.02
        assert res[i]["latency"] >= res[i]["late"]
        assert res[i]["latency"] == pytest.approx(
            res[i]["done"] - res[i]["due"])
    # Without due-time accounting the queued requests would look fast.
    service_times = [r["latency"] - r["late"] for r in res[1:]]
    assert max(service_times) < STALL_S / 2
    assert 0.0 < out["conn_busy_frac"] <= 1.0


def test_requests_never_leave_before_due(endpoint):
    stream = [{"due": 0.02 * i, "path": "/solve", "body": b"{}"}
              for i in range(6)]
    res = send_stream("127.0.0.1", endpoint, stream, senders=2)["results"]
    assert all(r["late"] >= -1e-3 for r in res)
