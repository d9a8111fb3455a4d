"""The default chat transport against a loopback HTTP server (no network)."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import yaml
from click.testing import CliRunner

import parley.agents
from parley.agents import BackendBinding, ChatModelClient, _http_transport
from parley.cli import main as cli_main
from parley.errors import BackendStatusError, ConfigurationError

COMPLETION = {
    "choices": [{"message": {"content": "hello"}, "finish_reason": "stop"}],
    "usage": {"prompt_tokens": 3, "completion_tokens": 1},
}


class ChatServer(ThreadingHTTPServer):
    """Counts the connections it accepts and records each request.

    ``replies`` is a queue of (status, headers, body) to send, one per
    request; a ``None`` entry closes the connection without replying. Once
    it is empty every request gets a 200 with ``COMPLETION``.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.requests: list[tuple[dict, bytes]] = []
        self.replies: list = []

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"


class ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    # http.server writes headers and body separately; without TCP_NODELAY,
    # Nagle and delayed ACK stall every keep-alive request by about 40 ms
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests.append((dict(self.headers), body))
            reply = self.server.replies.pop(0) if self.server.replies else (200, {}, COMPLETION)
        if reply is None:
            self.close_connection = True
            return
        status, headers, payload = reply
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def no_pooled_session(monkeypatch):
    # each test starts without pooled connections, and closes the ones it made
    sessions = threading.local()
    monkeypatch.setattr(parley.agents, "_sessions", sessions)
    yield
    session = getattr(sessions, "session", None)
    if session is not None:
        session.close()


@pytest.fixture
def server(no_pooled_session):
    srv = ChatServer()
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def ask(client, server) -> str:
    binding = BackendBinding(kind="chat_model", model_name="m", endpoint=server.url)
    return client.complete(binding, "system", []).text


def test_request_shape_and_reply(server):
    payload = {"model": "m", "messages": [{"role": "user", "content": "hi"}]}
    reply = _http_transport(server.url, payload, "sk-test", 5.0)
    assert reply == COMPLETION
    (headers, body), = server.requests
    assert json.loads(body) == payload
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sk-test"


def test_no_authorization_header_without_key(server):
    _http_transport(server.url, {}, "", 5.0)
    (headers, _), = server.requests
    assert "Authorization" not in headers


def test_error_status_raises_with_retry_after(server):
    server.replies = [(500, {"Retry-After": "3"}, {"error": "down"}), (429, {}, {})]
    with pytest.raises(BackendStatusError) as first:
        _http_transport(server.url, {}, "", 5.0)
    assert (first.value.status, first.value.retry_after) == (500, 3.0)
    with pytest.raises(BackendStatusError) as second:
        _http_transport(server.url, {}, "", 5.0)
    assert (second.value.status, second.value.retry_after) == (429, None)


def test_sequential_requests_share_one_connection(server):
    for _ in range(20):
        assert _http_transport(server.url, {}, "", 5.0) == COMPLETION
    assert len(server.requests) == 20
    assert server.connections == 1


def test_connection_the_server_closes_is_replaced(server):
    server.replies = [(200, {"Connection": "close"}, COMPLETION)]
    client = ChatModelClient(timeout=5.0)
    for _ in range(3):
        assert ask(client, server) == "hello"
    assert server.connections == 2
    assert client.usage["retries"] == 0


def test_each_thread_keeps_its_own_connection(server):
    errors = []

    def worker():
        try:
            for _ in range(5):
                _http_transport(server.url, {}, "", 5.0)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(server.requests) == 10
    assert server.connections == 2


def test_dropped_connection_is_a_retried_transport_error(server):
    # the second request's connection closes without a reply: the client
    # retries it on a new connection
    server.replies = [(200, {}, COMPLETION), None]
    client = ChatModelClient(backoff_base=0.001, timeout=5.0)
    assert ask(client, server) == "hello"
    assert ask(client, server) == "hello"
    assert len(server.requests) == 3
    assert server.connections == 2
    assert client.usage["retries"] == 1
    assert client.usage["requests"] == 2


# no scheme (MissingSchema), a scheme requests has no adapter for
# (InvalidSchema), no host (InvalidURL): each is raised before a connection
MALFORMED_ENDPOINTS = [
    "api.example.invalid/v1/chat",
    "ftp://api.example.invalid/v1/chat",
    "http:///v1/chat",
]


@pytest.mark.parametrize("endpoint", MALFORMED_ENDPOINTS)
def test_malformed_endpoint_is_a_configuration_error(endpoint, no_pooled_session):
    calls = []

    def counting(*args):
        calls.append(args)
        return _http_transport(*args)

    client = ChatModelClient(transport=counting, timeout=5.0)
    binding = BackendBinding(kind="chat_model", model_name="m", endpoint=endpoint)
    started = time.monotonic()
    with pytest.raises(ConfigurationError, match="malformed endpoint"):
        client.complete(binding, "system", [])
    assert len(calls) == 1
    assert client.usage["retries"] == 0
    assert time.monotonic() - started < 0.5  # no backoff sleep


def test_run_with_a_malformed_endpoint_exits_2(tmp_path, no_pooled_session):
    agents = [
        {"agent_id": f"m{i}", "prompt": "be brief", "backend": {"kind": "chat_model"}}
        for i in range(2)
    ]
    (tmp_path / "roster.yaml").write_text(yaml.safe_dump({"agents": agents}))
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "roster": "roster.yaml",
        "scenarios": ["chair"],
        "output_dir": "out",
        "concurrency_limit": 1,
        "backend": {"model_name": "m", "endpoint": MALFORMED_ENDPOINTS[0]},
        "style": {"mode": "synthetic", "seed": 11},
    }))
    result = CliRunner().invoke(cli_main, ["run", "--config", str(config), "--stages", "run"])
    assert result.exit_code == 2
    assert MALFORMED_ENDPOINTS[0] in result.output
    assert "Traceback" not in result.output
