"""HTTP/1.1 framing at a site listener, driven over raw sockets.

A client mistake in the framing answers 4xx (501 for an unknown method)
with the JSON envelope and closes the connection, or closes it without an
answer when the request never completes; it never answers 5xx, never ties
up the handler and never reaches ``SiteRuntime.handle``. After each case a
new connection is still served.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from fedsec.service import SiteServer, _SiteHTTPHandler, serve_site
from fedsec.sim.federation import build_federation
from fedsec.sim.presets import two_site_topology
from fedsec.wire import MAX_BODY, MAX_HEADERS, MAX_LINE, encode_request

TIMEOUT = 10.0
HEALTH = b"GET /v3/security/healthcheck HTTP/1.1\r\nHost: tenant1.sim\r\n"
LOGIN = b"POST /v3/authenticator/tokens HTTP/1.1\r\nHost: tenant1.sim\r\n"


@pytest.fixture(scope="module")
def fed():
    federation = build_federation(two_site_topology())
    yield federation
    federation.close()


@pytest.fixture()
def site(fed, monkeypatch):
    """The primary's port, and the requests its runtime was handed."""
    runtime = fed.runtimes["prime"]
    handled = []
    handle = runtime.handle

    def counting(method, host, target, headers, body):
        handled.append((method, target, body))
        return handle(method, host, target, headers, body)

    monkeypatch.setattr(runtime, "handle", counting)
    return fed.ports["prime"], handled


class _Client:
    """One raw connection and a reader of the responses on it."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT)
        self.rfile = self.sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    def response(self):
        """(status, lower-cased headers, body) of the next response."""
        status = int(self.rfile.readline().split(b" ")[1])
        headers = {}
        for line in iter(self.rfile.readline, b"\r\n"):
            name, _, value = line.decode("iso-8859-1").partition(":")
            headers[name.lower()] = value.strip()
        return status, headers, self.rfile.read(int(headers["content-length"]))

    def at_eof(self) -> bool:
        try:
            return self.rfile.read(1) == b""
        except ConnectionResetError:
            return True


def _exchange(port, *sends):
    client = _Client(port)
    try:
        for data in sends:
            client.sock.sendall(data)
        return client.response(), client.at_eof()
    finally:
        client.close()


def _still_served(port):
    (status, _, _), _ = _exchange(port, HEALTH + b"Connection: close\r\n\r\n")
    assert status == 200


FRAMING_CASES = {
    "negative content-length": (LOGIN + b"Content-Length: -1\r\n\r\n", 400),
    "non-digit content-length": (LOGIN + b"Content-Length: abc\r\n\r\n", 400),
    "signed content-length": (LOGIN + b"Content-Length: +2\r\n\r\n{}", 400),
    "chunked body": (LOGIN + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 400),
    "any transfer-encoding": (HEALTH + b"Transfer-Encoding: identity\r\n\r\n", 400),
    "two differing content-lengths":
        (LOGIN + b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}x", 400),
    "repeated header": (HEALTH + b"host: tenant2.sim\r\n\r\n", 400),
    "request line of two words": (b"GET /v3/security/healthcheck\r\n\r\n", 400),
    "request line with a double space": (b"GET  /v3/security/healthcheck HTTP/1.1\r\n\r\n", 400),
    "unknown protocol version": (b"GET /v3/security/healthcheck HTTP/2.0\r\n\r\n", 400),
    "header line without a colon": (HEALTH + b"X-Tapis-User bob\r\n\r\n", 400),
    "whitespace before the colon": (HEALTH + b"X-Tapis-User : bob\r\n\r\n", 400),
    "folded header line": (HEALTH + b"X-Tapis-User: bob\r\n  more\r\n\r\n", 400),
    "content-length over the body limit":
        (LOGIN + b"Content-Length: %d\r\n\r\n" % (MAX_BODY + 1), 413),
    "unknown method": (b"PATCH /v3/security/healthcheck HTTP/1.1\r\nHost: tenant1.sim\r\n\r\n", 501),
    # Each long line is one byte over the limit and unterminated, so the
    # listener has read every byte before it closes and the close carries no reset.
    "request line over the limit": (b"GET /" + b"a" * (MAX_LINE - 4), 414),
    "header line over the limit": (HEALTH + b"X-Pad: " + b"a" * (MAX_LINE - 6), 431),
    "too many headers": (HEALTH + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS)) + b"\r\n",
                         431),
}


@pytest.mark.parametrize("request_bytes,status", FRAMING_CASES.values(), ids=FRAMING_CASES.keys())
def test_a_framing_mistake_answers_4xx_and_closes(site, request_bytes, status):
    port, handled = site
    (answered, headers, body), closed = _exchange(port, request_bytes)
    assert answered == status
    assert headers["connection"] == "close"
    assert json.loads(body)["status"] == "error"
    assert closed
    assert handled == []
    _still_served(port)


def test_a_connection_over_the_handler_cap_is_answered_503_without_a_thread(fed, monkeypatch):
    monkeypatch.setattr(SiteServer, "max_handlers", 2)
    listener = serve_site(fed.runtimes["prime"])
    clients = []
    try:
        for _ in range(2):  # idle keep-alive connections, each holding a handler thread
            clients.append(_Client(listener.port))
            clients[-1].sock.sendall(HEALTH + b"\r\n")
            assert clients[-1].response()[0] == 200
        before = set(threading.enumerate())
        clients.append(_Client(listener.port))
        status, headers, body = clients[-1].response()
        assert (status, headers["connection"]) == (503, "close")
        assert json.loads(body)["result"]["code"] == "SERVER_BUSY"
        assert clients[-1].at_eof()
        assert set(threading.enumerate()) <= before
        clients[0].close()  # frees its handler's slot once the handler sees EOF
        deadline = time.monotonic() + TIMEOUT
        while True:
            (status, _, _), _ = _exchange(listener.port, HEALTH + b"Connection: close\r\n\r\n")
            if status == 200 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert status == 200
    finally:
        for client in clients:
            client.close()
        listener.close()


def test_a_leading_double_slash_is_never_read_as_a_network_location(site):
    port, handled = site
    (status, _, _), _ = _exchange(
        port, b"GET //tenant1.sim/v3/security/healthcheck HTTP/1.1\r\nHost: tenant1.sim\r\n"
              b"Connection: close\r\n\r\n")
    assert status == 404
    assert handled[0][1] == "/tenant1.sim/v3/security/healthcheck"


def test_a_header_value_carrying_a_line_break_is_never_sent():
    with pytest.raises(ValueError):
        encode_request("GET", "/", {"X-Tapis-User": "bob\r\nX-Tapis-Tenant: admin"})


@pytest.mark.parametrize("target", ["/v3/a b", "/v3/a\r\nX-Tapis-User: bob", "/v3/a\n"])
def test_a_request_target_carrying_a_space_or_line_break_is_never_sent(target):
    with pytest.raises(ValueError):
        encode_request("GET", target, {"Host": "tenant1.sim"})


def test_a_closed_site_answers_nothing_on_a_connection_it_accepted_before():
    federation = build_federation(two_site_topology())
    try:
        client = _Client(federation.ports["prime"])
        try:
            client.sock.sendall(HEALTH + b"\r\n")
            assert client.response()[0] == 200
            federation.handles["prime"].close()
            client.sock.sendall(HEALTH + b"\r\n")
            assert client.at_eof()
        finally:
            client.close()
    finally:
        federation.close()


def test_a_silent_connection_is_closed_quietly_after_the_idle_timeout(site, monkeypatch, capfd):
    port, handled = site
    monkeypatch.setattr(_SiteHTTPHandler, "timeout", 0.2)
    before = set(threading.enumerate())
    clients = [_Client(port) for _ in range(5)]
    try:
        for client in clients:
            client.sock.sendall(LOGIN + b"Content-Length: 10\r\n\r\n{}")
        # The clients stay open: only the timeout can end their handler threads.
        deadline = time.monotonic() + 3
        while [t for t in threading.enumerate() if t not in before and t.is_alive()]:
            assert time.monotonic() < deadline, "handler threads still held"
            time.sleep(0.05)
        assert all(client.at_eof() for client in clients)
    finally:
        for client in clients:
            client.close()
    assert handled == []
    assert "Traceback" not in capfd.readouterr().err
    _still_served(port)


def test_eof_before_the_body_is_complete_closes_without_dispatching(site):
    port, handled = site
    client = _Client(port)
    try:
        client.sock.sendall(LOGIN + b"Content-Length: 10\r\n\r\n{}")
        client.sock.shutdown(socket.SHUT_WR)
        assert client.at_eof()
    finally:
        client.close()
    assert handled == []
    _still_served(port)


def test_two_pipelined_requests_are_answered_in_order(site):
    port, handled = site
    client = _Client(port)
    try:
        client.sock.sendall(HEALTH + b"\r\n"
                            + b"GET /v3/security/nothing HTTP/1.1\r\nHost: tenant1.sim\r\n\r\n")
        assert client.response()[0] == 200
        assert client.response()[0] == 404
    finally:
        client.close()
    assert [target for _, target, _ in handled] == ["/v3/security/healthcheck",
                                                    "/v3/security/nothing"]


def test_a_body_split_across_two_sends_is_read_whole(site):
    port, handled = site
    body = json.dumps({"tenant": "tenant1", "username": "bob", "password": "pw-bob"}).encode()
    client = _Client(port)
    try:
        client.sock.sendall(LOGIN + b"Content-Length: %d\r\n\r\n" % len(body) + body[:7])
        client.sock.sendall(body[7:])
        status, headers, _ = client.response()
        assert status == 201
        assert "connection" not in headers  # the connection stays open for the next request
        client.sock.sendall(HEALTH + b"\r\n")
        assert client.response()[0] == 200
    finally:
        client.close()
    assert handled[0] == ("POST", "/v3/authenticator/tokens", body)


@pytest.mark.parametrize("connection,kept", [(b"", False), (b"Connection: keep-alive\r\n", True)])
def test_http_1_0_closes_unless_the_request_asks_for_keep_alive(site, connection, kept):
    port, _ = site
    client = _Client(port)
    try:
        client.sock.sendall(b"GET /v3/security/healthcheck HTTP/1.0\r\nHost: tenant1.sim\r\n"
                            + connection + b"\r\n")
        status, headers, _ = client.response()
        assert status == 200
        assert ("connection" not in headers) is kept
        if kept:
            client.sock.sendall(HEALTH + b"\r\n")
            assert client.response()[0] == 200
        else:
            assert client.at_eof()
    finally:
        client.close()


def test_a_stdlib_client_makes_three_keep_alive_requests_on_one_connection(site):
    port, handled = site
    conn = HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        sockets = set()
        for _ in range(3):
            conn.request("GET", "/v3/security/healthcheck", headers={"Host": "tenant1.sim"})
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["result"]["siteId"] == "prime"
            assert response.getheader("Server") is None and response.getheader("Date") is None
            sockets.add(conn.sock)
        assert len(sockets) == 1 and None not in sockets
    finally:
        conn.close()
    assert len(handled) == 3
