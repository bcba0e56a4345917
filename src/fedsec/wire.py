"""Minimal HTTP request/response plumbing shared by all service bindings.

Every response body is one envelope: ``{status, message, result, version}``.
Errors carry a machine-readable ``result.code`` (and ``result.rule`` for
request-validation rejections) so clients never parse prose.

The HTTP/1.1 framing both directions share lives here too: one reader for
a message head (start line and header fields, ISO-8859-1 as the standard
library decodes them), one ``Content-Length`` check, and one encoder that
writes a whole request or response as a single ``bytes`` object. A head
that breaks the framing rules raises ``FramingError`` with the status that
answers it.
"""

from __future__ import annotations

import base64
import json
import math
import re
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

API_VERSION = "1.0"

MAX_LINE = 65536          # bytes in a start line or header line
MAX_HEADERS = 100         # header fields in one head
MAX_BODY = 64 * 1024 * 1024  # bytes a Content-Length may announce

_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


class BadRequestBody(Exception):
    pass


class FramingError(Exception):
    """A message head or length that breaks the framing; ``status`` answers it."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


def read_line(rfile, too_long: int = 431) -> str:
    """One CRLF- or LF-terminated line without its ending, "" at EOF; a line
    over ``MAX_LINE`` bytes raises ``FramingError(too_long)``."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(too_long, "LINE_TOO_LONG", f"line longer than {MAX_LINE} bytes")
    return line.decode("iso-8859-1").rstrip("\r\n")


def read_headers(rfile) -> dict:
    """The header fields up to the blank line, keyed by lower-cased name."""
    headers = {}
    while True:
        line = read_line(rfile)
        if not line:
            return headers
        name, colon, value = line.partition(":")
        if not colon or not _TOKEN.fullmatch(name):
            raise FramingError(400, "BAD_REQUEST", f"malformed header line {line[:80]!r}")
        name = name.lower()
        if name in headers:
            raise FramingError(400, "BAD_REQUEST", f"repeated header {name!r}")
        if len(headers) == MAX_HEADERS:
            raise FramingError(431, "TOO_MANY_HEADERS", f"more than {MAX_HEADERS} headers")
        headers[name] = value.strip(" \t")


def content_length(headers: dict):
    """The body length the headers announce, None when they announce none.
    Any ``Transfer-Encoding`` is refused: every message here is length-framed."""
    if "transfer-encoding" in headers:
        raise FramingError(400, "BAD_REQUEST", "Transfer-Encoding is not supported")
    value = headers.get("content-length")
    if value is None:
        return None
    if not (value.isdigit() and value.isascii()):
        raise FramingError(400, "BAD_REQUEST", f"malformed Content-Length {value[:80]!r}")
    length = int(value)
    if length > MAX_BODY:
        raise FramingError(413, "BODY_TOO_LARGE", f"body longer than {MAX_BODY} bytes")
    return length


def _message(start_line: str, headers: dict, body: bytes) -> bytes:
    head = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    if head.count("\n") != len(headers) or head.count("\r") != len(headers):
        raise ValueError("a header name or value contains CR or LF")
    return f"{start_line}\r\n{head}\r\n".encode("iso-8859-1") + body


def unsafe_target(target: str) -> bool:
    """True when ``target`` cannot go on a request line: it holds a space, CR or LF."""
    return any(char in target for char in " \r\n")


def encode_request(method: str, target: str, headers: dict, body=None) -> bytes:
    """A whole HTTP/1.1 request; a body adds its ``Content-Length``."""
    if unsafe_target(target):
        raise ValueError("a request target contains a space, CR or LF")
    if body is not None:
        headers = {**headers, "Content-Length": len(body)}
    return _message(f"{method} {target} HTTP/1.1", headers, body or b"")


def encode_response(status: int, headers: dict, body: bytes) -> bytes:
    """A whole HTTP/1.1 response; ``headers`` must carry its ``Content-Length``."""
    return _message(f"HTTP/1.1 {status} {_REASONS.get(status, '')}", headers, body)


def b64(text) -> bytes:
    """Field converter: base64 text to bytes, rejecting non-alphabet characters."""
    return base64.b64decode(text, validate=True)


def seconds(value) -> float:
    """Field converter: a JSON number of seconds, finite and greater than 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("must be a number of seconds")
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if not (math.isfinite(value) and value > 0):
        raise ValueError("must be a finite number of seconds greater than 0")
    return value


@dataclass
class Request:
    method: str
    path: str
    headers: dict
    body: bytes = b""
    host: str = ""
    query: dict = field(default_factory=dict)
    target: str = ""  # as received, so a forwarded hop relays it unchanged

    @classmethod
    def from_wire(cls, method, target, headers, body, host="") -> "Request":
        parts = urlsplit(target)
        query = {k: v[0] for k, v in parse_qs(parts.query).items()}
        lowered = {k.lower(): v for k, v in headers.items()}
        return cls(method=method.upper(), path=parts.path, headers=lowered,
                   body=body or b"", host=host, query=query, target=target)

    def header(self, name, default=None):
        return self.headers.get(name.lower(), default)

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise BadRequestBody(f"request body is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise BadRequestBody("request body must be a JSON object")
        return doc


@dataclass
class Response:
    status: int = 200
    body: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)

    def encoded(self) -> bytes:
        return json.dumps(self.body, sort_keys=True).encode()


def envelope(status: str, message: str, result) -> dict:
    return {"status": status, "message": message, "result": result, "version": API_VERSION}


def ok(result=None, message="ok", status: int = 200) -> Response:
    return Response(status=status, body=envelope("success", message, result))


def fail(status: int, code: str, message: str, **extra) -> Response:
    result = {"code": code}
    result.update(extra)
    return Response(status=status, body=envelope("error", message, result))
