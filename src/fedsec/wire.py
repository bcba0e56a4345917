"""Minimal HTTP request/response plumbing shared by all service bindings.

Every response body is one envelope: ``{status, message, result, version}``.
Errors carry a machine-readable ``result.code`` (and ``result.rule`` for
request-validation rejections) so clients never parse prose.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

API_VERSION = "1.0"


class BadRequestBody(Exception):
    pass


def b64(text) -> bytes:
    """Field converter: base64 text to bytes, rejecting non-alphabet characters."""
    return base64.b64decode(text, validate=True)


@dataclass
class Request:
    method: str
    path: str
    headers: dict
    body: bytes = b""
    host: str = ""
    query: dict = field(default_factory=dict)

    @classmethod
    def from_wire(cls, method, target, headers, body, host="") -> "Request":
        parts = urlsplit(target)
        query = {k: v[0] for k, v in parse_qs(parts.query).items()}
        lowered = {k.lower(): v for k, v in headers.items()}
        return cls(method=method.upper(), path=parts.path, headers=lowered,
                   body=body or b"", host=host, query=query)

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
