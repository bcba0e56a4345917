"""Span recording for the traced run, installed from outside the program.

``install`` replaces public functions of each ``fedsec`` module with
wrappers that record one span per call: (id, parent id, op id, name,
start ns, end ns, note). Names that a module imports from another are
patched where they are used (``fedsec.service.route`` and
``fedsec.service.validate_request``, ``fedsec.gatekeeper.verify``,
``fedsec.rbac.parse_permission``), because patching the defining module
would not reach them.

All spans of one top-level operation share the op id that the load
generator sends in ``X-Sim-Op``. A hop to another site or service carries
the op id and the hop span's id in ``X-Sim-Op`` / ``X-Sim-Parent``; the
forward transport already passes ``X-Sim-*`` headers on, and the
service-call wrapper adds them, so the downstream ``SiteRuntime.handle``
span links back to its caller across threads.

Spans stay in memory while ``recording`` is set and are written out once
at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "note")
STUB_SERVICES = frozenset({"systems", "apps", "files", "jobs"})
SHARING_METHODS = ("create_share", "revoke_share", "list_shares", "is_shared_with",
                   "is_no_authn_shared", "resolve_sac_access")


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []
        self._ctx = threading.local()
        self._ids = itertools.count(1).__next__

    def _context(self):
        ctx = self._ctx
        if not hasattr(ctx, "stack"):
            ctx.stack, ctx.op, ctx.remote_parent = [], None, None
        return ctx

    def span(self, name, fn, args, kwargs, note=None, before=None):
        """Run ``fn`` inside a span; ``before`` may rewrite the call's arguments."""
        if not self.recording:
            return fn(*args, **kwargs)
        ctx = self._context()
        sid = self._ids()
        parent = ctx.stack[-1] if ctx.stack else ctx.remote_parent
        if before is not None:
            args, kwargs = before(sid, ctx.op, args, kwargs)
        ctx.stack.append(sid)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            ctx.stack.pop()
            self.spans.append((sid, parent, ctx.op, name, start, end,
                               note(result) if note is not None else None))

    def wrap(self, name, fn, note=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, note, before)
        return traced

    def dump(self, path):
        with open(path, "w") as out:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, out)
        count = len(self.spans)
        self.spans = []
        return count


def install(tracer: Tracer):
    """Wrap the public functions of every measured layer."""
    from fedsec import gatekeeper, rbac, registry, secrets, service, sharing, tokens, wire

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    # fedsec.service: the request entry point sets the thread's op context
    # from the X-Sim-* headers before the span opens.
    handle = service.SiteRuntime.handle

    def traced_handle(self, method, host, target, headers, body):
        if not tracer.recording:
            return handle(self, method, host, target, headers, body)
        ctx = tracer._context()
        saved = (ctx.op, ctx.remote_parent)
        ctx.op = ctx.remote_parent = None
        for key, value in headers.items():
            key = key.lower()
            if key == "x-sim-op":
                ctx.op = value or None
            elif key == "x-sim-parent" and value:
                ctx.remote_parent = int(value)
        try:
            return tracer.span("service.handle", handle,
                               (self, method, host, target, headers, body), {})
        finally:
            ctx.op, ctx.remote_parent = saved

    service.SiteRuntime.handle = traced_handle

    dispatch = service.ServiceApp.dispatch

    def traced_dispatch(self, req):
        name = "stubs.dispatch" if self.name in STUB_SERVICES else "service.dispatch"
        return tracer.span(name, dispatch, (self, req), {})

    service.ServiceApp.dispatch = traced_dispatch

    # fedsec.sim.federation: every service-to-service call goes through
    # SiteRuntime.service_request; the wrapper carries the op id onward.
    def hop_before(sid, op, args, kwargs):
        headers = dict(kwargs.get("headers") or {}, **{"X-Sim-Op": op or "", "X-Sim-Parent": str(sid)})
        return args, dict(kwargs, headers=headers)

    patch(service.SiteRuntime, "service_request", "federation.hop", before=hop_before)
    patch(tokens.TokenForge, "issue_service_tokens", "federation.token_acquire")
    patch(tokens.TokenForge, "refresh", "federation.token_acquire")

    # fedsec.router, as imported by fedsec.service.
    patch(service, "route", "router.route")

    def forward_before(sid, op, args, kwargs):
        args[0].headers["x-sim-parent"] = str(sid)
        return args, kwargs

    patch(service, "forward", "router.forward", before=forward_before)

    # fedsec.gatekeeper and fedsec.tokens.
    patch(service, "validate_request", "gatekeeper.validate",
          note=lambda verdict: 0 if verdict is not None and verdict.accepted else 1)
    patch(gatekeeper, "verify", "tokens.verify")
    patch(tokens, "encode_token", "tokens.sign")

    # fedsec.rbac and fedsec.permissions, as imported by fedsec.rbac.
    patch(rbac.RbacService, "subject_is_permitted", "rbac.is_permitted")
    patch(rbac.RbacService, "grant_permission", "rbac.write")
    patch(rbac.RbacService, "revoke_permission", "rbac.write")
    patch(rbac, "parse_permission", "permissions.parse")
    patch(rbac, "implies", "permissions.implies")

    # fedsec.registry: Registry objects built, and fetches by associate caches.
    patch(registry.Registry, "__init__", "registry.view")
    view_init = registry.CachedRegistryView.__init__

    def traced_view_init(self, fetch, *args, **kwargs):
        view_init(self, tracer.wrap("registry.fetch", fetch), *args, **kwargs)

    registry.CachedRegistryView.__init__ = traced_view_init

    # fedsec.sharing and fedsec.secrets.
    for method in SHARING_METHODS:
        patch(sharing.SharingService, method, f"sharing.{method}")
    patch(secrets.SecretsService, "read_secret", "secrets.read")

    # fedsec.wire: request decoding and response encoding.
    from_wire = wire.Request.from_wire.__func__

    def traced_from_wire(cls, *args, **kwargs):
        return tracer.span("wire.decode", from_wire, (cls,) + args, kwargs)

    wire.Request.from_wire = classmethod(traced_from_wire)
    patch(wire.Request, "json", "wire.decode")
    patch(wire.Response, "encoded", "wire.encode")
