"""HTTP bindings: the security kernel plus the token, tenant, and
authenticator services, and the per-site runtime tying them to the router.

One ``SiteRuntime`` exists per site. It receives every inbound request,
applies the routing decision (serve locally, forward to the primary, or
reject), and hands local requests to the addressed service app. Apps mark
each route with an auth mode; ``token`` routes run the request-validation
gatekeeper first and surface rejections as 401/403 envelopes carrying the
violated rule number.

Exactly one security-kernel app runs per site; it refuses tokens from
tenants owned elsewhere (validation rule 3) before any handler runs.
"""

from __future__ import annotations

import base64
import hmac
import inspect
import re
import socketserver
import threading
import time

from .errors import NotAuthorized, SecurityError, StartupError
from .gatekeeper import (OBO_TENANT_HEADER, OBO_USER_HEADER, TOKEN_HEADER, InboundRequest,
                         validate_request)
from .identity import OPERATOR, Caller, UserIdentity
from .rbac import TENANT_ADMIN_ROLE
from .router import RouteKind, forward, route
from .secrets import SecretCategory, SecretPath, SecretValue
from .sharing import ShareGrant
from .wire import (BadRequestBody, FramingError, Request, Response, b64, content_length,
                   encode_response, fail, ok, read_headers, read_line, seconds, unsafe_target)


def rejection_response(verdict) -> Response:
    status = 401 if verdict.rule_violated == "1" else 403
    return fail(status, "REQUEST_VALIDATION_FAILED",
                f"request rejected by validation rule {verdict.rule_violated}",
                rule=verdict.rule_violated, detail=verdict.message)


def caller_from(verdict) -> Caller:
    kind = "service" if verdict.claims.account_type == "service" else "user"
    return Caller(name=verdict.claims.username, tenant=verdict.claims.tenant_id, kind=kind)


class ServiceApp:
    """Base: route table dispatch, per-route authentication, and input binding.

    A handler's parameters after ``(req, verdict)`` are its inputs: a path group,
    else a JSON body field on POST, else a query parameter. No default means
    required. A ``str``/``bool``/``list``/``dict`` annotation is a type check (a
    required ``str`` is non-empty); any other converts. A mistake answers 400."""

    name = "service"
    ROUTES = ()  # (method, pattern, auth, handler_name); auth: token|open

    def __init__(self, runtime: "SiteRuntime"):
        self.rt = runtime
        self._compiled = []
        for method, pattern, auth, handler_name in self.ROUTES:
            # {name} matches one segment; {name:path} spans segments.
            regex = re.sub(r"\{(\w+):path\}", r"(?P<\1>.+)", pattern)
            regex = re.compile("^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", regex) + "$")
            handler = getattr(self, handler_name)
            params = list(inspect.signature(handler, eval_str=True).parameters.values())[2:]
            fields = tuple((p.name, str if p.annotation is p.empty else p.annotation,
                            p.default is p.empty) for p in params)
            self._compiled.append((method, regex, auth, handler, fields))

    @staticmethod
    def _bind(req: Request, path_args: dict, fields) -> dict:
        # Every path group is a parameter, so any further one is a body or query field.
        source = path_args if len(fields) == len(path_args) else {
            **(req.json() if req.method == "POST" else req.query), **path_args}
        args = {}
        for name, kind, required in fields:
            if name not in source:
                if required:
                    raise BadRequestBody(f"missing field {name!r}")
                continue
            value = source[name]
            if kind in (str, bool, list, dict):
                if not isinstance(value, kind) or (required and value == ""):
                    empty = " non-empty" if required and kind is str else ""
                    raise BadRequestBody(f"field {name!r} must be a{empty} {kind.__name__}")
            else:
                try:
                    value = kind(value)
                except (ValueError, TypeError) as exc:
                    raise BadRequestBody(f"field {name!r}: {exc}") from exc
            args[name] = value
        return args

    def dispatch(self, req: Request) -> Response:
        for method, regex, auth, handler, fields in self._compiled:
            if req.method != method:
                continue
            match = regex.match(req.path)
            if not match:
                continue
            verdict = None
            if auth == "token":
                verdict = self.rt.validate(req, self.name)
                if not verdict.accepted:
                    return rejection_response(verdict)
            try:
                return handler(req, verdict, **self._bind(req, match.groupdict(), fields))
            except BadRequestBody as exc:
                return fail(400, "BAD_REQUEST", str(exc))
            except SecurityError as exc:
                return fail(exc.http_status, exc.code, exc.message)
        return fail(404, "NO_ROUTE", f"{self.name} has no route for {req.method} {req.path}")


class SecurityKernelApp(ServiceApp):
    name = "security-kernel"

    ROUTES = (
        ("GET", "/v3/security/healthcheck", "open", "healthcheck"),
        ("POST", "/v3/security/roles", "token", "create_role"),
        ("GET", "/v3/security/roles/hasRole", "token", "has_role"),
        ("GET", "/v3/security/roles/{name}", "token", "get_role"),
        ("DELETE", "/v3/security/roles/{name}", "token", "delete_role"),
        ("POST", "/v3/security/roles/{name}/children", "token", "add_child"),
        ("POST", "/v3/security/roles/{name}/grants", "token", "grant_role"),
        ("POST", "/v3/security/roles/{name}/revocations", "token", "revoke_role"),
        ("POST", "/v3/security/roles/{name}/permissions", "token", "grant_permission"),
        ("POST", "/v3/security/roles/{name}/permissions/remove", "token", "revoke_permission"),
        ("POST", "/v3/security/perms/isPermitted", "token", "is_permitted"),
        ("POST", "/v3/security/shares", "token", "create_share"),
        ("GET", "/v3/security/shares/isSharedWith", "token", "is_shared_with"),
        ("POST", "/v3/security/shares/revoke", "token", "revoke_share"),
        ("POST", "/v3/security/vault/secret/{category}/{tenant}/{owner}/{secret_name}", "token", "write_secret"),
        ("GET", "/v3/security/vault/secret/{category}/{tenant}/{owner}/{secret_name}", "token", "read_secret"),
        ("POST", "/v3/security/vault/servicePassword/{service}/validate", "token", "validate_password"),
        ("POST", "/v3/security/vault/export", "open", "export_vault"),
    )

    # -- roles --

    def create_role(self, req, verdict, roleName: str, owner: str = None, description: str = ""):
        user = verdict.effective_user
        role = self.rt.rbac.create_role(user.tenant, roleName, owner or user.username,
                                        description, caller=caller_from(verdict))
        return ok({"roleName": role.name, "tenant": role.tenant, "owner": role.owner},
                  message="role created", status=201)

    def get_role(self, req, verdict, name):
        role = self.rt.rbac.get_role(verdict.effective_user.tenant, name)
        return ok({"roleName": role.name, "tenant": role.tenant, "owner": role.owner,
                   "description": role.description, "children": sorted(role.children)})

    def delete_role(self, req, verdict, name):
        self.rt.rbac.delete_role(verdict.effective_user.tenant, name, caller=caller_from(verdict))
        return ok(message="role deleted")

    def add_child(self, req, verdict, name, childRoleName: str):
        self.rt.rbac.add_child_role(verdict.effective_user.tenant, name, childRoleName,
                                    caller=caller_from(verdict))
        return ok(message="child role attached")

    def grant_role(self, req, verdict, name, username: str):
        user = verdict.effective_user
        self.rt.rbac.grant_role(UserIdentity(username, user.tenant), name,
                                grantor=user.username, caller=caller_from(verdict))
        return ok(message="role granted")

    def revoke_role(self, req, verdict, name, username: str):
        self.rt.rbac.revoke_role(UserIdentity(username, verdict.effective_user.tenant), name,
                                 caller=caller_from(verdict))
        return ok(message="role revoked")

    def grant_permission(self, req, verdict, name, permission: str):
        self.rt.rbac.grant_permission(name, verdict.effective_user.tenant, permission,
                                      caller=caller_from(verdict))
        return ok(message="permission granted")

    def revoke_permission(self, req, verdict, name, permission: str):
        self.rt.rbac.revoke_permission(name, verdict.effective_user.tenant, permission,
                                       caller=caller_from(verdict))
        return ok(message="permission revoked")

    def _queried_subject(self, verdict, tenant, username):
        """The subject asked about, the caller by default; only services and admins name others."""
        user = verdict.effective_user
        tenant, username = tenant or user.tenant, username or user.username
        if verdict.claims.account_type != "service" and (user.tenant != tenant or (
                user.username != username and not self.rt.rbac.has_role(user, TENANT_ADMIN_ROLE))):
            raise NotAuthorized("may not query other users")
        return tenant, username

    def has_role(self, req, verdict, roleName: str, tenant: str = None, username: str = None):
        tenant, username = self._queried_subject(verdict, tenant, username)
        return ok({"hasRole": self.rt.rbac.subject_has_role(tenant, username, roleName)})

    def is_permitted(self, req, verdict, permission: str, tenant: str = None, username: str = None):
        tenant, username = self._queried_subject(verdict, tenant, username)
        return ok({"isPermitted": self.rt.rbac.subject_is_permitted(tenant, username, permission)})

    # -- shares --

    def create_share(self, req, verdict, grantee: str, resourceType: str, resourceId: str,
                     privilege: str):
        user = verdict.effective_user
        grant = ShareGrant(user.tenant, user.username, grantee, resourceType, resourceId, privilege)
        self.rt.sharing.create_share(grant, Caller(user.username, user.tenant, "user"))
        return ok(message="share created", status=201)

    def is_shared_with(self, req, verdict, resourceType: str, resourceId: str, privilege: str,
                       username: str = None):
        tenant, username = self._queried_subject(verdict, None, username)
        shared, grantor = self.rt.sharing.is_shared_with(
            tenant, resourceType, resourceId, username, privilege)
        return ok({"shared": shared, "grantor": grantor})

    def revoke_share(self, req, verdict, grantee: str, resourceType: str, resourceId: str,
                     privilege: str, grantor: str = None):
        user = verdict.effective_user
        grant = ShareGrant(user.tenant, grantor or user.username, grantee, resourceType,
                           resourceId, privilege)
        is_admin = lambda c: self.rt.rbac.has_role(UserIdentity(c.name, c.tenant), TENANT_ADMIN_ROLE)
        self.rt.sharing.revoke_share(grant, Caller(user.username, user.tenant, "user"),
                                     is_tenant_admin=is_admin)
        return ok(message="share revoked")

    # -- vault --

    def write_secret(self, req, verdict, category: SecretCategory, tenant, owner, secret_name,
                     payloadB64: b64, metadata: dict = None):
        version = self.rt.secrets.write_secret(
            SecretPath(tenant, category, owner, secret_name),
            SecretValue(payloadB64, metadata=metadata or {}), caller_from(verdict))
        return ok({"version": version}, message="secret written", status=201)

    def read_secret(self, req, verdict, category: SecretCategory, tenant, owner, secret_name,
                    version: int = None):
        path = SecretPath(tenant, category, owner, secret_name)
        value = self.rt.secrets.read_secret(path, caller_from(verdict), version=version)
        return ok({"payloadB64": base64.b64encode(value.payload).decode(),
                   "metadata": value.metadata})

    def validate_password(self, req, verdict, service, passwordB64: b64):
        return ok({"valid": self.rt.secrets.validate_service_password(
            service, self.rt.site_id, passwordB64, caller_from(verdict))})

    def export_vault(self, req, verdict, scope: str = "site", scopeId: str = None):
        if not self.rt.check_operator(req.header("X-Operator-Credential", "")):
            return fail(403, "NOT_AUTHORIZED", "operator credential required")
        archive = self.rt.secrets.export_backup(scope, scopeId or self.rt.site_id, OPERATOR)
        return ok({"archiveB64": base64.b64encode(archive).decode()})

    # -- health --

    def healthcheck(self, req, verdict):
        components = {"secrets": "ok" if self.rt.secrets.ping() else "down"}
        status = "ready" if components["secrets"] == "ok" else "not-ready"
        age = self.rt.registry.age()
        if age is not None:
            components["registrySnapshotAgeSeconds"] = round(age, 3)
            if age > 2 * self.rt.registry.refresh_seconds:
                status = "degraded" if status == "ready" else status
        return ok({"siteId": self.rt.site_id, "status": status, "components": components})


class TokensApp(ServiceApp):
    name = "tokens"

    ROUTES = (
        ("POST", "/v3/tokens", "token", "issue_user"),
        ("POST", "/v3/tokens/service", "open", "issue_service"),
        ("POST", "/v3/tokens/refresh", "open", "refresh"),
    )

    def issue_user(self, req, verdict, tenant: str, username: str, ttl: seconds = None):
        token = self.rt.forge.issue_user_token(caller_from(verdict), tenant, username, ttl=ttl)
        return ok({"accessToken": token}, message="token issued", status=201)

    def issue_service(self, req, verdict, targetSites: list = None):
        header = req.header("Authorization", "")
        if not header.startswith("Basic "):
            return fail(401, "BAD_CREDENTIALS", "basic authentication required")
        try:
            service_name, _, password = b64(header[len("Basic "):]).decode().partition(":")
        except ValueError:  # bad base64, non-ASCII text or undecodable bytes
            return fail(401, "BAD_CREDENTIALS", "undecodable basic credentials")
        targets = [self.rt.site_id] if targetSites is None else targetSites
        pairs = self.rt.forge.issue_service_tokens(
            service_name, password.encode(), self.rt.site_id, targets)
        return ok({site: {"accessToken": p.access, "refreshToken": p.refresh}
                   for site, p in pairs.items()}, message="service tokens issued", status=201)

    def refresh(self, req, verdict, refreshToken: str):
        pair = self.rt.forge.refresh(refreshToken)
        return ok({"accessToken": pair.access, "refreshToken": pair.refresh},
                  message="token refreshed", status=201)


class TenantsApp(ServiceApp):
    """Unauthenticated key distribution; deployed only at the primary."""

    name = "tenants"

    ROUTES = (
        ("GET", "/v3/tenants", "open", "list_tenants"),
        ("GET", "/v3/tenants/{tenant_id}", "open", "get_tenant"),
    )

    def list_tenants(self, req, verdict):
        return ok([t.to_dict() for t in self.rt.registry.list_tenants()])

    def get_tenant(self, req, verdict, tenant_id):
        return ok(self.rt.registry.get_tenant(tenant_id).to_dict())


class AuthenticatorApp(ServiceApp):
    """Static credential table standing in for an identity provider."""

    name = "authenticator"

    ROUTES = (
        ("POST", "/v3/authenticator/tokens", "open", "login"),
    )

    def login(self, req, verdict, tenant: str, username: str, password: str):
        expected = self.rt.user_credentials.get(tenant, {}).get(username)
        if expected is None or not hmac.compare_digest(  # a lone surrogate must not raise
                expected.encode(), password.encode(errors="surrogatepass")):
            return fail(401, "BAD_CREDENTIALS", "unknown user or wrong password")
        requester = Caller(name="authenticator", tenant=self.rt.config.admin_tenant, kind="service")
        token = self.rt.forge.issue_user_token(requester, tenant, username)
        return ok({"accessToken": token}, message="authenticated", status=201)


APP_CLASSES = {
    cls.name: cls
    for cls in (SecurityKernelApp, TokensApp, TenantsApp, AuthenticatorApp)
}


class SiteRuntime:
    """Everything one site needs to answer requests."""

    def __init__(self, site_config, registry, *, rbac, secrets, sharing, forge=None,
                 clock=time.time, operator_credential="", user_credentials=None,
                 forward_transport=None, service_request_fn=None, extra_apps=()):
        self.config = site_config
        self.site_id = site_config.site_id
        self.registry = registry
        self.rbac = rbac
        self.secrets = secrets
        self.sharing = sharing
        self.forge = forge
        self.clock = clock
        self.operator_credential = operator_credential
        self.user_credentials = user_credentials or {}
        self.forward_transport = forward_transport
        self.service_request_fn = service_request_fn
        self.apps = {}
        for name, cls in APP_CLASSES.items():
            if name in site_config.services:
                self.apps[name] = cls(self)
        for app_cls in extra_apps:
            if app_cls.name in site_config.services:
                self.apps[app_cls.name] = app_cls(self)

    # -- helpers used by apps --

    def validate(self, req: Request, service_name: str):
        inbound = InboundRequest(
            token=req.header(TOKEN_HEADER, ""),
            target_service=service_name,
            receiving_site=self.site_id,
            obo_user=req.header(OBO_USER_HEADER),
            obo_tenant=req.header(OBO_TENANT_HEADER),
        )
        return validate_request(inbound, self.registry, clock=self.clock)

    def check_operator(self, credential: str) -> bool:
        return bool(self.operator_credential) and hmac.compare_digest(
            credential.encode(), self.operator_credential.encode())

    def service_request(self, from_service, method, tenant, path, obo=None,
                        json_body=None, query=None, headers=None):
        """Outbound service-to-service call; wired in by the federation."""
        if self.service_request_fn is None:
            return None
        return self.service_request_fn(self.site_id, from_service, method, tenant, path,
                                       obo=obo, json_body=json_body, query=query,
                                       headers=headers)

    # -- request entry point --

    def handle(self, method, host, target, headers, body) -> Response:
        req = Request.from_wire(method, target, headers, body, host=host)
        decision = route(host, req.path, self.registry, at_site=self.site_id)
        if decision.kind is RouteKind.REJECT:
            return fail(404, "ROUTE_REJECTED", decision.reason or "rejected")
        if decision.kind is RouteKind.FORWARD_TO_PRIMARY:
            if unsafe_target(target):
                return fail(400, "BAD_REQUEST", "a request target contains a space, CR or LF")
            if self.forward_transport is None:
                return fail(502, "PRIMARY_UNREACHABLE", "no route to the primary site")
            try:
                return forward(req, decision, self.forward_transport)
            except SecurityError as exc:
                return fail(exc.http_status, exc.code, exc.message)
        app = self.apps.get(decision.service)
        if app is None:
            return fail(503, "STARTUP_ERROR", f"{decision.service} is not running at {self.site_id}")
        return app.dispatch(req)


_METHODS = frozenset({"GET", "POST", "PUT", "DELETE"})


class _SiteHTTPHandler(socketserver.StreamRequestHandler):
    """Serves the requests of one keep-alive connection in order, and writes
    each response with one ``sendall``. A framing mistake answers 4xx (501
    for an unknown method) and closes the connection; EOF or ``timeout`` before
    a request is whole, or a request after the site closed, closes it unanswered."""

    # Nagle + delayed ACK stalls small request/response pairs by ~40ms on
    # loopback, swamping every latency the harness measures.
    disable_nagle_algorithm = True
    timeout = 60.0  # seconds a read may wait; then the connection closes quietly

    def handle(self):
        while True:
            try:
                request = self._read_request()
            except FramingError as exc:
                self._respond(fail(exc.status, exc.code, str(exc)), close=True)
                return
            except TimeoutError:
                return
            if request is None or self.server.socket.fileno() < 0:
                return
            method, target, headers, body, close = request
            host = headers.get("host", "").split(":")[0]
            try:
                response = self.server.runtime.handle(method, host, target, headers, body)
            except Exception as exc:  # last-resort guard; handlers map their own errors
                response = fail(500, "INTERNAL_ERROR", f"{type(exc).__name__}: {exc}")
            self._respond(response, close)
            if close:
                return

    def _read_request(self):
        """The next request and whether to close after it; None at EOF."""
        line = read_line(self.rfile, too_long=414)
        if not line:
            return None
        parts = line.split(" ")
        if len(parts) != 3 or not parts[1] or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise FramingError(400, "BAD_REQUEST", f"malformed request line {line[:80]!r}")
        method, target, version = parts
        if method not in _METHODS:
            raise FramingError(501, "NOT_IMPLEMENTED", f"unsupported method {method[:80]!r}")
        if target.startswith("//"):  # never read as a network location
            target = "/" + target.lstrip("/")
        headers = read_headers(self.rfile)
        length = content_length(headers) or 0
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            return None
        connection = headers.get("connection", "").lower()
        close = connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")
        return method, target, headers, body, close

    def _respond(self, response: Response, close: bool):
        self.wfile.write(_http_response(response, close))


def _http_response(response: Response, close: bool) -> bytes:
    payload = response.encoded()
    headers = {"Content-Type": "application/json", "Content-Length": len(payload), **response.headers}
    if close:
        headers["Connection"] = "close"
    return encode_response(response.status, headers, payload)


class SiteServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Default backlog (5) overflows when a load run's virtual users connect
    # at once, surfacing as ~1s SYN-retransmit latency spikes.
    request_queue_size = 128
    # Live handler threads, one per open connection. A connection over the cap
    # is answered 503 and closed without a thread.
    max_handlers = 256

    def __init__(self, *args, **kwargs):
        self._handler_slots = threading.BoundedSemaphore(self.max_handlers)
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        if not self._handler_slots.acquire(blocking=False):
            self._refuse(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._handler_slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._handler_slots.release()

    def _refuse(self, request):
        busy = fail(503, "SERVER_BUSY", f"more than {self.max_handlers} open connections")
        try:
            request.sendall(_http_response(busy, close=True))
        except OSError:
            pass  # the client has gone already
        self.shutdown_request(request)


class SiteHandle:
    def __init__(self, runtime: SiteRuntime, server: SiteServer, thread: threading.Thread):
        self.runtime = runtime
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def serve_site(runtime: SiteRuntime, host="127.0.0.1", port=0) -> SiteHandle:
    """Bind the site's listener and serve it on a daemon thread."""
    if runtime.secrets is not None and not runtime.secrets.ping():
        raise StartupError(f"secrets store unreachable for site {runtime.site_id}")
    server = SiteServer((host, port), _SiteHTTPHandler)
    server.runtime = runtime
    thread = threading.Thread(target=server.serve_forever, name=f"site-{runtime.site_id}", daemon=True)
    thread.start()
    return SiteHandle(runtime, server, thread)
