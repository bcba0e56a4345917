"""Build and drive a running multi-site federation on localhost.

Each site gets its own secrets store, RBAC store, sharing store, token
forge, and HTTP listener; DNS is a host table mapping every tenant's base
URL host to the owning site's listener. Site bring-up follows the
deployment order: secrets first, bootstrap, registry (primary) or key
handoff (associates), kernel, tokens, authenticator, then stubs.

The federation owns a transcript recorder shared by every service and a
per-service token cache (one access/refresh pair per target site,
refreshed near expiry).

Every simulated client call (logins, token acquire and refresh, associate
registry fetches, service-to-service hops) goes through ``request_at_site``
as plain HTTP/1.1 over a loopback socket, framed by ``fedsec.wire`` as the
site listeners frame it: each request is written with one ``sendall`` and
its response read through the same head reader, with exactly
``Content-Length`` bytes of body. There is one keep-alive connection per
site and thread, owned by the federation and closed by ``Federation.close``;
a response that announces ``Connection: close`` closes it instead. A pooled
connection that the server closed while it sat idle is reopened once; a
fresh one is never retried. An associate's forward transport relays each
request over the same connections, its target as the listener received
it, and injects the configured link latency on both legs. Every other
path and query is encoded as ``requests`` (urllib3) encoded it; see
``_request_target``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import weakref
from collections import deque
from urllib.parse import quote, urlencode

from ..errors import StartupError, TopologyInvalid
from ..gatekeeper import OBO_TENANT_HEADER, OBO_USER_HEADER, TOKEN_HEADER
from ..identity import BOOTSTRAP, Caller
from ..rbac import TOKEN_GENERATOR_ROLE, TENANT_ADMIN_ROLE, RbacService
from ..registry import CachedRegistryView, Registry, RegistrySnapshot, TenantRecord
from ..router import extract_service
from ..secrets import MemoryKvBackend, SecretCategory, SecretPath, SecretsService
from ..service import SiteRuntime, rejection_response, serve_site
from ..sharing import SharingService
from ..skadmin import BootstrapConfig, run_bootstrap
from ..tokens import TokenForge, peek_claims
from ..wire import (FramingError, Request, Response, content_length, encode_request, fail, ok,
                    read_headers, read_line)
from .stubs import STUB_APPS
from .topology import Topology

CLIENT_TIMEOUT = 60.0  # seconds a simulated client waits on a socket

# Characters urllib3 leaves unescaped in a path and in a query, besides
# the unreserved ones, which ``quote`` always keeps.
_PATH_SAFE = "!$&'()*+,;=:@/"
_QUERY_SAFE = _PATH_SAFE + "?"
_UNRESERVED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")
_ESCAPE = re.compile(r"%[0-9a-fA-F]{2}")


def _unreserved_or_escape(match) -> str:
    char = chr(int(match.group(0)[1:], 16))
    return char if char in _UNRESERVED else match.group(0)


def _percent_encode(text: str, safe: str) -> str:
    """Percent-encode ``text`` as UTF-8, passing lone surrogates through.
    Existing escapes are upper-cased. When every ``%`` starts one, they are
    kept and those of unreserved characters decoded; otherwise every ``%``
    is escaped too."""
    if "%" in text:
        text, escapes = _ESCAPE.subn(lambda m: m.group(0).upper(), text)
        if escapes == text.count("%"):
            text = _ESCAPE.sub(_unreserved_or_escape, text)
            safe += "%"
    return quote(text, safe=safe, errors="surrogatepass")


def _request_target(path: str, query=None) -> str:
    """The request target ``requests`` sent for ``path`` and ``params=query``:
    the fragment dropped, path and inline query percent-encoded, and the
    query's non-None values appended with ``urlencode``. Unlike ``requests``,
    dot segments in ``path`` are sent as given, so an id such as ``..``
    cannot re-target a hop."""
    path, _, inline = path.partition("#")[0].partition("?")
    params = ""
    if query:
        params = urlencode({k: v for k, v in query.items() if v is not None}, doseq=True)
    query_text = "&".join(part for part in (_percent_encode(inline, _QUERY_SAFE), params) if part)
    target = _percent_encode(path, _PATH_SAFE)
    return f"{target}?{query_text}" if query_text else target


class ClientResponse:
    """A simulated client's view of an HTTP response."""

    __slots__ = ("status_code", "headers", "content")

    def __init__(self, status_code: int, headers, content: bytes):
        self.status_code = status_code
        self.headers = headers
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


class _Connection:
    """One client connection to a site listener."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=CLIENT_TIMEOUT)
        self.rfile = self.sock.makefile("rb")

    @property
    def closed(self) -> bool:
        return self.rfile.closed

    def close(self):
        self.rfile.close()
        self.sock.close()


def _exchange(conn: _Connection, method, target, body, headers) -> ClientResponse:
    """One request and its whole response on ``conn``; closes ``conn`` on
    failure and when the response announces ``Connection: close``."""
    try:
        conn.sock.sendall(encode_request(method, target, headers, body))
        line = read_line(conn.rfile)
        if not line:
            raise ConnectionResetError("the site closed the connection before the status line")
        version, _, rest = line.partition(" ")
        status = rest[:3]
        if not (version.startswith("HTTP/1.") and status.isdigit() and status.isascii()):
            raise FramingError(502, "BAD_GATEWAY", f"malformed status line {line[:80]!r}")
        response_headers = read_headers(conn.rfile)
        length = content_length(response_headers)
        if length is None:
            raise FramingError(502, "BAD_GATEWAY", "response without Content-Length")
        content = conn.rfile.read(length)
        if len(content) < length:
            raise FramingError(502, "BAD_GATEWAY", "the site closed the connection mid-body")
    except BaseException:
        conn.close()
        raise
    if response_headers.get("connection", "").lower() == "close":
        conn.close()
    return ClientResponse(int(status), response_headers, content)


class _IdleConnections(dict):
    """One thread's idle connections by port, closed when the thread ends."""

    def __del__(self):
        for conn in self.values():
            conn.close()


class _SiteConnections:
    """Keep-alive connections to the site listeners, one per port and thread.

    A thread's idle connections are closed when it ends; ``close`` closes
    every connection still open, so none outlives the federation that
    opened it.
    """

    def __init__(self):
        self._local = threading.local()
        self._opened = weakref.WeakSet()
        self._lock = threading.Lock()

    def send(self, port, method, target, body, headers) -> ClientResponse:
        idle = getattr(self._local, "idle", None)
        if idle is None:
            idle = self._local.idle = _IdleConnections()
        conn = idle.pop(port, None)
        if conn is not None:
            try:
                response = _exchange(conn, method, target, body, headers)
            except ConnectionError:
                conn = None  # closed by the server while idle: reopen once
        if conn is None:
            conn = _Connection(port)
            with self._lock:
                self._opened.add(conn)
            response = _exchange(conn, method, target, body, headers)
        if not conn.closed:
            idle[port] = conn
        return response

    def close(self):
        with self._lock:
            opened = list(self._opened)
        for conn in opened:
            conn.close()


TRANSCRIPT_LIMIT = 10_000  # entries kept; older ones are dropped


class Transcript:
    """Thread-safe ordered record of the most recent things the federation did."""

    def __init__(self):
        self._entries = deque(maxlen=TRANSCRIPT_LIMIT)
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, actor, action, target=None, sac=False, **detail):
        with self._lock:
            # A tuple, with an empty detail as None, keeps an entry near 60% of a dict's size.
            self._entries.append((self._seq, actor, action, target, sac, detail or None))
            self._seq += 1

    def snapshot(self):
        with self._lock:
            entries = list(self._entries)
        return [{"seq": seq, "actor": actor, "action": action, "target": target, "sac": sac,
                 "detail": detail or {}} for seq, actor, action, target, sac, detail in entries]

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._seq = 0

    def find(self, action=None, actor=None):
        return [e for e in self.snapshot()
                if (action is None or e["action"] == action)
                and (actor is None or e["actor"] == actor)]


class SimSiteRuntime(SiteRuntime):
    """A site runtime carrying the simulator's hooks: the shared transcript,
    the topology's host allow-table and no-authn routes, and the
    ``X-Sim-Direct`` probe the validation matrix fires at each site."""

    def __init__(self, *args, transcript, host_acl_fn, no_authn_routes, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript = transcript
        self.host_acl_fn = host_acl_fn
        self.no_authn_routes = no_authn_routes

    def record(self, actor, action, target=None, sac=False, **detail):
        self.transcript.record(actor, action, target=target, sac=sac, **detail)

    def host_allows(self, system_id, username, privilege) -> bool:
        return self.host_acl_fn(system_id, username, privilege)

    def handle(self, method, host, target, headers, body) -> Response:
        if any(key.lower() == "x-sim-direct" and value for key, value in headers.items()):
            return self._direct_probe(Request.from_wire(method, target, headers, body, host=host))
        return super().handle(method, host, target, headers, body)

    def _direct_probe(self, req: Request) -> Response:
        """Validate against this site without routing."""
        service = extract_service(req.path)
        if service is None:
            return fail(404, "NO_ROUTE", "no service in path")
        verdict = self.validate(req, service)
        if not verdict.accepted:
            return rejection_response(verdict)
        return ok({"accepted": True,
                   "effectiveUser": verdict.effective_user.subject(),
                   "targetService": service})


class _TokenCache:
    """Per-service access/refresh pairs keyed by target site, each with its
    access token's ``exp``."""

    REFRESH_MARGIN = 60.0

    def __init__(self, federation, site_id, service):
        self.federation = federation
        self.site_id = site_id
        self.service = service
        self._pairs = {}
        self._lock = threading.Lock()

    def access_token(self, target_site: str) -> str:
        with self._lock:
            pair = self._pairs.get(target_site)
            if pair is not None:
                if pair["exp"] - time.time() > self.REFRESH_MARGIN:
                    return pair["access"]
                pair = self.federation._refresh_service_token(self.site_id, pair["refresh"])
            if pair is None:
                pair = self.federation._acquire_service_tokens(self.site_id, self.service, target_site)
            self._pairs[target_site] = pair
            return pair["access"]


def _token_pair(result) -> dict:
    """A pair as the tokens service returned it, with its access token's expiry."""
    access = result["accessToken"]
    return {"access": access, "refresh": result["refreshToken"], "exp": peek_claims(access).exp}


class Federation:
    def __init__(self, topology: Topology):
        self.topo = topology
        self.transcript = Transcript()
        self.primary_id = topology.primary_site_id()
        self.secrets = {}        # site -> SecretsService
        self.reports = {}        # site -> BootstrapReport
        self.runtimes = {}       # site -> SiteRuntime
        self.handles = {}        # site -> SiteHandle
        self.dns = {}            # host -> site_id
        self.ports = {}          # site -> port
        self.registry = None     # authoritative (primary) registry
        self._token_caches = {}
        self._connections = _SiteConnections()
        self._started = False

    # ------------------------------------------------------------------
    # bring-up

    def start(self) -> "Federation":
        if self._started:
            return self
        self._bootstrap_sites()
        self._build_primary_registry()
        for site in self._sites_in_start_order():
            self._start_site(site)
        self._provision_authorization()
        self._started = True
        return self

    def _sites_in_start_order(self):
        ordered = [s for s in self.topo.sites if s.is_primary]
        ordered += [s for s in self.topo.sites if not s.is_primary]
        return ordered

    def _bootstrap_sites(self):
        """Step 1-3 of the deployment sequence for every site."""
        for site in self.topo.sites:
            owned = [t.tenant_id for t in self.topo.tenants_owned_by(site.site_id)]
            config = BootstrapConfig(
                site_id=site.site_id,
                is_primary=site.is_primary,
                admin_tenant=site.admin_tenant,
                tenants=owned,
                services=sorted(site.services),
            )
            store = SecretsService(backend=MemoryKvBackend(), site_id=site.site_id,
                                   admin_tenant=site.admin_tenant)
            self.secrets[site.site_id] = store
            self.reports[site.site_id] = run_bootstrap(config, store)
            self.transcript.record(f"sk-admin@{site.site_id}", "bootstrap",
                                   created=len(self.reports[site.site_id].created))
        for site in self.topo.sites:
            if not site.is_primary:
                # Associate operators hand their admin public key to the primary.
                self.transcript.record(f"operator@{site.site_id}", "send-admin-key",
                                       target=self.primary_id)

    def _build_primary_registry(self):
        tenants = []
        for record in self.topo.tenants:
            report = self.reports[record.owning_site]
            pem = report.public_keys.get(record.tenant_id, record.public_key)
            tenants.append(TenantRecord(
                tenant_id=record.tenant_id, owning_site=record.owning_site,
                base_url=record.base_url, public_key=pem,
                token_service_url=record.token_service_url,
                is_admin_tenant=record.is_admin_tenant))
        self.registry = Registry(RegistrySnapshot(self.topo.sites, tenants))

    def _associate_registry_view(self):
        primary_admin_host = self.registry.get_tenant(
            self.registry.primary_site().admin_tenant).host

        def fetch():
            response = self.request("GET", primary_admin_host, "/v3/tenants")
            records = [TenantRecord.from_dict(d) for d in response.json()["result"]]
            return RegistrySnapshot(self.topo.sites, records)

        return CachedRegistryView(fetch)

    def _start_site(self, site):
        site_id = site.site_id
        secrets = self.secrets[site_id]
        registry = self.registry if site.is_primary else self._associate_registry_view()
        rbac = RbacService(registry=self.topo.schema_registry)
        sharing = SharingService()
        key_cache = self._tokens_startup(site, secrets)
        forge = TokenForge(
            site_id=site_id, admin_tenant=site.admin_tenant,
            private_key_provider=key_cache, rbac=rbac,
            registry=registry,
            secrets=secrets, default_ttl=self.topo.service_token_ttl)

        runtime = SimSiteRuntime(
            site, registry, rbac=rbac, secrets=secrets, sharing=sharing, forge=forge,
            operator_credential=self.topo.operator_credentials.get(site_id, f"operator-{site_id}"),
            user_credentials=self.topo.tenant_users,
            forward_transport=None if site.is_primary else self._make_forward_transport(site_id),
            service_request_fn=self._service_request, extra_apps=STUB_APPS,
            transcript=self.transcript, host_acl_fn=self.topo.host_allows,
            no_authn_routes=self.topo.no_authn_routes)

        handle = serve_site(runtime)
        self.runtimes[site_id] = runtime
        self.handles[site_id] = handle
        self.ports[site_id] = handle.port
        self.dns[site.base_host] = site_id
        for record in self.topo.tenants_owned_by(site_id):
            self.dns[record.host] = site_id
        self.transcript.record(f"site@{site_id}", "site-started", port=handle.port)

    def _tokens_startup(self, site, secrets):
        """The token service's chicken-and-egg bootstrap: the admin tenant's
        private key is injected directly; a self-signed token then stands in
        for its identity while it loads the remaining tenants' keys."""
        site_id = site.site_id
        admin = site.admin_tenant
        injected = secrets.read_secret(
            SecretPath(admin, SecretCategory.SIGNING_KEY, "sk", "keypair"), BOOTSTRAP)
        keys = {admin: json.loads(injected.payload)["private"]}
        self.transcript.record(f"tokens@{site_id}", "startup-self-signed-token", tenant=admin)
        tokens_caller = Caller(name="tokens", tenant=admin, kind="service")
        for record in self.topo.tenants_owned_by(site_id):
            if record.tenant_id == admin:
                continue
            value = secrets.read_secret(
                SecretPath(record.tenant_id, SecretCategory.SIGNING_KEY, "sk", "keypair"),
                tokens_caller)
            keys[record.tenant_id] = json.loads(value.payload)["private"]
            self.transcript.record(f"tokens@{site_id}", "startup-key-loaded",
                                   tenant=record.tenant_id)

        def provider(tenant_id):
            if tenant_id not in keys:
                from ..errors import UnknownTenant
                raise UnknownTenant(f"site {site_id} holds no key for {tenant_id!r}")
            return keys[tenant_id]

        return provider

    def _provision_authorization(self):
        """Reserved roles, token_generator grants, and user default roles."""
        from ..identity import UserIdentity

        for site in self.topo.sites:
            rbac = self.runtimes[site.site_id].rbac
            authenticator_subject = f"authenticator@{site.admin_tenant}"
            for record in self.topo.tenants_owned_by(site.site_id):
                tenant = record.tenant_id
                rbac.create_tenant_defaults(tenant)
                rbac.grant_role_to_subject(tenant, authenticator_subject,
                                           TOKEN_GENERATOR_ROLE, "bootstrap")
                admin_user = self.topo.tenant_admins.get(tenant)
                if admin_user:
                    rbac.ensure_default_role(UserIdentity(admin_user, tenant))
                    rbac.grant_role(UserIdentity(admin_user, tenant), TENANT_ADMIN_ROLE, "bootstrap")
                for username in self.topo.tenant_users.get(tenant, {}):
                    rbac.ensure_default_role(UserIdentity(username, tenant))

    def close(self):
        for handle in self.handles.values():
            handle.close()
        self._connections.close()
        self._started = False

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # transports and clients

    def _make_forward_transport(self, from_site):
        delay = self.topo.one_way_seconds(from_site, self.primary_id)

        def transport(req):
            if delay:
                time.sleep(delay)
            hop_headers = {k: v for k, v in req.headers.items()
                           if k.startswith(("x-tapis", "x-sim"))
                           or k in ("content-type", "authorization")}
            hop_headers["Host"] = req.host
            response = self._connections.send(self.ports[self.primary_id], req.method,
                                              req.target, req.body or None, hop_headers)
            if delay:
                time.sleep(delay)
            self.transcript.record(f"router@{from_site}", "forwarded-to-primary",
                                   target=req.path)
            return Response(status=response.status_code, body=response.json())

        return transport

    def request(self, method, host, path, headers=None, json_body=None,
                query=None, token=None):
        site_id = self.dns.get(host)
        if site_id is None:
            raise TopologyInvalid(f"no DNS entry for host {host!r}")
        return self.request_at_site(site_id, host, method, path, headers=headers,
                                    json_body=json_body, query=query, token=token)

    def request_at_site(self, site_id, host, method, path, headers=None, json_body=None,
                        query=None, token=None) -> ClientResponse:
        """Send to a specific site's listener regardless of DNS (misdirected
        and forwarded-equivalence probes)."""
        final_headers = {"Host": host}
        if token:
            final_headers[TOKEN_HEADER] = token
        body = None
        if json_body is not None:
            body = json.dumps(json_body, allow_nan=False).encode()
            final_headers["Content-Type"] = "application/json"
        if headers:
            final_headers.update(headers)
        return self._connections.send(self.ports[site_id], method,
                                       _request_target(path, query), body, final_headers)

    def login(self, tenant, username, password=None) -> str:
        password = password or self.topo.tenant_users.get(tenant, {}).get(username)
        host = self.registry.get_tenant(tenant).host
        response = self.request("POST", host, "/v3/authenticator/tokens",
                                json_body={"tenant": tenant, "username": username,
                                           "password": password})
        if response.status_code != 201:
            raise StartupError(f"login failed for {username}@{tenant}: {response.text}")
        return response.json()["result"]["accessToken"]

    def service_password(self, site_id, service) -> str:
        store = self.secrets[site_id]
        admin = self.registry.site(site_id).admin_tenant
        value = store.read_secret(
            SecretPath(admin, SecretCategory.SERVICE_PASSWORD, service, "password"), BOOTSTRAP)
        return value.payload.decode()

    def _admin_host(self, site_id) -> str:
        return self.registry.get_tenant(self.registry.site(site_id).admin_tenant).host

    def _acquire_service_tokens(self, site_id, service, target_site) -> dict:
        import base64
        password = self.service_password(site_id, service)
        basic = base64.b64encode(f"{service}:{password}".encode()).decode()
        response = self.request(
            "POST", self._admin_host(site_id), "/v3/tokens/service",
            headers={"Authorization": f"Basic {basic}"},
            json_body={"targetSites": [target_site]})
        if response.status_code != 201:
            raise StartupError(f"service token acquisition failed for {service}@{site_id}: "
                               f"{response.text}")
        return _token_pair(response.json()["result"][target_site])

    def _refresh_service_token(self, site_id, refresh_token):
        response = self.request("POST", self._admin_host(site_id), "/v3/tokens/refresh",
                                json_body={"refreshToken": refresh_token})
        if response.status_code != 201:
            return None
        return _token_pair(response.json()["result"])

    def service_token(self, site_id, service, target_site) -> str:
        key = (site_id, service)
        cache = self._token_caches.get(key)
        if cache is None:
            # setdefault is one atomic step: threads that race here share one cache.
            cache = self._token_caches.setdefault(key, _TokenCache(self, site_id, service))
        return cache.access_token(target_site)

    def receiving_site_for(self, tenant_id, service) -> str:
        owning = self.registry.resolve_site_for_tenant(tenant_id)
        if service in owning.services:
            return owning.site_id
        return self.primary_id

    def _service_request(self, from_site, from_service, method, tenant, path,
                         obo=None, json_body=None, query=None, headers=None):
        """A service at from_site calls another service in some tenant."""
        target_service = extract_service(path) or ""
        receiving = self.receiving_site_for(tenant, target_service)
        token = self.service_token(from_site, from_service, receiving)
        record = self.registry.get_tenant(tenant)
        final_headers = dict(headers or {})
        if obo is not None:
            final_headers[OBO_USER_HEADER] = obo.username
            final_headers[OBO_TENANT_HEADER] = obo.tenant
        self.transcript.record(
            f"{from_service}@{from_site}", "service-call",
            target=f"{target_service}@{receiving}{path}",
            sac=any(h.lower().startswith("x-tapis-sac") for h in final_headers),
            obo=obo.subject() if obo else None)
        return self.request(method, record.host, path, headers=final_headers,
                            json_body=json_body, query=query, token=token)


def build_federation(topology) -> Federation:
    """Validate a topology and return a running federation handle."""
    if isinstance(topology, dict):
        topology = Topology.from_dict(topology)
    return Federation(topology).start()
