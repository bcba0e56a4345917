"""Federation topology: sites, tenants, users, link latency, host ACLs.

The topology document extends the registry configuration with simulation
concerns: per-tenant user credential tables, symmetric per-link latencies
(hub-and-spoke only: every link touches the primary), per-system host
allow-tables standing in for POSIX/S3 enforcement, and the flags enabling
unauthenticated routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TopologyInvalid
from ..registry import RegistrySnapshot, SiteConfig, TenantRecord


@dataclass
class Topology:
    sites: list
    tenants: list
    tenant_users: dict = field(default_factory=dict)       # tenant -> {user: password}
    tenant_admins: dict = field(default_factory=dict)      # tenant -> username
    link_latency_ms: dict = field(default_factory=dict)    # (a, b) sorted tuple -> one-way ms
    host_acl: dict = field(default_factory=dict)           # system -> {user: [privileges]}
    no_authn_routes: frozenset = frozenset()
    service_token_ttl: float = 4 * 3600.0
    operator_credentials: dict = field(default_factory=dict)  # site -> credential

    def __post_init__(self):
        snapshot = RegistrySnapshot(self.sites, self.tenants)  # validates site/tenant shape
        primary = snapshot.primary_site().site_id
        for (a, b) in self.link_latency_ms:
            if primary not in (a, b):
                raise TopologyInvalid(f"link {a}<->{b} bypasses the primary (hub-and-spoke only)")
            if a == b:
                raise TopologyInvalid(f"self-link {a} is meaningless")

    @classmethod
    def from_dict(cls, doc: dict) -> "Topology":
        if "schemas" in doc:
            # Dropping a custom path schema would widen its grants, so refuse it.
            raise TopologyInvalid("the 'schemas' key is not supported: files is the only path schema")
        sites = [SiteConfig.from_dict(d) for d in doc.get("sites", ())]
        tenants = []
        tenant_users = {}
        tenant_admins = {}
        for d in doc.get("tenants", ()):
            tenants.append(TenantRecord.from_dict(d))
            if d.get("users"):
                tenant_users[d["tenant_id"]] = dict(d["users"])
            if d.get("admin_user"):
                tenant_admins[d["tenant_id"]] = d["admin_user"]
        latency = {}
        for key, ms in doc.get("link_latency_ms", {}).items():
            a, _, b = key.partition(":")
            if not b:
                raise TopologyInvalid(f"latency key {key!r} must be 'siteA:siteB'")
            latency[tuple(sorted((a, b)))] = float(ms)
        return cls(
            sites=sites,
            tenants=tenants,
            tenant_users=tenant_users,
            tenant_admins=tenant_admins,
            link_latency_ms=latency,
            host_acl={s: {u: list(p) for u, p in acl.items()}
                      for s, acl in doc.get("host_acl", {}).items()},
            no_authn_routes=frozenset(doc.get("no_authn_routes", ())),
            service_token_ttl=float(doc.get("service_token_ttl_seconds", 4 * 3600)),
            operator_credentials=dict(doc.get("operator_credentials", {})),
        )

    def snapshot(self) -> RegistrySnapshot:
        return RegistrySnapshot(self.sites, self.tenants)

    def primary_site_id(self) -> str:
        return self.snapshot().primary_site().site_id

    def one_way_seconds(self, a: str, b: str) -> float:
        return self.link_latency_ms.get(tuple(sorted((a, b))), 0.0) / 1000.0

    def tenants_owned_by(self, site_id: str):
        return [t for t in self.tenants if t.owning_site == site_id]

    def host_allows(self, system_id: str, username: str, privilege: str) -> bool:
        return privilege in self.host_acl.get(system_id, {}).get(username, ())
